"""Bessel line spectrum, Carson-style bandwidth, class bounds, and f_th."""

import math

import numpy as np
import pytest

from csiwatch.signal_model import (
    PathParams,
    SceneGeometry,
    SinusoidProfile,
    integrate_velocity,
    modulation_index,
    squared_magnitude,
    synth_baseband,
)
from csiwatch.spectral_oracle import (
    MotionClass,
    bessel_line_spectrum,
    captured_power_fraction,
    carson_bandwidth,
    class_bandwidth_bound,
    default_n_max,
    derive_f_th,
    grid_resolved_bandwidth,
    line_mass,
)

# Bessel function reference values J_0..J_3 at argument 2 (standard tables)
J_AT_2 = [0.2239, 0.5767, 0.3528, 0.1289]


class TestBesselLineSpectrum:
    def test_zero_index_single_dc_line(self):
        sp = bessel_line_spectrum(0.0, 1.0, 0.6, amplitude=2.0)
        assert sp.amplitudes[0] == pytest.approx(2.0 * math.cos(0.6))
        assert np.all(sp.amplitudes[1:] == 0)

    def test_parity_structure(self):
        sp = bessel_line_spectrum(1.7, 0.5, 0.9)
        even = sp.amplitudes[0::2]
        odd = sp.amplitudes[1::2]
        assert np.all(even.imag == 0)
        assert np.all(odd.real == 0)

    def test_breathing_dmu_zero_dominant_line_at_2fo(self):
        # sin(0) kills the odd harmonics; the strongest nonzero-frequency
        # line lands on the second harmonic
        sp = bessel_line_spectrum(0.55, 0.25, 0.0)
        assert np.all(np.abs(sp.amplitudes[1::2]) == 0)
        nonzero_f = np.abs(sp.amplitudes[1:])
        assert np.argmax(nonzero_f) + 1 == 2
        assert sp.frequencies_hz[2] == pytest.approx(0.5)

    def test_reference_values_at_beta_2(self):
        sp = bessel_line_spectrum(2.0, 1.0, math.pi / 4)
        scale = math.cos(math.pi / 4)
        for n, j_ref in enumerate(J_AT_2):
            assert abs(sp.amplitudes[n]) == pytest.approx(j_ref * scale, abs=5e-5)

    def test_frequencies_are_harmonics(self):
        sp = bessel_line_spectrum(3.3, 0.7, 1.0)
        np.testing.assert_allclose(
            sp.frequencies_hz, np.arange(sp.n_lines) * 0.7, rtol=1e-15
        )

    def test_truncation_mass_invariant(self):
        for bp in [0.0, 0.3, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0]:
            assert line_mass(bp, default_n_max(bp)) >= 0.999

    def test_undersized_n_max_rejected(self):
        with pytest.raises(ValueError, match="line mass"):
            bessel_line_spectrum(8.0, 1.0, 0.0, n_max=6)

    def test_parity_power_selection(self):
        # sin(0) is exactly zero; cos(pi/2) only to float precision, so the
        # even-harmonic bound is relative
        sp0 = bessel_line_spectrum(2.0, 1.0, 0.0)
        p0 = sp0.power()
        assert p0[1::2].sum() == 0.0
        sp90 = bessel_line_spectrum(2.0, 1.0, math.pi / 2)
        p90 = sp90.power()
        assert p90[2::2].sum() < 1e-6 * p90.sum()


class TestCarsonBandwidth:
    def test_breathing_branch(self):
        assert carson_bandwidth(0.55, 0.25) == pytest.approx(0.5)

    def test_branch_boundary_agrees(self):
        assert carson_bandwidth(1.0, 1.0) == pytest.approx(2.0)

    def test_seizure_lower_bound_9p9(self):
        g = SceneGeometry(wavelength_m=0.0572, psi=1.0)
        bp = modulation_index(g, 0.48, 1.5)
        assert bp == pytest.approx(5.594, abs=0.01)
        assert carson_bandwidth(bp, 1.5) == pytest.approx(9.9, abs=0.05)

    def test_energy_capture_both_branches(self):
        # >= 98% of the non-DC line mass inside the grid-resolved bandwidth,
        # for any phase offset, both branches
        for bp in [0.05, 0.3, 0.9, 0.99, 1.0, 1.5, 2.9, 4.99, 7.995, 10.0]:
            for dmu in np.linspace(0.0, math.pi / 2, 7):
                sp = bessel_line_spectrum(bp, 1.0, dmu)
                bw = carson_bandwidth(bp, 1.0)
                assert captured_power_fraction(sp, bw) >= 0.98, (bp, dmu)

    def test_grid_resolution_of_edge(self):
        # edge between harmonics resolves up; edge on a harmonic stays
        assert grid_resolved_bandwidth(5.99, 1.0) == pytest.approx(6.0)
        assert grid_resolved_bandwidth(6.0, 1.0) == pytest.approx(6.0)
        assert grid_resolved_bandwidth(2.5, 0.5) == pytest.approx(2.5)


class TestClassBounds:
    def test_table_at_psi_1(self):
        g = SceneGeometry()  # wavelength 5.7225 cm, psi 1
        bw_sz = class_bandwidth_bound(MotionClass.SEIZURE, g)
        bw_nm = class_bandwidth_bound(MotionClass.NORMAL_EVENT, g)
        assert 9.8 <= bw_sz <= 10.0
        assert 7.7 <= bw_nm <= 7.9
        assert class_bandwidth_bound(MotionClass.BREATHING, g) == pytest.approx(0.6)

    def test_config_c2_psi_1p4(self):
        g = SceneGeometry(psi=1.4)
        assert class_bandwidth_bound(MotionClass.SEIZURE, g) == pytest.approx(13.23, abs=0.05)
        assert class_bandwidth_bound(MotionClass.NORMAL_EVENT, g) == pytest.approx(
            10.06, abs=0.05
        )

    def test_psi_zero_reduces_to_f_o(self):
        g = SceneGeometry(psi=0.0)
        assert class_bandwidth_bound(MotionClass.SEIZURE, g) == pytest.approx(1.5)
        assert class_bandwidth_bound(MotionClass.NORMAL_EVENT, g) == pytest.approx(2.0)


class TestDeriveFth:
    @pytest.mark.parametrize(
        "psi,expected,tol",
        [
            (1.0, 8.85, 0.1),
            (1.4, 11.64, 0.15),
            (0.7, 6.69, 0.15),
            (1.44, 11.94, 0.15),
            (1.61, 13.15, 0.15),
        ],
    )
    def test_reference_thresholds(self, psi, expected, tol):
        assert derive_f_th(SceneGeometry(psi=psi)) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize(
        "psi,f_th",
        [
            (1.0, 8.82732634338139),
            (1.4, 11.658256880733944),
            (0.7, 6.704128440366972),
            (1.44, 11.941349934469201),
            (1.61, 13.144495412844037),
        ],
    )
    def test_thresholds_bit_exact(self, psi, f_th):
        # the values derive_f_th gave before the class extrema became one table
        assert derive_f_th(SceneGeometry(psi=psi)) == f_th

    def test_threshold_separates_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = SceneGeometry(wavelength_m=rng.uniform(0.02, 0.12),
                              psi=rng.uniform(0.0, 2.0))
            bw_sz = class_bandwidth_bound(MotionClass.SEIZURE, g)
            bw_nm = class_bandwidth_bound(MotionClass.NORMAL_EVENT, g)
            f_th = derive_f_th(g)
            if bw_sz > bw_nm:
                assert bw_nm < f_th < bw_sz


class TestSpectralMatchAgainstSynthesis:
    """Theorem-level check: FFT of the synthesized stream matches the lines.

    The full 50-case randomized version is in the acceptance suite; here a
    handful of representative cases run as a unit test.
    """

    @pytest.mark.parametrize(
        "beta_prime,f_o,dmu",
        [(0.55, 0.25, 0.9), (2.0, 1.0, math.pi / 4), (5.6, 1.5, 2.5), (9.5, 4.0, 0.1)],
    )
    def test_fft_matches_lines(self, beta_prime, f_o, dmu):
        g = SceneGeometry()
        cycles, per_cycle = 64, 128
        fs = per_cycle * f_o
        v_max = beta_prime * 2 * math.pi * f_o / g.beta_rad_per_m
        profile = SinusoidProfile(v_max, f_o, cycles / f_o)
        paths = PathParams(1.0, 0.0, 0.1, dmu)
        s = squared_magnitude(synth_baseband(g, paths, profile, fs))
        n = cycles * per_cycle
        spec = np.abs(np.fft.rfft(s[:n])) / n

        oracle = bessel_line_spectrum(beta_prime, f_o, dmu, amplitude=paths.a_m)
        peak = np.abs(oracle.amplitudes).max()
        for h in range(1, oracle.n_lines):
            predicted = abs(oracle.amplitudes[h])
            measured = spec[h * cycles]
            if predicted >= 1e-6 * peak:
                assert measured == pytest.approx(predicted, rel=0.03)
            else:
                assert measured < 2e-6 * peak

        mask = np.ones(spec.size, bool)
        mask[:: cycles] = False
        assert spec[mask].max() < 0.01 * peak
