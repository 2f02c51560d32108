"""Baseband synthesis, displacement integration, and the derived streams."""

import math
import re

import numpy as np
import pytest

from csiwatch.signal_model import (
    DEFAULT_WAVELENGTH_M,
    PathParams,
    SampledProfile,
    SceneGeometry,
    SinusoidProfile,
    integrate_velocity,
    modulation_index,
    phase_difference,
    phase_difference_closed_form,
    phase_difference_params,
    squared_magnitude,
    squared_magnitude_closed_form,
    synth_baseband,
)

FS = 200.0


def breathing_sinusoid(duration_s=60.0, f_o=0.25, displacement=0.005, phase=0.0):
    return SinusoidProfile(
        v_max_mps=2 * math.pi * f_o * displacement,
        f_o_hz=f_o,
        duration_s=duration_s,
        phase_rad=phase,
    )


class TestGeometry:
    def test_beta_derivation_exact(self):
        g = SceneGeometry(wavelength_m=0.057225, psi=1.0)
        assert g.beta_rad_per_m == 2 * math.pi * 1.0 / 0.057225

    def test_from_phi(self):
        g = SceneGeometry.from_phi(math.pi / 3)  # 60 degrees -> psi = 1
        assert g.psi == pytest.approx(1.0)
        assert g.phi_rad == math.pi / 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SceneGeometry(wavelength_m=-1.0)
        with pytest.raises(ValueError):
            SceneGeometry(psi=2.5)

    def test_channel48_wavelength(self):
        # c / 5.24 GHz = 5.721 cm; the package default is the 5.7225 cm
        # reference value. Both are within a tenth of a millimeter.
        c_over_f = 299792458.0 / 5.24e9
        assert c_over_f == pytest.approx(0.057212, abs=5e-6)
        assert abs(DEFAULT_WAVELENGTH_M - c_over_f) < 2e-5

    def test_modulation_index_identity(self):
        # psi*v/(lambda*f) must equal beta*v/omega up to float rounding
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = SceneGeometry(wavelength_m=rng.uniform(0.01, 0.2),
                              psi=rng.uniform(0.0, 2.0))
            v = rng.uniform(0.0, 1.0)
            f = rng.uniform(0.1, 5.0)
            lhs = modulation_index(g, v, f)
            rhs = g.beta_rad_per_m * v / (2 * math.pi * f)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_breathing_modulation_index_is_055(self):
        # 5 mm chest displacement on channel 48 at psi = 1
        g = SceneGeometry(wavelength_m=0.0572, psi=1.0)
        profile = breathing_sinusoid()
        assert modulation_index(g, profile.v_max_mps, profile.f_o_hz) == pytest.approx(
            0.55, abs=0.01
        )


class TestPathParams:
    def test_ratio_cap(self):
        with pytest.raises(ValueError):
            PathParams(alpha_d=1.0, mu_d=0.0, alpha_r=0.5, mu_r=0.0)
        p = PathParams(alpha_d=1.0, mu_d=0.0, alpha_r=0.5, mu_r=0.0, max_ratio=0.6)
        assert p.ratio == 0.5

    def test_derived_quantities(self):
        p = PathParams(alpha_d=2.0, mu_d=0.3, alpha_r=0.2, mu_r=1.0)
        assert p.delta_mu_m == pytest.approx(0.7)
        assert p.a_m == pytest.approx(0.8)


class TestIntegrateVelocity:
    def test_zero_motion(self):
        d = integrate_velocity(SinusoidProfile(0.0, 1.0, 2.0), FS)
        assert np.all(d == 0.0)

    def test_breathing_peak_displacement_5mm(self):
        d = integrate_velocity(breathing_sinusoid(duration_s=8.0), FS)
        assert d[0] == 0.0
        assert np.max(np.abs(d)) == pytest.approx(0.005, rel=1e-9)

    def test_constant_speed_ramp(self):
        d = integrate_velocity(SampledProfile(np.ones(4), 4.0), 4.0)
        np.testing.assert_allclose(d, [0.0, 0.25, 0.5, 0.75], atol=1e-15)

    def test_sampled_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampledProfile(np.array([0.0, np.nan, 1.0]), 10.0)

    @pytest.mark.parametrize("field, value, match", [
        ("v_max_mps", math.nan, "v_max_mps must be finite and non-negative, got nan"),
        ("v_max_mps", -0.1, "v_max_mps must be finite and non-negative, got -0.1"),
        ("f_o_hz", math.inf, "f_o_hz must be finite and positive, got inf"),
        ("f_o_hz", 0.0, "f_o_hz must be finite and positive, got 0.0"),
        ("duration_s", math.nan, "duration_s must be finite and positive, got nan"),
        ("phase_rad", -math.inf, "phase_rad must be finite, got -inf"),
    ])
    def test_sinusoid_refuses_bad_value_by_name(self, field, value, match):
        args = {"v_max_mps": 0.7, "f_o_hz": 3.0, "duration_s": 22.0, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            SinusoidProfile(**args)

    def test_sinusoid_matches_numeric_quadrature(self):
        # independent oracle: trapezoid on a fine grid
        profile = SinusoidProfile(0.3, 1.3, 4.0, phase_rad=0.7)
        d = integrate_velocity(profile, 1000.0)
        t = np.arange(d.size) / 1000.0
        from scipy.integrate import cumulative_trapezoid

        d_num = cumulative_trapezoid(profile.velocity_at(t), t, initial=0.0)
        assert np.max(np.abs(d - d_num)) < 1e-6


class TestSynthAndSquaredMagnitude:
    def setup_method(self):
        self.g = SceneGeometry()
        self.profile = breathing_sinusoid(duration_s=40.0)

    def test_no_reflector_constant(self):
        paths = PathParams(1.0, 0.4, 0.0, 0.0)
        c = synth_baseband(self.g, paths, self.profile, FS)
        np.testing.assert_allclose(c, np.exp(1j * 0.4), rtol=1e-15)
        assert np.max(np.abs(squared_magnitude(c))) < 1e-12

    def test_static_scene_constant(self):
        paths = PathParams(1.0, 0.0, 0.1, 1.2)
        c = synth_baseband(self.g, paths, SinusoidProfile(0.0, 1.0, 5.0), FS)
        assert np.max(np.abs(c - c[0])) < 1e-15
        assert np.max(np.abs(squared_magnitude(c))) < 1e-12

    def test_closed_form_equivalence(self):
        # |c|^2 - mean must equal A_m cos(beta d + dmu) - mean: pure algebra
        paths = PathParams(1.0, 0.0, 0.1, math.pi / 2)
        c = synth_baseband(self.g, paths, self.profile, FS)
        s = squared_magnitude(c)
        d = integrate_velocity(self.profile, FS)
        closed = squared_magnitude_closed_form(self.g, paths, d)
        closed = closed - closed.mean()
        assert np.max(np.abs(s - closed)) < 1e-9 * paths.a_m

    def test_closed_form_equivalence_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = SceneGeometry(wavelength_m=rng.uniform(0.02, 0.1),
                              psi=rng.uniform(0.1, 2.0))
            paths = PathParams(
                alpha_d=rng.uniform(0.5, 2.0),
                mu_d=rng.uniform(0, 2 * math.pi),
                alpha_r=rng.uniform(0.01, 0.1),
                mu_r=rng.uniform(0, 2 * math.pi),
            )
            profile = SinusoidProfile(
                v_max_mps=rng.uniform(0.0, 0.8),
                f_o_hz=rng.uniform(0.2, 5.0),
                duration_s=10.0,
                phase_rad=rng.uniform(0, 2 * math.pi),
            )
            c = synth_baseband(g, paths, profile, FS)
            s = squared_magnitude(c)
            closed = squared_magnitude_closed_form(
                g, paths, integrate_velocity(profile, FS)
            )
            closed = closed - closed.mean()
            assert np.max(np.abs(s - closed)) < 1e-9 * max(paths.a_m, 1e-12)

    def test_static_multipath_immunity(self):
        # adding a constant phasor re-parameterizes A_m and dmu_m but the
        # stream stays R*cos(beta d + Phi): fit the two-basis model exactly
        paths = PathParams(1.0, 0.2, 0.08, 1.5)
        c = synth_baseband(self.g, paths, self.profile, FS)
        c_static = c + (0.7 - 0.3j)
        s = squared_magnitude(c_static)
        d = integrate_velocity(self.profile, FS)
        arg = self.g.beta_rad_per_m * d
        basis = np.column_stack([np.cos(arg), np.sin(arg), np.ones_like(arg)])
        coef, *_ = np.linalg.lstsq(basis, s, rcond=None)
        residual = s - basis @ coef
        assert np.max(np.abs(residual)) < 1e-9

        # line locations: all spectral content stays on harmonics of f_o
        n = s.size - 1  # drop the endpoint sample: integer number of cycles
        spec = np.abs(np.fft.rfft(s[:n])) / n
        cycles = int(round(self.profile.f_o_hz * n / FS))
        harmonic_bins = np.arange(0, spec.size, cycles)
        mask = np.ones(spec.size, bool)
        mask[harmonic_bins] = False
        assert spec[mask].max() < 1e-9 * spec.max()


class TestPhaseDifference:
    def setup_method(self):
        self.g = SceneGeometry()
        self.profile = breathing_sinusoid(duration_s=240.0)

    def _pair(self, ratio, dmu_i, dmu_j):
        paths_i = PathParams(1.0, 0.0, ratio, dmu_i, max_ratio=0.5)
        paths_j = PathParams(1.0, 0.0, ratio, dmu_j, max_ratio=0.5)
        ci = synth_baseband(self.g, paths_i, self.profile, FS)
        cj = synth_baseband(self.g, paths_j, self.profile, FS)
        return paths_i, paths_j, ci, cj

    def test_identical_paths_zero_and_warn(self):
        paths_i, paths_j, ci, cj = self._pair(0.05, 1.0, 1.0)
        with pytest.warns(UserWarning, match="no motion"):
            sp = phase_difference(ci, cj, paths_i, paths_j)
        assert np.max(np.abs(sp)) < 1e-12

    def _rms_error_ratio(self, ratio, dmu_i=math.pi / 2, dmu_j=0.0):
        paths_i, paths_j, ci, cj = self._pair(ratio, dmu_i, dmu_j)
        sp = phase_difference(ci, cj)
        d = integrate_velocity(self.profile, FS)
        pred = phase_difference_closed_form(self.g, paths_i, paths_j, d)
        a_p, _ = phase_difference_params(paths_i, paths_j)
        return float(np.sqrt(np.mean((sp - pred) ** 2)) / abs(a_p))

    def test_small_ratio_error_frozen(self):
        # Second-order expansion term: error/A_p ~ ratio*cos(ddmu/2)*RMS(...).
        # At ratio 0.05 with (pi/2, 0) the measured value is 2.31%, not the
        # 1-2% a first-order reading suggests; freeze the computed truth.
        assert self._rms_error_ratio(0.05) == pytest.approx(0.0231, abs=0.001)
        assert self._rms_error_ratio(0.02) < 0.01

    def test_error_grows_monotonically_with_ratio(self):
        errors = [self._rms_error_ratio(r) for r in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(errors, errors[1:]))

    def test_dominant_line_at_twice_breathing_rate(self):
        # dmu_p near 0 suppresses the odd harmonics: the strongest line of
        # the phase difference sits at 2*f_o, not f_o
        paths_i, paths_j, ci, cj = self._pair(0.05, 0.2, -0.2)  # dmu_p = 0
        sp = phase_difference(ci, cj)
        n = sp.size - 1
        spec = np.abs(np.fft.rfft(sp[:n] - sp[:n].mean()))
        cycles = int(round(self.profile.f_o_hz * n / FS))
        assert np.argmax(spec) == 2 * cycles

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            phase_difference(np.ones(5, complex), np.ones(6, complex))

    def test_prefix_is_bit_equal(self):
        # the rounding of the per-sample product does not depend on the
        # series length
        rng = np.random.default_rng(0)
        ci, cj = rng.standard_normal((2, 20_000)) + 1j * rng.standard_normal((2, 20_000))
        full = phase_difference(ci, cj)
        head = phase_difference(ci[:1000], cj[:1000])
        assert np.array_equal(full[:1000].view(np.int64), head.view(np.int64))
