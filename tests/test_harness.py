"""Trace file round-trips, metrics, sweeps, and the command-line interface."""

import dataclasses
import gzip
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csiwatch import csi_sim, harness
from csiwatch.cli import main
from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    CsiTrace,
    EventKind,
    LabelInterval,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    build_night_scenario,
    cough_profile,
    generate_trace,
    limb_jerk_profile,
    posture_shift_profile,
    scratch_profile,
    seizure_profile,
    superpose_person,
)
from csiwatch.detector import DetectedEvent, EventClass
from csiwatch.harness import (
    analyze_trace,
    classify_analysis,
    parse_scenario_config,
    run_pipeline,
    simulate_from_config,
    sweep_parameter,
)
from csiwatch.metrics import RunReport, combine_reports, compute_report
from csiwatch.signal_model import SceneGeometry
from csiwatch.traceio import (
    read_events_csv,
    read_labels,
    read_trace,
    write_events_csv,
    write_labels,
    write_trace,
)

G = SceneGeometry()

# scenario configs the CLI must refuse as input errors (exit 2): an unknown
# key, a missing event key or a bad value, each message naming the key, or the
# event's index and the key
BAD_SCENARIO_CONFIGS = [
    ({"duration_s": 10, "sample_rate": 100, "noise": {"awgn": 0.5}, "n_rxx": 1},
     "unknown scenario config key 'n_rxx'"),
    ({"duration_s": 10, "noise": {"awgn": 0.5}}, "unknown noise key 'awgn'"),
    ({"duration_s": 10, "geometry": {"phi": 0.5}}, "unknown geometry key 'phi'"),
    ({"duration_s": 10, "breathing": {"f_o": 0.3}}, "unknown breathing key 'f_o'"),
    ({"duration_s": 10, "auto_events": {"n_seizure": 1}},
     "unknown auto_events key 'n_seizure'"),
    ({"duration_s": 10, "second_person": {"sead": 3}}, "unknown second_person key 'sead'"),
    ({"duration_s": 10, "second_person": {"breathing": {"f_o": 0.3}}},
     "unknown breathing key 'f_o'"),
    ({"duration_s": 60.0, "events": [{"start_s": 30.0, "duration_s": 1.5}]},
     "event 0 has no 'kind' key"),
    ({"duration_s": 60.0, "events": [{"kind": "cough", "start_s": 30.0, "duration_s": 1.5},
                                     {"kind": "cough", "duration_s": 1.5}]},
     "event 1 has no 'start_s' key"),
    ({"duration_s": 60.0, "dtype": "complex65"},
     "scenario config key 'dtype': data type 'complex65' not understood"),
    ({"duration_s": 60.0, "auto_events": {"n_seizures": -3, "n_normal_events": -2}},
     "n_seizures must be non-negative, got -3"),
    ({"duration_s": 60.0, "auto_events": {"n_normal_events": -2}},
     "n_normal_events must be non-negative, got -2"),
    ({"duration_s": 60.0, "dtype": "float64"},
     "dtype must be complex64 or complex128, got float64"),
    ({"duration_s": 3600.0, "auto_events": {"n_seizures": 1.7, "n_normal_events": 2.9}},
     "auto_events key 'n_seizures': the value must be a whole number, got 1.7"),
    ({"duration_s": 3600.0, "auto_events": {"n_normal_events": 2.9}},
     "auto_events key 'n_normal_events': the value must be a whole number, got 2.9"),
    ({"duration_s": 60.0, "n_rx": 2.5},
     "scenario config key 'n_rx': the value must be a whole number"),
    ({"duration_s": 60.0, "seed": "x"},
     "scenario config key 'seed': the value must be a whole number"),
    ({"duration_s": 60.0, "second_person": {"seed": 1.5}},
     "second_person key 'seed': the value must be a whole number"),
    ({"duration_s": "long"}, "scenario config key 'duration_s': could not convert"),
    ({"duration_s": math.inf}, "duration_s must be finite and positive, got inf"),
    ({"duration_s": 60.0, "events": [{"kind": "cough", "start_s": math.nan, "duration_s": 1.5}]},
     "event must have finite start_s >= 0"),
    ({"duration_s": 600.0, "auto_events": {"normal_events_per_hour": -3}},
     "auto_events key 'normal_events_per_hour': must be finite and non-negative, got -3.0"),
    ({"duration_s": 3600.0, "auto_events": {"normal_events_per_hour": -3}},
     "auto_events key 'normal_events_per_hour': must be finite and non-negative, got -3.0"),
    ({"duration_s": 60.0, "events": [{"kind": "cough", "start_s": "ten", "duration_s": 1.5}]},
     "event 0 key 'start_s': could not convert"),
    ({"duration_s": 60.0, "events": [{"kind": "cough", "start_s": 5.0, "duration_s": 1.5},
                                     {"kind": "sneeze", "start_s": 20.0, "duration_s": 1.5}]},
     "event 1 key 'kind': 'sneeze' is not a valid EventKind"),
    ({"duration_s": 60.0, "events": [{"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "f_o_hz": "fast"}]},
     "event 0 key 'f_o_hz': could not convert"),
    ({"duration_s": 60.0, "events": [5]}, "event 0 must be an object, got 5"),
    ({"duration_s": 60.0, "events": 5}, "events must be a list, got 5"),
    ({"duration_s": 60.0, "noise": [1]}, "noise must be an object, got [1]"),
    ({"duration_s": 60.0, "noise": {"awgn_sigma": math.nan}},
     "awgn_sigma must be finite and non-negative, got nan"),
    ({"duration_s": 60.0, "n_rx": 1, "n_sc": 3, "noise": {"awgn_sigma": [[0.01, math.inf, 0.01]]}},
     "awgn_sigma must be finite and non-negative, got inf"),
    ({"duration_s": 60.0, "noise": {"outlier_magnitude": math.inf, "outlier_rate_per_s": 1.0}},
     "outlier_magnitude must be finite and non-negative, got inf"),
    ({"duration_s": 60.0, "ratio_range": [0.1]},
     "ratio_range must be two finite values lo, hi with 0 <= lo <= hi, got (0.1,)"),
    ({"duration_s": 60.0, "ratio_range": [0.2, 0.1]},
     "ratio_range must be two finite values lo, hi with 0 <= lo <= hi, got (0.2, 0.1)"),
    ({"duration_s": 60.0, "sample_rate_hz": math.nan},
     "sample_rate_hz must be finite and positive, got nan"),
    ({"duration_s": 60.0, "seed": -1}, "scenario config key 'seed': must be non-negative, got -1"),
    ({"duration_s": 60.0, "n_rx": 1, "n_sc": 2, "second_person": {"seed": -1}},
     "second_person key 'seed': must be non-negative, got -1"),
    ({"duration_s": 60.0, "breathing": {"f_o_hz": math.nan}},
     "breathing key 'f_o_hz': must be finite, got nan"),
    ({"duration_s": 60.0, "breathing": {"displacement_m": math.inf}},
     "breathing key 'displacement_m': must be finite, got inf"),
    ({"duration_s": 60.0, "breathing": {"phase_rad": -math.inf}},
     "breathing key 'phase_rad': must be finite, got -inf"),
    ({"duration_s": 60.0, "n_rx": 1, "n_sc": 2,
      "second_person": {"breathing": {"f_o_hz": math.nan}}},
     "breathing key 'f_o_hz': must be finite, got nan"),
    ({"duration_s": 3600, "auto_events": {"n_normal_events": 2, "normal_events_per_hour": 6}},
     "n_normal_events cannot be combined with normal_events_per_hour"),
    ({"duration_s": 60.0, "n_rx": 1, "n_sc": 2,
      "second_person": {"auto_events": {"n_normal_events": 1, "normal_events_per_hour": 0}}},
     "n_normal_events cannot be combined with normal_events_per_hour"),
    # numpy refuses the CSI array's shape before it asks for memory
    ({"duration_s": 1e15}, "a trace of duration_s=1000000000000000.0 at sample_rate_hz=200.0 "
                           "with n_rx=3 and n_sc=30 does not fit in memory"),
    # motion values, refused before the motion is sampled
    ({"duration_s": 60.0, "events": [{"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "tonic_s": 1e12}]},
     "event 0: tonic_s must lie in [0, 22.0) s, got 1000000000000.0"),
    ({"duration_s": 60.0, "events": [{"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "tonic_s": 30.0}]},
     "event 0: tonic_s must lie in [0, 22.0) s, got 30.0"),
    ({"duration_s": 60.0, "events": [{"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "tonic_s": math.nan}]},
     "event 0 key 'tonic_s': must be finite, got nan"),
    ({"duration_s": 60.0, "events": [{"kind": "cough", "start_s": 5.0, "duration_s": 1.5},
                                     {"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "v_max_mps": math.nan}]},
     "event 1 key 'v_max_mps': must be finite, got nan"),
    ({"duration_s": 60.0, "events": [{"kind": "seizure", "start_s": 10.0, "duration_s": 22.0,
                                      "f_o_hz": math.inf}]},
     "event 0 key 'f_o_hz': must be finite, got inf"),
    # the sample rate the events are sampled at, refused before them
    ({"duration_s": 60, "sample_rate_hz": math.inf,
      "events": [{"kind": "posture_shift", "start_s": 14, "duration_s": 6}]},
     "sample_rate_hz must be finite and positive, got inf"),
    ({"duration_s": 60, "sample_rate_hz": math.nan,
      "events": [{"kind": "posture_shift", "start_s": 14, "duration_s": 6}]},
     "sample_rate_hz must be finite and positive, got nan"),
    ({"duration_s": 60, "sample_rate_hz": -5,
      "events": [{"kind": "scratch", "start_s": 14, "duration_s": 4}]},
     "sample_rate_hz must be finite and positive, got -5.0"),
    # a night too short for an event's drawn duration, refused before any
    # start is drawn
    ({"duration_s": 40, "auto_events": {"n_seizures": 1}},
     "seizure event of 23.8 s does not fit a 40 s night: after the 20 s event-free lead-in "
     "it needs 44.8 s"),
    ({"duration_s": 25, "auto_events": {"n_normal_events": 1}},
     "posture_shift event of 8.5 s does not fit a 25 s night: after the 20 s event-free "
     "lead-in it needs 29.5 s"),
    ({"duration_s": 60, "geometry": {"psi": 1.0, "phi_rad": 0.5}},
     "geometry gives both psi and phi_rad; give one of them"),
    ({"duration_s": 60, "n_rx": 0}, "n_rx and n_sc must be >= 1"),
    ({"duration_s": 0.004}, "scenario too short for the sample rate"),
]

# config files that are not JSON objects, and what the CLI calls them; every
# command refuses them by file (exit 2)
NON_OBJECT_CONFIGS = [
    (5, "the config must be a JSON object, not a number"),
    ([1, 2], "the config must be a JSON object, not an array"),
    ("x", "the config must be a JSON object, not a string"),
]

# `csiwatch detect` arguments it must refuse as input errors (exit 2) before
# the calibration-overlap check; a dict is written to a pipeline config file
BAD_PIPELINE_SETTINGS = [
    (["--t-min", "nan"], "t_min_s must be finite and positive, got nan"),
    (["--t-min", "inf"], "t_min_s must be finite and positive, got inf"),
    (["--f-th", "nan"], "f_th_hz = nan must be finite"),
    (["--f-th", "inf"], "f_th_hz = inf must be finite"),
    (["--cal-len", "nan"], "t_cal_s must be finite and positive, got nan"),
    (["--config", {"t_cal_s": math.inf}], "t_cal_s must be finite and positive, got inf"),
    (["--config", {"k_streams": 5.5}], "k_streams must be a whole number, got 5.5"),
    (["--cal-start", "-12"], "cal_start_s must be finite and at least 0 s, got -12.0"),
    (["--cal-start", "nan"], "cal_start_s must be finite and at least 0 s, got nan"),
]

# "pipeline" sections a scenario config may not hold, and the message naming
# the fault; simulate refuses them before it generates anything
BAD_PIPELINE_SECTIONS = [
    ({"k_stream": 3}, "unknown pipeline key 'k_stream'"),
    ({"t_cal_s": -1}, "t_cal_s must be finite and positive, got -1"),
    ({"t_min_s": "5"}, "pipeline key 't_min_s': must be a number, got '5'"),
    ({"k_streams": 1}, "k_streams must be at least 2"),
    ([1], "pipeline must be an object, got [1]"),
]

# pipeline config files in both shapes, and the PipelineConfig each gives
PIPELINE_FILES = [
    ({}, PipelineConfig()),
    ({"t_cal_s": 10, "k_streams": 5.0, "t_min_s": 4.5, "f_th_hz": 9.0},
     PipelineConfig(t_cal_s=10, k_streams=5, t_min_s=4.5, f_th_hz=9.0)),
    ({"f_th_hz": None}, PipelineConfig()),
    ({"pipeline": {}}, PipelineConfig()),
    ({"duration_s": 30, "noise": {"awgn_sigma": 0.1}, "pipeline": {"t_cal_s": 10}},
     PipelineConfig(t_cal_s=10)),
]

# --grid values `csiwatch sweep` refuses (exit 2), and the message
BAD_GRIDS = [
    ("7:11", "expected start:stop:step"),
    ("7:x:1", "expected start:stop:step"),
    ("11:7:1", "bad --grid '11:7:1'"),
    ("7:11:0", "bad --grid '7:11:0'"),
    ("nan:12:1", "bad --grid 'nan:12:1'; start, stop and step must be finite"),
    ("6:12:nan", "bad --grid '6:12:nan'; start, stop and step must be finite"),
    ("6:inf:1", "bad --grid '6:inf:1'; start, stop and step must be finite"),
    ("6:12:1e-12", "bad --grid '6:12:1e-12'; more than 10000 values"),
]

# `csiwatch oracle --beta-prime 2 --f-o 3` arguments it refuses (exit 2)
# before it prints anything, and the input its message names; the huge
# beta' and n_max are refused before an array is made
BAD_ORACLE_INPUTS = [
    (["--n-max", "-1"], "n_max must be in [0, 10000], got -1"),
    (["--n-max", "1000000000000"], "n_max must be in [0, 10000], got 1000000000000"),
    (["--beta-prime", "inf"], "beta_prime must be finite and >= 0, got inf"),
    (["--beta-prime", "nan"], "beta_prime must be finite and >= 0, got nan"),
    (["--beta-prime", "1e300"], "beta_prime = 1e+300 needs n_max = 1e+300, more than 10000"),
    (["--f-o", "inf"], "f_o_hz must be finite and > 0, got inf"),
    (["--amplitude", "nan"], "amplitude must be finite, got nan"),
    (["--delta-mu", "inf"], "delta_mu_rad must be finite, got inf"),
    (["--psi", "3"], "psi must be in [0, 2], got 3.0"),
]


def edit_trace_file(path, edit):
    """Replace the uncompressed bytes of a trace file by ``edit(bytes)``."""
    gz = str(path).endswith(".gz")
    data = gzip.decompress(path.read_bytes()) if gz else path.read_bytes()
    data = edit(data)
    path.write_bytes(gzip.compress(data) if gz else data)


def tiny_trace(duration=5.0, seed=0, dtype=np.complex128):
    noise = NoiseSpec(awgn_sigma=0.01, jitter_std_s=0.0005)
    return generate_trace(
        Scenario(duration, breathing_profile(duration)),
        G, noise, seed=seed, n_rx=2, n_sc=3, dtype=dtype,
    )


def write_trace_by_hand(path, csi, sample_rate_hz, timestamps_s):
    """Write a trace file with the JSON header and np.save, for a header,
    timestamps or CSI that CsiTrace itself refuses."""
    n_rx, n_sc, n = csi.shape
    header = {"version": 2, "sample_rate_hz": sample_rate_hz, "n_rx": n_rx,
              "n_sc": n_sc, "n_records": n, "dtype": str(csi.dtype),
              "geometry": {"wavelength_m": G.wavelength_m, "psi": G.psi, "phi_rad": G.phi_rad}}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        np.save(f, timestamps_s)
        np.save(f, csi)


# a well-formed trace header line, for files whose .npy arrays are not
HEADER_LINE = json.dumps({"version": 2, "sample_rate_hz": 200.0, "n_rx": 1, "n_sc": 1,
                          "n_records": 2, "dtype": "complex128",
                          "geometry": {"wavelength_m": 0.057225, "psi": 1.0}}).encode() + b"\n"

BAD_TIMESTAMPS = [
    ("nan_timestamp", "non-finite timestamp"),
    ("swapped_timestamps", "strictly increase"),
    ("repeated_timestamp", "strictly increase"),
]


def bad_samples(trace, bad, k=300):
    """Copies of a trace's timestamps and CSI with one defect at record k."""
    ts, csi = trace.timestamps_s.copy(), trace.csi.copy()
    if bad == "nan_timestamp":
        ts[k] = np.nan
    elif bad == "swapped_timestamps":
        ts[[k, k + 1]] = ts[[k + 1, k]]
    elif bad == "repeated_timestamp":
        ts[k + 1] = ts[k]
    elif bad == "nan_sample":
        csi[1, 2, k] = np.nan
    else:
        csi[:, :, k] = np.inf
    return ts, csi


class TestTraceIO:
    @pytest.mark.parametrize("suffix", ["csitrace", "csitrace.gz"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_round_trip_bit_identical(self, tmp_path, suffix, dtype):
        trace = tiny_trace(dtype=dtype)
        path = tmp_path / f"t.{suffix}"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.csi, trace.csi)
        assert back.csi.dtype == trace.csi.dtype
        assert np.array_equal(back.timestamps_s, trace.timestamps_s)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.geometry == trace.geometry

    @pytest.mark.parametrize("suffix", ["csitrace", "csitrace.gz"])
    def test_labels_travel_with_the_trace(self, tmp_path, suffix):
        trace = dataclasses.replace(tiny_trace(), events=(
            LabelInterval(1.25, 3.1, EventKind.SEIZURE, 1),
            LabelInterval(0.1, 0.4, EventKind.COUGH, 2),
        ))
        path = tmp_path / f"t.{suffix}"
        write_trace(trace, path)
        assert (tmp_path / "t.labels.csv").exists()
        assert read_trace(path).events == trace.events
        (tmp_path / "t.labels.csv").unlink()
        assert read_trace(path).events == ()

    def test_gzip_written_at_level_1(self, tmp_path):
        # XFL, byte 8 of the gzip header: 4 for the fastest level, 2 for level 9
        path = tmp_path / "t.csitrace.gz"
        write_trace(tiny_trace(), path)
        assert path.read_bytes()[8] == 4

    def test_header_record_count_enforced(self, tmp_path):
        path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), path)
        path.write_bytes(path.read_bytes()[:-10 * 6 * 16])
        with pytest.raises(ValueError, match="truncated or"):
            read_trace(path)

    @pytest.mark.parametrize("cut", [1, 5000])
    def test_truncated_gzip_rejected(self, tmp_path, cut):
        path = tmp_path / "t.csitrace.gz"
        write_trace(tiny_trace(), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="truncated or"):
            read_trace(path)

    @pytest.mark.parametrize("suffix", ["csitrace", "csitrace.gz"])
    def test_trailing_bytes_rejected(self, tmp_path, suffix):
        path = tmp_path / f"t.{suffix}"
        write_trace(tiny_trace(), path)
        edit_trace_file(path, lambda data: data + b"\0")
        with pytest.raises(ValueError, match="trailing bytes after"):
            read_trace(path)

    @pytest.mark.parametrize("field, value, match", [
        ("n_rx", 3, "header announces"),
        ("n_sc", 2, "header announces"),
        ("n_records", 999, "header announces"),
        ("dtype", "complex64", "header announces"),
        ("dtype", "no-such-dtype", "malformed trace header"),
    ])
    def test_header_array_mismatch_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), path)

        def edit(data):
            line, arrays = data.split(b"\n", 1)
            header = json.loads(line)
            header[field] = value
            return json.dumps(header).encode() + b"\n" + arrays

        edit_trace_file(path, edit)
        with pytest.raises(ValueError, match=match):
            read_trace(path)

    def test_pickled_object_array_rejected(self, tmp_path):
        path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), path)

        def edit(data):
            buf = io.BytesIO()
            np.save(buf, np.array([{"x": 1}, None], dtype=object), allow_pickle=True)
            return data.split(b"\n", 1)[0] + b"\n" + buf.getvalue()

        edit_trace_file(path, edit)
        with pytest.raises(ValueError, match="allow_pickle"):
            read_trace(path)

    @pytest.mark.parametrize("suffix", ["csitrace", "csitrace.gz"])
    @pytest.mark.parametrize("claim, match", [
        ("timestamps", "header announces timestamps_s of shape (1000,)"),
        ("csi", "header announces csi of shape (2, 3, 1000)"),
        ("both", "timestamps_s"),  # the trace header claims them too
    ])
    def test_huge_array_claim_refused(self, tmp_path, capsys, suffix, claim, match):
        # .npy headers that claim 10**12 records, 7.28 TiB of timestamps,
        # which np.load allocated before any shape check
        trace, huge = tiny_trace(), 10**12
        n = trace.n_samples

        def npy_header(shape, dtype):
            buf = io.BytesIO()
            np.lib.format.write_array_header_1_0(buf, {
                "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
                "shape": shape})
            return buf.getvalue()

        def edit(data):
            header = json.loads(data.split(b"\n", 1)[0])
            if claim == "both":
                header["n_records"] = huge
            n_ts = n if claim == "csi" else huge
            n_csi = huge if claim == "csi" else n
            return (json.dumps(header).encode() + b"\n"
                    + npy_header((n_ts,), trace.timestamps_s.dtype) + trace.timestamps_s.tobytes()
                    + npy_header((2, 3, n_csi), trace.csi.dtype) + trace.csi.tobytes())

        path = tmp_path / f"t.{suffix}"
        write_trace(trace, path)
        edit_trace_file(path, edit)
        assert main(["detect", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert match in err

    def test_version_1_text_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "old.csitrace"
        header = {"version": 1, "sample_rate_hz": 200.0, "n_rx": 1, "n_sc": 1,
                  "n_records": 1, "dtype": "complex128",
                  "geometry": {"wavelength_m": 0.057, "psi": 1.0, "phi_rad": None}}
        path.write_text(json.dumps(header) + "\n0.0 1.0 0.0\n")
        with pytest.raises(ValueError, match="unsupported trace format version 1"):
            read_trace(path)
        assert main(["detect", "--trace", str(path)]) == 2
        assert "unsupported trace format version" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b'{"version": 1}\n', "unsupported trace format version 1"),
        (b"[2]\n", "unsupported trace format version None"),
        (b"not a header\n", "trace header is not a JSON line"),
        ("gzip", "trace header is not a JSON line"),
        pytest.param(b" " * (1 << 16) + b"\n", "missing or oversized trace header line",
                     id="header-line-over-64-KiB"),
        pytest.param(HEADER_LINE + b"\x93NUMPY\x03\x00",
                     "timestamps_s array is truncated or malformed "
                     "(unsupported .npy format version (3, 0))", id="npy-version-3.0"),
        pytest.param(HEADER_LINE + b"\x93NUMPY\x01\x00\x10",
                     "timestamps_s array is truncated or malformed "
                     "(EOF: reading array header length", id="npy-header-truncated"),
    ])
    def test_bad_header_named_by_path(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csitrace"
        if content == "gzip":  # a compressed trace without its .gz suffix
            write_trace(tiny_trace(), tmp_path / "bad.csitrace.gz")
            (tmp_path / "bad.csitrace.gz").rename(path)
        else:
            path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            read_trace(path)
        assert str(exc.value).startswith(f"{path}: {message}")
        assert main(["detect", "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("bad, match", BAD_TIMESTAMPS + [
        ("nan_sample", "non-finite CSI"),
        ("inf_all_streams", "non-finite CSI"),
    ])
    def test_bad_samples_rejected(self, tmp_path, capsys, bad, match):
        # written by hand because CsiTrace refuses the bad timestamps and CSI
        trace = tiny_trace()
        ts, csi = bad_samples(trace, bad)
        path = tmp_path / "bad.csitrace"
        write_trace_by_hand(path, csi, trace.sample_rate_hz, ts)
        with pytest.raises(ValueError, match=match):
            read_trace(path)
        assert main(["detect", "--trace", str(path)]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("bad, match", BAD_TIMESTAMPS)
    def test_bad_timestamps_rejected_in_memory(self, bad, match):
        trace = tiny_trace()
        ts, _ = bad_samples(trace, bad)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(trace, timestamps_s=ts)

    def test_epoch_stamped_file_rejected(self, tmp_path, capsys):
        # a capture clock that does not start at 0 s; the file is written by
        # hand because CsiTrace refuses such a trace
        trace = tiny_trace()
        path = tmp_path / "epoch.csitrace"
        write_trace_by_hand(path, trace.csi, trace.sample_rate_hz, trace.timestamps_s + 1.7e9)
        with pytest.raises(ValueError, match="first packet"):
            read_trace(path)
        assert main(["detect", "--trace", str(path)]) == 2
        assert "first packet" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [0.0, -200.0, math.nan, math.inf])
    def test_bad_sample_rate_rejected(self, tmp_path, rate):
        trace = tiny_trace()
        path = tmp_path / "rate.csitrace"
        write_trace_by_hand(path, trace.csi, rate, trace.timestamps_s)
        with pytest.raises(ValueError, match="rate.csitrace: sample_rate_hz must be finite"):
            read_trace(path)

    def test_non_numeric_csi_dtype_refused_by_path(self, tmp_path, capsys):
        trace = tiny_trace()
        path = tmp_path / "text.csitrace"
        write_trace_by_hand(path, trace.csi.astype("<U3"), trace.sample_rate_hz,
                            trace.timestamps_s)
        message = f"{path}: CSI must be float or complex, got dtype <U3"
        with pytest.raises(ValueError) as exc:
            read_trace(path)
        assert str(exc.value) == message
        assert main(["detect", "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("dtype", ["<U3", "int16", "bool", "object"])
    def test_non_numeric_csi_dtype_refused(self, dtype):
        trace = tiny_trace()
        with pytest.raises(ValueError, match=f"^CSI must be float or complex, got dtype {dtype}"):
            dataclasses.replace(trace, csi=trace.csi.real.astype(dtype))

    def test_zero_sample_rate_exit_code(self, tmp_path, capsys):
        trace = tiny_trace()
        path = tmp_path / "zero.csitrace"
        write_trace_by_hand(path, trace.csi, 0, trace.timestamps_s)
        assert main(["detect", "--trace", str(path)]) == 2
        assert "sample_rate_hz must be finite and positive, got 0" in capsys.readouterr().err

    def test_read_trace_has_no_path_parameters(self, tmp_path):
        path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), path)
        with pytest.raises(ValueError, match="no path parameters"):
            read_trace(path).path_params(0, 0)

    def test_labels_round_trip(self, tmp_path):
        labels = [
            LabelInterval(10.0, 30.5, EventKind.SEIZURE, 1),
            LabelInterval(40.25, 42.0, EventKind.COUGH, 2),
        ]
        path = tmp_path / "x.labels.csv"
        write_labels(labels, path)
        assert read_labels(path) == labels

    @pytest.mark.parametrize(
        "row, message",
        [
            ("30.0,25.0,seizure,1", "label ends at 25.0 s, before its start at 30.0 s"),
            ("nan,25.0,seizure,1", "non-finite label time"),
            ("10.0,inf,seizure,1", "non-finite label time"),
            ("10.0,25.0", "expected 4 fields, got 2"),
            ("10.0,25.0,seizur,1", "'seizur' is not a valid EventKind"),
        ],
        ids=["reversed", "nan", "inf", "two-fields", "unknown-class"],
    )
    def test_bad_label_row_named_by_line(self, tmp_path, row, message):
        path = tmp_path / "x.labels.csv"
        path.write_text(f"start_s,end_s,class,person_id\n1.0,2.0,cough,1\n{row}\n")
        with pytest.raises(ValueError, match=rf"x\.labels\.csv:3: .*{re.escape(message)}"):
            read_labels(path)

    def test_bad_label_row_exit_code(self, tmp_path, capsys):
        path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), path)
        (tmp_path / "t.labels.csv").write_text("start_s,end_s,class,person_id\n3.0,2.0,seizure,1\n")
        assert main(["detect", "--trace", str(path)]) == 2
        assert "t.labels.csv:2: label ends at 2.0 s" in capsys.readouterr().err

    def test_events_round_trip(self, tmp_path):
        events = [
            DetectedEvent(10.0, 30.0, EventClass.SEIZURE, 11.5, 15.0),
            DetectedEvent(50.0, 51.0, EventClass.NORMAL, None, None),
        ]
        path = tmp_path / "x.events.csv"
        write_events_csv(events, path)
        assert read_events_csv(path) == events

    @pytest.mark.parametrize(
        "row, message",
        [
            ("30.0,25.0,seizure,12.0,35.0", "event ends at 25.0 s, before its start at 30.0 s"),
            ("nan,25.0,seizure,12.0,35.0", "non-finite event time"),
            ("10.0,inf,normal,,", "non-finite event time"),
            ("10.0,25.0,seizure", "expected 5 fields, got 3"),
            ("10.0,25.0,seizur,12.0,15.0", "'seizur' is not a valid EventClass"),
            ("10.0,25.0,seizure,wide,15.0", "could not convert string to float: 'wide'"),
            ("10.0,25.0,seizure,12.0,nan", "non-finite b_pe_hz or decision_time_s"),
        ],
        ids=["reversed", "nan", "inf", "three-fields", "unknown-class", "bad-bandwidth",
             "nan-decision"],
    )
    def test_bad_event_row_named_by_line(self, tmp_path, row, message):
        path = tmp_path / "x.events.csv"
        path.write_text("start_s,end_s,class,b_pe_hz,decision_time_s\n"
                        f"1.0,2.0,normal,,\n\n{row}\n")
        with pytest.raises(ValueError, match=rf"x\.events\.csv:4: .*{re.escape(message)}"):
            read_events_csv(path)

    @pytest.mark.parametrize("reader, name", [(read_labels, "x.labels.csv"),
                                              (read_events_csv, "x.events.csv")])
    def test_unexpected_csv_header_named_by_path(self, tmp_path, reader, name):
        path = tmp_path / name
        path.write_text("start,end\n1.0,2.0\n")
        with pytest.raises(ValueError, match=rf"{re.escape(name)}: unexpected header 'start,end'"):
            reader(path)

# (dtype, part, value): every CSI dtype a trace may hold, each part it has
NON_FINITE_SAMPLES = [
    (dtype, part, value)
    for dtype in (np.complex64, np.complex128, np.float32)
    for part in (("real", "imag") if np.dtype(dtype).kind == "c" else ("real",))
    for value in (math.nan, math.inf, -math.inf)
]


def non_finite_csi(dtype, part, value, layout, n=40):
    """Random (2, 3, n) CSI with ``value`` in one part of sample 7 of
    antenna 1, subcarrier 2; contiguous, a fancy-indexed copy, or a
    strided view."""
    rng = np.random.default_rng(0)
    csi = rng.normal(size=(2, 3, n)).astype(dtype)
    if csi.dtype.kind == "c":
        csi.imag = rng.normal(size=csi.shape)
    getattr(csi, part)[1, 2, 7] = value
    if layout == "fancy":
        return np.insert(csi, 12, 0, axis=2)[:, :, np.r_[0:12, 13 : n + 1]]
    if layout == "strided":
        wide = np.zeros((2, 3, 2 * n), dtype)
        wide[:, :, ::2] = csi
        return wide[:, :, ::2]
    return csi


class TestNonFiniteCsiRefused:
    """CsiTrace is the one check of CSI: every way to a trace meets it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", ["CsiTrace", "replace", "read_trace"])
    @pytest.mark.parametrize("layout", ["contiguous", "fancy", "strided"])
    @pytest.mark.parametrize(
        "dtype, part, value", NON_FINITE_SAMPLES,
        ids=[f"{np.dtype(d).name}-{p}-{v}" for d, p, v in NON_FINITE_SAMPLES],
    )
    def test_sample_named(self, tmp_path, route, layout, dtype, part, value):
        csi = non_finite_csi(dtype, part, value, layout)
        ts = np.arange(csi.shape[2]) / 200.0
        prefix = ""
        with pytest.raises(ValueError) as err:
            if route == "CsiTrace":
                CsiTrace(200.0, csi, ts, events=(), geometry=G)
            elif route == "replace":
                good = CsiTrace(200.0, np.zeros(csi.shape, csi.dtype), ts, events=(), geometry=G)
                dataclasses.replace(good, csi=csi)
            else:
                path = tmp_path / "bad.csitrace"
                prefix = f"{path}: "
                write_trace_by_hand(path, csi, 200.0, ts)
                read_trace(path)
        assert str(err.value) == (
            f"{prefix}non-finite CSI sample on antenna 1, subcarrier 2 at 0.035 s")

    def test_first_bad_row_named(self):
        # rows are checked in antenna, then subcarrier order; the first bad
        # row names its first bad packet, however early a later row's is
        trace = tiny_trace(duration=60.0)
        csi = trace.csi.copy()
        csi[0, 1, 10000] = math.nan
        csi[1, 1, 400] = complex(math.inf, 0.0)
        csi[0, 1, 9000] = complex(0.0, -math.inf)
        with pytest.raises(ValueError, match=(
                f"^non-finite CSI sample on antenna 0, subcarrier 1 at "
                f"{trace.timestamps_s[9000]:.3f} s$")):
            dataclasses.replace(trace, csi=csi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", ["generate_trace", "superpose_person"])
    def test_simulator_output_checked(self, monkeypatch, route):
        # a displacement that is NaN at packet 7 makes that packet's sample
        # non-finite on every stream
        trace = tiny_trace()
        displacement = csi_sim.scenario_displacement

        def nan_at_packet_7(scenario, t):
            d = displacement(scenario, t)
            d[7] = math.nan
            return d

        monkeypatch.setattr(csi_sim, "scenario_displacement", nan_at_packet_7)
        with pytest.raises(ValueError, match=(
                f"^non-finite CSI sample on antenna 0, subcarrier 0 at "
                f"{trace.timestamps_s[7]:.3f} s$")):
            if route == "generate_trace":
                tiny_trace()
            else:
                superpose_person(trace, Scenario(5.0, breathing_profile(5.0)), seed=3)


class TestMetrics:
    def _labels(self):
        return [
            LabelInterval(100.0, 122.0, EventKind.SEIZURE),
            LabelInterval(200.0, 208.0, EventKind.POSTURE_SHIFT),
            LabelInterval(300.0, 303.0, EventKind.SCRATCH),
        ]

    def test_perfect_run(self):
        dets = [
            DetectedEvent(100.3, 121.0, EventClass.SEIZURE, 12.0, 105.3),
            DetectedEvent(200.2, 207.5, EventClass.NORMAL, 5.0, None),
            DetectedEvent(300.1, 302.0, EventClass.NORMAL, None, None),
        ]
        rep = compute_report(dets, self._labels())
        assert rep.sdr_pct == 100.0
        assert rep.p_fa == 0.0
        assert rep.rt_list_s == [pytest.approx(5.3)]
        assert rep.mrt_s == pytest.approx(5.3)

    def test_false_alarm_counted(self):
        dets = [
            DetectedEvent(100.3, 121.0, EventClass.SEIZURE, 12.0, 105.3),
            DetectedEvent(200.2, 207.5, EventClass.SEIZURE, 9.5, 205.2),
        ]
        rep = compute_report(dets, self._labels())
        assert rep.n_false_alarms == 1
        assert rep.p_fa == pytest.approx(1.0)  # one detected normal, one FA
        assert rep.n_normals_detected == 1

    def test_merged_detection_spanning_seizure_and_normal_not_fa(self):
        # one detection covering a seizure and an adjacent normal event:
        # seizure verdict, but the normal event is not a false alarm
        labels = [
            LabelInterval(100.0, 122.0, EventKind.SEIZURE),
            LabelInterval(123.0, 130.0, EventKind.POSTURE_SHIFT),
        ]
        dets = [DetectedEvent(100.5, 129.0, EventClass.SEIZURE, 12.0, 105.5)]
        rep = compute_report(dets, labels)
        assert rep.sdr_pct == 100.0
        assert rep.n_false_alarms == 0

    def test_multiple_detections_one_seizure_count_once(self):
        labels = [LabelInterval(100.0, 122.0, EventKind.SEIZURE)]
        dets = [
            DetectedEvent(100.5, 110.0, EventClass.SEIZURE, 12.0, 105.5),
            DetectedEvent(112.0, 121.0, EventClass.SEIZURE, 12.5, 117.0),
        ]
        rep = compute_report(dets, labels)
        assert rep.n_seizures_detected == 1
        assert rep.rt_list_s == [pytest.approx(5.5)]  # earliest verdict

    def test_breathing_only_empty_sections(self):
        rep = compute_report([], [])
        assert rep.sdr_pct is None and rep.p_fa is None and rep.mrt_s is None

    def test_recomputable_from_events_file(self, tmp_path):
        dets = [
            DetectedEvent(100.3, 121.0, EventClass.SEIZURE, 12.0, 105.3),
            DetectedEvent(200.2, 207.5, EventClass.NORMAL, 5.0, None),
        ]
        labels = self._labels()
        direct = compute_report(dets, labels)
        epath = tmp_path / "e.events.csv"
        write_events_csv(dets, epath)
        again = compute_report(read_events_csv(epath), labels)
        assert dataclasses.asdict(again) == dataclasses.asdict(direct)

    def test_combine_reports_exact_counts(self):
        labels = [LabelInterval(10.0, 32.0, EventKind.SEIZURE)]
        dets = [DetectedEvent(10.5, 30.0, EventClass.SEIZURE, 12.0, 15.5)]
        r1 = compute_report(dets, labels)
        r2 = compute_report([], [LabelInterval(5.0, 9.0, EventKind.COUGH)])
        combined = combine_reports([r1, r2])
        assert combined.n_seizures == 1 and combined.n_seizures_detected == 1
        assert combined.sdr_pct == 100.0
        assert combined.p_fa is None  # the cough was never detected

    def test_seizure_verdict_matching_no_label_counted(self):
        unmatched = DetectedEvent(400.0, 421.0, EventClass.SEIZURE, 11.0, 405.0)
        rep = compute_report([unmatched], [])
        assert rep.n_unmatched_seizure_verdicts == 1
        assert (rep.n_false_alarms, rep.sdr_pct, rep.p_fa, rep.mrt_s) == (0, None, None, None)
        # a normal verdict that matches nothing is not a seizure verdict
        assert compute_report(
            [DetectedEvent(400.0, 405.0, EventClass.NORMAL, 4.0, None)], []
        ).n_unmatched_seizure_verdicts == 0

    def test_matched_seizure_verdict_not_unmatched(self):
        matched = DetectedEvent(100.3, 121.0, EventClass.SEIZURE, 12.0, 105.3)
        false_alarm = DetectedEvent(200.2, 207.5, EventClass.SEIZURE, 9.5, 205.2)
        rep = compute_report([matched, false_alarm], self._labels())
        assert rep.n_unmatched_seizure_verdicts == 0
        assert (rep.n_seizures_detected, rep.n_false_alarms) == (1, 1)

    def test_combine_reports_sums_unmatched_seizure_verdicts(self):
        verdict = DetectedEvent(400.0, 421.0, EventClass.SEIZURE, 11.0, 405.0)
        matched = compute_report([DetectedEvent(100.3, 121.0, EventClass.SEIZURE, 12.0, 105.3),
                                  verdict], self._labels())
        alone = compute_report([verdict, verdict], [])
        assert (matched.n_unmatched_seizure_verdicts, alone.n_unmatched_seizure_verdicts) == (1, 2)
        combined = combine_reports([matched, alone])
        assert combined.n_unmatched_seizure_verdicts == 3
        assert combined.sdr_pct == 100.0 and combined.n_false_alarms == 0


def _overlaps(a0, a1, b0, b1):
    return min(a1, b1) - max(a0, b0) > 0.0


def reference_compute_report(detections, labels):
    """compute_report as it was when it tested each detection against the
    labels three times, with the seizure verdicts that overlap no label
    counted: the oracle for the one-pass matching."""
    seizure_labels = [l for l in labels if l.is_seizure]
    normal_labels = [l for l in labels if not l.is_seizure]

    def dets_overlapping(label):
        return [
            d for d in detections
            if _overlaps(d.start_s, d.end_s, label.start_s, label.end_s)
        ]

    rt_list = []
    n_detected_seizures = 0
    for label in seizure_labels:
        verdicts = [
            d for d in dets_overlapping(label)
            if d.event_class is EventClass.SEIZURE and d.decision_time_s is not None
        ]
        if verdicts:
            n_detected_seizures += 1
            rt_list.append(min(d.decision_time_s for d in verdicts) - label.start_s)

    def det_hits_seizure(det):
        return any(
            _overlaps(det.start_s, det.end_s, l.start_s, l.end_s)
            for l in seizure_labels
        )

    n_normals_detected = 0
    n_false_alarms = 0
    for label in normal_labels:
        dets = dets_overlapping(label)
        if not dets:
            continue
        n_normals_detected += 1
        if any(
            d.event_class is EventClass.SEIZURE and not det_hits_seizure(d)
            for d in dets
        ):
            n_false_alarms += 1

    n_unmatched = sum(
        d.event_class is EventClass.SEIZURE
        and not any(_overlaps(d.start_s, d.end_s, l.start_s, l.end_s) for l in labels)
        for d in detections
    )

    sdr = 100.0 * n_detected_seizures / len(seizure_labels) if seizure_labels else None
    p_fa = n_false_alarms / n_normals_detected if n_normals_detected else None
    mrt = sum(rt_list) / len(rt_list) if rt_list else None

    event_rows = []
    for d in detections:
        matched = [
            l for l in labels if _overlaps(d.start_s, d.end_s, l.start_s, l.end_s)
        ]
        event_rows.append(
            {
                "start_s": d.start_s,
                "end_s": d.end_s,
                "class": d.event_class.value,
                "b_pe_hz": d.b_pe_hz,
                "decision_time_s": d.decision_time_s,
                "matched_labels": [
                    {"start_s": l.start_s, "end_s": l.end_s,
                     "kind": l.kind.value, "person_id": l.person_id}
                    for l in matched
                ],
            }
        )

    return RunReport(
        sdr_pct=sdr,
        p_fa=p_fa,
        rt_list_s=rt_list,
        mrt_s=mrt,
        n_seizures=len(seizure_labels),
        n_seizures_detected=n_detected_seizures,
        n_normal_events=len(normal_labels),
        n_normals_detected=n_normals_detected,
        n_false_alarms=n_false_alarms,
        n_unmatched_seizure_verdicts=n_unmatched,
        events=event_rows,
    )


def reference_combine_reports(reports):
    """combine_reports as it was before it shared compute_report's scoring."""
    n_sz = sum(r.n_seizures for r in reports)
    n_sz_det = sum(r.n_seizures_detected for r in reports)
    n_nm = sum(r.n_normal_events for r in reports)
    n_nm_det = sum(r.n_normals_detected for r in reports)
    n_fa = sum(r.n_false_alarms for r in reports)
    n_unmatched = sum(r.n_unmatched_seizure_verdicts for r in reports)
    rt = [t for r in reports for t in r.rt_list_s]
    return RunReport(
        sdr_pct=100.0 * n_sz_det / n_sz if n_sz else None,
        p_fa=n_fa / n_nm_det if n_nm_det else None,
        rt_list_s=rt,
        mrt_s=sum(rt) / len(rt) if rt else None,
        n_seizures=n_sz,
        n_seizures_detected=n_sz_det,
        n_normal_events=n_nm,
        n_normals_detected=n_nm_det,
        n_false_alarms=n_fa,
        n_unmatched_seizure_verdicts=n_unmatched,
    )


# times on a half-second grid, so intervals often touch or coincide and
# labels are often zero-length, mixed with arbitrary times
_times = st.one_of(st.integers(0, 24).map(lambda k: k / 2.0),
                   st.floats(0.0, 12.0, allow_nan=False))


@st.composite
def _labels(draw):
    start, length = draw(_times), draw(_times)
    return LabelInterval(start, start + length, draw(st.sampled_from(EventKind)),
                         draw(st.sampled_from([1, 2])))


@st.composite
def _detections(draw):
    start, length = draw(_times), draw(_times)
    return DetectedEvent(start, start + length, draw(st.sampled_from(EventClass)),
                         draw(st.none() | _times), draw(st.none() | _times))


_scored_night = st.tuples(st.lists(_detections(), max_size=6),
                          st.lists(_labels(), max_size=6))


# a detection touching a seizure label's end, a zero-length label, a seizure
# verdict without a decision time, an ONGOING event and both persons
_EDGE_NIGHT = (
    [DetectedEvent(15.0, 20.0, EventClass.SEIZURE, 9.0, None),
     DetectedEvent(20.0, 26.0, EventClass.SEIZURE, 9.5, 25.0),
     DetectedEvent(28.0, 32.0, EventClass.ONGOING, None, None)],
    [LabelInterval(10.0, 20.0, EventKind.SEIZURE, 1),
     LabelInterval(20.0, 25.0, EventKind.POSTURE_SHIFT, 2),
     LabelInterval(30.0, 30.0, EventKind.COUGH, 1)],
)


class TestReportOracle:
    @settings(max_examples=200, deadline=None)
    @given(night=_scored_night)
    @example(night=_EDGE_NIGHT)
    def test_compute_report_equals_reference(self, night):
        detections, labels = night
        got = compute_report(detections, labels)
        assert dataclasses.asdict(got) == dataclasses.asdict(
            reference_compute_report(detections, labels))

    @settings(max_examples=100, deadline=None)
    @given(nights=st.lists(_scored_night, max_size=4))
    @example(nights=[_EDGE_NIGHT, ([], [])])
    def test_combine_reports_equals_reference(self, nights):
        got = combine_reports([compute_report(d, l) for d, l in nights])
        want = reference_combine_reports([reference_compute_report(d, l) for d, l in nights])
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestScenarioConfig:
    def test_explicit_events(self):
        cfg = {
            "duration_s": 90.0,
            "seed": 3,
            "geometry": {"wavelength_m": 0.057225, "psi": 1.0},
            "events": [
                {"kind": "seizure", "start_s": 40.0, "duration_s": 22.0,
                 "v_max_mps": 0.75, "f_o_hz": 3.0},
                {"kind": "cough", "start_s": 70.0, "duration_s": 1.5},
            ],
        }
        scenario, geometry, noise, sim_kwargs, second = parse_scenario_config(cfg)
        assert len(scenario.events) == 2
        assert geometry.psi == 1.0
        assert second is None
        assert sim_kwargs["seed"] == 3

    def test_auto_overnight_paper_defaults(self):
        # 8 h at 3 normal events/h plus 2 seizures -> 24 normal + 2 seizure
        # labels (dimensions kept tiny: the label logic is rate-independent)
        cfg = {
            "duration_s": 8 * 3600.0,
            "seed": 1,
            "sample_rate_hz": 4.0,
            "n_rx": 2,
            "n_sc": 2,
            "auto_events": {"n_seizures": 2, "normal_events_per_hour": 3},
        }
        trace = simulate_from_config(cfg)
        n_sz = sum(1 for ev in trace.events if ev.is_seizure)
        assert n_sz == 2
        assert len(trace.events) - n_sz == 24

    def test_geometry_from_phi(self):
        cfg = {"duration_s": 10.0, "geometry": {"phi_rad": math.pi / 3}}
        _, geometry, *_ = parse_scenario_config(cfg)
        assert geometry.psi == pytest.approx(1.0)

    def test_missing_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            parse_scenario_config({})

    @pytest.mark.parametrize("cfg, match", BAD_SCENARIO_CONFIGS)
    def test_unknown_key_rejected(self, cfg, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            simulate_from_config(cfg)

    @pytest.mark.parametrize("second", [False, True])
    def test_auto_events_rejects_what_it_would_ignore(self, second):
        # build_night_scenario draws the events itself
        person = {"auto_events": {"n_seizures": 1},
                  "events": [{"kind": "cough", "start_s": 50.0, "duration_s": 1.5}]}
        cfg = {"duration_s": 60.0, "n_rx": 1, "n_sc": 2}
        cfg.update({"second_person": person} if second else person)
        with pytest.raises(ValueError, match="events cannot be combined with auto_events"):
            simulate_from_config(cfg)

    @pytest.mark.parametrize("second", [False, True])
    def test_auto_events_honours_breathing_phase(self, second):
        # the config's breathing profile, phase included, is the one
        # build_night_scenario puts under the events it draws
        person = {"auto_events": {"n_seizures": 1}, "breathing": {"phase_rad": 1.0}}
        cfg = {"duration_s": 60.0, "seed": 4, "n_rx": 1, "n_sc": 2}
        cfg.update({"second_person": person} if second else person)
        night = build_night_scenario(60.0, 1, 0, seed=5 if second else 4,
                                     breathing=breathing_profile(60.0, phase_rad=1.0))
        if second:
            first = generate_trace(Scenario(60.0, breathing_profile(60.0)), G, None,
                                   seed=4, n_rx=1, n_sc=2)
            direct = superpose_person(first, night, seed=5)
        else:
            direct = generate_trace(night, G, None, seed=4, n_rx=1, n_sc=2)
        got = simulate_from_config(cfg).content_hash()
        assert got == direct.content_hash()
        del (cfg["second_person"] if second else cfg)["breathing"]
        assert simulate_from_config(cfg).content_hash() != got

    def test_second_person_and_pipeline_sections_load(self):
        cfg = {
            "duration_s": 30.0, "n_rx": 1, "n_sc": 2, "pipeline": {"t_min_s": 5.0},
            "second_person": {"seed": 3, "breathing": {"f_o_hz": 0.2}, "events": [
                {"kind": "cough", "start_s": 10.0, "duration_s": 1.5}]},
        }
        assert simulate_from_config(cfg).events == (
            LabelInterval(10.0, 11.5, EventKind.COUGH, 2),
        )

    # an event spec and the factory call it stands for, given the event's rng
    # and the trace's sample rate
    FACTORY_CASES = {
        "seizure": (
            {"kind": "seizure", "start_s": 10.0, "duration_s": 22.0},
            lambda dur, rng, rate: seizure_profile(dur, 0.75, 3.0, rate_hz=rate),
        ),
        "seizure_tonic": (
            {"kind": "seizure", "start_s": 10.0, "duration_s": 24.0, "v_max_mps": 0.7,
             "f_o_hz": 2.2, "phase_rad": 1.0, "tonic_s": 4.0},
            lambda dur, rng, rate: seizure_profile(
                dur, 0.7, 2.2, phase_rad=1.0, tonic_s=4.0, rate_hz=rate),
        ),
        "posture_shift": (
            {"kind": "posture_shift", "start_s": 10.0, "duration_s": 7.0},
            lambda dur, rng, rate: posture_shift_profile(dur, rng=rng, rate_hz=rate),
        ),
        "posture_shift_v": (
            {"kind": "posture_shift", "start_s": 10.0, "duration_s": 7.0, "v_max_mps": 0.25},
            lambda dur, rng, rate: posture_shift_profile(dur, 0.25, rng=rng, rate_hz=rate),
        ),
        "scratch": (
            {"kind": "scratch", "start_s": 10.0, "duration_s": 4.0},
            lambda dur, rng, rate: scratch_profile(dur, rng=rng, rate_hz=rate),
        ),
        "cough": (
            {"kind": "cough", "start_s": 10.0, "duration_s": 1.5},
            lambda dur, rng, rate: cough_profile(dur, rng=rng, rate_hz=rate),
        ),
        "limb_jerk": (
            {"kind": "limb_jerk", "start_s": 10.0, "duration_s": 0.3},
            lambda dur, rng, rate: limb_jerk_profile(dur, 0.5, rate_hz=rate),
        ),
        "limb_jerk_v": (
            {"kind": "limb_jerk", "start_s": 10.0, "duration_s": 0.25, "v_max_mps": 0.4},
            lambda dur, rng, rate: limb_jerk_profile(dur, 0.4, rate_hz=rate),
        ),
    }

    def test_unknown_event_parameter_rejected(self):
        cfg = {"duration_s": 40.0, "events": [
            {"kind": "seizure", "start_s": 10.0, "duration_s": 22.0, "f_o": 2.5, "v_max": 0.7},
        ]}
        with pytest.raises(ValueError, match=r"unknown seizure event parameter 'f_o'"):
            simulate_from_config(cfg)

    @pytest.mark.parametrize("case", sorted(FACTORY_CASES))
    def test_event_motion_matches_factory(self, case):
        spec, factory = self.FACTORY_CASES[case]
        seed, rate, duration = 4, 100.0, 40.0
        cfg = {"duration_s": duration, "seed": seed, "n_rx": 1, "n_sc": 2,
               "sample_rate_hz": rate, "events": [spec]}
        # the first event's rng, as simulate_from_config seeds it
        motion = factory(spec["duration_s"], np.random.default_rng(seed + 7919), rate)
        event = ScenarioEvent(EventKind(spec["kind"]), spec["start_s"], spec["duration_s"],
                              motion)
        direct = generate_trace(
            Scenario(duration, breathing_profile(duration), (event,)), G, None,
            seed=seed, n_rx=1, n_sc=2, sample_rate_hz=rate,
        )
        assert simulate_from_config(cfg).content_hash() == direct.content_hash()


def detection_corpus_trace(seed=0, duration=160.0):
    events = (
        ScenarioEvent(EventKind.SEIZURE, 40.0, 22.0, seizure_profile(22.0, 0.75, 3.0)),
        ScenarioEvent(EventKind.SEIZURE, 100.0, 22.0, seizure_profile(22.0, 0.72, 2.5)),
    )
    noise = NoiseSpec(awgn_sigma=0.02, jitter_std_s=0.0005)
    return generate_trace(
        Scenario(duration, breathing_profile(duration), events),
        G, noise, seed=seed, n_rx=3, n_sc=10,
    )


class TestSweeps:
    def test_f_th_and_t_min_sweeps_monotone(self):
        config = PipelineConfig()
        analyses = [analyze_trace(detection_corpus_trace(seed=s), config)
                    for s in (0, 1)]
        rows = sweep_parameter(analyses, "f_th", np.arange(6.0, 14.01, 1.0), config)
        sdrs = [r["sdr_pct"] for r in rows]
        assert all(a >= b for a, b in zip(sdrs, sdrs[1:]))
        rows = sweep_parameter(analyses, "t_min", np.arange(2.0, 10.01, 2.0), config)
        mrts = [r["mrt_s"] for r in rows]
        assert all(a <= b for a, b in zip(mrts, mrts[1:]) if a is not None)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter([], "q", [1.0], PipelineConfig())


@pytest.fixture(scope="module")
def two_wavelength_traces(tmp_path_factory):
    """Three one-minute traces, each with a seizure and two normal events:
    psi 1 and 1.4 at 5.72 cm, and psi 1 at 12 cm."""
    tdir = tmp_path_factory.mktemp("sweep_traces")
    for seed, wavelength, psi in [(1, 0.057225, 1.0), (2, 0.057225, 1.4), (3, 0.12, 1.0)]:
        cfg = {"duration_s": 60.0, "seed": seed, "n_rx": 3, "n_sc": 6, "dtype": "complex64",
               "noise": {"awgn_sigma": 0.02, "jitter_std_s": 0.0005},
               "geometry": {"wavelength_m": wavelength, "psi": psi},
               "events": [
                   {"kind": "seizure", "start_s": 16.0, "duration_s": 22.0,
                    "v_max_mps": 0.75, "f_o_hz": 3.0},
                   {"kind": "posture_shift", "start_s": 42.0, "duration_s": 8.0},
                   {"kind": "scratch", "start_s": 53.0, "duration_s": 4.0},
               ]}
        scenario = tdir / f"s{seed}.json"
        scenario.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tdir / f"n{seed}.csitrace")]) == 0
    return tdir


class TestCli:
    # nights with one seizure, each simulated and detected through the CLI:
    # the plain 60 s 3x3 night; one whose awgn_sigma mixes noisy and
    # noiseless streams; one at 110 Hz, whose event-detection blocks are 2
    # samples (the gcd of its 220-sample window and 6-sample hop); one at
    # 25 Hz, whose f_th at psi = 1 lies below its 12.5 Hz Nyquist frequency;
    # and a 25-minute one, long enough for derive_streams to walk its window
    # on two lanes
    NIGHTS = {
        "60s": {},
        "mixed-noise": {"noise": {"awgn_sigma": [[0.02, 0, 0.03], [0, 0.01, 0], [0.02, 0.02, 0]],
                                  "jitter_std_s": 0.0005}},
        "110Hz": {"sample_rate_hz": 110},
        "25Hz": {"sample_rate_hz": 25},
        "25min": {"duration_s": 1500,
                  "events": [{"kind": "seizure", "start_s": 900, "duration_s": 22}]},
    }

    @pytest.mark.parametrize("night", list(NIGHTS))
    def test_night_seizure_detected(self, tmp_path, capsys, night):
        cfg = {"duration_s": 60, "seed": 1, "n_rx": 3, "n_sc": 3,
               "noise": {"awgn_sigma": 0.02, "jitter_std_s": 0.0005},
               "events": [{"kind": "seizure", "start_s": 30, "duration_s": 22}]}
        config = tmp_path / "night.json"
        config.write_text(json.dumps(cfg | self.NIGHTS[night]))
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(config), "--out", str(trace_path)]) == 0
        assert main(["detect", "--trace", str(trace_path)]) == 0
        assert "SDR = 100.00%  (1/1 seizures)" in capsys.readouterr().out

    def _write_scenario(self, tmp_path, **overrides):
        cfg = {
            "duration_s": 120.0,
            "seed": 5,
            "n_rx": 3,
            "n_sc": 6,
            "noise": {"awgn_sigma": 0.02, "jitter_std_s": 0.0005},
            "events": [
                {"kind": "seizure", "start_s": 50.0, "duration_s": 22.0,
                 "v_max_mps": 0.75, "f_o_hz": 3.0},
                {"kind": "posture_shift", "start_s": 90.0, "duration_s": 8.0},
            ],
        }
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate_detect_round_trip(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        trace_path = tmp_path / "night.csitrace.gz"
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "derived f_th" in out
        assert (tmp_path / "night.labels.csv").exists()

        report_path = tmp_path / "report.json"
        events_path = tmp_path / "night.events.csv"
        assert main(["detect", "--trace", str(trace_path),
                     "--events-out", str(events_path),
                     "--report-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["sdr_pct"] == 100.0
        assert report["p_fa"] == 0.0
        events = read_events_csv(events_path)
        assert any(e.event_class is EventClass.SEIZURE for e in events)

    def test_detect_without_labels_sidecar(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        (tmp_path / "night.labels.csv").unlink()
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["detect", "--trace", str(trace_path),
                     "--report-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_seizures"] == 0 and report["sdr_pct"] is None
        events = read_events_csv(tmp_path / "night.events.csv")
        assert events
        # with no labels, every seizure verdict matches none
        n_verdicts = sum(e.event_class is EventClass.SEIZURE for e in events)
        assert n_verdicts >= 1
        assert report["n_unmatched_seizure_verdicts"] == n_verdicts
        assert f"{n_verdicts} seizure verdicts matched no label" in capsys.readouterr().out

    def test_report_holds_calibration_health(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["detect", "--trace", str(trace_path),
                     "--report-out", str(report_path)]) == 0
        assert "matched no label" not in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["n_unmatched_seizure_verdicts"] == 0
        calibration = harness.run_pipeline(read_trace(trace_path), PipelineConfig()).calibration
        assert report["calibration"] == {
            "sigma_c_sq": calibration.sigma_c_sq,
            "streams": [{"id": str(sid), "snr": calibration.snr_by_id[sid]}
                        for sid in calibration.selected_ids],
        }
        snrs = [stream["snr"] for stream in report["calibration"]["streams"]]
        assert len(snrs) == PipelineConfig().k_streams
        assert snrs == sorted(snrs, reverse=True) and snrs[-1] > 0

    def test_sweep_without_labels_sidecar_exit_code(self, tmp_path, capsys):
        tdir = tmp_path / "traces"
        tdir.mkdir()
        write_trace(tiny_trace(), tdir / "t.csitrace")
        (tdir / "t.labels.csv").unlink()
        rc = main(["sweep", "--trace-dir", str(tdir), "--param", "psi",
                   "--out", str(tmp_path / "psi.csv")])
        assert rc == 2
        assert "missing labels sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["detect", "--trace", "t.csitrace"],
                                         ["simulate", "--config", "s.json",
                                          "--out", "t.csitrace"]])
    def test_labels_flag_removed(self, command):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--labels", "x.labels.csv"])
        assert exc.value.code == 2

    # SHA-256 of what simulate + detect write for two one-minute scenarios
    # shaped like the benchmark's cli_files op, recorded while the CLI still
    # read and wrote the labels sidecar itself; report.json was recorded again
    # when the report's config gained cal_start_s, and again when the report
    # gained n_unmatched_seizure_verdicts and its calibration block, each time
    # equal to the old report without the new keys
    RECORDED_OUTPUTS = {
        (3, 0.72, 2.4, 1.0): {
            "night.csitrace": "9e03c8d23f22551f6a2329bbf7c54313bb5774e69a85f5af5d78319983c2b20d",
            "night.labels.csv": "42916ae6cdea35f000013ab26eef258066aa332836a9dc1bb6f92add75c761f5",
            "night.events.csv": "380762b185cfe1fb621dcde9b254e8d9f59dbe227ea5be91a9f98b716bffcf57",
            "report.json": "d99547df172035e0b24f6b7a5ca675bd39718b5b9b7ae57d63f638af6dbfdca5",
        },
        (17, 0.78, 3.3, 4.5): {
            "night.csitrace": "82e3fbebf08089d4559b691f3ded33fb038fa88eb5f4a0e8be86bbc5bd6d001e",
            "night.labels.csv": "42916ae6cdea35f000013ab26eef258066aa332836a9dc1bb6f92add75c761f5",
            "night.events.csv": "92cc0f4e7d732712f8b461c45cd17014b3d9631862b8ac48a1b0c762eef1ac77",
            "report.json": "d59c8860c23103536a859ff67ec45acd0477dd729c3e6e2e7d67cf11c3117189",
        },
    }

    @pytest.mark.parametrize("case", sorted(RECORDED_OUTPUTS))
    def test_outputs_match_recorded(self, tmp_path, case):
        seed, v, f, phase = case
        cfg = {"duration_s": 60.0, "seed": seed, "dtype": "complex64",
               "noise": {"awgn_sigma": 0.02, "outlier_rate_per_s": 0.02,
                         "outlier_magnitude": 8.0, "jitter_std_s": 0.0005},
               "events": [
                   {"kind": "posture_shift", "start_s": 14.0, "duration_s": 6.0},
                   {"kind": "seizure", "start_s": 24.0, "duration_s": 22.0,
                    "v_max_mps": v, "f_o_hz": f, "phase_rad": phase},
                   {"kind": "scratch", "start_s": 50.0, "duration_s": 4.0},
                   {"kind": "cough", "start_s": 56.5, "duration_s": 1.5},
               ]}
        (tmp_path / "s.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "night.csitrace")]) == 0
        assert main(["detect", "--trace", str(tmp_path / "night.csitrace"),
                     "--report-out", str(tmp_path / "report.json")]) == 0
        from csiwatch.traceio import file_sha256

        got = {name: file_sha256(tmp_path / name) for name in self.RECORDED_OUTPUTS[case]}
        assert got == self.RECORDED_OUTPUTS[case]

    # SHA-256 of the sweep CSVs over two_wavelength_traces, recorded while
    # cmd_sweep still grouped the psi sweep and combined its reports itself
    RECORDED_SWEEPS = {
        ("f_th", "3:11:2"): "8ece988874000607e822e01637cc4ecd3095e9e0a67f896988452abb456e9a7f",
        ("t_min", "2:26:8"): "33f9ab8d8e168012d93247b00c1adf85c5855ebeb89b98e967fec8eaba8f0200",
        ("psi", None): "2d4759efffcb765ce323627407bbbeca440c54d3ed1f0db6bfbbb70539cd468c",
    }

    @pytest.mark.parametrize("param, grid", list(RECORDED_SWEEPS))
    def test_sweep_csv_matches_recorded(self, tmp_path, two_wavelength_traces, param, grid):
        out_csv = tmp_path / f"{param}.csv"
        argv = ["sweep", "--trace-dir", str(two_wavelength_traces), "--param", param,
                "--out", str(out_csv)]
        assert main(argv + (["--grid", grid] if grid else [])) == 0
        from csiwatch.traceio import file_sha256

        assert file_sha256(out_csv) == self.RECORDED_SWEEPS[param, grid]

    @pytest.mark.parametrize("suffix", ["csitrace", "csitrace.gz"])
    def test_simulate_deterministic_checksums(self, tmp_path, suffix):
        scenario = self._write_scenario(tmp_path)
        p1, p2 = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
        assert main(["simulate", "--config", str(scenario), "--out", str(p1)]) == 0
        assert main(["simulate", "--config", str(scenario), "--out", str(p2)]) == 0
        from csiwatch.traceio import file_sha256

        assert file_sha256(p1) == file_sha256(p2)

    def test_detect_rejects_calibration_overlapping_event(self, tmp_path, capsys):
        scenario = self._write_scenario(
            tmp_path,
            events=[{"kind": "seizure", "start_s": 5.0, "duration_s": 22.0,
                     "v_max_mps": 0.75, "f_o_hz": 3.0}],
        )
        trace_path = tmp_path / "bad.csitrace"
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(trace_path)]) == 0
        rc = main(["detect", "--trace", str(trace_path)])
        assert rc == 2
        assert "breathing only" in capsys.readouterr().err

    def test_sweep_rejects_calibration_overlapping_event(self, tmp_path, capsys):
        scenario = self._write_scenario(
            tmp_path,
            events=[{"kind": "seizure", "start_s": 5.0, "duration_s": 22.0,
                     "v_max_mps": 0.75, "f_o_hz": 3.0}],
        )
        tdir = tmp_path / "traces"
        tdir.mkdir()
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tdir / "bad.csitrace")]) == 0
        rc = main(["sweep", "--trace-dir", str(tdir), "--param", "f_th",
                   "--grid", "7:11:2", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csitrace" in err and "breathing only" in err

    def test_scenario_key_typo_exit_code(self, tmp_path, capsys):
        scenario = tmp_path / "typo.json"
        scenario.write_text(json.dumps(
            {"duration_s": 10, "sample_rate": 100, "noise": {"awgn": 0.5}, "n_rxx": 1}
        ))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert "unknown scenario config key 'n_rxx'" in capsys.readouterr().err

    def test_auto_events_with_events_exit_code(self, tmp_path, capsys):
        scenario = tmp_path / "both.json"
        scenario.write_text(json.dumps({"duration_s": 60.0, "auto_events": {"n_seizures": 1},
                                        "events": [{"kind": "cough", "start_s": 50.0,
                                                    "duration_s": 1.5}]}))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert "events cannot be combined with auto_events" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, match", BAD_SCENARIO_CONFIGS)
    def test_bad_scenario_config_exit_code(self, tmp_path, capsys, cfg, match):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "x.csitrace").exists()

    @pytest.mark.parametrize("cfg, match", NON_OBJECT_CONFIGS)
    def test_non_object_scenario_config_exit_code(self, tmp_path, capsys, cfg, match):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert f"bad.json: {match}" in capsys.readouterr().err
        assert not (tmp_path / "x.csitrace").exists()

    # a bad value in each part of second_person, and the message naming it
    BAD_SECOND_PERSON = [
        ({"seed": -1}, "second_person key 'seed': must be non-negative, got -1"),
        ({"seed": 1.5}, "second_person key 'seed': the value must be a whole number"),
        ({"breathing": {"f_o_hz": math.nan}}, "breathing key 'f_o_hz': must be finite, got nan"),
        ({"events": [{"kind": "cough", "start_s": "ten", "duration_s": 1.5}]},
         "event 0 key 'start_s': could not convert"),
        ({"events": [{"kind": "sneeze", "start_s": 20.0, "duration_s": 1.5}]},
         "event 0 key 'kind': 'sneeze' is not a valid EventKind"),
        ({"auto_events": {"n_seizures": 1.7}},
         "auto_events key 'n_seizures': the value must be a whole number, got 1.7"),
        ({"auto_events": {"n_seizures": 1},
          "events": [{"kind": "cough", "start_s": 50.0, "duration_s": 1.5}]},
         "events cannot be combined with auto_events"),
        ({"auto_events": {"n_normal_events": 1, "normal_events_per_hour": 0}},
         "n_normal_events cannot be combined with normal_events_per_hour"),
    ]

    @pytest.mark.parametrize("second, match", BAD_SECOND_PERSON)
    def test_bad_second_person_refused_before_generation(
            self, tmp_path, capsys, monkeypatch, second, match):
        # an hour-long first person is never generated
        def generate_trace(*args, **kwargs):
            raise AssertionError("generate_trace was called")

        monkeypatch.setattr(harness, "generate_trace", generate_trace)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"duration_s": 3600, "second_person": second}))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert match in capsys.readouterr().err

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration_s": 60.0, "events": [
            {"kind": "seizure", "start_s": 10.0, "duration_s": 5.0}
        ]}))
        rc = main(["simulate", "--config", str(bad),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2

    def test_unknown_event_parameter_exit_code(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path, events=[
            {"kind": "seizure", "start_s": 50.0, "duration_s": 22.0, "f_o": 3.0},
        ])
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert "unknown seizure event parameter 'f_o'" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, capsys):
        scenario = self._write_scenario(tmp_path)
        import csiwatch.cli as cli_mod

        def boom(cfg):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli_mod.harness, "simulate_from_config", boom)
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, match", [
        # f_th at psi = 2 lies above the 12.5 Hz Nyquist frequency
        ({"sample_rate_hz": 25.0, "geometry": {"psi": 2.0}},
         "f_th = 15.90 Hz is at or above the Nyquist frequency 12.5 Hz of a trace "
         "sampled at 25 Hz"),
        # no band is left above event detection's
        ({"sample_rate_hz": 2.0},
         "a trace sampled at 2 Hz has its Nyquist frequency 1 Hz at or below the "
         "1.1 Hz band event detection leaves out")],
        ids=["f_th-above-nyquist", "nyquist-below-ed-band"])
    def test_sample_rate_detector_cannot_work_at_exit_code(
            self, tmp_path, capsys, monkeypatch, overrides, match):
        scenario = self._write_scenario(tmp_path, **overrides)
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        capsys.readouterr()

        # refused before derive and Hampel run on every stream
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrate was called")

        monkeypatch.setattr(harness, "calibrate", calibrate)
        assert main(["detect", "--trace", str(trace_path)]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, f_th", [
        # psi = 2 puts the group's f_th above the 12.5 Hz Nyquist frequency
        (["--param", "psi"], "15.90"),
        # the grid's last value, 14 Hz, lies above it too
        (["--param", "f_th", "--grid", "6:14:4"], "14.00"),
        # a T_min sweep reports the trace at its own f_th
        (["--param", "t_min", "--grid", "3:5:1"], "15.90")], ids=["psi", "f_th", "t_min"])
    def test_sweep_refuses_f_th_the_trace_cannot_reach(
            self, tmp_path, capsys, monkeypatch, sweep, f_th):
        scenario = self._write_scenario(tmp_path, sample_rate_hz=25.0, geometry={"psi": 2.0})
        tdir = tmp_path / "traces"
        tdir.mkdir()
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tdir / "night.csitrace")]) == 0
        capsys.readouterr()
        analysed = []
        monkeypatch.setattr(harness, "analyze_trace",
                            lambda trace, config: analysed.append(trace))
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--trace-dir", str(tdir), *sweep, "--out", str(out_csv)]) == 2
        assert (f"f_th = {f_th} Hz is at or above the Nyquist frequency 12.5 Hz of a trace "
                "sampled at 25 Hz") in capsys.readouterr().err
        assert not out_csv.exists()
        assert analysed == []  # refused before the trace is analysed

    def test_detect_calibration_shorter_than_a_detection_window(self, tmp_path, capsys):
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(self._write_scenario(tmp_path)),
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["detect", "--trace", str(trace_path), "--cal-len", "1"]) == 2
        assert ("the 1 s calibration window is shorter than one 2 s detection window"
                in capsys.readouterr().err)

    def test_config_that_is_not_json_named(self, tmp_path, capsys):
        config = tmp_path / "night.json"
        config.write_text("{duration_s: 60}")
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "night.csitrace")]) == 2
        assert f"{config}: invalid JSON" in capsys.readouterr().err

    def test_simulate_seed_overrides_the_config_seed(self, tmp_path):
        scenario = self._write_scenario(tmp_path)
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path),
                     "--seed", "9"]) == 0
        cfg = json.loads(scenario.read_text())
        got = read_trace(trace_path).content_hash()
        assert got == simulate_from_config({**cfg, "seed": 9}).content_hash()
        assert got != simulate_from_config(cfg).content_hash()

    def test_sweep_without_traces_exit_code(self, tmp_path, capsys):
        tdir = tmp_path / "traces"
        tdir.mkdir()
        (tdir / "notes.txt").write_text("no trace here")
        assert main(["sweep", "--trace-dir", str(tdir), "--param", "psi",
                     "--out", str(tmp_path / "psi.csv")]) == 2
        assert f"no *.csitrace files in {tdir}" in capsys.readouterr().err

    def test_f_th_sweep_without_grid_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--trace-dir", str(tmp_path), "--param", "f_th",
                     "--out", str(tmp_path / "f_th.csv")]) == 2
        assert "--grid is required for a f_th sweep" in capsys.readouterr().err

    def test_auto_events_that_do_not_fit_exit_code(self, tmp_path, capsys):
        config = tmp_path / "crowded.json"
        config.write_text(json.dumps({"duration_s": 60, "auto_events": {"n_seizures": 3}}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "crowded.csitrace")]) == 2
        assert "could not place all events" in capsys.readouterr().err

    def test_pipeline_config_sample_rate_rejected(self, tmp_path, capsys):
        # the pipeline takes its rate from the trace, so the config has no rate
        trace_path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), trace_path)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"sample_rate_hz": 100.0}))
        rc = main(["detect", "--trace", str(trace_path), "--config", str(config)])
        assert rc == 2
        assert "bad pipeline config" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["q", "t_win_ed_s", "hampel_n_sigmas", "pca_block_s"])
    def test_pipeline_config_constant_rejected(self, tmp_path, capsys, key):
        # only t_cal_s, k_streams, t_min_s and f_th_hz are settable
        trace_path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), trace_path)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({key: 1.0}))
        rc = main(["detect", "--trace", str(trace_path), "--config", str(config)])
        assert rc == 2
        assert "bad pipeline config" in capsys.readouterr().err

    @pytest.mark.parametrize("args, match", BAD_PIPELINE_SETTINGS)
    def test_bad_pipeline_setting_exit_code(self, tmp_path, capsys, args, match):
        # the labeled seizure overlaps every calibration window the trace has
        trace_path = tmp_path / "t.csitrace"
        write_trace(dataclasses.replace(tiny_trace(), events=(
            LabelInterval(0.5, 4.5, EventKind.SEIZURE),)), trace_path)
        config = tmp_path / "pipeline.json"
        if isinstance(args[-1], dict):
            config.write_text(json.dumps(args[-1]))
            args = [*args[:-1], str(config)]
        rc = main(["detect", "--trace", str(trace_path), *args])
        assert rc == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, match", NON_OBJECT_CONFIGS + [
        ({"pipeline": [1]}, "bad pipeline config: pipeline must be an object, got [1]")])
    def test_non_object_pipeline_config_exit_code(self, tmp_path, capsys, cfg, match):
        trace_path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), trace_path)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(cfg))
        match = f"pipeline.json: {match}"
        rc = main(["detect", "--trace", str(trace_path), "--config", str(config)])
        assert rc == 2
        assert match in capsys.readouterr().err
        rc = main(["sweep", "--trace-dir", str(tmp_path), "--param", "psi",
                   "--out", str(tmp_path / "sweep.csv"), "--config", str(config)])
        assert rc == 2
        assert match in capsys.readouterr().err

    def test_setting_beside_pipeline_section_refused(self, tmp_path, capsys):
        # a file with a "pipeline" section is a scenario config, which has no
        # t_cal_s key; the section's k_streams does not make it readable
        trace_path = tmp_path / "t.csitrace"
        write_trace(tiny_trace(), trace_path)
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"pipeline": {"k_streams": 3}, "t_cal_s": 1e9}))
        rc = main(["detect", "--trace", str(trace_path), "--config", str(config)])
        assert rc == 2
        assert "unknown scenario config key 't_cal_s'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, match", BAD_PIPELINE_SECTIONS)
    def test_bad_pipeline_section_refused_before_generation(
            self, tmp_path, capsys, monkeypatch, section, match):
        def generate_trace(*args, **kwargs):
            raise AssertionError("generate_trace was called")

        monkeypatch.setattr(harness, "generate_trace", generate_trace)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"duration_s": 3600, "pipeline": section}))
        rc = main(["simulate", "--config", str(scenario),
                   "--out", str(tmp_path / "x.csitrace")])
        assert rc == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, expected", PIPELINE_FILES)
    def test_pipeline_config_reads_both_shapes(self, cfg, expected):
        config = harness.pipeline_config(cfg)
        assert config == expected
        # a count or length the file writes as an integer stays one in the report
        assert dataclasses.asdict(config) == dataclasses.asdict(expected)
        assert harness.pipeline_config(cfg, t_min_s=7.0).t_min_s == 7.0

    def test_scenario_pipeline_section_applied(self, tmp_path):
        scenario = self._write_scenario(tmp_path, pipeline={"t_cal_s": 10.0, "k_streams": 5})
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        report_path = tmp_path / "report.json"
        for flags, t_cal_s in [([], 10.0), (["--cal-len", "11"], 11.0)]:
            assert main(["detect", "--trace", str(trace_path), "--config", str(scenario),
                         "--report-out", str(report_path), *flags]) == 0
            config = json.loads(report_path.read_text())["config"]
            assert (config["t_cal_s"], config["k_streams"]) == (t_cal_s, 5)

    def test_report_records_calibration_start(self, tmp_path):
        scenario = self._write_scenario(tmp_path, duration_s=30.0, events=[])
        trace_path = tmp_path / "night.csitrace"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        configs = []
        for start in ("0", "5"):
            report_path = tmp_path / f"report{start}.json"
            assert main(["detect", "--trace", str(trace_path), "--cal-start", start,
                         "--report-out", str(report_path)]) == 0
            configs.append(json.loads(report_path.read_text())["config"])
        assert configs[1]["cal_start_s"] == 5.0
        assert {k for k in configs[0] if configs[0][k] != configs[1][k]} == {"cal_start_s"}

    @pytest.mark.parametrize("grid, match", BAD_GRIDS)
    def test_bad_grid_exit_code(self, tmp_path, capsys, grid, match):
        rc = main(["sweep", "--trace-dir", str(tmp_path), "--param", "t_min",
                   "--grid", grid, "--out", str(tmp_path / "sweep.csv")])
        assert rc == 2
        assert match in capsys.readouterr().err

    def test_whole_float_k_streams_accepted(self):
        # JSON may write a count as 15.0
        k = PipelineConfig(k_streams=15.0).k_streams
        assert k == 15 and type(k) is int

    def test_detect_help_lists_pipeline_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["detect", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "t_cal_s, k_streams, t_min_s and f_th_hz" in help_text

    def test_oracle_output(self, capsys):
        assert main(["oracle", "--beta-prime", "2.0", "--f-o", "1.0",
                     "--delta-mu", "0.7854", "--psi", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth: 3.0000 Hz" in out
        assert "f_th = 8.83 Hz" in out

    def test_oracle_hides_the_same_zero_lines_for_a_negative_amplitude(self, capsys):
        # at delta_mu = 0 every odd line of beta' = 2 has amplitude 0
        printed = {}
        for amplitude in ("1", "-1"):
            assert main(["oracle", "--beta-prime", "2", "--f-o", "3",
                         "--amplitude", amplitude]) == 0
            lines = capsys.readouterr().out.splitlines()
            printed[amplitude] = [line.split()[0] for line in lines[2:-1]]
        assert printed["-1"] == printed["1"]
        assert printed["1"][:3] == ["0", "2", "4"]

    @pytest.mark.parametrize("args, match", BAD_ORACLE_INPUTS)
    def test_bad_oracle_input_exit_code(self, capsys, args, match):
        assert main(["oracle", "--beta-prime", "2", "--f-o", "3", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert match in err

    def test_sweep_cli(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        tdir = tmp_path / "traces"
        tdir.mkdir()
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tdir / "n1.csitrace")]) == 0
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--trace-dir", str(tdir), "--param", "f_th",
                     "--grid", "7:11:2", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "f_th,sdr_pct,p_fa,mrt_s"
        assert len(lines) == 4

    def test_psi_sweep_cli(self, tmp_path):
        tdir = tmp_path / "traces"
        tdir.mkdir()
        for psi, seed in [(1.0, 1), (1.4, 2)]:
            scenario = self._write_scenario(
                tmp_path, geometry={"wavelength_m": 0.057225, "psi": psi},
                seed=seed,
            )
            assert main(["simulate", "--config", str(scenario),
                         "--out", str(tdir / f"psi{seed}.csitrace")]) == 0
        out_csv = tmp_path / "psi.csv"
        assert main(["sweep", "--trace-dir", str(tdir), "--param", "psi",
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "psi,wavelength_m,f_th_hz,sdr_pct,p_fa,mrt_s"
        f_ths = [float(line.split(",")[2]) for line in lines[1:]]
        assert f_ths[0] == pytest.approx(8.83, abs=0.1)
        assert f_ths[1] == pytest.approx(11.64, abs=0.15)

    def test_psi_sweep_honours_config_f_th(self, tmp_path):
        tdir = tmp_path / "traces"
        tdir.mkdir()
        scenario = self._write_scenario(tmp_path)
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tdir / "n1.csitrace")]) == 0
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"f_th_hz": 30.0}))
        out_csv = tmp_path / "psi.csv"
        assert main(["sweep", "--trace-dir", str(tdir), "--param", "psi",
                     "--config", str(config), "--out", str(out_csv)]) == 0
        row = out_csv.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == 30.0  # the config's f_th, not the derived 8.83
        assert float(row[3]) == 0.0  # no seizure bandwidth reaches 30 Hz

    def test_psi_sweep_groups_by_wavelength(self, tmp_path):
        # equal psi, different wavelengths: each group derives its own f_th
        tdir = tmp_path / "traces"
        tdir.mkdir()
        for name, wavelength in [("short", 0.057225), ("long", 0.12)]:
            scenario = self._write_scenario(
                tmp_path, duration_s=60.0,
                geometry={"wavelength_m": wavelength, "psi": 1.0},
                events=[{"kind": "seizure", "start_s": 25.0, "duration_s": 22.0,
                         "v_max_mps": 0.75, "f_o_hz": 3.0}],
            )
            assert main(["simulate", "--config", str(scenario),
                         "--out", str(tdir / f"{name}.csitrace")]) == 0
        out_csv = tmp_path / "psi.csv"
        assert main(["sweep", "--trace-dir", str(tdir), "--param", "psi",
                     "--out", str(out_csv)]) == 0
        rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("1", "0.057225"), ("1", "0.12")]
        assert float(rows[0][2]) == pytest.approx(8.83, abs=0.01)
        assert float(rows[1][2]) == pytest.approx(5.12, abs=0.01)
        assert [float(r[3]) for r in rows] == [100.0, 100.0]


class TestPipelineEndToEnd:
    def test_noiseless_single_seizure_perfect(self):
        events = (ScenarioEvent(EventKind.SEIZURE, 40.0, 22.0,
                                seizure_profile(22.0, 0.75, 3.0)),)
        trace = generate_trace(
            Scenario(90.0, breathing_profile(90.0), events),
            G, None, seed=0, n_rx=3, n_sc=10,
        )
        result = run_pipeline(trace, PipelineConfig())
        rep = compute_report(result.events, list(trace.events))
        assert rep.sdr_pct == 100.0
        assert rep.n_false_alarms == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("stage", [run_pipeline, analyze_trace])
    def test_non_finite_csi_rejected(self, stage, bad):
        # the trace a stage would be given cannot be built
        trace = generate_trace(Scenario(60.0, breathing_profile(60.0)), G, None,
                               seed=0, n_rx=3, n_sc=6)
        csi = trace.csi.copy()
        csi[:, :, 6000] = bad
        with pytest.raises(ValueError, match=r"antenna 0, subcarrier 0 at 30\.000 s"):
            stage(dataclasses.replace(trace, csi=csi), PipelineConfig())

    def test_pipeline_paths_agree(self):
        # run_pipeline classifies in run_detection, which calls a closed
        # event shorter than T_min normal without a profile; analyze_trace
        # profiles every interval and leaves the verdict to classify_event
        rng = np.random.default_rng(0)
        events = (
            ScenarioEvent(EventKind.COUGH, 20.0, 1.5, cough_profile(1.5, rng=rng)),
            ScenarioEvent(EventKind.SEIZURE, 30.0, 22.0, seizure_profile(22.0, 0.75, 3.0)),
            ScenarioEvent(EventKind.POSTURE_SHIFT, 62.0, 8.0,
                          posture_shift_profile(8.0, rng=rng)),
        )
        trace = generate_trace(
            Scenario(70.0, breathing_profile(70.0), events),
            G, NoiseSpec(awgn_sigma=0.02, jitter_std_s=0.0005), seed=0, n_rx=2, n_sc=5,
        )
        config = PipelineConfig()
        result = run_pipeline(trace, config)
        assert [e.event_class for e in result.events] == [
            EventClass.NORMAL, EventClass.SEIZURE, EventClass.ONGOING]
        assert result.events[0].duration_s < config.t_min_s
        analysis = analyze_trace(trace, config)
        assert result.events == classify_analysis(analysis, result.f_th_hz, config.t_min_s)

    def test_still_tonic_phase_opens_no_interval_before_clonic_onset(self):
        # a 26 s seizure at 30 s whose tonic phase lasts 21.5 s: the body
        # holds still until the clonic onset at 51.5 s
        cfg = {"duration_s": 60, "seed": 1,
               "noise": {"awgn_sigma": 0.02, "jitter_std_s": 0.0005},
               "events": [{"kind": "seizure", "start_s": 30, "duration_s": 26,
                           "tonic_s": 21.5}]}
        result = run_pipeline(simulate_from_config(cfg), PipelineConfig())
        assert result.events
        assert min(e.start_s for e in result.events) >= 51.5

    def test_breathing_only_zero_events(self):
        trace = tiny_trace(duration=30.0)
        result = run_pipeline(trace, PipelineConfig(k_streams=5))
        assert result.events == []
