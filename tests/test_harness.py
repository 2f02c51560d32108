"""Trace file round-trips, metrics, sweeps, and the command-line interface."""

import dataclasses
import gzip
import io
import json
import math

import numpy as np
import pytest

from csiwatch.cli import main
from csiwatch.config import PipelineConfig
from csiwatch.csi_sim import (
    EventKind,
    LabelInterval,
    NoiseSpec,
    Scenario,
    ScenarioEvent,
    breathing_profile,
    cough_profile,
    generate_trace,
    limb_jerk_profile,
    posture_shift_profile,
    scratch_profile,
    seizure_profile,
)
from csiwatch.detector import DetectedEvent, EventClass
from csiwatch.harness import (
    analyze_trace,
    parse_scenario_config,
    run_pipeline,
    simulate_from_config,
    sweep_parameter,
)
from csiwatch.metrics import combine_reports, compute_report
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

    @pytest.mark.parametrize("bad, match", [
        ("nan_timestamp", "non-finite timestamp"),
        ("swapped_timestamps", "strictly increase"),
        ("repeated_timestamp", "strictly increase"),
        ("nan_sample", "non-finite CSI"),
        ("inf_all_streams", "non-finite CSI"),
    ])
    def test_bad_samples_rejected(self, tmp_path, capsys, bad, match):
        trace = tiny_trace()
        ts, csi = trace.timestamps_s.copy(), trace.csi.copy()
        k = 300
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
        path = tmp_path / "bad.csitrace"
        write_trace(dataclasses.replace(trace, timestamps_s=ts, csi=csi), path)
        with pytest.raises(ValueError, match=match):
            read_trace(path)
        assert main(["detect", "--trace", str(path)]) == 2
        assert match in capsys.readouterr().err

    def test_epoch_stamped_file_rejected(self, tmp_path, capsys):
        # a capture clock that does not start at 0 s; the file is written by
        # hand because CsiTrace refuses such a trace
        trace = tiny_trace()
        header = {"version": 2, "sample_rate_hz": trace.sample_rate_hz, "n_rx": 2, "n_sc": 3,
                  "n_records": trace.n_samples, "dtype": "complex128",
                  "geometry": {"wavelength_m": G.wavelength_m, "psi": G.psi,
                               "phi_rad": G.phi_rad}}
        path = tmp_path / "epoch.csitrace"
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            np.save(f, trace.timestamps_s + 1.7e9)
            np.save(f, trace.csi)
        with pytest.raises(ValueError, match="first packet"):
            read_trace(path)
        assert main(["detect", "--trace", str(path)]) == 2
        assert "first packet" in capsys.readouterr().err

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

    def test_events_round_trip(self, tmp_path):
        events = [
            DetectedEvent(10.0, 30.0, EventClass.SEIZURE, 11.5, 15.0),
            DetectedEvent(50.0, 51.0, EventClass.NORMAL, None, None),
        ]
        path = tmp_path / "x.events.csv"
        write_events_csv(events, path)
        assert read_events_csv(path) == events


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
        assert again.to_dict() == direct.to_dict()

    def test_combine_reports_exact_counts(self):
        labels = [LabelInterval(10.0, 32.0, EventKind.SEIZURE)]
        dets = [DetectedEvent(10.5, 30.0, EventClass.SEIZURE, 12.0, 15.5)]
        r1 = compute_report(dets, labels)
        r2 = compute_report([], [LabelInterval(5.0, 9.0, EventKind.COUGH)])
        combined = combine_reports([r1, r2])
        assert combined.n_seizures == 1 and combined.n_seizures_detected == 1
        assert combined.sdr_pct == 100.0
        assert combined.p_fa is None  # the cough was never detected


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

    @pytest.mark.parametrize("cfg, match", [
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
    ])
    def test_unknown_key_rejected(self, cfg, match):
        with pytest.raises(ValueError, match=match):
            simulate_from_config(cfg)

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


class TestCli:
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
        assert lines[0] == "psi,f_th_hz,sdr_pct,p_fa,mrt_s"
        f_ths = [float(line.split(",")[1]) for line in lines[1:]]
        assert f_ths[0] == pytest.approx(8.83, abs=0.1)
        assert f_ths[1] == pytest.approx(11.64, abs=0.15)


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
        trace = generate_trace(Scenario(60.0, breathing_profile(60.0)), G, None,
                               seed=0, n_rx=3, n_sc=6)
        trace.csi[:, :, 6000] = bad
        with pytest.raises(ValueError, match=r"non-finite CSI sample at 30\.000 s"):
            stage(trace, PipelineConfig())

    def test_breathing_only_zero_events(self):
        trace = tiny_trace(duration=30.0)
        result = run_pipeline(trace, PipelineConfig(k_streams=5))
        assert result.events == []
