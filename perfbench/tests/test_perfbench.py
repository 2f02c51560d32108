"""Fast checks of the benchmark itself (not of csiwatch).

    python3 -m pytest -q perfbench/tests

Short versions of the three workloads run end to end and traced; the metric
names and units must match BENCHMARK.json, the traced run must be transparent
(same events, originals restored) and complete (self times add up to the
roots, and an op that works outside the wrapped layers fails), and the
reference check must catch a changed event.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Seventy seconds fit the calibration window, one seizure and one posture
# shift; the CLI version keeps only its first event to keep text I/O short.
TINY = {
    "night_hour": workloads.NightHour(duration_s=70.0, n_seizures=1, n_normal=1),
    "corpus_dense": workloads.CorpusDense(duration_s=70.0, n_seizures=1, n_normal=1),
    "cli_files": workloads.CliFiles(duration_s=22.0, events=(("posture_shift", 14.0, 6.0),)),
}


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_names_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["night_hour", "corpus_dense"])
def test_plain_run_reports_every_end_to_end_metric(name, tmp_path):
    w = TINY[name]
    result = run.run_plain(w, [7, 8], 0.1, None, tmp_path)
    assert result["failed"] == 0, result["notes"]
    assert result["correct"], result["notes"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["sdr_pct"]["value"] == 100.0
    # the untimed first op's seed is not timed again
    assert result["info"]["first_op_seed"] == 7
    assert [op["seed"] for op in result["ops"]] == [8]


def test_cli_plain_run_captures_output_and_cleans_up(tmp_path, capsys):
    w = TINY["cli_files"]
    result = run.run_plain(w, [7, 8], 0.1, None, tmp_path)
    assert result["failed"] == 0, result["notes"]
    assert set(result["metrics"]) == set(_units(SPEC["end_to_end"]))
    assert result["info"]["trace_mb_per_hour"] > 0
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["night_hour", "corpus_dense", "cli_files"])
def test_traced_run_is_transparent_and_complete(name, tmp_path):
    result = run.run_traced(TINY[name], [7, 8], 0.1, None, tmp_path)
    assert result["correct"], result["notes"]
    assert result["attempted"] == 3 and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    assert result["metrics"]["preprocess.hampel_filter.calls"]["value"] == 150 + 15
    assert result["metrics"]["preprocess.calibrate.total_s"]["value"] > 0
    assert 0 <= max(result["info"]["uncovered_share"]) <= run.MAX_UNCOVERED_SHARE


def test_traced_op_outside_the_wrapped_layers_fails(tmp_path):
    class Unwrapped(workloads.CorpusDense):
        def run(self, seed):
            time.sleep(0.2)  # stands for work no wrapped layer accounts for
            return super().run(seed)

    w = Unwrapped(duration_s=70.0, n_seizures=1, n_normal=1)
    result = run.run_traced(w, [7, 8], 0.1, None, tmp_path)
    assert not result["correct"]
    assert result["info"]["uncovered_share"][0] > run.MAX_UNCOVERED_SHARE
    assert any("outside every wrapped layer" in n for n in result["notes"])


def test_uncovered_share_is_the_roots_self_time_share():
    spans = [["bench.op", 0.0, 1.0, -1], ["harness.run_pipeline", 0.1, 0.85, 0],
             ["preprocess.calibrate", 0.2, 0.3, 1]]
    assert tracing.uncovered_share(spans, "bench.op") == pytest.approx(0.25)


def test_self_times_add_up_to_root_spans():
    w = TINY["corpus_dense"]
    tracer = tracing.Tracer()
    originals = {
        (mod, fn): getattr(sys.modules[f"csiwatch.{mod}"], fn)
        for mod, names in tracing.TARGETS.items() for fn in names
    }
    with tracing.patched(tracer):
        assert workloads.harness.analyze_trace is not originals[("harness", "analyze_trace")]
        with tracer.record("bench.op"):
            w.run(3)
    spans, _ = tracer.take()
    table = tracing.summarize(spans)
    own = sum(r["self_s"] for r in table.values())
    assert own == pytest.approx(tracing.roots_total(spans), rel=1e-9, abs=1e-9)
    assert table["harness.analyze_trace"]["calls"] == 1
    assert min(tracing.self_times(spans)) >= 0.0
    # aliases in harness were traced too: calibrate is called from there
    calibrate = next(s for s in spans if s[0] == "preprocess.calibrate")
    assert spans[calibrate[3]][0] == "harness.analyze_trace"
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[f"csiwatch.{mod}"], fn) is orig
    assert workloads.harness.calibrate is originals[("preprocess", "calibrate")]


def test_reference_mismatch_fails_the_op(tmp_path):
    w = TINY["night_hour"]
    good = w.outcome(trace := w.prepare(7, tmp_path), w.run(trace)).events
    bad = [list(e) for e in good]
    bad[0][1] += 0.05
    result = run.run_plain(w, [7, 7], 0.1, {7: bad}, tmp_path)
    assert result["failed"] >= 1 and not result["correct"]
    assert any("differ from the reference" in n for n in result["notes"])


def test_threads_are_one_whatever_the_caller_set(monkeypatch):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "64")
    run.cap_threads()
    assert all(run.os.environ[var] == "1" for var in run.THREAD_VARS)


def test_import_seconds_times_fresh_interpreters():
    times = run.import_seconds(2)
    assert len(times) == 2 and all(wall > 0 and scaled > 0 for wall, scaled in times)


def _loop(n: int) -> None:
    total = 0
    for i in range(n):
        total += i * i


@pytest.mark.parametrize("slowdown", [1, 3])
def test_sampler_scales_away_a_uniform_slowdown(monkeypatch, slowdown):
    # A host `slowdown` times slower makes the kernel and the block alike
    # slower; the scaled time of the block stays what it is at slowdown 1.
    monkeypatch.setitem(hostspeed.KERNELS, "loop", (lambda: _loop(2000 * slowdown), 0.001))
    sampler = hostspeed.Sampler("loop", interval=0.01)
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with sampler:
        _loop(2_000_000 * slowdown)
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.inside) >= hostspeed.MIN_SAMPLES
    # 1000 kernel-sized loops at 1 ms each
    assert sampler.scaled(elapsed) == pytest.approx(1.0, rel=0.35)


def test_sampler_samples_a_short_block_after_it():
    sampler = hostspeed.Sampler("numpy", interval=10.0)
    with sampler:
        pass
    assert sampler.inside == [] and len(sampler.after) == hostspeed.MIN_SAMPLES
    assert sampler.scale() > 0


def test_seed_list_is_a_seeded_permutation_of_the_pool():
    pool = [5, 3, 9, 1]
    assert run.seed_list(pool, 1) == run.seed_list(pool, 1)
    assert sorted(run.seed_list(pool, 2)) == sorted(pool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "night_hour",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
