"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload night_hour --seed 1 --seconds 15 --trace 0

Run from the root of a csiwatch checkout; the package is imported from its
`src/` directory. With `--trace 0` the run prints the end-to-end metrics,
with `--trace 1` the per-layer metrics of the traced run. Every line but the
last is for people; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A copy of the result, with the
environment and every op, goes to `.perfbench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Fresh interpreters that time `import csiwatch` for setup_s, sampling the
# host's speed with the hostspeed `python` kernel every 50 ms; and the share
# of a traced op that may run outside every wrapped layer.
IMPORT_RUNS = 3
IMPORT_PROBE = """
import sys, time
sys.path.append(sys.argv[1])
import hostspeed
sampler = hostspeed.Sampler("python", interval=0.05)
t0 = time.perf_counter()
with sampler:
    import csiwatch
elapsed = time.perf_counter() - t0
print(elapsed, sampler.scaled(elapsed))
"""
MAX_UNCOVERED_SHARE = 0.02


def cap_threads() -> None:
    """One native thread for numpy and scipy, whatever the caller's
    environment says, so the run is a single-threaded process. Call it
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_seconds(runs: int) -> list[tuple[float, float]]:
    """Time `import csiwatch`, numpy and scipy included, in `runs` fresh
    interpreters, one after the other. Every interpreter starts with
    nothing loaded but the hostspeed module, as a user's process does.
    Returns (wall seconds, seconds at nominal host speed) per run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        wall, scaled = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(scaled)))
    return times


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_refs(workload: str) -> dict[int, list]:
    path = BENCH_DIR / "refs" / f"{workload}.json"
    ops = json.loads(path.read_text(encoding="utf-8"))["ops"]
    return {int(seed): events for seed, events in ops.items()}


def seed_list(pool: list[int], seed: int) -> list[int]:
    """The run's op seeds: the workload's reference pool in a seeded order."""
    return random.Random(seed).sample(sorted(pool), len(pool))


class Run:
    """Op bookkeeping of one run: attempts, failures and their reasons."""

    def __init__(self, workload, refs: dict | None):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.outcomes = []

    def op(self, seed: int, inp, run=None, keep: bool = True):
        """Run one op on `inp` (through `run`, default the workload's), read
        its outcome and compare the events with the reference for `seed`.
        Returns (outcome, seconds the op took); the outcome is None if the op
        raised or its events differ. `keep` adds the outcome to the run's
        quality metrics."""
        run = run or self.workload.run
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(inp)
            elapsed = time.perf_counter() - t0
            outcome = self.workload.outcome(inp, out)
        except Exception:
            self.failed += 1
            self.notes.append(f"op seed {seed} raised:\n{traceback.format_exc()}")
            return None, time.perf_counter() - t0
        if self.refs is not None and outcome.events != self.refs[seed]:
            self.failed += 1
            self.notes.append(f"op seed {seed}: events differ from the reference")
            return None, elapsed
        if keep:
            self.outcomes.append(outcome)
        return outcome, elapsed


def quality(outcomes) -> dict:
    """SDR, share of detected normal events not alarmed, and MRT over all
    labels of the run's ops (None where a denominator is empty)."""
    from csiwatch import metrics

    combined = metrics.combine_reports([o.report for o in outcomes])
    return {
        "sdr_pct": combined.sdr_pct,
        "p_fa": combined.p_fa,
        "true_normal_pct": None if combined.p_fa is None else 100.0 * (1.0 - combined.p_fa),
        "mrt_s": combined.mrt_s,
    }


def _median(values):
    return statistics.median(values) if values else None


def _first_op(run: Run, seeds: list[int], workdir: Path, op=None) -> int:
    """The untimed first op of a run. It brings the process's heap and
    caches to full size, so that every timed op after it is warm. It always
    runs on the pool's lowest seed: op_peak_mb depends on the input (on how
    many raw streams the selected ones need), and one fixed input keeps it
    comparable between runs and commits. The timed ops skip this seed, so
    no seed counts twice in the quality metrics."""
    seed = min(seeds)
    inp = run.workload.prepare(seed, workdir)
    try:
        run.op(seed, inp, op)
    finally:
        run.workload.release(inp)
    return seed


def run_plain(workload, seeds, seconds, refs, workdir, import_s=0.0) -> dict:
    """End-to-end metrics: the first op runs untimed under tracemalloc
    (op_peak_mb), then ops on the next seeds run timed with tracing off.
    A hostspeed sampler with the workload's kernel runs inside every timed
    preparation and op, and ms_per_trace_s and setup_s are made of the
    times it scales to the nominal host. `import_s` is the import time,
    already scaled, that setup_s adds to the median preparation of an op's
    input."""
    import hostspeed

    run = Run(workload, refs)
    peaks = []

    def measured_run(inp):
        tracemalloc.start()
        try:
            out = workload.run(inp)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        return out

    sampler = hostspeed.Sampler(workload.kernel)

    def sampled_run(inp):
        with sampler:
            return workload.run(inp)

    first = _first_op(run, seeds, workdir, measured_run)
    prep_s, op_ms, raw_op_ms, ops = [], [], [], []
    measured = 0.0
    for seed in seeds:
        if seed == first:
            continue
        if measured >= seconds:
            break
        t0 = time.perf_counter()
        with sampler:
            inp = workload.prepare(seed, workdir)
        t_prep = time.perf_counter() - t0
        prep_s.append(sampler.scaled(t_prep))
        try:
            outcome, t_op = run.op(seed, inp, sampled_run)
        finally:
            workload.release(inp)
        measured += t_prep + t_op
        if outcome is not None:
            op_ms.append(sampler.scaled(t_op) * 1e3 / workload.duration_s)
            raw_op_ms.append(t_op * 1e3 / workload.duration_s)
        ops.append({"seed": seed, "prep_s": t_prep, "op_s": t_op,
                    "op_host_scale": sampler.scale(), "op_samples": len(sampler.samples),
                    "ok": outcome is not None,
                    "trace_bytes": outcome.trace_bytes if outcome else None})

    q = quality(run.outcomes)
    values = {
        "ms_per_trace_s": (_median(op_ms), "ms/s"),
        "op_peak_mb": (_median(peaks), "MB"),
        "setup_s": (import_s + _median(prep_s), "s") if prep_s else (None, "s"),
        "sdr_pct": (q["sdr_pct"], "%"),
        "true_normal_pct": (q["true_normal_pct"], "%"),
        "mrt_s": (q["mrt_s"], "s"),
    }
    info = {
        "first_op_seed": first,
        "ops_timed": len(op_ms),
        "error_rate": run.failed / run.attempted,
        "p_fa": q["p_fa"],
        "ms_per_trace_s_min_max": [min(op_ms), max(op_ms)] if op_ms else None,
        "ms_per_trace_s_unscaled": _median(raw_op_ms),
        "host_kernel": workload.kernel,
        "import_s": import_s,
        "prep_s_median": _median(prep_s),
    }
    trace_bytes = [op["trace_bytes"] for op in ops if op["trace_bytes"]]
    if trace_bytes:
        info["trace_mb_per_hour"] = (
            statistics.median(trace_bytes) / 1e6 * 3600.0 / workload.duration_s)
    return _result(run, values, info, ops)


def run_traced(workload, seeds, seconds, refs, workdir) -> dict:
    """Per-layer metrics: after an untimed first op, each op runs untraced
    and traced on the same input, in turns which of the two goes first so
    that order and warm caches do not count as tracing cost. The traced run
    must give the same events, call each layer the expected number of times,
    have self times that add up to its root spans, and spend at most
    MAX_UNCOVERED_SHARE of the op outside every wrapped layer."""
    import tracing

    run = Run(workload, refs)
    tracer = tracing.Tracer()

    def traced_run(inp):
        with tracer.record("bench.op"):
            return workload.run(inp)

    first = _first_op(run, seeds, workdir)
    records, overhead_pct, uncovered, ops = [], [], [], []
    measured = 0.0
    with tracing.patched(tracer):
        for i, seed in enumerate(s for s in seeds if s != first):
            if measured >= seconds:
                break
            t0 = time.perf_counter()
            with tracer.record("bench.prepare"):
                inp = workload.prepare(seed, workdir)
            t_prep = time.perf_counter() - t0
            try:
                if i % 2 == 0:
                    plain, t_plain = run.op(seed, inp)
                    traced, t_traced = run.op(seed, inp, traced_run, keep=False)
                else:
                    traced, t_traced = run.op(seed, inp, traced_run, keep=False)
                    plain, t_plain = run.op(seed, inp)
            finally:
                workload.release(inp)
            measured += t_prep + t_plain + t_traced
            spans, counts = tracer.take()
            ops.append({"seed": seed, "op_s": t_plain, "traced_op_s": t_traced})
            if plain is None or traced is None:
                continue
            records.append((spans, counts))
            overhead_pct.append(100.0 * (t_traced / t_plain - 1.0))
            if plain.events != traced.events:
                run.failed += 1
                run.notes.append(f"op seed {seed}: traced events differ from untraced")
            table = tracing.summarize(spans)
            for layer, n in traced.expected_calls.items():
                got = table.get(layer, {}).get("calls", 0)
                if got != n:
                    run.failed += 1
                    run.notes.append(f"op seed {seed}: {layer} called {got} times, expected {n}")
            own, roots = sum(tracing.self_times(spans)), tracing.roots_total(spans)
            if abs(own - roots) > 1e-6:
                run.failed += 1
                run.notes.append(f"op seed {seed}: self times sum to {own}, roots to {roots}")
            uncovered.append(tracing.uncovered_share(spans, "bench.op"))
            if uncovered[-1] > MAX_UNCOVERED_SHARE:
                run.failed += 1
                run.notes.append(f"op seed {seed}: {uncovered[-1]:.1%} of the traced op "
                                 "ran outside every wrapped layer")
    if not records:
        return _result(run, {}, {"first_op_seed": first, "ops_timed": 0}, ops, ok=False)
    values = tracing.layer_metrics(records, overhead_pct)
    info = {"first_op_seed": first, "ops_timed": len(records),
            "error_rate": run.failed / run.attempted,
            "tracing_overhead_pct": overhead_pct,
            "uncovered_share": uncovered}
    return _result(run, values, info, ops)


def _result(run: Run, values: dict, info: dict, ops: list, ok: bool = True) -> dict:
    missing = [k for k, (v, _) in values.items() if v is None]
    if missing:
        run.notes.append(f"undefined metrics: {missing}")
    return {
        "correct": ok and run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": u}
                    for k, (v, u) in values.items()},
        "info": info,
        "ops": ops,
        "notes": run.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "csiwatch" / "__init__.py").is_file():
        print(f"error: no csiwatch sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    import csiwatch
    import workloads

    if Path(csiwatch.__file__).resolve().parent != ROOT / "src" / "csiwatch":
        print(f"error: csiwatch imported from {csiwatch.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    refs = load_refs(args.workload)
    seeds = seed_list(list(refs), args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmp:
        if args.trace:
            result = run_traced(workload, seeds, args.seconds, refs, Path(tmp))
        else:
            imports = import_seconds(IMPORT_RUNS)
            result = run_plain(workload, seeds, args.seconds, refs, Path(tmp),
                               statistics.median(scaled for _, scaled in imports))
            result["info"]["import_s_runs_wall_scaled"] = imports

    used = [op["seed"] for op in result["ops"]]
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, seed_list=used, env=environment(nproc))
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for note in result["notes"]:
        print(f"note: {note}")
    print(f"workload {args.workload}, seed {args.seed}, timed op seeds {used}")
    print(f"env {json.dumps(result['env'])}")
    for key, val in result["info"].items():
        print(f"{key} {val}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"result file {out_file.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
