"""Write the reference events of every op seed of the benchmark's workloads.

    python3 perfbench/make_refs.py [workload ...]

Runs each op of each workload's seed pool once, untraced, and stores its
detected events as [start_s, end_s, class, decision_time_s] rows in
perfbench/refs/<workload>.json. The benchmark checks every op against these
rows exactly, so regenerate them only when detection output is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402  (caps native threads before numpy loads)

run.cap_threads()

import workloads  # noqa: E402

# Op seeds per workload: several times the ops one run takes today, so a
# much faster program still runs each seed at most once per run.
POOLS = {
    "night_hour": range(1000, 1016),
    "corpus_dense": range(3000, 3128),
    "cli_files": range(5000, 5032),
}


def main(names: list[str]) -> int:
    for name in names or list(POOLS):
        workload = workloads.WORKLOADS[name]
        ops = {}
        with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmp:
            for seed in POOLS[name]:
                inp = workload.prepare(seed, Path(tmp))
                try:
                    ops[str(seed)] = workload.outcome(inp, workload.run(inp)).events
                finally:
                    workload.release(inp)
                print(f"{name} seed {seed}: {len(ops[str(seed)])} events", flush=True)
        out = BENCH_DIR / "refs" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"workload": name, "ops": ops}) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
