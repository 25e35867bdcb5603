"""Record the benchmark's baseline for the current commit.

    python3 perfbench/baseline.py

For each workload: ten untraced runs (seeds 0-9) and one traced run at the
default seed, each a separate `run.py` process with the `run_seconds` of
BENCHMARK.json.  Writes perfbench/baseline.json with every end-to-end metric
at seed 0, its median over the ten seeds, and its spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median.  The per-layer metrics come from the traced run.
Takes about 20 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT

SEEDS = range(10)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed jobs\n{proc.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {seed: bench(workload, seed, seconds, trace=0) for seed in SEEDS}
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [runs[seed]["metrics"][m["name"]]["value"] for seed in SEEDS]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[m["name"]] = {
                "unit": m["unit"],
                "default_seed": runs[DEFAULT_SEED]["metrics"][m["name"]]["value"],
                "median": median,
                "spread": (q3 - q1) / median,
            }
        traced = bench(workload, DEFAULT_SEED, seconds, trace=1)
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4g} ({v['spread']:.1%})" for k, v in end_to_end.items()
        ), file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
