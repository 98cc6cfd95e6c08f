"""Repeat benchmark runs, report each end-to-end metric's spread, and
optionally record the results as the baseline.

    python3 perfbench/record.py [--runs 10] [--workloads suite,ladder] [--write]

Each workload runs once per seed 1..runs, untraced. The spread of a metric
is the distance between the first and third quartile of its values over the
runs, as a share of their median; a metric is steady when its spread is
below a third of its bound in BENCHMARK.json. With --write the medians, and
the counters of one traced run at the first seed, go to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    baseline_path = BENCH / "baseline.json"
    baseline = json.loads(baseline_path.read_text())
    for name in names:
        results = [run(spec, name, seed, 0) for seed in seeds]
        if not all(r["correct"] for r in results):
            sys.exit(f"{name}: a run reported a wrong answer")
        entry = {"seeds": seeds, "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = "steady" if spread < metric["bound"] / 3 else "UNSTEADY"
            print(f"{name:<9} {metric['name']:<13} median {med:.4f} {metric['unit']:<5} "
                  f"spread {spread:.4f} (bound {metric['bound']}) {steady}  "
                  f"values {[round(v, 4) for v in values]}", flush=True)
            entry["metrics"][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if args.write:
            traced = run(spec, name, seeds[0], 1)["metrics"]
            entry["counters_seed"] = seeds[0]
            entry["counters"] = {k: v["value"] for k, v in traced.items() if v["unit"] == "count"}
            baseline["workloads"][name] = entry
            baseline_path.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
