"""zdrlab benchmark: one workload per call, answers checked, metrics printed.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; zdrlab is imported from ``src/``.
Times are scaled to a nominal machine speed by a reference computation timed
between operations (``speed.py``); the raw times are printed alongside.
With ``--trace 0`` the run reports the end-to-end metrics (see
``BENCHMARK.json``). With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer self times and counters from spans recorded
around zdrlab's public functions (``spans.py``), the tracing overhead, and
how the deterministic counters compare with ``baseline.json``; the raw spans
are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every answer was right, 1 when one was wrong, and 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 7

# The child times the imports, then the speed reference on the same CPU.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import zdrlab, zdrlab.cli; t = time.perf_counter() - t; "
    "import speed; print(t, speed.reference())"
)


def import_seconds() -> tuple[float, float]:
    """Import time of zdrlab and its CLI in a fresh interpreter, as a CLI call
    pays it, and the speed reference time measured right after it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    imp, ref = out.stdout.split()
    return float(imp), float(ref)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Tally:
    """Outcome counts over every operation the run attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.budget = 0
        self.outcomes: dict[str, str] = {}
        self.seconds: dict[str, list[float]] = {}
        self.unsteady: list[str] = []

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def record(self, label: str, status: str, detail: str, seconds: float) -> None:
        self.attempted += 1
        self.seconds.setdefault(label, []).append(seconds)
        self.wrong += status == "wrong"
        self.errors += status == "error"
        self.budget += status == "budget"
        line = f"{status} {detail}".strip()
        if label not in self.outcomes:
            self.outcomes[label] = line
            if status in ("wrong", "error"):
                print(f"FAIL {label}: {line}", file=sys.stderr)
        elif self.outcomes[label] != line:
            self.unsteady.append(label)


def run_pass(ops, tally: Tally, budget_error, clock: speed.SpeedClock) -> tuple[float, float]:
    """Run every operation once; returns the raw and the speed-scaled time
    the operations took. Answer checks run outside the timed region."""
    gc.collect()
    raw, scaled = clock.raw, clock.scaled
    for op in ops:
        clock.sample_if_due()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except budget_error as exc:
            status, detail = "budget", f"reached {exc.cardinality} after {exc.checks} checks"
        except Exception as exc:  # an operation that crashes counts as failed
            status, detail = "error", "".join(traceback.format_exception_only(exc)).strip()
        else:
            status = None
        dt = time.perf_counter() - t0
        clock.add(dt)
        if status is None:
            try:
                status, detail = op.check(result)
            except Exception as exc:  # a malformed answer counts as wrong
                status, detail = "wrong", f"check raised {exc!r}"
            del result
        tally.record(op.label, status, detail, dt)
    clock.sample()
    return clock.raw - raw, clock.scaled - scaled


def fmt_stats(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<14} {med:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zdrlab" / "__init__.py").is_file():
        print(f"error: no zdrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zdrlab
    from zdrlab.solver import BudgetExceededError

    import workloads

    if Path(zdrlab.__file__).resolve().parent != SRC / "zdrlab":
        print(f"error: zdrlab imported from {zdrlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make_ops = workloads.WORKLOADS[args.workload]
    pins = json.loads((BENCH / "pins.json").read_text())[args.workload]

    # set-up: a fresh import plus input generation, repeated; the median counts
    import_seconds()  # warm-up: compiles bytecode on a fresh checkout
    setup: list[tuple[float, float]] = []
    for _ in range(SETUP_REPS):
        imp, ref = import_seconds()
        t0 = time.perf_counter()
        ops = make_ops(args.seed, pins)
        raw = imp + time.perf_counter() - t0
        setup.append((raw, raw * speed.NOMINAL_S / ref))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True
        ops = make_ops(args.seed, pins)
        tracer.enabled = False
        setup_spans = (0, len(tracer.spans))

    clock = speed.SpeedClock()
    tally = Tally()
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    traced_ranges: list[tuple[int, int]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        w0 = time.perf_counter()
        # traced and untraced passes alternate in order, so neither side
        # always takes the first pass of the process
        kinds = (False,) if tracer is None else (False, True) if len(walls) % 2 == 0 else (True, False)
        for traced_pass in kinds:
            if traced_pass:
                lo = len(tracer.spans)
                tracer.enabled = True
                traced.append(run_pass(ops, tally, BudgetExceededError, clock))
                tracer.enabled = False
                traced_ranges.append((lo, len(tracer.spans)))
            else:
                plain.append(run_pass(ops, tally, BudgetExceededError, clock))
        walls.append(time.perf_counter() - w0)
        # start another pass only if it should end inside the window
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    correct = tally.failed == 0 and not tally.unsteady
    solved_share = (tally.attempted - tally.failed - tally.budget) / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for label, outcome in tally.outcomes.items():
        print(f"  op {label}: {outcome}  [{statistics.median(tally.seconds[label]):.3f} s]")
    if tally.unsteady:
        print(f"  outcome changed between passes: {', '.join(tally.unsteady)}")
    print(fmt_stats("pass_s", [p[1] for p in plain], "s") + "  scaled to nominal speed")
    print(fmt_stats("  raw", [p[0] for p in plain], "s"))
    print(fmt_stats("setup_s", [p[1] for p in setup], "s") + "  scaled to nominal speed")
    print(fmt_stats("  raw", [p[0] for p in setup], "s"))
    print(fmt_stats("reference", clock.samples, "s") + f"  (nominal {speed.NOMINAL_S} s)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<14} {peak_rss_mb:.1f} MB")
    print(f"{'solved_share':<14} {solved_share:.4f} ratio")
    print(
        f"{'fail_share':<14} {1.0 - solved_share:.4f} ratio  ({tally.budget} budget-outs, "
        f"{tally.wrong} wrong, {tally.errors} errors of {tally.attempted} operations)"
    )

    if tracer is None:
        metrics = {
            "pass_s": {"value": statistics.median(p[1] for p in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(p[1] for p in setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "solved_share": {"value": solved_share, "unit": "ratio"},
        }
    else:
        metrics, counters_steady = layer_report(
            args, tracer, setup_spans, traced_ranges, plain, traced, clock,
            args.workload in workloads.SEED_DEPENDENT,
        )
        correct = correct and counters_steady

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def layer_report(args, tracer, setup_spans, traced_ranges, plain, traced, clock, seeded):
    """Per-layer metrics: one traced set-up plus the median traced pass.

    Self times are scaled to nominal speed by the traced passes' own factor.
    """
    setup_layers = spans.layer_totals(tracer.spans, *setup_spans)
    passes = [spans.layer_totals(tracer.spans, lo, hi) for lo, hi in traced_ranges]
    steady = all(all(p[k] == passes[0][k] for k in spans.COUNTERS) for p in passes)
    factor = sum(p[1] for p in traced) / sum(p[0] for p in traced)
    values = {}
    for key in passes[0]:
        if key in spans.COUNTERS:
            values[key] = setup_layers[key] + passes[0][key]
            continue
        per_pass = statistics.median(p[key] for p in passes)
        if key == "solver.checks_per_s":
            values[key] = per_pass / factor
        else:
            values[key] = (setup_layers[key] + per_pass) * factor
    plain_s = statistics.median(p[1] for p in plain)
    traced_s = statistics.median(p[1] for p in traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["speed.reference_s"] = statistics.median(clock.samples)
    print(f"traced pass_s {traced_s:.4f} s, untraced {plain_s:.4f} s (scaled)")
    if not steady:
        print("counters differ between traced passes")

    baseline = json.loads((BENCH / "baseline.json").read_text())["workloads"].get(args.workload, {})
    pinned = baseline.get("counters")
    comparable = pinned is not None and (not seeded or baseline.get("counters_seed") == args.seed)
    metrics = {}
    for key, value in values.items():
        unit = "1/s" if key.endswith("_per_s") else "s" if key.endswith("_s") else "count"
        note = ""
        if key in spans.COUNTERS and comparable and pinned.get(key) != value:
            note = f"  (baseline {pinned.get(key)})"
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:<28} {shown} {unit}{note}")
        metrics[key] = {"value": value, "unit": unit}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(str(out / f"spans-{args.workload}-{args.seed}.json"))
    return metrics, steady


if __name__ == "__main__":
    sys.exit(main())
