"""Write pins.json: the answers the benchmark checks against.

    python3 perfbench/make_pins.py

The pins were taken once from the solver of the commit that introduced the
benchmark. Regenerating them from a changed solver would make the benchmark
accept whatever that solver answers, so rerun this only on that commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402
from zdrlab import graphs, solver, verify  # noqa: E402


def ladder_pins() -> dict:
    pins = {}
    for quantity, spec, budget in w.LADDER:
        try:
            _g, res = w.solve_row(quantity, spec, budget)
        except solver.BudgetExceededError as exc:
            pins[f"{quantity} {spec}"] = {"status": "budget", "reached": exc.cardinality}
        else:
            pins[f"{quantity} {spec}"] = {"status": "solved", "value": res.value, "witness": list(res.witness)}
    return pins


def edgelist_pins() -> dict:
    pins = {}
    for i, (n, edges) in enumerate(w.pool()):
        report = w.solve_all(graphs.graph_from_edges(n, edges))
        pins[str(i)] = {q: getattr(report, q).value for q in ("gamma", "dim", "ddim")}
    return pins


def main() -> None:
    pins = {
        "suite": w.suite_answer(verify.run_suite(verify.SuiteConfig())),
        "ladder": ladder_pins(),
        "graphs": {spec: w.graph_answer(*w.build_graph(spec)) for spec in w.GRAPH_SPECS},
        "edgelist": edgelist_pins(),
    }
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
