"""Span tracing of zdrlab's public functions, installed from outside the package.

Each traced function is replaced, in every ``zdrlab`` module namespace that
binds it, by a wrapper that records a span ``[name, start, end, parent, info]``.
Replacing the name in every namespace matters: ``from .graphs import
graph_from_edges`` binds the function in ``zdrlab.families`` at import time,
so patching only the defining module would miss that caller.

Spans are kept in memory; self times and counters are derived from them
after the measured passes, and the raw spans are written out at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _graph_info(_args, g):
    return {"vertices": g.order, "edges": g.size}


def _twin_info(_args, part):
    return {"classes": len(part.classes), "lb": part.lower_bound()}


def _solve_info(_args, res):
    return {"checks": res.checks, "value": res.value}


def _suite_info(_args, report):
    s = report.summary
    return {"verdicts": len(report.verdicts), "erratum": s["ERRATUM"], "fail": s["FAIL"]}


# (module, function, info extractor); the span name is "<module>.<function>".
TARGETS = (
    ("rings", "build_ring", None),
    ("rings", "zero_divisors", None),
    ("rings", "ring_properties", None),
    ("graphs", "graph_from_edges", _graph_info),
    ("graphs", "build_zdgraph", None),
    ("graphs", "graph_invariants", None),
    ("graphs", "parse_edgelist", None),
    ("solver", "twin_classes", _twin_info),
    ("solver", "domination_number", _solve_info),
    ("solver", "metric_dimension", _solve_info),
    ("solver", "dominant_metric_dimension", _solve_info),
    ("families", "generate_family", None),
    ("families", "recognize_family", None),
    ("verify", "run_suite", _suite_info),
)


class Tracer:
    """Records nested spans of the wrapped functions while ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zdrlab"]
        for mod_name, fn_name, info in TARGETS:
            original = getattr(sys.modules[f"zdrlab.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", info)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapper)

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        budget_error = sys.modules["zdrlab.solver"].BudgetExceededError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                span[4] = {"checks": exc.checks, "budget": 1}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def layer_totals(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer self times and counters over the spans ``lo:hi``.

    A span's self time is its duration minus that of its direct children;
    the children of one span never overlap, as the program is single-threaded.
    """
    child: dict[int, float] = {}
    twin_lb: dict[int, int] = {}
    for i in range(lo, hi):
        name, start, end, parent, info = spans[i]
        if parent >= lo:
            child[parent] = child.get(parent, 0.0) + end - start
            if name == "solver.twin_classes" and info:
                twin_lb[parent] = info["lb"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    info_sum: dict[str, float] = {}
    lb_gap = 0
    for i in range(lo, hi):
        name, start, end, _parent, info = spans[i]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            k = f"{name}:{key}"
            info_sum[k] = info_sum.get(k, 0) + value
        # the twin lower bound is the starting cardinality the twin classes give
        if i in twin_lb and info and "value" in info:
            lb_gap += info["value"] - twin_lb[i]

    def s(n):
        return self_s.get(n, 0.0)

    def c(k):
        return info_sum.get(k, 0)

    solve_names = ("domination_number", "metric_dimension", "dominant_metric_dimension")
    solve_s = sum(s(f"solver.{n}") for n in solve_names)
    checks = sum(c(f"solver.{n}:checks") for n in solve_names)
    return {
        "solver.twin_classes_s": s("solver.twin_classes"),
        "solver.twin_classes_calls": calls.get("solver.twin_classes", 0),
        "solver.twin_class_count": c("solver.twin_classes:classes"),
        "solver.gamma_s": s("solver.domination_number"),
        "solver.dim_s": s("solver.metric_dimension"),
        "solver.ddim_s": s("solver.dominant_metric_dimension"),
        "solver.gamma_checks": c("solver.domination_number:checks"),
        "solver.dim_checks": c("solver.metric_dimension:checks"),
        "solver.ddim_checks": c("solver.dominant_metric_dimension:checks"),
        "solver.checks_per_s": checks / solve_s if solve_s > 0 else 0.0,
        "solver.lb_gap": lb_gap,
        "solver.budget_outs": sum(c(f"solver.{n}:budget") for n in solve_names),
        "graphs.graph_from_edges_s": s("graphs.graph_from_edges"),
        "graphs.zd_edges_s": s("graphs.build_zdgraph"),
        "graphs.graph_invariants_s": s("graphs.graph_invariants"),
        "graphs.parse_edgelist_s": s("graphs.parse_edgelist"),
        "graphs.vertices": c("graphs.graph_from_edges:vertices"),
        "graphs.edges": c("graphs.graph_from_edges:edges"),
        "rings.build_ring_s": s("rings.build_ring"),
        "rings.build_ring_calls": calls.get("rings.build_ring", 0),
        "rings.zero_divisors_s": s("rings.zero_divisors"),
        "rings.ring_properties_s": s("rings.ring_properties"),
        "families.generate_family_s": s("families.generate_family"),
        "families.recognize_family_s": s("families.recognize_family"),
        "verify.self_s": s("verify.run_suite"),
        "verify.verdicts": c("verify.run_suite:verdicts"),
        "verify.erratum": c("verify.run_suite:erratum"),
        "verify.fail": c("verify.run_suite:fail"),
    }


# Metrics whose values repeat exactly on the same code and inputs.
COUNTERS = (
    "solver.twin_classes_calls",
    "solver.twin_class_count",
    "solver.gamma_checks",
    "solver.dim_checks",
    "solver.ddim_checks",
    "solver.lb_gap",
    "solver.budget_outs",
    "graphs.vertices",
    "graphs.edges",
    "rings.build_ring_calls",
    "verify.verdicts",
    "verify.erratum",
    "verify.fail",
)
