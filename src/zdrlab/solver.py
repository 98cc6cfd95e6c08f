"""Exact solvers for domination number, metric dimension, and dominant
metric dimension.

All three searches enumerate candidate vertex sets in increasing cardinality
and lexicographic order, so the first hit is a minimum-cardinality witness
and, among those, the lexicographically least. Resolving-set searches prune
with distance-twin classes: any resolving set must contain all but at most
one vertex of each twin class, which both raises the starting cardinality
and filters candidates. No heuristic answer is ever returned; if the
configured budget runs out the search raises instead.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .graphs import ZDGraph

BUDGET_ENV_VAR = "ZDRLAB_BUDGET_MS"


class DisconnectedGraphError(ValueError):
    """dim / ddim searches require a connected graph."""


class BudgetExceededError(RuntimeError):
    def __init__(self, quantity: str, cardinality: int, checks: int):
        super().__init__(
            f"budget exceeded while solving {quantity} at cardinality {cardinality} "
            f"after {checks} candidate checks"
        )
        self.quantity = quantity
        self.cardinality = cardinality
        self.checks = checks


@dataclass(frozen=True)
class Budget:
    """Hard caps for a single solve; None means unlimited."""

    max_ms: float | None = None
    max_checks: int | None = None


class _Clock:
    def __init__(self, quantity: str, budget: Budget | None):
        self.quantity = quantity
        self.budget = budget or Budget()
        self.checks = 0
        self.start = time.monotonic()
        self.cardinality = 0

    def tick(self) -> None:
        self.checks += 1
        b = self.budget
        if b.max_checks is not None and self.checks > b.max_checks:
            raise BudgetExceededError(self.quantity, self.cardinality, self.checks)
        if b.max_ms is not None and self.checks % 1024 == 0:
            if (time.monotonic() - self.start) * 1000.0 > b.max_ms:
                raise BudgetExceededError(self.quantity, self.cardinality, self.checks)

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.start) * 1000.0


@dataclass(frozen=True)
class QuantityResult:
    value: int
    witness: tuple[int, ...]
    method: str  # exhaustive | twin_reduced | closed_form | convention
    elapsed_ms: float
    checks: int


@dataclass(frozen=True)
class DimensionReport:
    gamma: QuantityResult | None
    dim: QuantityResult | None
    ddim: QuantityResult | None


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def _check_vertices(g: ZDGraph, vertices) -> tuple[int, ...]:
    vs = tuple(vertices)
    for v in vs:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range for graph of order {g.order}")
    return vs


def is_dominating(g: ZDGraph, vertices) -> bool:
    """True iff every vertex outside the set has a neighbor in it."""
    vs = _check_vertices(g, vertices)
    full = (1 << g.order) - 1
    smask = 0
    reach = 0
    for v in vs:
        smask |= 1 << v
        reach |= g.adj[v]
    return full & ~(smask | reach) == 0


def is_resolving(g: ZDGraph, vertices) -> bool:
    """True iff the distance vectors to the set are pairwise distinct.

    All |V| vectors are compared, including those of set members. On a
    disconnected graph unreachable entries carry a -1 sentinel, used
    consistently on both sides of every comparison.
    """
    vs = _check_vertices(g, vertices)
    if not vs:
        return g.order <= 1
    vectors = set(zip(*(g.dist[w] for w in vs)))
    return len(vectors) == g.order


# ---------------------------------------------------------------------------
# twin classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertices into maximal distance-twin classes."""

    classes: tuple[tuple[int, ...], ...]

    def lower_bound(self) -> int:
        # a resolving set misses at most one vertex of each class
        return sum(len(c) - 1 for c in self.classes)


def are_twins(g: ZDGraph, u: int, v: int) -> bool:
    """Twins: d(u,x) = d(v,x) for every x outside {u, v}."""
    if u == v:
        return True
    du, dv = g.dist[u], g.dist[v]
    return all(du[x] == dv[x] for x in range(g.order) if x != u and x != v)


def twin_classes(g: ZDGraph) -> TwinPartition:
    """Twin classes keyed by neighbourhood, in one pass.

    u and v are twins exactly when N(u) = N(v) or N[u] = N[v] (Hernando,
    Mora, Pelayo, Seara and Wood, EJC 17, 2010), so each vertex joins the
    class whose founder has its open or its closed neighbourhood. N(w) =
    N[v] is impossible (v in N(w) puts w in N(v), so w in N(w)), so one
    dict holds both keys. Classes come out ordered by least member.
    """
    by_key: dict[int, list[int]] = {}
    classes: list[list[int]] = []
    for v in range(g.order):
        open_key, closed_key = g.adj[v], g.adj[v] | 1 << v
        cls = by_key.get(open_key) or by_key.get(closed_key)
        if cls is None:
            cls = by_key[open_key] = by_key[closed_key] = []
            classes.append(cls)
        cls.append(v)
    return TwinPartition(tuple(tuple(c) for c in classes))


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _search(
    g: ZDGraph,
    quantity: str,
    k_start: int,
    accept,
    clock: _Clock,
    class_masks: list[int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Increasing-cardinality lexicographic subset search."""
    n = g.order
    for k in range(max(k_start, 0), n + 1):
        clock.cardinality = k
        for cand in itertools.combinations(range(n), k):
            clock.tick()
            if class_masks is not None:
                smask = 0
                for v in cand:
                    smask |= 1 << v
                # a resolving set misses at most one vertex per twin class
                if any((cm & ~smask).bit_count() > 1 for cm in class_masks):
                    continue
            if accept(cand):
                return k, cand
    raise AssertionError(f"{quantity} search failed on the full vertex set")  # pragma: no cover


def domination_number(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum dominating set; works on disconnected graphs too."""
    if g.order == 0:
        raise ValueError("domination number of the empty graph is undefined")
    clock = _Clock("gamma", budget)
    max_degree = max(g.degree(v) for v in range(g.order))
    k_start = max(1, math.ceil(g.order / (max_degree + 1)))
    value, witness = _search(
        g, "gamma", k_start, lambda s: is_dominating(g, s), clock
    )
    return QuantityResult(value, witness, "exhaustive", clock.elapsed_ms, clock.checks)


def _require_connected(g: ZDGraph, what: str) -> None:
    if g.order == 0:
        raise ValueError(f"{what} of the empty graph is undefined")
    if not g.is_connected:
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def _twin_setup(g: ZDGraph) -> tuple[TwinPartition, list[int], str]:
    part = twin_classes(g)
    masks = []
    for cls in part.classes:
        if len(cls) >= 2:
            m = 0
            for v in cls:
                m |= 1 << v
            masks.append(m)
    method = "twin_reduced" if masks else "exhaustive"
    return part, masks, method


def metric_dimension(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum resolving set of a connected graph."""
    _require_connected(g, "metric dimension")
    clock = _Clock("dim", budget)
    if g.order == 1:
        return QuantityResult(0, (), "exhaustive", clock.elapsed_ms, 0)
    part, masks, method = _twin_setup(g)
    k_start = max(1, part.lower_bound())
    value, witness = _search(
        g, "dim", k_start, lambda s: is_resolving(g, s), clock, masks
    )
    return QuantityResult(value, witness, method, clock.elapsed_ms, clock.checks)


def dominant_metric_dimension(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum set that is simultaneously resolving and dominating.

    A single-vertex graph returns 0 by convention (with an empty witness,
    which by that same convention is exempt from the dominating check).
    """
    _require_connected(g, "dominant metric dimension")
    clock = _Clock("ddim", budget)
    if g.order == 1:
        return QuantityResult(0, (), "convention", clock.elapsed_ms, 0)
    part, masks, method = _twin_setup(g)
    max_degree = max(g.degree(v) for v in range(g.order))
    k_start = max(1, part.lower_bound(), math.ceil(g.order / (max_degree + 1)))
    value, witness = _search(
        g,
        "ddim",
        k_start,
        lambda s: is_resolving(g, s) and is_dominating(g, s),
        clock,
        masks,
    )
    return QuantityResult(value, witness, method, clock.elapsed_ms, clock.checks)


def solve_dimensions(
    g: ZDGraph, which: str = "all", budget: Budget | None = None
) -> DimensionReport:
    """Solve the requested quantities; ``which`` is gamma, dim, ddim, or all."""
    if which not in {"gamma", "dim", "ddim", "all"}:
        raise ValueError(f"unknown quantity {which!r}")
    wants = {"gamma", "dim", "ddim"} if which == "all" else {which}
    return DimensionReport(
        gamma=domination_number(g, budget) if "gamma" in wants else None,
        dim=metric_dimension(g, budget) if "dim" in wants else None,
        ddim=dominant_metric_dimension(g, budget) if "ddim" in wants else None,
    )
