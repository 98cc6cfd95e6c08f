"""Exact solvers for domination number, metric dimension, and dominant
metric dimension.

All three run one search kernel, ``_search``: for each cardinality in
increasing order, a depth-first search that picks vertices in increasing
index order, so the first hit is a minimum-cardinality witness and, among
those, the lexicographically least. Resolving-set searches work over the
distance-twin quotient: a resolving set misses at most one vertex of each
twin class, and swapping twins is an automorphism, so the lex-least witness
holds every class member but the largest (the base) and the search only
picks among the classes' largest members (the tops). The domination search
uses the same classes another way. A minimum dominating set holds at most
one member of a clique class and none, one or all members of an open class,
and moving a pick to a smaller unpicked twin makes the witness lex-smaller.
So a clique class offers only its least member, and an open class's members
are picked only as a prefix in index order (see ``domination_number``).

Domination and resolution are both coverings: a set dominates when it hits
every closed neighbourhood, and resolves when it hits every pair resolvent
{w : d(w,u) != d(w,v)}. The kernel tracks, in one bitset, the vertices still
undominated and the vertex pairs at distance 1 or 2 that the base leaves
unresolved (at most 32 per vertex), and cuts a branch as soon as something
open can no longer be covered by the tops still available. Hitting those
pairs does not make a set resolving, so full-size leaves still get the full
resolving test. With all three quantities asked for, ddim starts at
max(gamma, dim). One check is one node of the search tree; the kernel counts
checks itself and hands the count to the clock only where a cap is due to
be tested. No heuristic answer is ever returned; if the configured budget
runs out the search raises instead.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .graphs import ZDGraph, _bits, neighbourhood_twin_classes

BUDGET_ENV_VAR = "ZDRLAB_BUDGET_MS"


class DisconnectedGraphError(ValueError):
    """dim / ddim searches require a connected graph."""


class BudgetExceededError(RuntimeError):
    def __init__(self, quantity: str, cardinality: int, checks: int):
        super().__init__(
            f"budget exceeded while solving {quantity} at cardinality {cardinality} "
            f"after {checks} checks (nodes of the search tree)"
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

    def begin(self, cardinality: int) -> None:
        """Start a cardinality; the time cap is checked here as well as
        every 1024 checks, so short searches honour it too."""
        self.cardinality = cardinality
        b = self.budget
        if b.max_ms is not None and self.elapsed_ms > b.max_ms:
            raise BudgetExceededError(self.quantity, cardinality, self.checks)

    def due(self) -> int:
        """The next check count at which a cap must be tested: one past
        ``max_checks``, or the next multiple of 1024 when ``max_ms`` is set.
        The search counts checks itself and calls ``test`` only there."""
        b = self.budget
        due = sys.maxsize
        if b.max_checks is not None:
            due = b.max_checks + 1
        if b.max_ms is not None:
            due = min(due, (self.checks // 1024 + 1) * 1024)
        return due

    def test(self, checks: int) -> int:
        """Record ``checks``, raise if a cap is exceeded, return the next due count."""
        self.checks = checks
        b = self.budget
        if b.max_checks is not None and checks > b.max_checks:
            raise BudgetExceededError(self.quantity, self.cardinality, checks)
        if b.max_ms is not None and checks % 1024 == 0 and self.elapsed_ms > b.max_ms:
            raise BudgetExceededError(self.quantity, self.cardinality, checks)
        return self.due()

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


def twin_classes(g: ZDGraph) -> TwinPartition:
    """Twin classes keyed by open and closed neighbourhood, ordered by least
    member; the same classes the distance build in ``graphs`` uses."""
    return TwinPartition(neighbourhood_twin_classes(g.adj))


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


# the pair universe holds at most this many pairs per vertex of the graph
PAIRS_PER_VERTEX = 32


def _near_pairs(g: ZDGraph, cell_of: list[int], cap: int) -> tuple[array, array]:
    """Pairs u < v in one cell of ``cell_of``, as two arrays of u and v:
    first those at distance 1, then those at distance 2, each in index
    order, at most ``cap`` of them."""
    cells: dict[int, int] = {}
    for v, c in enumerate(cell_of):
        cells[c] = cells.get(c, 0) | 1 << v
    # each vertex's cell members above it
    above = [cells[c] >> u + 1 << u + 1 for u, c in enumerate(cell_of)]
    adj = g.adj
    us, vs = array("q"), array("q")
    for near in (
        lambda u: adj[u] & above[u],
        lambda u: _second_ring(adj, u) & above[u],
    ):
        for u in range(g.order):
            if not above[u]:
                continue
            for v in _bits(near(u)):
                us.append(u)
                vs.append(v)
                if len(us) == cap:
                    return us, vs
    return us, vs


def _second_ring(adj, u: int) -> int:
    """The vertices at distance exactly 2 from ``u``."""
    reach = 0
    for w in _bits(adj[u]):
        reach |= adj[w]
    return reach & ~(adj[u] | 1 << u)


def _separated_pairs(g: ZDGraph, tops: tuple[int, ...], us: array, vs: array):
    """Yield, top by top, the bitset of pairs (bit j for the pair us[j],
    vs[j]) whose two vertices lie at different distances from the top.
    Only one distance row is held as an array at a time."""
    us, vs = np.asarray(us), np.asarray(vs)
    for t in tops:
        row = np.fromiter(g.dist[t], dtype=np.int32, count=g.order)
        bits = np.packbits(row[us] != row[vs], bitorder="little")
        yield int.from_bytes(bits.tobytes(), "little")


def _search(
    g: ZDGraph,
    clock: _Clock,
    tops: tuple[int, ...],
    base: tuple[int, ...] = (),
    resolve: bool = False,
    dominate: bool = False,
    lower: int = 1,
    follows: dict[int, int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Least set of ``base`` plus some ``tops`` that resolves and/or dominates.

    Cardinalities k start at the bounds the set must meet: ``lower``,
    |base| and, for a dominating set, n / (max degree + 1). For each k a
    depth-first search picks k - |base| of ``tops`` in increasing order, so
    full-size leaves come in the order of ``combinations(tops, k - |base|)``
    and the first accepted leaf is the lex-least witness of the least size.
    ``follows`` maps a top to a smaller top it may only be picked after:
    such a top stays locked until that one is picked, and a node steps
    straight to the next unlocked top. Each node visited, root included, is
    one check; the count is kept here and handed to the clock only when a
    cap is due to be tested.

    Both constraints are coverings, tracked in one bitset ``open_`` of what
    the picks so far leave uncovered. Bits below n are the vertices still
    undominated; a top covers its closed neighbourhood. Bits from n on are
    vertex pairs the base leaves unresolved; a top covers the pairs whose
    two vertices lie at different distances from it. Only pairs in one cell
    of the base's distance partition at distance 1 or 2 are tracked, at
    most ``PAIRS_PER_VERTEX`` * n of them, nearest first, so the masks stay
    O(n^2) bits; when the base leaves no pair open there are no pair bits.
    A node's children stop at the first top from which on some open bit
    lies outside the cover of every top still available (``beyond``, the
    complement of their suffix OR, locked tops included). A node is cut
    when more vertices are undominated than the picks left can cover; that
    count reads vertex bits only. A full-size leaf needs ``open_`` empty
    and then the full resolving test, since hitting every tracked pair does
    not make a set resolving. The stack is explicit, so the depth is not
    bounded by Python's recursion limit.
    """
    n = g.order
    closed = [g.adj[v] | 1 << v for v in range(n)]
    spread = max(map(int.bit_count, closed))  # max degree + 1
    # keep[i]: the bits picking tops[i] leaves open
    keep = [~closed[t] if dominate else -1 for t in tops]
    # vertices still undominated; nothing needs dominating for dim alone
    open_base = 0
    if dominate:
        open_base = (1 << n) - 1
        for v in base:
            open_base &= ~closed[v]
    count = int.bit_count

    # each vertex's distance vector to the base, numbered; a leaf resolves
    # when these numbers and the distances to its picks tell all n apart
    ids: dict[tuple[int, ...], int] = {}
    base_ids = [ids.setdefault(vec, len(ids)) for vec in zip(*(g.dist[v] for v in base))]
    base_ids = base_ids or [0] * n
    top_rows = [g.dist[t] for t in tops]
    # pair bits only where two vertices share a base cell
    if resolve and len(set(base_ids)) < n:
        us, vs = _near_pairs(g, base_ids, PAIRS_PER_VERTEX * n)
        if us:
            open_base |= (1 << len(us)) - 1 << n
            keep = [k & ~(p << n) for k, p in zip(keep, _separated_pairs(g, tops, us, vs))]
            vertices = (1 << n) - 1 if dominate else 0
            count = lambda x: (x & vertices).bit_count()  # pair bits are not counted

    m = len(tops)
    # bit i of ``locked``: tops[i] may not be picked below the current node;
    # picking a top frees the one that follows it, backtracking locks it again
    locked = 0
    frees = [0] * m  # frees[i]: the top that picking tops[i] frees, as a bit
    if follows:
        index = {t: i for i, t in enumerate(tops)}
        for t, first in follows.items():
            locked |= 1 << index[t]
            frees[index[first]] = 1 << index[t]
    beyond = [-1] * (m + 1)  # beyond[i]: bits no top in tops[i:] covers
    for i in range(m - 1, -1, -1):
        beyond[i] = beyond[i + 1] & keep[i]

    def accepted(picks: list[int]) -> tuple[int, ...] | None:
        if resolve and len(set(zip(base_ids, *(top_rows[i] for i in picks)))) < n:
            return None
        return tuple(sorted(base + tuple(tops[i] for i in picks)))

    checks, due = clock.checks, clock.due()
    k_start = max(lower, len(base), math.ceil(n / spread) if dominate else 0)
    for k in range(k_start, n + 1):
        clock.checks = checks
        clock.begin(k)
        need = k - len(base)
        checks += 1
        if checks >= due:
            due = clock.test(checks)
        if count(open_base) > need * spread:
            continue
        if need == 0:
            if not open_base and (witness := accepted([])) is not None:
                clock.checks = checks
                return k, witness
            continue
        picks: list[int] = []
        opens = [open_base]
        nexts = [0]  # nexts[d]: the next top index to try as pick d
        while nexts:
            d = len(nexts) - 1
            i = nexts[d]
            if locked >> i & 1:
                # step to the next unlocked top: rest ^ rest + 1 sets the
                # bits of rest's trailing ones and of its lowest zero
                rest = locked >> i
                i += (rest ^ rest + 1).bit_length() - 1
            open_ = opens[d]
            if i > m - (need - d) or open_ & beyond[i]:
                nexts.pop()
                opens.pop()
                if picks:
                    locked ^= frees[picks.pop()]
                continue
            nexts[d] = i + 1
            checks += 1
            if checks >= due:
                due = clock.test(checks)
            open_ &= keep[i]
            left = need - d - 1
            if count(open_) > left * spread:
                continue
            picks.append(i)
            if left == 0:
                if not open_ and (witness := accepted(picks)) is not None:
                    clock.checks = checks
                    return k, witness
                picks.pop()
                continue
            locked ^= frees[i]
            opens.append(open_)
            nexts.append(i + 1)
    raise AssertionError(f"{clock.quantity} search failed on the full vertex set")  # pragma: no cover


def domination_number(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum dominating set; works on disconnected graphs too.

    The search picks only what a lex-least minimum dominating set can
    hold, class by class of ``neighbourhood_twin_classes``. A minimum set
    is minimal, so it holds at most one member of a clique class (N[u] =
    N[v]: a second member is redundant), and none, one or all members of
    an open class (N(u) = N(v)): with two members and a neighbour of the
    class one member is redundant, and with no neighbour every member
    must be in the set. Swapping twins is an automorphism, and moving a
    pick to a smaller unpicked twin makes the sorted tuple smaller, so the
    lex-least minimum set holds the least member of a clique class and a
    prefix, in index order, of an open class. A clique class therefore
    offers only its least member, and member j of an open class may be
    picked only after member j - 1.
    """
    if g.order == 0:
        raise ValueError("domination number of the empty graph is undefined")
    clock = _Clock("gamma", budget)
    tops: list[int] = []
    follows: dict[int, int] = {}
    for cls in neighbourhood_twin_classes(g.adj):
        if len(cls) > 1 and g.adj[cls[0]] >> cls[1] & 1:  # a clique class
            tops.append(cls[0])
        else:
            tops.extend(cls)
            follows.update(zip(cls[1:], cls))
    value, witness = _search(g, clock, tuple(sorted(tops)), dominate=True, follows=follows)
    return QuantityResult(value, witness, "exhaustive", clock.elapsed_ms, clock.checks)


def _require_connected(g: ZDGraph, what: str) -> None:
    if g.order == 0:
        raise ValueError(f"{what} of the empty graph is undefined")
    if not g.is_connected:
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def _twin_setup(g: ZDGraph) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    """The base (every twin class but its largest member), the tops (each
    class's largest member) and the method label."""
    classes = twin_classes(g).classes
    base = tuple(sorted(v for cls in classes for v in cls[:-1]))
    tops = tuple(sorted(cls[-1] for cls in classes))
    return base, tops, "twin_reduced" if base else "exhaustive"


def metric_dimension(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum resolving set of a connected graph."""
    _require_connected(g, "metric dimension")
    clock = _Clock("dim", budget)
    if g.order == 1:
        return QuantityResult(0, (), "exhaustive", clock.elapsed_ms, 0)
    base, tops, method = _twin_setup(g)
    value, witness = _search(g, clock, tops, base, resolve=True)
    return QuantityResult(value, witness, method, clock.elapsed_ms, clock.checks)


def dominant_metric_dimension(
    g: ZDGraph, budget: Budget | None = None, *, _lower: int = 1
) -> QuantityResult:
    """Minimum set that is simultaneously resolving and dominating.

    A single-vertex graph returns 0 by convention (with an empty witness,
    which by that same convention is exempt from the dominating check).
    ``_lower`` is internal: ``solve_dimensions`` passes a size known to be
    at most ddim, and the search starts there.
    """
    _require_connected(g, "dominant metric dimension")
    clock = _Clock("ddim", budget)
    if g.order == 1:
        return QuantityResult(0, (), "convention", clock.elapsed_ms, 0)
    base, tops, method = _twin_setup(g)
    value, witness = _search(g, clock, tops, base, resolve=True, dominate=True, lower=_lower)
    return QuantityResult(value, witness, method, clock.elapsed_ms, clock.checks)


def solve_dimensions(
    g: ZDGraph, which: str = "all", budget: Budget | None = None
) -> DimensionReport:
    """Solve the requested quantities; ``which`` is gamma, dim, ddim, or all.

    With ``all``, the ddim search starts at max(gamma, dim): a resolving
    dominating set is both, so neither can exceed ddim.
    """
    if which not in {"gamma", "dim", "ddim", "all"}:
        raise ValueError(f"unknown quantity {which!r}")
    wants = {"gamma", "dim", "ddim"} if which == "all" else {which}
    gamma = domination_number(g, budget) if "gamma" in wants else None
    dim = metric_dimension(g, budget) if "dim" in wants else None
    ddim = None
    if "ddim" in wants:
        lower = max(gamma.value, dim.value) if which == "all" else 1
        ddim = dominant_metric_dimension(g, budget, _lower=lower)
    return DimensionReport(gamma, dim, ddim)
