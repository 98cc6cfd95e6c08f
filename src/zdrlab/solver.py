"""Exact solvers for domination number, metric dimension, and dominant
metric dimension.

All three are exact covers, solved by one kernel, ``_search``. A set
dominates when it hits every closed neighbourhood, and resolves when it
hits every pair resolvent {w : d(w,u) != d(w,v)} (Khuller, Raghavachari and
Rosenfeld, DAM 70, 1996). Resolving searches work over the distance-twin
quotient: a resolving set misses at most one vertex of each twin class, and
swapping twins is an automorphism, so the lex-least witness holds every
class member but the largest (the base) and the search only picks among the
classes' largest members (the tops). The pairs left to resolve are those
that share a cell of the base's distance partition, tracked as cover
elements up to ``PAIRS_PER_VERTEX`` per vertex; a cell with an untracked
pair is an untracked cell. A set covering every tracked pair resolves when
it also splits each untracked cell into singletons: the full resolving
test, never run without an untracked cell. The domination search offers
only the least member of a clique class (see ``domination_number``).

An oracle decides whether a partial set can be completed within a number of
picks: it branches on the open element with the fewest covers, as in
Knuth's "Dancing Links" (arXiv cs/0011047). The value is the least size at
which the oracle succeeds, starting from the size bounds; with all three
quantities asked for, ddim starts at max(gamma, dim). A
``solve_dimensions`` call builds the resolve elements (the untracked
cells, the pairs as cover elements with their cover counts, each top's
separated pairs) once: the first resolving search builds them inside its
own clock and budget, the second reads them, and they live no longer than
the call.
The witness comes from a descent over the tops in index order that keeps
each top the oracle can complete, reusing the last completion, so it is the
lex-least minimum set. One check is one node of an oracle search, whether
the size search or the descent called it; a node with one pick left tests
its options inside that one check and opens no node for them. Such a last
pick must cover every open element, so its options, the rarest element's
covers, are first narrowed to the covers of a second open element. A node
with two picks left runs its children in place, each still one check,
pushing no frame for them. The kernel counts checks itself and hands the
count to the clock only where a cap is due to be tested. No heuristic
answer is ever returned; if the configured budget runs out the search
raises instead.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .graphs import ZDGraph, _bits, _is_clique_class, _made_twins, _rows

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
    """Hard caps for a single solve; None means unlimited. NaN (never exceeded) or < 0 raises."""

    max_ms: float | None = None
    max_checks: int | None = None

    def __post_init__(self) -> None:
        if not all(cap is None or cap >= 0 for cap in (self.max_ms, self.max_checks)):
            raise ValueError(f"a budget cap must be a non-negative number: {self}")

    def left_after(self, start: float) -> Budget:
        """This budget with its time cap cut by the time since ``start``, a
        ``time.monotonic()`` reading, to at least 0."""
        if self.max_ms is None:
            return self
        spent_ms = (time.monotonic() - start) * 1000.0
        return replace(self, max_ms=max(self.max_ms - spent_ms, 0.0))


class _Clock:
    def __init__(self, quantity: str, budget: Budget | None):
        self.quantity = quantity
        self.budget = budget or Budget()
        self.checks = 0
        self.start = time.monotonic()
        self.cardinality = 0
        # for the set-up to call between steps (BFS sources, slices of pairs)
        self.deadline = None if self.budget.max_ms is None else self.tick

    def begin(self, cardinality: int) -> None:
        """Start a cardinality; the time cap is tested here as well as
        every 1024 checks, so short searches honour it too."""
        self.cardinality = cardinality
        self.tick()

    def tick(self) -> None:
        """Raise if the time cap is exceeded."""
        b = self.budget
        if b.max_ms is not None and self.elapsed_ms > b.max_ms:
            raise BudgetExceededError(self.quantity, self.cardinality, self.checks)

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
    vectors = set(zip(*_rows(g, vs)))
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
    """The graph's twin classes, ``g.classes``, found when the graph was
    built and ordered by least member: a ring graph's merged from its
    associate classes, any other graph's keyed by open and closed
    neighbourhood."""
    return TwinPartition(g.classes)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


# every pair of tops that share a cell is tracked when there are at most
# this many pairs per vertex of the graph; otherwise at most this many are,
# since with no pairs every node of a dense twin-free search runs the leaf test
PAIRS_PER_VERTEX = 32


def _shared_cells(g: ZDGraph) -> list[list[int]]:
    """The cells of the base's distance partition with two or more members,
    each in index order, by least member. A base member is a cell of its
    own, since only it lies at distance 0 from itself, so these cells hold
    tops. Twins lie at one distance from every vertex outside their class,
    and a top at one distance from the rest of its class, so a top's key is
    its class's column of the k-entry class rows (``ZDGraph._twins``) of
    the classes of two or more: one transposed pass; with none, one key."""
    rows = [row for row, cls in zip(g._twins[2], g.classes) if len(cls) > 1]
    cells: dict[tuple[int, ...], list[int]] = {}
    for key, cls in zip(zip(*rows) if rows else [()] * len(g.classes), g.classes):
        cells.setdefault(key, []).append(cls[-1])
    return sorted(sorted(cell) for cell in cells.values() if len(cell) > 1)


def _tiers(counts: np.ndarray, step: int, shift: int) -> dict[int, int]:
    """Pairs by their number of covers (cover count: pair bitset, shifted):
    one bit row per count present, packed from the counts ``step`` pairs at
    a time, and read as ints off one copy of the rows' bytes."""
    values = np.flatnonzero(np.bincount(counts)).astype(counts.dtype)
    rows = np.empty((len(values), (len(counts) + 7) // 8), dtype=np.uint8)
    for p in range(0, len(counts), step):
        rows[:, p // 8:(p + step) // 8] = np.packbits(counts[p:p + step] == values[:, None], axis=1,
                                                      bitorder="little")
    data, width = rows.tobytes(), rows.shape[1]
    return {count: int.from_bytes(data[i:i + width], "little") << shift
            for count, i in zip(values.tolist(), range(0, len(data), width))}


def _top_rows(g: ZDGraph, tops: Sequence[int]) -> list:
    """Each top's distances to the tops, indexed by class (the c-th entry is
    to class c's top): its class row with 0 on its own column. A twin-free
    graph's class rows are these rows."""
    class_of, _, rows, _ = g._twins
    out = []
    for t in tops:
        if (row := rows[c := class_of[t]])[c]:  # t has twins, at this distance
            row = row[:]
            row[c] = 0
        out.append(row)
    return out


def _resolve_elements(g: ZDGraph, deadline: Callable[[], None] | None = None):
    """What a resolving search over the tops (each class's largest member)
    needs: the untracked cells, the element covers (a vertex's 0 until a
    search opens it, a pair's None until a search reads its packed vertex
    bitset from ``pair_rows``), ``pair_rows``, the tracked pairs by cover
    count, and per top every element bit but the pairs it resolves; element
    bits as in ``_search``. Each cell's first members take what the cells
    before it left of the cap on tracked pairs. A top covers a pair when its
    distances to the two differ: the ends' rows (``_top_rows``) are one
    array over their joined bytes, compared in slices of ~2**18 entries,
    ``deadline`` (when given) called before each. A slice is packed by pair
    into ``pair_rows``, each class's column at its top's bit, and by class
    into one byte row per top; the keep masks are read off one copy of it."""
    n, cap = g.order, PAIRS_PER_VERTEX * g.order
    untracked, ends, us, vs = [], [], [], []
    for cell in _shared_cells(g):
        size = min(len(cell), (1 + math.isqrt(1 + 8 * cap)) // 2)
        if size < len(cell):
            untracked.append(cell)
        if size < 2:
            continue
        a = np.arange(size)
        i, j = np.nonzero(a[:, None] < a)  # the pairs i < j, in row order
        us.append(i + len(ends))
        vs.append(j + len(ends))
        ends += cell[:size]
        cap -= len(i)
    if not ends:
        return untracked, [0] * n, None, {}, {}
    rows = np.frombuffer(b"".join(_top_rows(g, ends)), g._twins[2][0].typecode).reshape(len(ends), -1)
    us, vs = np.concatenate(us), np.concatenate(vs)  # pair p joins rows us[p] and vs[p]
    m, k = len(us), rows.shape[1]
    top_of = [cls[-1] for cls in g.classes]
    pair_rows = np.empty((m, (n + 7) // 8), dtype=np.uint8)
    counts = np.empty(m, dtype=np.min_scalar_type(n))
    by_class = np.empty((k, (m + 7) // 8), dtype=np.uint8)  # pair p: bit p % 8 of byte p // 8
    step = max(8, (1 << 18) // n // 8 * 8)
    for p in range(0, m, step):
        if deadline:
            deadline()
        sep = rows.take(us[p:p + step], 0) != rows.take(vs[p:p + step], 0)
        counts[p:p + step] = sep.view(np.uint8).sum(axis=1, dtype=counts.dtype)
        by_class[:, p // 8:(p + step) // 8] = np.packbits(sep.T.copy(), axis=1, bitorder="little")
        if k < n:  # column c is the bit of class c's top
            sep, cols = np.zeros((len(sep), n), dtype=bool), sep
            sep[:, top_of] = cols
        pair_rows[p:p + step] = np.packbits(sep, axis=1, bitorder="little")
    del rows, us, vs, sep
    tiers = _tiers(counts, step, n)  # before the tops' bitsets, so its temporaries set no new peak
    data, width = by_class.tobytes(), by_class.shape[1]
    del by_class
    keep = {t: ~(int.from_bytes(data[i:i + width], "little") << n)
            for t, i in zip(top_of, range(0, len(data), width))}
    return untracked, [0] * n + [None] * m, pair_rows, tiers, keep


def _search(
    g: ZDGraph,
    clock: _Clock,
    tops: tuple[int, ...],
    resolve: bool = False,
    dominate: bool = False,
    lower: int = 1,
    shared: list | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Least, then lex-least, set of the base plus some ``tops`` that
    dominates (``dominate``) and/or resolves (``resolve``: the base is then
    every member of each twin class but its top).

    Element bits: v < n is the vertex v, open while undominated, and n + p
    the p-th tracked pair of ``_resolve_elements``, open while unresolved.
    ``covers[e]`` holds the tops covering element e as a vertex bitset, and
    ``keep[t]`` the elements picking t leaves open. A covered set resolves
    unless it leaves a pair of an untracked cell unresolved, and then it
    branches on the covers of the first such pair. ``complete`` branches on
    the open element with the fewest covers (then the lowest bit), over its
    covers still available in index order, dropping each from the later
    branches once tried, and cuts a node when more vertices are undominated
    than its picks left can cover (max degree + 1 each). A node with one
    pick left scans those options in the same order and returns with the
    first that leaves nothing open and no untracked cell unresolved: the
    leaf the search would have accepted first. That pick covers every open
    element, so before the scan its options are narrowed to the covers of
    the highest open element too; this only drops options that would fail.
    A node with two picks left runs each child, one pick left, in place, in
    the order of its options, pushing no frame; each child is still a node,
    one check, counted before its scan. The stack is explicit. Each node is
    one check, handed to the clock only when a cap is due to be tested.

    The set-up is per top and per open element, not per vertex: ``keep``
    is made for the tops, a vertex's covers when it is open, and one pass
    over the classes takes the max degree, the base and the vertices it
    dominates off one member each, as twins have equal degrees and share
    their neighbours. Distances between tops are read off the graph's
    k-entry class rows (``_top_rows``); no member row is made. A resolving
    search reads its resolve elements from ``shared``, building them
    first, on its own clock, when it is empty; ``solve_dimensions`` hands
    dim and ddim one list. Covers a search reads from ``pair_rows`` stay
    converted for the next.
    """
    n, adj = g.order, g.adj
    top_mask = sum(1 << t for t in tops)
    spread, base, dominated = 0, [], 0  # max degree; the base and its neighbours
    for cls in g.classes:
        nbrs = adj[cls[0]]
        if nbrs.bit_count() > spread:
            spread = nbrs.bit_count()
        if resolve and len(cls) > 1:
            base += cls[:-1]
            dominated |= nbrs
    spread += 1  # max degree + 1
    keep = [-1] * n
    if dominate:
        for t in tops:
            keep[t] = ~(adj[t] | 1 << t)
    covers, untracked, pair_rows, pair_tiers = [0] * n, [], None, {}
    if resolve:
        shared = [] if shared is None else shared
        if not shared:
            shared.append(_resolve_elements(g, clock.deadline))
        untracked, covers, pair_rows, pair_tiers, resolve_keep = shared[0]
        for t, rest in resolve_keep.items():
            keep[t] &= rest
    vertices = (1 << n) - 1 if dominate else 0
    open_base = vertices & top_mask & ~dominated if resolve else vertices
    tiers = dict(pair_tiers)  # cover count: the elements with that many covers
    for v in _bits(open_base):
        covers[v] = cover = (adj[v] | 1 << v) & top_mask
        count = cover.bit_count()
        tiers[count] = tiers.get(count, 0) | 1 << v
    open_base |= (1 << len(covers) - n) - 1 << n
    rarest = [tiers[count] for count in sorted(tiers)]
    dist, top_of = {}, []  # the picks' distances to the tops, and the cells, by class
    if untracked:
        class_of, top_of = g._twins[0], [cls[-1] for cls in g.classes]
        dist = dict(zip(tops, _top_rows(g, tops)))
        untracked = [[class_of[t] for t in cell] for cell in untracked]

    def unresolved(picks: list[int]) -> int:
        """The tops separating a pair that the base and ``picks`` leave
        unresolved, or 0: each pick splits the untracked cells, held as
        classes, by distance."""
        split = untracked
        for p in picks:
            row, parts = dist[p], []
            for group in split:
                by_distance: dict[int, list[int]] = {}
                for c in group:
                    by_distance.setdefault(row[c], []).append(c)
                parts += [part for part in by_distance.values() if len(part) > 1]
            split = parts
        if not split:
            return 0
        du, dv = dist[top_of[split[0][0]]], dist[top_of[split[0][1]]]
        return sum(1 << t for t, a, b in zip(top_of, du, dv) if a != b)

    checks, due = clock.checks, clock.due()

    def convert(e: int) -> int:
        """Pair element e's covers, read from ``pair_rows`` and kept."""
        covers[e] = found = int.from_bytes(pair_rows[e - n].tobytes(), "little")
        return found

    def complete(open_: int, avail: int, r: int, fixed: list[int]) -> list[int] | None:
        """At most ``r`` picks from ``avail`` that, with ``fixed``, cover
        ``open_`` and resolve the untracked cells, or None."""
        nonlocal checks, due
        picks: list[int] = []
        frames: list[list[int]] = []  # per pick: [open before it, avail, covers to try]
        while True:
            checks += 1
            if checks >= due:
                due = clock.test(checks)
            left = r - len(picks)
            options = 0
            if not open_:
                split = untracked and unresolved(fixed + picks)
                if not split:
                    return picks
                options = split & avail if left else 0
            elif left and (open_ & vertices).bit_count() <= left * spread:
                for tier in rarest:
                    if low := open_ & tier:
                        break
                e = (low & -low).bit_length() - 1
                options = covers[e]
                if options is None:
                    options = convert(e)
                options &= avail
                if left == 1:  # the last pick covers every open element, the highest too
                    e = open_.bit_length() - 1
                    second = covers[e]
                    if second is None:
                        second = convert(e)
                    options &= second
            if left == 1:  # each option would open a leaf: test them here
                while options:
                    low = options & -options
                    t = low.bit_length() - 1
                    if not open_ & keep[t] and not (untracked and unresolved(fixed + picks + [t])):
                        return picks + [t]
                    options ^= low
            elif left == 2:  # each option opens a node with one pick left: one check, run here
                while options:
                    low = options & -options
                    options ^= low
                    avail ^= low
                    t = low.bit_length() - 1
                    checks += 1
                    if checks >= due:
                        due = clock.test(checks)
                    after = open_ & keep[t]
                    if not after:
                        split = untracked and unresolved(fixed + picks + [t])
                        if not split:
                            return picks + [t]
                        last = split & avail
                    elif (after & vertices).bit_count() <= spread:
                        # the rarest open element's covers, narrowed as above
                        for tier in rarest:
                            if low := after & tier:
                                break
                        e = (low & -low).bit_length() - 1
                        last = covers[e]
                        if last is None:
                            last = convert(e)
                        e = after.bit_length() - 1
                        second = covers[e]
                        if second is None:
                            second = convert(e)
                        last &= second & avail
                    else:
                        continue
                    while last:
                        low = last & -last
                        u = low.bit_length() - 1
                        if not after & keep[u] and not (untracked and unresolved(fixed + picks + [t, u])):
                            return picks + [t, u]
                        last ^= low
            if options:
                frames.append([open_, avail, options])
                picks.append(-1)
            while frames and not frames[-1][2]:
                frames.pop()
                picks.pop()
            if not frames:
                return None
            frame = frames[-1]
            low = frame[2] & -frame[2]
            frame[2] ^= low
            avail = frame[1] = frame[1] ^ low
            t = picks[-1] = low.bit_length() - 1
            open_ = frame[0] & keep[t]

    # the value: the least size from the bounds that ``complete`` reaches
    k_start = max(lower, len(base), math.ceil(n / spread) if dominate else 0)
    for k in range(k_start, n + 1):
        clock.checks = checks
        clock.begin(k)
        r = k - len(base)
        rest = complete(open_base, top_mask, r, [])
        if rest is None:
            continue
        # the witness: each top in turn joins when ``complete`` can finish
        # the set after it; the last completion's next pick joins unasked
        rest.sort()
        chosen: list[int] = []
        open_ = open_base
        for t in tops:
            if len(chosen) == r:
                break
            after = open_ & keep[t]
            if t == rest[0]:
                del rest[0]
            else:
                found = complete(after, top_mask >> t + 1 << t + 1, r - len(chosen) - 1, chosen + [t])
                if found is None:
                    continue
                rest = sorted(found)
            chosen.append(t)
            open_ = after
        clock.checks = checks
        return k, tuple(sorted(base + chosen))
    raise AssertionError(f"{clock.quantity} search failed on the full vertex set")  # pragma: no cover


def domination_number(g: ZDGraph, budget: Budget | None = None) -> QuantityResult:
    """Minimum dominating set; works on disconnected graphs too.

    A minimum set holds at most one member of a clique class (N[u] = N[v]),
    and moving a pick to a smaller twin is an automorphism that makes the
    sorted set smaller, so a clique class offers only its least member.
    Every member of an open class (N(u) = N(v)) is offered.
    """
    if g.order == 0:
        raise ValueError("domination number of the empty graph is undefined")
    clock = _Clock("gamma", budget)
    tops: list[int] = []
    for cls in g.classes:
        tops.extend(cls[:1] if _is_clique_class(g.adj, cls) else cls)
    value, witness = _search(g, clock, tuple(sorted(tops)), dominate=True)
    return QuantityResult(value, witness, "exhaustive", clock.elapsed_ms, clock.checks)


def _resolving(
    g: ZDGraph, budget: Budget | None, dominate: bool, lower: int, shared: list | None
) -> QuantityResult:
    """dim, or ddim when ``dominate``: the search over the tops (each twin
    class's largest member), the base being every member but the top. The
    clock starts first: the twin quotient, if not yet made, is made on it,
    its time cap tested between BFS sources, before the connectivity test."""
    what = "dominant metric dimension" if dominate else "metric dimension"
    if g.order == 0:
        raise ValueError(f"{what} of the empty graph is undefined")
    clock = _Clock("ddim" if dominate else "dim", budget)
    _made_twins(g, clock.deadline)
    if not g.is_connected:
        raise DisconnectedGraphError(f"{what} requires a connected graph")
    if g.order == 1:
        return QuantityResult(0, (), "convention" if dominate else "exhaustive", clock.elapsed_ms, 0)
    tops = tuple(sorted(cls[-1] for cls in twin_classes(g).classes))
    method = "twin_reduced" if len(tops) < g.order else "exhaustive"
    value, witness = _search(g, clock, tops, resolve=True, dominate=dominate, lower=lower, shared=shared)
    return QuantityResult(value, witness, method, clock.elapsed_ms, clock.checks)


def metric_dimension(
    g: ZDGraph, budget: Budget | None = None, *, _shared: list | None = None
) -> QuantityResult:
    """Minimum resolving set of a connected graph.

    ``_shared`` is internal: ``solve_dimensions`` passes one list to dim and
    ddim, and the first search leaves its resolve elements there for the
    second.
    """
    return _resolving(g, budget, dominate=False, lower=1, shared=_shared)


def dominant_metric_dimension(
    g: ZDGraph, budget: Budget | None = None, *, _lower: int = 1, _shared: list | None = None
) -> QuantityResult:
    """Minimum set that is simultaneously resolving and dominating.

    A single-vertex graph returns 0 by convention (with an empty witness,
    which by that same convention is exempt from the dominating check).
    ``_lower`` and ``_shared`` are internal: ``solve_dimensions`` passes a
    size known to be at most ddim, where the search starts, and the list in
    which the dim search left its resolve elements.
    """
    return _resolving(g, budget, dominate=True, lower=_lower, shared=_shared)


def solve_dimensions(
    g: ZDGraph, which: str = "all", budget: Budget | None = None
) -> DimensionReport:
    """Solve the requested quantities; ``which`` is gamma, dim, ddim, or all.

    With ``all``, the ddim search starts at max(gamma, dim): a resolving
    dominating set is both, so neither can exceed ddim. It also reads the
    resolve elements the dim search built, on dim's clock; they live only as
    long as this call. The time cap bounds the whole call: each quantity
    gets what the ones before it left, at least 0. The check cap applies to
    each quantity's search.
    """
    if which not in {"gamma", "dim", "ddim", "all"}:
        raise ValueError(f"unknown quantity {which!r}")
    wants = {"gamma", "dim", "ddim"} if which == "all" else {which}
    budget, start = budget or Budget(), time.monotonic()
    shared: list = []
    gamma = domination_number(g, budget) if "gamma" in wants else None
    dim = metric_dimension(g, budget.left_after(start), _shared=shared) if "dim" in wants else None
    ddim = None
    if "ddim" in wants:
        lower = max(gamma.value, dim.value) if which == "all" else 1
        ddim = dominant_metric_dimension(g, budget.left_after(start), _lower=lower, _shared=shared)
    return DimensionReport(gamma, dim, ddim)
