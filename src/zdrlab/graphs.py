"""Zero-divisor graphs and their classical invariants.

A :class:`ZDGraph` is a simple undirected graph with per-vertex adjacency
bitsets, its distance-twin classes and its distance matrix (-1 marks
unreachable pairs), one typed array per row. Twins have equal rows outside
their own class, so the only distance data a graph stores is one k-entry
row per twin class: the twin quotient's (one vertex per class), with the
distance between two members of the class on its diagonal. A graph is
built with its adjacency and twin classes only: the quotient and its class
rows are made on their first read (``ZDGraph._twins``), a vertex's row off
its class's row only when read (``_rows``), and the full matrix on its
first read. A connected
zero-divisor graph has diameter at most 3 (Anderson and Livingston, 1999),
so a quotient of ``REACH_MIN_CLASSES`` classes or more whose pairs all lie
within 3 takes its distances from each class's two-step bitset reach: 1 on
an edge, 2 in the reach, 3 elsewhere. Smaller quotients, and any with a
pair farther apart or unreachable, take one bitset BFS per class. Cut
vertices, the clique number, the girth and the diameter are read off the
same quotient. Graphs come from ring zero-divisor graphs, generated named
families, and parsed edge-list files. A ring graph is built on associate
classes: x and ux (u a unit) have one row of zero products but their own
bit, so the block is evaluated on one representative per class, the twin
classes merge the associate classes, and labels are made on first read.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .rings import ORDER_CAP, FiniteRing, RingSpec, _associate_reps, _nonunits, _zero_products

INF = math.inf


class EmptyGraphError(Exception):
    """The ring is an integral domain: L(R) is empty, no graph exists."""


@dataclass(frozen=True)
class ZDGraph:
    """Immutable simple graph over indexed vertices.

    ``external_ids`` keeps the source identity of each vertex (the ring
    element index for ring-derived graphs); exports use it so that, say,
    the zero-divisor graph of Zn:6 prints its vertices as 2, 3, 4.
    ``classes`` is the distance-twin partition, ordered by least member: of
    a ring graph, merged from its associate classes, and of any other graph,
    keyed by neighbourhood (``neighbourhood_twin_classes``). It is computed
    once, when the graph is built. The twin quotient and one k-entry
    distance row per class (from the two-step reach when the quotient has
    at least ``REACH_MIN_CLASSES`` classes and diameter at most 3, else from
    one BFS per class) are made on their first read (``_twins``), by the
    connectivity test, the invariants or a resolving solve, on that
    reader's clock, which a solve tests between BFS sources
    (``_made_twins``); a domination solve reads none. The class rows are the
    only distance data the graph stores. ``dist[v]`` is
    an ``array.array`` of the narrowest signed type that holds the largest
    distance: one byte per entry on every zero-divisor graph, whose
    diameter is at most 3. Member rows are made off the class rows only
    when read (``_rows``): by the family recogniser's one row,
    ``is_resolving``, and ``dist``, which makes all n on its first read.
    Rows are unhashable, so a graph is too.
    """

    order: int
    labels: tuple[str, ...]
    external_ids: tuple[int, ...]
    adj: tuple[int, ...]
    dist: tuple[array, ...]
    classes: tuple[tuple[int, ...], ...]
    source: str = ""

    def __post_init__(self):
        for name in ("labels", "dist"):
            if callable(value := self.__dict__[name]):  # kept to make the value on first read
                self.__dict__["_" + name] = self.__dict__.pop(name)
            else:
                self.__dict__[name] = tuple(value)

    def __getattr__(self, name: str):
        """``labels`` or ``dist`` on first read, made by the function given in its place: a
        ring's ``labels_of`` from the external ids, or ``_rows`` for every vertex. Later reads
        find the value itself."""
        if name not in ("labels", "dist") or "_" + name not in self.__dict__:
            raise AttributeError(name)
        args = (self.external_ids,) if name == "labels" else (self, range(self.order))
        value = self.__dict__[name] = tuple(self.__dict__["_" + name](*args))
        del self.__dict__["_" + name]
        return value

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in _bits(self.adj[u] >> u + 1 << u + 1)]

    @property
    def size(self) -> int:
        return sum(self.degree(v) for v in range(self.order)) // 2

    @property
    def is_connected(self) -> bool:
        """Read off the class row of vertex 0's class: -1 marks a class out
        of its reach, and on the diagonal, isolated twins."""
        if self.order == 0:
            return True
        class_of, _, rows, _ = self._twins
        return -1 not in rows[class_of[0]]

    @cached_property
    def _twins(self) -> tuple[Sequence[int], Sequence[int], Sequence[array], int]:
        """The class map, twin quotient, k-entry class rows and largest
        distance (``_twin_quotient``), made on first read (``_made_twins``)."""
        return _made_twins(self)


def _made_twins(g: ZDGraph, deadline: Callable[[], None] | None = None) -> tuple:
    """``g._twins``, made now if no reader has made it: a solve passes its
    clock's ``deadline``, called before each source of the quotient's BFS,
    which may raise; then nothing is kept. A twin-free graph given its rows
    takes them as its class rows, as arrays of one type."""
    if "_twins" not in g.__dict__:
        if len(g.classes) == g.order and "dist" in g.__dict__:
            top = max(map(max, g.dist), default=0)
            rows = [array(_typecode(top), row) for row in g.dist]
            g.__dict__["_twins"] = range(g.order), g.adj, rows, top
        else:
            g.__dict__["_twins"] = _twin_quotient(g.adj, g.classes, deadline)
    return g.__dict__["_twins"]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def neighbourhood_twin_classes(adj: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Distance-twin classes keyed by neighbourhood, in one pass.

    u and v are twins exactly when N(u) = N(v) or N[u] = N[v] (Hernando,
    Mora, Pelayo, Seara and Wood, EJC 17, 2010), so each vertex joins the
    class whose founder has its open or its closed neighbourhood. N(w) =
    N[v] is impossible (v in N(w) puts w in N(v), so w in N(w)), so one
    dict holds both keys. Classes come out ordered by least member.
    """
    return tuple(map(tuple, _merge_twins(adj, zip(range(len(adj))))))


def _merge_twins(adj: Sequence[int], groups: Iterable[Sequence[int]]) -> list[list[int]]:
    """The twin classes that join ``groups`` of twins, given in order of least member:
    each joins the class whose founder has its first member's open or closed neighbourhood."""
    by_key: dict[int, list[int]] = {}
    classes: list[list[int]] = []
    for group in groups:
        v = group[0]
        nbrs = adj[v]
        cls = by_key.get(nbrs) or by_key.get(nbrs | 1 << v)
        if cls is None:
            cls = by_key[nbrs] = by_key[nbrs | 1 << v] = []
            classes.append(cls)
        cls += group
    return classes


def _typecode(top: int) -> str:
    """The narrowest signed ``array`` typecode that holds ``top``."""
    return next(code for code in "bhiq" if top < 1 << 8 * array(code).itemsize - 1)


def _bfs_rows(
    adj: Sequence[int], deadline: Callable[[], None] | None = None
) -> tuple[list[array], int]:
    """Distances from each vertex by a bitset BFS, -1 where unreachable,
    and the largest of them; ``deadline``, when given, is called before
    each source. Each row is packed into an ``array.array`` as soon as it
    is made, of the narrowest signed type that holds the largest distance
    so far; a row that needs a wider type widens the rows before it. The
    bit loops are inline: a generator per frontier costs more than the BFS."""
    order, rows, top, code = len(adj), [], 1, "b"
    for s in range(order):
        if deadline:
            deadline()
        dist = [-1] * order
        dist[s] = 0
        seen = frontier = 1 << s
        d = 0
        while frontier:
            d += 1
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt = nxt & ~seen
            seen |= nxt
            while nxt:
                low = nxt & -nxt
                dist[low.bit_length() - 1] = d
                nxt ^= low
        if d > top:
            top = d
            if _typecode(top - 1) != code:  # each last level was empty
                code = _typecode(top - 1)
                rows = [array(code, row) for row in rows]
        rows.append(array(code, dist))
    return rows, top - 1


# The least quotient that takes its distances from the two-step reach. On
# ring quotients (CPython 3.11, x86-64) one BFS per class is quicker at 4 to
# 7 classes, the two are within a fifth of each other at 9 and 10, and the
# reach is a third to a half quicker from 14 classes up.
REACH_MIN_CLASSES = 11
# Classes per block of unpacked reach rows: a block of (Z_2)^12's 4,094
# classes takes 1 MB where its whole matrix would take 16.8 MB.
REACH_BLOCK = 256


def _reach(quotient: Sequence[int]) -> list[int] | None:
    """Each vertex's two-step reach, the OR of its neighbours' bitsets, when
    every pair neither joined nor in it has a path of length 3; else None,
    as on a graph of diameter above 3 or a disconnected one."""
    full = (1 << len(quotient)) - 1
    reach = []
    for nbrs in quotient:
        two = 0
        while nbrs:
            low = nbrs & -nbrs
            two |= quotient[low.bit_length() - 1]
            nbrs ^= low
        reach.append(two)
    for c, (nbrs, two) in enumerate(zip(quotient, reach)):
        left = full & ~(nbrs | two) >> c + 1 << c + 1  # each pair once, from its lower end
        while left and nbrs:
            low = nbrs & -nbrs
            left &= ~reach[low.bit_length() - 1]
            nbrs ^= low
        if left:
            return None
    return reach


def _is_clique_class(adj: Sequence[int], cls: Sequence[int]) -> bool:
    """Whether a twin class of two or more is a clique; else it is open."""
    return len(cls) > 1 and bool(adj[cls[0]] >> cls[1] & 1)


def _twin_quotient(
    adj: Sequence[int], classes: tuple[tuple[int, ...], ...],
    deadline: Callable[[], None] | None = None,
) -> tuple[Sequence[int], Sequence[int], list[array], int]:
    """Each vertex's class, the twin quotient (bit d of the c-th bitset
    when classes c and d are joined), its k-entry class rows, and the
    largest distance.

    Adjacency between two twin classes is all or nothing, so one member's
    row holds it; a twin-free graph is its own quotient. Entry d of class
    c's row is the distance between any member of c and any of d, and for
    d = c any two members lie at one distance too: 1 in a clique class, 2
    for open twins with a neighbour, -1 for isolated ones and 0 in a class
    of one. That twin distance goes on the diagonal, so these k rows hold
    every distance of the graph; a member's row is its class's row read
    through each vertex's class, with 0 at itself (``_rows``).

    A connected zero-divisor graph has diameter at most 3 (Anderson and
    Livingston, J. Algebra 217, 1999, Thm 2.3), and so has its quotient. On
    a quotient of ``REACH_MIN_CLASSES`` classes or more whose every pair
    lies within 3 (``_reach``), the distances are 1 on an edge, 2 in the
    two-step reach and 3 elsewhere, filled from the unpacked quotient and
    reach bitsets (``_reach_rows``). Any other quotient, smaller,
    farther apart or disconnected, takes one BFS per class, calling
    ``deadline`` (when given) before each. Rows are of the narrowest signed
    type that holds the largest distance.
    """
    k = len(classes)
    quotient = adj
    if k == len(adj):
        class_of = range(k)
    else:
        class_of = [0] * len(adj)
        for c, cls in enumerate(classes):
            for v in cls:
                class_of[v] = c
        least = sum(1 << cls[0] for cls in classes)
        quotient = [sum(1 << class_of[v] for v in _bits(adj[cls[0]] & least)) for cls in classes]
    twins = [1 if _is_clique_class(adj, cls) else 0 if len(cls) == 1 else 2 if nbrs else -1
             for cls, nbrs in zip(classes, quotient)]
    reach = _reach(quotient) if k >= REACH_MIN_CLASSES else None
    if reach is not None:
        return class_of, quotient, *_reach_rows(quotient, reach, twins)
    rows, top = _bfs_rows(quotient, deadline)
    for c, twin in enumerate(twins):
        rows[c][c] = twin
    return class_of, quotient, rows, max([top, *twins])


def _reach_rows(
    quotient: Sequence[int], reach: Sequence[int], twins: Sequence[int]
) -> tuple[list[array], int]:
    """The int8 class rows of a quotient whose pairs all lie within 3, and
    the largest distance: 1 on an edge, 2 in the two-step reach off it, 3
    elsewhere, and the twin distances on the diagonal. A block of
    ``REACH_BLOCK`` classes is unpacked at a time, so the k x k matrix is
    never whole in numpy."""
    k = len(quotient)
    width = (k + 7) // 8

    def unpack(bitsets: Sequence[int]) -> np.ndarray:
        packed = b"".join(b.to_bytes(width, "little") for b in bitsets)
        packed = np.frombuffer(packed, dtype=np.uint8).reshape(len(bitsets), width)
        return np.unpackbits(packed, axis=1, count=k, bitorder="little")

    rows, top = [], 0
    for lo in range(0, k, REACH_BLOCK):
        near, dist = unpack(quotient[lo:lo + REACH_BLOCK]), unpack(reach[lo:lo + REACH_BLOCK])
        dist |= near
        np.subtract(3, dist, out=dist)
        dist -= near
        dist = dist.view(np.int8)
        dist.flat[lo::k + 1] = twins[lo:lo + REACH_BLOCK]  # entry (c - lo, c) of each class c
        top = max(top, int(dist.max()))
        rows += [array("b", row.tobytes()) for row in dist]
    return rows, top


def _rows(g: ZDGraph, vertices: Sequence[int]) -> list:
    """Rows ``vertices`` of ``g.dist``, off the class rows until it is made:
    on a twin-free graph, its own quotient, a vertex gets its class's row
    itself, which callers only read; on any other, ``_member_rows`` makes
    them."""
    if "dist" in g.__dict__:
        return [g.dist[v] for v in vertices]
    class_of, _, rows, _ = g._twins
    if len(rows) == g.order:
        return [rows[v] for v in vertices]
    return _member_rows(class_of, rows, vertices)


def _member_rows(
    class_of: Sequence[int], rows: Sequence[array], vertices: Sequence[int]
) -> list[array]:
    """Rows ``vertices`` of the distance matrix of a graph with twins, made
    off its k-entry class rows: each class read is widened once to n
    entries, its row read through each vertex's class, and a vertex with no
    twin gets that row itself, any other a copy with 0 at itself. r rows
    take O(r n). With one byte per class and per distance, a widening is
    one byte-table lookup (``bytes.translate``) over the class map."""
    if len(rows) <= 256 and rows[0].typecode == "b":
        by_byte = bytes(class_of)

        def widen(row: array) -> array:
            return array("b", by_byte.translate(bytes(row).ljust(256, b"\0")))
    else:
        def widen(row: array) -> array:
            return array(row.typecode, map(row.__getitem__, class_of))
    wide: list[array | None] = [None] * len(rows)
    for c in set(map(class_of.__getitem__, vertices)):
        wide[c] = widen(rows[c])
    out = []
    for v in vertices:
        if (row := wide[class_of[v]])[v]:  # v has twins, at this distance
            row = row[:]
            row[v] = 0
        out.append(row)
    return out


def graph_from_edges(
    order: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None,
    external_ids: Sequence[int] | None = None, source: str = "",
) -> ZDGraph:
    if order > ORDER_CAP:  # before the adjacency and its BFS are built
        raise ValueError(f"a graph of {order} vertices is above the order cap "
                         f"ORDER_CAP = {ORDER_CAP}")
    adj = [0] * order
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed in a simple graph")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    labels = [str(i) for i in range(order)] if labels is None else labels
    ids = range(order) if external_ids is None else external_ids
    classes = neighbourhood_twin_classes(adj)
    return ZDGraph(order, labels, tuple(ids), tuple(adj), _rows, classes, source)


def build_zdgraph(ring: FiniteRing) -> ZDGraph:
    """Zero-divisor graph: vertices L(R), edge x-y iff x != y and x*y = 0.

    A nilpotent x with x*x = 0 contributes no self-loop; the graph is simple.
    Members with one associate representative u x (``_associate_reps``)
    share one row of the representatives' zero-product block, computed
    without any order x order table, gathered to the members and packed
    little-endian so that bit v is column v: every member of a class holds
    that one int, but in a class with x*x = 0, the block's diagonal, whose
    rows hold their members' own bits, cleared per member. Associates are
    twins (open when x*x != 0, closed when x*x = 0), so the twin classes
    merge the associate classes, keyed by one member's row each. Labels,
    the twin quotient and the distances are made on first read.
    """
    at = np.flatnonzero(_nonunits(ring))[1:]  # the zero divisors, as ``zero_divisors`` lists them
    if not len(at):
        raise EmptyGraphError(f"{ring.name} is an integral domain; its zero-divisor graph is empty")
    reps = _associate_reps(ring.spec, at).tolist()
    number = {r: c for c, r in enumerate(dict.fromkeys(reps))}  # classes by first member
    class_of = list(map(number.__getitem__, reps))
    rows, square_zero = _associate_rows(ring.spec, list(number), class_of)
    adj = list(map(rows.__getitem__, class_of))
    groups: list[list[int]] = [[] for _ in rows]
    for v, c in enumerate(class_of):
        groups[c].append(v)
    for c in square_zero:  # each member's own bit is set
        for v in groups[c]:
            adj[v] ^= 1 << v
    adj = tuple(adj)
    classes = _merge_twins(adj, groups)
    if len(classes) < len(groups):  # a merged class lists its groups in order of least member
        classes = [sorted(cls) for cls in classes]
    members = tuple(at.tolist())
    return ZDGraph(len(adj), ring.labels_of, members, adj, _rows, tuple(map(tuple, classes)), ring.name)


def _associate_rows(
    spec: RingSpec, reps: list[int], class_of: list[int]
) -> tuple[list[int], list[int]]:
    """Each associate class's row of the representatives' zero-product block,
    gathered to the members as one bitset, and the classes with x * x = 0,
    whose rows hold their own members' bits. The block is freed on return."""
    block = _zero_products(spec, np.array(reps, dtype=np.intp))
    packed = np.packbits(block.take(class_of, axis=1), axis=1, bitorder="little")
    square_zero = np.flatnonzero(block.diagonal()).tolist()
    return [int.from_bytes(row, "little") for row in packed], square_zero


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphInvariants:
    order: int
    size: int
    diameter: float          # int-valued, or INF when disconnected
    girth: float             # int-valued, or INF when acyclic
    clique_number: int
    max_degree: int
    cut_vertices: tuple[int, ...]
    degree_one_vertices: tuple[int, ...]


def graph_invariants(g: ZDGraph) -> GraphInvariants:
    """The invariants, each read once per twin class off the twin quotient
    (made here if no reader made it before): twins have equal degrees."""
    n = g.order
    if n == 0:
        return GraphInvariants(0, 0, 0, INF, 0, 0, (), ())
    _, quotient, _, top = g._twins
    degrees = [g.degree(cls[0]) for cls in g.classes]
    return GraphInvariants(
        order=n,
        size=sum(d * len(cls) for d, cls in zip(degrees, g.classes)) // 2,
        diameter=INF if not g.is_connected else top,
        girth=_girth(g, quotient),
        clique_number=_clique_number(g, quotient),
        max_degree=max(degrees),
        cut_vertices=_cut_vertices(g, quotient),
        degree_one_vertices=tuple(sorted(v for d, cls in zip(degrees, g.classes) if d == 1 for v in cls)),
    )


def _girth(g: ZDGraph, quotient: Sequence[int]) -> float:
    """Shortest cycle length, read off the twin quotient.

    A triangle has all three vertices in one clique class of three or
    more, two in a clique class of two with a neighbour, or one in each of
    three pairwise joined classes. Without one, twins in a 4-cycle are
    open twins on opposite corners, so the girth is 4 exactly when a class
    of two or more has two neighbour vertices. Otherwise no shortest cycle
    holds two twins, and the girth is that of the quotient.
    """
    classes = g.classes
    for c, (cls, nbrs) in enumerate(zip(classes, quotient)):
        if _is_clique_class(g.adj, cls) and (len(cls) > 2 or nbrs):
            return 3
        if any(nbrs & quotient[d] for d in _bits(nbrs >> c + 1 << c + 1)):
            return 3
    for cls, nbrs in zip(classes, quotient):
        if len(cls) > 1 and sum(len(classes[d]) for d in _bits(nbrs)) > 1:
            return 4
    return _bfs_girth(quotient)


def _bfs_girth(adj: Sequence[int]) -> float:
    """Shortest cycle length of the graph on these bitsets, via a BFS scan
    from every vertex."""
    best = INF
    n = len(adj)
    for s in range(n):
        if best == 3:  # no simple graph has a shorter cycle
            break
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] + dist[u] + 1 >= best:
                continue
            for v in _bits(adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def _clique_number(g: ZDGraph, quotient: Sequence[int]) -> int:
    """Exact maximum clique size: a maximum weight clique of the twin
    quotient, by branch and bound with a weighted coloring bound.

    A clique meets an open class in at most one vertex and may hold all of
    a clique class, so a clique class weighs its size and any other class
    1. Each color class is independent, so a clique takes at most its
    heaviest member from each; the bound of a vertex is the sum of those
    weights over the colors up to its own. With unit weights (a twin-free
    graph) this is the plain coloring bound.
    """
    weight = [len(cls) if _is_clique_class(g.adj, cls) else 1 for cls in g.classes]
    best = max(weight)

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order_out: list[int] = []
        bounds: list[int] = []
        bound = 0
        rest = cand
        while rest:
            heaviest = 0
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                avail &= ~quotient[v]
                rest &= ~(1 << v)
                order_out.append(v)
                heaviest = max(heaviest, weight[v])
            bound += heaviest
            bounds += [bound] * (len(order_out) - len(bounds))
        return order_out, bounds

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        order_out, bounds = color_sort(cand)
        for i in range(len(order_out) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order_out[i]
            expand(size + weight[v], cand & quotient[v])
            cand &= ~(1 << v)

    expand(0, (1 << len(quotient)) - 1)
    return best


def _cut_vertices(g: ZDGraph, quotient: Sequence[int]) -> tuple[int, ...]:
    """Cut vertices, read off the twin quotient.

    No member of a class of two or more is one: a twin stands in for it on
    every path. A singleton class {v} is one when its node is a cut node of
    the quotient, or when an open class of two or more has it as its only
    neighbour class, since removing v leaves each member of that class
    alone.
    """
    classes = g.classes
    cut = set(_cut_nodes(quotient))
    for cls, nbrs in zip(classes, quotient):
        if len(cls) > 1 and nbrs.bit_count() == 1 and not _is_clique_class(g.adj, cls):
            cut.add(nbrs.bit_length() - 1)
    return tuple(classes[c][0] for c in sorted(cut) if len(classes[c]) == 1)


def _cut_nodes(adj: Sequence[int]) -> list[int]:
    """Articulation points of the graph on these bitsets, by iterative DFS
    lowlink."""
    n = len(adj)
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    cut = []
    timer = 0
    for root in range(n):
        if visited[root]:
            continue
        stack: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(_bits(adj[root])))]
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if not visited[v]:
                    visited[v] = True
                    disc[v] = low[v] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    stack.append((v, u, iter(_bits(adj[v]))))
                    advanced = True
                    break
                elif v != parent:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p != root and low[u] >= disc[p]:
                        cut.append(p)
        if root_children >= 2:
            cut.append(root)
    return cut


# ---------------------------------------------------------------------------
# exports and ingestion
# ---------------------------------------------------------------------------


def export_graph(g: ZDGraph, fmt: str) -> str:
    export = {"dot": _export_dot, "edgelist": _export_edgelist, "json": _export_json}.get(fmt)
    if export is None:
        raise ValueError(f"unknown graph format {fmt!r} (expected dot, edgelist, or json)")
    return export(g)


def _export_dot(g: ZDGraph) -> str:
    lines = ["graph zdgraph {"]
    for v in range(g.order):
        label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{g.external_ids[v]} [label="{label}"];')
    for u, v in sorted((min(a, b), max(a, b)) for a, b in _ext_edges(g)):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ext_edges(g: ZDGraph) -> list[tuple[int, int]]:
    return [(g.external_ids[u], g.external_ids[v]) for u, v in g.edges()]


def _export_edgelist(g: ZDGraph) -> str:
    lines = []
    if g.source:
        lines.append(f"# graph {g.source}")
    for v in range(g.order):
        lines.append(f"# vertex {g.external_ids[v]} {g.labels[v]}")
    lines.extend(
        f"{u} {v}" for u, v in sorted((min(a, b), max(a, b)) for a, b in _ext_edges(g))
    )
    return "\n".join(lines) + "\n"


def _export_json(g: ZDGraph) -> str:
    inv = {key: None if value == INF else value for key, value in asdict(graph_invariants(g)).items()}
    doc = {
        "order": g.order,
        "edges": sorted(g.edges()),
        "labels": list(g.labels),
        "external_ids": list(g.external_ids),
        "source": g.source,
        "invariants": inv,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _ascii_int(token: str) -> int | None:
    """The value of an optionally signed ASCII decimal token, else None.

    str.isdigit alone also passes superscripts and other scripts' digits,
    which int() rejects or reads as ASCII; on ASCII text it means ``0-9``.
    """
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def parse_edgelist(text: str) -> ZDGraph:
    """Parse the module's own edge-list format back into a graph.

    Edge lines hold two non-negative ids; a ``# vertex <id> [label]`` line
    declares a vertex with a non-negative id, and other ``#`` lines are
    comments. A malformed line or a self-loop ``u u`` raises ValueError
    naming its line number.
    """
    declared: dict[int, str] = {}
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(maxsplit=2)
            if parts[:1] == ["vertex"]:
                ext = _ascii_int(parts[1]) if len(parts) > 1 else None
                if ext is None or ext < 0:
                    raise ValueError(
                        f"line {lineno}: expected '# vertex <id> [label]' with a "
                        f"non-negative integer id, got {line!r}"
                    )
                declared[ext] = parts[2] if len(parts) > 2 else parts[1]
            continue
        uv = [_ascii_int(p) for p in line.split()]
        if len(uv) != 2 or None in uv or min(uv) < 0:
            raise ValueError(f"line {lineno}: expected 'u v' with integer ids, got {line!r}")
        if uv[0] == uv[1]:
            raise ValueError(
                f"line {lineno}: self-loop at vertex {uv[0]} not allowed in a simple graph"
            )
        raw_edges.append((uv[0], uv[1]))
    ids = sorted(set(declared) | {u for e in raw_edges for u in e})
    index = {ext: i for i, ext in enumerate(ids)}
    return graph_from_edges(
        order=len(ids),
        edges=[(index[u], index[v]) for u, v in raw_edges],
        labels=[declared.get(ext, str(ext)) for ext in ids],
        external_ids=ids,
        source="edgelist",
    )
