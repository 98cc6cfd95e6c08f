"""Zero-divisor graphs and their classical invariants.

A :class:`ZDGraph` is a simple undirected graph with per-vertex adjacency
bitsets and a full distance matrix (-1 marks unreachable pairs), one typed
array per row. The matrix takes one bitset BFS per distance-twin class on
the twin quotient, which has one vertex per class: twins have equal rows
outside their own class. Cut vertices, the clique number and the girth
are read off the same quotient. Graphs come from three sources:
zero-divisor graphs of rings, generated named families, and parsed
edge-list files. A ring graph is built on associate classes: x and ux (u a
unit) have one row of zero products but their own bit, so the block is
evaluated on one representative per class, and its labels are made on
first read.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .rings import ORDER_CAP, FiniteRing, _associate_reps, _zero_products, zero_divisors

INF = math.inf


class EmptyGraphError(Exception):
    """The ring is an integral domain: L(R) is empty, no graph exists."""


class _Labels:
    """The ``labels`` field: set to a sequence, or to a function of the
    external ids (a ring's ``labels_of``) that makes them on first read."""

    def __get__(self, g, owner=None):
        if g is None:  # the dataclass field has no default
            raise AttributeError("labels")
        if callable(labels := g.__dict__["labels"]):
            labels = g.__dict__["labels"] = tuple(labels(g.external_ids))
        return labels

    def __set__(self, g, labels):
        g.__dict__["labels"] = labels if callable(labels) else tuple(labels)


@dataclass(frozen=True)
class ZDGraph:
    """Immutable simple graph over indexed vertices.

    ``external_ids`` keeps the source identity of each vertex (the ring
    element index for ring-derived graphs); exports use it so that, say,
    the zero-divisor graph of Zn:6 prints its vertices as 2, 3, 4.
    ``classes`` is the distance-twin partition (``neighbourhood_twin_classes``),
    ordered by least member. It is computed once, when the graph is built,
    and the distance build, the invariants and the solvers all read it.
    ``dist[v]`` is an ``array.array`` of the narrowest signed type that holds
    the largest distance: one byte per entry on every zero-divisor graph,
    whose diameter is at most 3. Rows are unhashable, so a graph is too.
    """

    order: int
    labels: tuple[str, ...] = _Labels()
    external_ids: tuple[int, ...]
    adj: tuple[int, ...]
    dist: tuple[array, ...]
    classes: tuple[tuple[int, ...], ...]
    source: str = ""

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.order):
            mask = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _bits(mask))
        return out

    @property
    def size(self) -> int:
        return sum(self.degree(v) for v in range(self.order)) // 2

    @property
    def is_connected(self) -> bool:
        if self.order == 0:
            return True
        return -1 not in self.dist[0]


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
    by_key: dict[int, list[int]] = {}
    classes: list[list[int]] = []
    for v, nbrs in enumerate(adj):
        open_key, closed_key = nbrs, nbrs | 1 << v
        cls = by_key.get(open_key) or by_key.get(closed_key)
        if cls is None:
            cls = by_key[open_key] = by_key[closed_key] = []
            classes.append(cls)
        cls.append(v)
    return tuple(tuple(c) for c in classes)


def _bfs_row(order: int, adj: Sequence[int], s: int) -> list[int]:
    """Distances from ``s`` by a bitset BFS, -1 where unreachable. The bit
    loops are inline: a generator per frontier costs more than the BFS."""
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
    return dist


def _is_clique_class(adj: Sequence[int], cls: Sequence[int]) -> bool:
    """Whether a twin class of two or more is a clique; else it is open."""
    return len(cls) > 1 and bool(adj[cls[0]] >> cls[1] & 1)


def _quotient(
    adj: Sequence[int], classes: tuple[tuple[int, ...], ...]
) -> tuple[Sequence[int], Sequence[int]]:
    """Each vertex's class, and the twin quotient: one bitset per class, bit
    d of the c-th set when classes c and d are joined. Adjacency between two
    twin classes is all or nothing, so one member's row holds it. A
    twin-free graph is its own quotient."""
    if len(classes) == len(adj):
        return range(len(adj)), adj
    class_of = [0] * len(adj)
    for c, cls in enumerate(classes):
        for v in cls:
            class_of[v] = c
    least = sum(1 << cls[0] for cls in classes)
    quotient = [sum(1 << class_of[v] for v in _bits(adj[cls[0]] & least)) for cls in classes]
    return class_of, quotient


def _all_pairs_bfs(
    adj: tuple[int, ...], classes: tuple[tuple[int, ...], ...]
) -> tuple[array, ...]:
    """All distance rows from one BFS per twin class on the twin quotient.

    The quotient has the distances between members of different classes.
    Its BFS row from class c, read through each vertex's class, is the row
    of every member of c except at the members themselves: any two of them
    lie at one common distance, 1 in a clique class, 2 for open twins with
    a neighbour and -1 for isolated vertices, and each is at 0 from itself.
    Rows are arrays of the narrowest signed type that holds the largest
    distance, one byte per entry up to 127.
    """
    class_of, quotient = _quotient(adj, classes)
    k = len(classes)
    quotient_rows = [_bfs_row(k, quotient, c) for c in range(k)]
    # a distance on k vertices is below k, so up to 128 classes no row needs a scan
    top = max(map(max, quotient_rows)) if k > 128 else k - 1
    code = next(code for code in "bhiq" if top < 1 << 8 * array(code).itemsize - 1)
    if k == len(adj):
        return tuple(array(code, row) for row in quotient_rows)
    rows = [None] * len(adj)
    # one gather reads every quotient row through each vertex's class
    for cls, nbrs, wide in zip(classes, quotient, np.array(quotient_rows, dtype=code)[:, class_of]):
        row = array(code, wide.tobytes())
        if len(cls) == 1:
            rows[cls[0]] = row
            continue
        twin = 1 if _is_clique_class(adj, cls) else 2 if nbrs else -1
        for v in cls:
            row[v] = twin
        for v in cls:
            rows[v] = own = row[:]
            own[v] = 0
    return tuple(rows)


def _graph(
    adj: tuple[int, ...], labels: Sequence[str] | Callable, ids: Sequence[int], source: str
) -> ZDGraph:
    """The graph on these adjacency bitsets: its twin classes, computed here
    and only here, then its distances from them."""
    classes = neighbourhood_twin_classes(adj)
    dist = _all_pairs_bfs(adj, classes)
    return ZDGraph(len(adj), labels, tuple(ids), adj, dist, classes, source)


def graph_from_edges(
    order: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    external_ids: Sequence[int] | None = None,
    source: str = "",
) -> ZDGraph:
    if order > ORDER_CAP:  # before the order x order distance rows are built
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
    return _graph(tuple(adj), labels, ids, source)


def build_zdgraph(ring: FiniteRing) -> ZDGraph:
    """Zero-divisor graph: vertices L(R), edge x-y iff x != y and x*y = 0.

    A nilpotent x with x*x = 0 contributes no self-loop; the graph is simple.
    Members with one associate representative u x (``_associate_reps``)
    share one row of the representatives' zero-product block, computed
    without any order x order table, gathered to the members and packed
    little-endian so that bit v is column v; each member's own bit is then
    cleared. Labels are made on first read.
    """
    members = zero_divisors(ring).members
    if not members:
        raise EmptyGraphError(
            f"{ring.name} is an integral domain; its zero-divisor graph is empty"
        )
    at = np.array(members, dtype=np.intp)
    reps: dict[int, int] = {}
    class_of = [reps.setdefault(r, len(reps)) for r in _associate_reps(ring.spec, at).tolist()]
    block = _zero_products(ring.spec, np.array(list(reps), dtype=np.intp))
    packed = np.packbits(block.take(class_of, axis=1), axis=1, bitorder="little")
    rows = [int.from_bytes(row, "little") for row in packed]
    adj = tuple(rows[c] & ~(1 << v) for v, c in enumerate(class_of))
    return _graph(adj, ring.labels_of, members, ring.name)


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
    """The invariants, each read once per twin class: twins have equal
    degrees."""
    n = g.order
    if n == 0:
        return GraphInvariants(0, 0, 0, INF, 0, 0, (), ())
    _, quotient = _quotient(g.adj, g.classes)
    degrees = [g.degree(cls[0]) for cls in g.classes]
    return GraphInvariants(
        order=n,
        size=sum(d * len(cls) for d, cls in zip(degrees, g.classes)) // 2,
        diameter=INF if not g.is_connected else _diameter(g),
        girth=_girth(g, quotient),
        clique_number=_clique_number(g, quotient),
        max_degree=max(degrees),
        cut_vertices=_cut_vertices(g, quotient),
        degree_one_vertices=tuple(
            sorted(v for d, cls in zip(degrees, g.classes) if d == 1 for v in cls)
        ),
    )


def _diameter(g: ZDGraph) -> int:
    """Largest eccentricity, read from one distance row per twin class.

    Twins have equal distances to every other vertex and share the distance
    between them, so their rows hold the same entries.
    """
    return int(np.array([g.dist[cls[0]] for cls in g.classes]).max())


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
    if fmt == "dot":
        return _export_dot(g)
    if fmt == "edgelist":
        return _export_edgelist(g)
    if fmt == "json":
        return _export_json(g)
    raise ValueError(f"unknown graph format {fmt!r} (expected dot, edgelist, or json)")


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
    inv = graph_invariants(g)
    doc = {
        "order": g.order,
        "edges": sorted(g.edges()),
        "labels": list(g.labels),
        "external_ids": list(g.external_ids),
        "source": g.source,
        "invariants": {
            "order": inv.order,
            "size": inv.size,
            "diameter": None if inv.diameter == INF else int(inv.diameter),
            "girth": None if inv.girth == INF else int(inv.girth),
            "clique_number": inv.clique_number,
            "max_degree": inv.max_degree,
            "cut_vertices": list(inv.cut_vertices),
            "degree_one_vertices": list(inv.degree_one_vertices),
        },
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
