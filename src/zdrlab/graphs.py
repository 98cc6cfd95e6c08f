"""Zero-divisor graphs and their classical invariants.

A :class:`ZDGraph` is a simple undirected graph with per-vertex adjacency
bitsets and a full distance matrix (-1 marks unreachable pairs). The matrix
takes one bitset BFS per distance-twin class on the twin quotient, which
has one vertex per class: twins have equal rows outside their own class.
Graphs come from three sources: zero-divisor graphs of rings, generated
named families, and parsed edge-list files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .rings import FiniteRing, zero_divisors

INF = math.inf


class EmptyGraphError(Exception):
    """The ring is an integral domain: L(R) is empty, no graph exists."""


@dataclass(frozen=True)
class ZDGraph:
    """Immutable simple graph over indexed vertices.

    ``external_ids`` keeps the source identity of each vertex (the ring
    element index for ring-derived graphs); exports use it so that, say,
    the zero-divisor graph of Zn:6 prints its vertices as 2, 3, 4.
    ``classes`` is the distance-twin partition (``neighbourhood_twin_classes``),
    ordered by least member. It is computed once, when the graph is built,
    and the distance build, the diameter and the solvers all read it.
    """

    order: int
    labels: tuple[str, ...]
    external_ids: tuple[int, ...]
    adj: tuple[int, ...]
    dist: tuple[tuple[int, ...], ...]
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
        return all(d >= 0 for d in self.dist[0])


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
    """Distances from ``s`` by a bitset BFS, -1 where unreachable."""
    dist = [-1] * order
    dist[s] = 0
    seen = 1 << s
    frontier = 1 << s
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        for v in _bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def _all_pairs_bfs(
    adj: tuple[int, ...], classes: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """All distance rows from one BFS per twin class on the twin quotient.

    Adjacency between two twin classes is all or nothing, so the quotient
    graph, whose vertex c is the c-th class, has the distances between
    members of different classes. Its BFS row from class c, read through
    each vertex's class, is the row of every member of c except at the
    members themselves: any two of them lie at one common distance, 1 in a
    clique class, 2 for open twins with a neighbour and -1 for isolated
    vertices, and each is at 0 from itself. A twin-free graph is its own
    quotient.
    """
    if len(classes) == len(adj):
        quotient, expand = adj, tuple
    else:
        class_of = [0] * len(adj)
        for c, cls in enumerate(classes):
            for v in cls:
                class_of[v] = c
        least = sum(1 << cls[0] for cls in classes)
        quotient = [sum(1 << class_of[v] for v in _bits(adj[cls[0]] & least))
                    for cls in classes]
        expand = itemgetter(*class_of)
    rows: list[tuple[int, ...]] = [()] * len(adj)
    for c, cls in enumerate(classes):
        row = expand(_bfs_row(len(classes), quotient, c))
        if len(cls) == 1:
            rows[cls[0]] = row
            continue
        twin = 1 if adj[cls[0]] >> cls[1] & 1 else 2 if quotient[c] else -1
        row = list(row)
        for v in cls:
            row[v] = twin
        for v in cls:
            row[v] = 0
            rows[v] = tuple(row)
            row[v] = twin
    return tuple(rows)


def _graph(adj: tuple[int, ...], labels: Sequence[str], ids: Sequence[int], source: str) -> ZDGraph:
    """The graph on these adjacency bitsets: its twin classes, computed here
    and only here, then its distances from them."""
    classes = neighbourhood_twin_classes(adj)
    dist = _all_pairs_bfs(adj, classes)
    return ZDGraph(len(adj), tuple(labels), tuple(ids), adj, dist, classes, source)


def graph_from_edges(
    order: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    external_ids: Sequence[int] | None = None,
    source: str = "",
) -> ZDGraph:
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
    Each adjacency bitset is one row of the zero-product submatrix, packed
    little-endian so that bit v is column v.
    """
    members = zero_divisors(ring).members
    if not members:
        raise EmptyGraphError(
            f"{ring.name} is an integral domain; its zero-divisor graph is empty"
        )
    sub = ring.mul[np.ix_(members, members)] == 0
    np.fill_diagonal(sub, False)
    rows = np.packbits(sub, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row, "little") for row in rows)
    return _graph(adj, [ring.labels[x] for x in members], members, ring.name)


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
    n = g.order
    degrees = [g.degree(v) for v in range(n)]
    if n == 0:
        return GraphInvariants(0, 0, 0, INF, 0, 0, (), ())
    return GraphInvariants(
        order=n,
        size=g.size,
        diameter=INF if not g.is_connected else _diameter(g),
        girth=_girth(g),
        clique_number=_clique_number(g),
        max_degree=max(degrees),
        cut_vertices=_cut_vertices(g),
        degree_one_vertices=tuple(v for v in range(n) if degrees[v] == 1),
    )


def _diameter(g: ZDGraph) -> int:
    """Largest eccentricity, read from one distance row per twin class.

    Twins have equal distances to every other vertex and share the distance
    between them, so their rows hold the same entries.
    """
    return max(max(g.dist[cls[0]]) for cls in g.classes)


def _girth(g: ZDGraph) -> float:
    """Shortest cycle length via a BFS scan from every vertex."""
    best = INF
    n = g.order
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
            for v in _bits(g.adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def _clique_number(g: ZDGraph) -> int:
    """Exact maximum clique size, branch and bound with a coloring bound."""
    n = g.order
    if n == 0:
        return 0
    adj = g.adj
    best = 1

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order_out: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                avail &= ~adj[v]
                rest &= ~(1 << v)
                order_out.append(v)
                bounds.append(color)
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
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def _cut_vertices(g: ZDGraph) -> tuple[int, ...]:
    """Articulation points by iterative DFS lowlink."""
    n = g.order
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    cut = set()
    timer = 0
    for root in range(n):
        if visited[root]:
            continue
        stack: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(_bits(g.adj[root])))]
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
                    stack.append((v, u, iter(_bits(g.adj[v]))))
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
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return tuple(sorted(cut))


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
        lines.append(f'  v{g.external_ids[v]} [label="{g.labels[v]}"];')
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
    declares a vertex, and other ``#`` lines are comments. A malformed line
    raises ValueError naming its line number.
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
                if ext is None:
                    raise ValueError(
                        f"line {lineno}: expected '# vertex <id> [label]' with an "
                        f"integer id, got {line!r}"
                    )
                declared[ext] = parts[2] if len(parts) > 2 else parts[1]
            continue
        uv = [_ascii_int(p) for p in line.split()]
        if len(uv) != 2 or None in uv or min(uv) < 0:
            raise ValueError(f"line {lineno}: expected 'u v' with integer ids, got {line!r}")
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
