"""Independent brute-force oracles for cross-checking the exact solvers.

These deliberately share no machinery with the package solver: distances come
from a local BFS over the edge list, predicates are written straight from the
definitions, and subsets are enumerated without any pruning.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque

import numpy as np


def neighbor_sets(g) -> dict[int, set[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(g.order)}
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def bfs_distances(nbrs: dict[int, set[int]], source: int, n: int) -> list[int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return [dist.get(v, -1) for v in range(n)]


def dominating_def(nbrs, n: int, subset) -> bool:
    chosen = set(subset)
    return all(v in chosen or nbrs[v] & chosen for v in range(n))


def resolving_def(dist_rows, n: int, subset) -> bool:
    vectors = {tuple(dist_rows[w][v] for w in subset) for v in range(n)}
    return len(vectors) == n


def brute_gamma(g) -> tuple[int, tuple[int, ...]]:
    nbrs = neighbor_sets(g)
    for k in range(0, g.order + 1):
        for subset in itertools.combinations(range(g.order), k):
            if dominating_def(nbrs, g.order, subset):
                return k, subset
    raise AssertionError("unreachable")


def brute_dim(g) -> tuple[int, tuple[int, ...]]:
    nbrs = neighbor_sets(g)
    dist_rows = [bfs_distances(nbrs, v, g.order) for v in range(g.order)]
    for k in range(0, g.order + 1):
        for subset in itertools.combinations(range(g.order), k):
            if resolving_def(dist_rows, g.order, subset):
                return k, subset
    raise AssertionError("unreachable")


def brute_ddim(g) -> tuple[int, tuple[int, ...]]:
    if g.order == 1:
        return 0, ()  # single-vertex convention, same as the solver
    nbrs = neighbor_sets(g)
    dist_rows = [bfs_distances(nbrs, v, g.order) for v in range(g.order)]
    for k in range(0, g.order + 1):
        for subset in itertools.combinations(range(g.order), k):
            if resolving_def(dist_rows, g.order, subset) and dominating_def(
                nbrs, g.order, subset
            ):
                return k, subset
    raise AssertionError("unreachable")


def are_twins(g, u: int, v: int) -> bool:
    """Twins: d(u,x) = d(v,x) for every x outside {u, v}."""
    if u == v:
        return True
    du, dv = g.dist[u], g.dist[v]
    return all(du[x] == dv[x] for x in range(g.order) if x != u and x != v)


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def cut_vertices(g) -> tuple[int, ...]:
    """Articulation points of the whole graph, by iterative DFS lowlink
    over every vertex."""
    n = g.order
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    cut = set()
    timer = 0
    for root in range(n):
        if visited[root]:
            continue
        stack = [(root, -1, iter(_members(g.adj[root])))]
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
                    stack.append((v, u, iter(_members(g.adj[v]))))
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


def clique_number(g) -> int:
    """Maximum clique size over all vertices, by branch and bound with a
    greedy coloring bound."""
    if g.order == 0:
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

    expand(0, (1 << g.order) - 1)
    return best


def girth(g) -> float:
    """Shortest cycle length of the whole graph, by a BFS from every
    vertex; inf when the graph is acyclic."""
    nbrs = neighbor_sets(g)
    best = math.inf
    for s in range(g.order):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


@functools.lru_cache(maxsize=1)
def op_tables(ring) -> tuple[np.ndarray, np.ndarray]:
    """The order x order uint16 add and mul tables of a ring, read-only, a
    block of rows at a time: sums digit-wise modulo ``ring.moduli``,
    products from ``rings._products`` on the grid of index pairs. The last
    ring's tables are kept, as an oracle often scans one ring twice."""
    from zdrlab.rings import _products

    idx = np.arange(ring.order)
    places = np.cumprod((1,) + ring.moduli[:-1])
    digits = [(idx // place % m).astype(np.int32) for m, place in zip(ring.moduli, places)]
    add = np.empty((ring.order, ring.order), dtype=np.uint16)
    mul = np.empty_like(add)
    step = max(1, (1 << 16) // ring.order)
    for lo in range(0, ring.order, step):
        rows = slice(lo, lo + step)
        sums = np.zeros((len(idx[rows]), ring.order), dtype=np.int32)
        for m, place, d in zip(ring.moduli, places.tolist(), digits):
            s = d[rows, None] + d
            np.subtract(s, np.int32(m), out=s, where=s >= m)
            sums += s * np.int32(place)
        add[rows] = sums
        mul[rows] = _products(ring.spec, idx[rows, None], idx)
    add.flags.writeable = mul.flags.writeable = False
    return add, mul


def product_tables(r1, r2) -> tuple[np.ndarray, np.ndarray]:
    """Add and mul tables of r1 x r2, (a, b) at index a * |r2| + b, by
    gathering each factor's table at every pair of coordinates in int64."""
    o1, o2 = r1.order, r2.order
    idx = np.arange(o1 * o2, dtype=np.int64)
    i1, i2 = idx // o2, idx % o2

    def combine(t1, t2):
        t1, t2 = t1.astype(np.int64), t2.astype(np.int64)
        return t1[i1[:, None], i1[None, :]] * o2 + t2[i2[:, None], i2[None, :]]

    (add1, mul1), (add2, mul2) = op_tables(r1), op_tables(r2)
    return combine(add1, add2), combine(mul1, mul2)


def zero_divisors(ring) -> tuple[int, ...]:
    """L(R) by a scan of the multiplication table: each nonzero x with a
    nonzero partner y, x * y = 0."""
    nonzero_partner = (op_tables(ring)[1] == 0)[:, 1:].any(axis=1)
    return tuple(int(x) for x in np.flatnonzero(nonzero_partner) if x != 0)


def zero_block(ring, members) -> np.ndarray:
    """The members x members block of x * y == 0, gathered from the
    multiplication table."""
    at = np.array(members, dtype=np.intp)
    return (op_tables(ring)[1].take(at, axis=0) == 0).take(at, axis=1)


def ring_properties(ring) -> tuple[bool, bool, bool, tuple[int, ...]]:
    """is_field, is_local, is_reduced and the nilpotents by scans of the
    op tables: local when the non-units are closed under addition, and x
    nilpotent when x**(2**b) = 0 for 2**b >= order, squaring through the
    mul table."""
    add, mul = op_tables(ring)
    nonunits = np.zeros(ring.order, dtype=bool)
    nonunits[0] = True
    nonunits[list(zero_divisors(ring))] = True
    nu_idx = np.flatnonzero(nonunits)
    closed = bool(nonunits[add[np.ix_(nu_idx, nu_idx)]].all())
    power = np.arange(ring.order, dtype=np.intp)
    for _ in range(max(1, ring.order.bit_length())):
        power = mul[power, power].astype(np.intp)
    nilpotents = tuple(int(x) for x in np.flatnonzero(power == 0))
    return len(nu_idx) == 1, closed, nilpotents == (0,), nilpotents


def table_axiom_failures(ring) -> list[str]:
    """The commutative-ring axioms checked on every triple of elements
    through the op tables, whose uint16 entries index them; cubic in the
    order."""
    A, M = op_tables(ring)
    idx = np.arange(ring.order)
    failures: list[str] = []
    if not np.array_equal(A, A.T):
        failures.append("addition not commutative")
    if not np.array_equal(M, M.T):
        failures.append("multiplication not commutative")
    if not np.array_equal(A[0], idx):
        failures.append("0 is not the additive identity")
    if not (A == 0).any(axis=1).all():
        failures.append("some element has no additive inverse")
    if not np.array_equal(M[ring.one], idx):
        failures.append("designated unity is not a multiplicative identity")
    if not np.array_equal(A[A, :], A[:, A]):
        failures.append("addition not associative")
    if not np.array_equal(M[M, :], M[:, M]):
        failures.append("multiplication not associative")
    if not np.array_equal(M[:, A], A[M[:, :, None], M[:, None, :]]):
        failures.append("distributivity fails")
    return failures


def structure_tables(entry) -> tuple[list[list[int]], list[list[int]]]:
    """Add and mul tables of a ring given by structure constants, one element
    pair at a time from the digits of the mixed-radix indices, in Python
    integers."""
    moduli = entry.moduli
    k = len(moduli)
    order = math.prod(moduli)

    def digits(x: int) -> list[int]:
        out = []
        for m in moduli:
            x, c = divmod(x, m)
            out.append(c)
        return out

    def index(coeffs) -> int:
        x = 0
        for c, m in zip(reversed(coeffs), reversed(moduli)):
            x = x * m + c % m
        return x

    def basis_product(i: int, j: int) -> tuple[int, ...]:
        if i == 0 or j == 0:
            return tuple(int(t == i + j) for t in range(k))
        return entry.table[min(i, j), max(i, j)]

    terms = [(i, j, t, w) for i in range(k) for j in range(k)
             for t, w in enumerate(basis_product(i, j)) if w]
    elements = [digits(x) for x in range(order)]
    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    for x, cx in enumerate(elements):
        for y, cy in enumerate(elements):
            coeffs = [0] * k
            for i, j, t, w in terms:
                coeffs[t] += w * cx[i] * cy[j]
            mul[x][y] = index(coeffs)
            add[x][y] = index([a + b for a, b in zip(cx, cy)])
    return add, mul


def random_connected_graph(rng: random.Random, n: int):
    """Random connected graph: a random attachment tree plus extra edges."""
    from zdrlab.graphs import graph_from_edges

    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra_prob = rng.uniform(0.0, 0.5)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_prob:
                edges.add((u, v))
    return graph_from_edges(n, sorted(edges), source=f"random(n={n})")


def distance_cells(g, base) -> list[list[int]]:
    """The vertices grouped by their distance vectors to ``base``, read by
    zipping the base's distance rows; sorted, each group sorted."""
    cells: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.order):
        cells.setdefault(tuple(g.dist[b][v] for b in base), []).append(v)
    return sorted(cells.values())
