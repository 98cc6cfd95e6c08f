"""Named graph families: generation, shape recognition, closed-form dimensions.

Closed forms cover the domination number, metric dimension, and dominant
metric dimension where a published formula exists; a None field means "no
closed form for these parameters, use the exact solver".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .graphs import ZDGraph, _rows, graph_from_edges


class FamilyKind(str, Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    STAR = "star"
    COMPLETE_BIPARTITE = "complete_bipartite"


@dataclass(frozen=True)
class FamilyId:
    """A family member: P_n, C_n, K_n, S_n (order n), or K_{m,n}."""

    kind: FamilyKind
    n: int = 0
    m: int = 0  # only for complete bipartite, sides (m, n)

    def describe(self) -> str:
        if self.kind is FamilyKind.PATH:
            return f"P{self.n}"
        if self.kind is FamilyKind.CYCLE:
            return f"C{self.n}"
        if self.kind is FamilyKind.COMPLETE:
            return f"K{self.n}"
        if self.kind is FamilyKind.STAR:
            return f"S{self.n}"
        return f"K{self.m},{self.n}"


def path(n: int) -> FamilyId:
    return FamilyId(FamilyKind.PATH, n=n)


def cycle(n: int) -> FamilyId:
    return FamilyId(FamilyKind.CYCLE, n=n)


def complete(n: int) -> FamilyId:
    return FamilyId(FamilyKind.COMPLETE, n=n)


def star(n: int) -> FamilyId:
    return FamilyId(FamilyKind.STAR, n=n)


def complete_bipartite(m: int, n: int) -> FamilyId:
    return FamilyId(FamilyKind.COMPLETE_BIPARTITE, n=n, m=m)


def generate_family(fid: FamilyId) -> ZDGraph:
    """Canonical construction with deterministic vertex numbering."""
    kind, n, m = fid.kind, fid.n, fid.m
    if kind is FamilyKind.PATH:
        if n < 1:
            raise ValueError("path needs n >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
        order = n
    elif kind is FamilyKind.CYCLE:
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
        order = n
    elif kind is FamilyKind.COMPLETE:
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = n
    elif kind is FamilyKind.STAR:
        if n < 1:
            raise ValueError("star needs order n >= 1")
        edges = [(0, i) for i in range(1, n)]
        order = n
    else:
        if m < 1 or n < 1:
            raise ValueError("complete bipartite needs m, n >= 1")
        edges = [(i, m + j) for i in range(m) for j in range(n)]
        order = m + n
    return graph_from_edges(order, edges, source=fid.describe())


def recognize_family(g: ZDGraph) -> FamilyId | None:
    """Match a graph against the canonical families.

    Overlaps resolve by fixed priority: complete, then complete bipartite
    (both sides >= 2), then star (order >= 4), then cycle, then path. Hence
    K_2 reports complete, K_{2,2} reports complete bipartite, and a 3-vertex
    path reports path.
    """
    n = g.order
    if n == 0:
        return None
    size = g.size
    degrees = [g.degree(v) for v in range(n)]
    if size == n * (n - 1) // 2:
        return complete(n)
    if not g.is_connected:
        return None
    sides = _bipartition(g)
    if sides is not None:
        a, b = sides
        if len(a) >= 2 and len(b) >= 2 and size == len(a) * len(b):
            if all(g.has_edge(u, v) for u in a for v in b):
                return complete_bipartite(min(len(a), len(b)), max(len(a), len(b)))
    if n >= 4 and sorted(degrees) == [1] * (n - 1) + [n - 1]:
        return star(n)
    if n >= 3 and all(d == 2 for d in degrees) and size == n:
        return cycle(n)
    if n >= 2 and size == n - 1 and sorted(degrees) == [1, 1] + [2] * (n - 2):
        return path(n)
    return None


def _bipartition(g: ZDGraph) -> tuple[list[int], list[int]] | None:
    """Sides by BFS distance parity from vertex 0; g must be connected."""
    odd = [d % 2 for d in _rows(g, [0])[0]]
    if any(odd[u] == odd[v] for u, v in g.edges()):
        return None
    return [v for v in range(g.order) if not odd[v]], [v for v in range(g.order) if odd[v]]


@dataclass(frozen=True)
class ClosedFormDims:
    gamma: int | None
    dim: int | None
    ddim: int | None
    notes: tuple[str, ...] = ()


def closed_form_dims(fid: FamilyId) -> ClosedFormDims:
    """Published closed forms, restricted to their stated applicability."""
    kind, n, m = fid.kind, fid.n, fid.m
    notes: list[str] = []
    if kind is FamilyKind.PATH:
        gamma = math.ceil(n / 3)
        dim = 1 if n >= 2 else None
        if n == 1:
            notes.append("dim: single vertex, solver gives 0; closed form starts at n=2")
        if n >= 4:
            ddim = gamma
        elif n == 1:
            ddim = 0
            notes.append("ddim: single-vertex convention")
        else:
            ddim = None
            notes.append("ddim: no closed form for paths below n=4")
        return ClosedFormDims(gamma, dim, ddim, tuple(notes))
    if kind is FamilyKind.CYCLE:
        gamma = math.ceil(n / 3)
        if n >= 7:
            ddim = gamma
        else:
            ddim = None
            notes.append("ddim: cycle closed form requires n >= 7")
        return ClosedFormDims(gamma, 2, ddim, tuple(notes))
    if kind is FamilyKind.COMPLETE:
        if n == 1:
            return ClosedFormDims(1, 0, 0, ("ddim: single-vertex convention",))
        return ClosedFormDims(1, n - 1, n - 1)
    if kind is FamilyKind.STAR:
        if n == 1:
            return ClosedFormDims(1, 0, 0, ("ddim: single-vertex convention",))
        gamma = 1
        if n >= 3:
            dim = n - 2
        else:
            dim = None
            notes.append("dim: S_2 is an edge with dim 1, formula n-2 starts at n=3")
        ddim = n - 1
        return ClosedFormDims(gamma, dim, ddim, tuple(notes))
    # complete bipartite
    if m >= 2 and n >= 2:
        return ClosedFormDims(2, m + n - 2, m + n - 2)
    notes.append("complete bipartite closed forms require both sides >= 2")
    return ClosedFormDims(None, None, None, tuple(notes))
