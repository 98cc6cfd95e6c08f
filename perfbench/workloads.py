"""The zdrlab benchmark workloads: their inputs, operations and answer checks.

Each workload turns a seed into a fixed list of operations. An operation
calls zdrlab's public API; its check compares the answer with the truth
pinned in ``pins.json`` (taken from the seed commit's solver) and returns
``ok`` or ``wrong``. A solver budget-out surfaces as ``BudgetExceededError``
from the operation itself; on the ladder's frontier rows it is the expected
outcome.

Functions are looked up on their modules at call time, so the span tracer
sees the calls once it has wrapped them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from zdrlab import graphs, rings, solver, verify


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# suite: `zdrlab verify run` at the default configuration
# ---------------------------------------------------------------------------


def suite_digest(report) -> str:
    rows = [
        [v.theorem_id, v.instance, v.aspect, v.claimed, v.computed, v.status, v.erratum_id]
        for v in report.verdicts
    ]
    return _sha(json.dumps(rows).encode())


def suite_answer(report) -> dict:
    return {
        "verdicts": len(report.verdicts),
        "summary": report.summary,
        "errata": list(report.errata_ids),
        "digest": suite_digest(report),
    }


def suite_ops(seed: int, pins: dict) -> list[Op]:
    config = verify.SuiteConfig()

    def check(report):
        got = suite_answer(report)
        return ("ok", "") if got == pins else ("wrong", f"got {got}, pinned {pins}")

    return [Op("run_suite", lambda: verify.run_suite(config), check)]


# ---------------------------------------------------------------------------
# ladder: ring spec -> graph -> one exact solve, as `zdrlab dims solve` does
# ---------------------------------------------------------------------------

# Check cap for the rows that solve today: several times their seed checks,
# so a runaway search ends as a budget-out instead of a hung benchmark.
SOLVED_CAP = 5_000_000

# (quantity, spec, check budget). The budget rows are sized so that each
# costs about a second of search at the seed commit; ``Zn:1024`` also pays
# an unbudgeted graph build and twin partition of about 1.5 s each.
LADDER = (
    ("gamma", "Zn:240", SOLVED_CAP),
    ("gamma", "prod:(Zn:10,Zn:12)", SOLVED_CAP),
    ("dim", "Zn:60", SOLVED_CAP),
    ("dim", "Zn:80", SOLVED_CAP),
    ("dim", "prod:(Zn:3,Zn:27)", SOLVED_CAP),
    ("ddim", "Zn:42", SOLVED_CAP),
    ("ddim", "Zn:56", SOLVED_CAP),
    ("ddim", "prod:(Zn:3,Zn:27)", SOLVED_CAP),
    ("gamma", "Zn:210", 900_000),
    ("dim", "Zn:128", 180_000),
    ("dim", "Zni:25", 45_000),
    ("ddim", "Zn:60", 320_000),
    ("ddim", "prod:(Zn:8,Zn:27)", 80_000),
    ("ddim", "Zn:1024", 20_000),
)


def solve_row(quantity: str, spec: str, budget: int):
    g = graphs.build_zdgraph(rings.build_ring(spec))
    report = solver.solve_dimensions(g, quantity, solver.Budget(max_checks=budget))
    return g, getattr(report, quantity)


def _valid_witness(quantity: str, g, witness) -> bool:
    """Definitional check on the program's own graph, independent of the solver."""
    n = g.order
    inside = set(witness)
    dominating = all(v in inside or any(g.adj[v] >> w & 1 for w in witness) for v in range(n))
    resolving = len({tuple(g.dist[w][x] for w in witness) for x in range(n)}) == n
    return {"gamma": dominating, "dim": resolving, "ddim": dominating and resolving}[quantity]


def ladder_ops(seed: int, pins: dict) -> list[Op]:
    ops = []
    for quantity, spec, budget in LADDER:
        label = f"{quantity} {spec}"
        pin = pins[label]

        def check(result, quantity=quantity, pin=pin):
            g, res = result
            got = (res.value, list(res.witness))
            if pin["status"] == "solved":
                if got == (pin["value"], pin["witness"]):
                    return "ok", f"value {res.value} after {res.checks} checks"
                return "wrong", f"got {got}, pinned {pin}"
            # A row past the seed's frontier now solves: the seed exhausted every
            # size below the cardinality it reached, so the answer is at least that.
            if (
                res.value >= pin["reached"]
                and len(res.witness) == res.value
                and _valid_witness(quantity, g, res.witness)
            ):
                return "ok", "solved past the seed frontier"
            return "wrong", f"got {got}, seed reached {pin['reached']}"

        ops.append(Op(label, lambda q=quantity, s=spec, b=budget: solve_row(q, s, b), check))
    return ops


# ---------------------------------------------------------------------------
# graphs: ring tables, zero-divisor graph and invariants at order ~2048
# ---------------------------------------------------------------------------

# Order ~2048, not 4096: one order-4096 graph build takes 4-12 s, too long to
# correct for host speed drift between reference samples (see speed.py) and
# too long for more than one pass in a run.
GRAPH_SPECS = ("Zn:2048", "Zni:45", "prod:(Zn:32,Zn:64)")


def _num(x):
    return "inf" if x == math.inf else int(x)


def graph_answer(g, inv) -> dict:
    width = (g.order + 7) // 8
    return {
        "order": g.order,
        "size": g.size,
        "adj": _sha(b"".join(a.to_bytes(width, "little") for a in g.adj)),
        "dist": _sha(b"".join(bytes(row) for row in g.dist)),
        "invariants": [
            inv.order, inv.size, _num(inv.diameter), _num(inv.girth), inv.clique_number,
            inv.max_degree, list(inv.cut_vertices), _sha(repr(list(inv.degree_one_vertices)).encode()),
        ],
    }


def build_graph(spec: str):
    g = graphs.build_zdgraph(rings.build_ring(spec))
    return g, graphs.graph_invariants(g)


def graphs_ops(seed: int, pins: dict) -> list[Op]:
    def check(result, spec):
        got = graph_answer(*result)
        return ("ok", "") if got == pins[spec] else ("wrong", f"got {got}, pinned {pins[spec]}")

    return [
        Op(spec, lambda s=spec: build_graph(s), lambda r, s=spec: check(r, s))
        for spec in GRAPH_SPECS
    ]


# ---------------------------------------------------------------------------
# edgelist: random generic graphs given to the program as edge-list text
# ---------------------------------------------------------------------------

# The graphs are drawn once from POOL_SEED; the run's --seed relabels their
# vertices and shuffles their lines. Relabeling keeps gamma, dim and ddim (so
# the answers stay pinned and the work per run stays level) while changing the
# lexicographic search path and the witnesses.
POOL_SEED = 1
POOL_SIZE = 64
EDGE_CAP = 2_000_000


def random_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """A random recursive spanning tree plus G(n, p) edges: connected by construction."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return sorted(edges)


def pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED)
    return [
        (18 + i % 7, random_graph(rng, 18 + i % 7, 0.1 + 0.2 * i / (POOL_SIZE - 1)))
        for i in range(POOL_SIZE)
    ]


def edgelist_texts(seed: int) -> list[tuple[int, list[tuple[int, int]], str]]:
    """(pool index, relabeled edges, edge-list text) for each pool graph."""
    rng = random.Random(seed)
    out = []
    for i, (n, edges) in enumerate(pool()):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        lines = [f"{u} {v}" for u, v in relabeled]
        rng.shuffle(lines)
        out.append((i, relabeled, f"# graph random-{i}\n" + "\n".join(lines) + "\n"))
    return out


def _bfs_rows(n: int, edges) -> tuple[list[set[int]], list[list[int]]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        rows.append(dist)
    return nbrs, rows


def solve_all(g):
    return solver.solve_dimensions(g, "all", solver.Budget(max_checks=EDGE_CAP))


def edgelist_ops(seed: int, pins: dict) -> list[Op]:
    ops = []
    for i, edges, text in edgelist_texts(seed):
        g = graphs.parse_edgelist(text)
        pin = pins[str(i)]

        def check(report, g=g, edges=edges, pin=pin):
            n = g.order
            nbrs, dist = _bfs_rows(n, edges)
            got = {}
            for q in ("gamma", "dim", "ddim"):
                res = getattr(report, q)
                w = [g.external_ids[v] for v in res.witness]
                dominating = len(set(w).union(*(nbrs[v] for v in w))) == n
                resolving = len({tuple(dist[v][x] for v in w) for x in range(n)}) == n
                valid = {"gamma": dominating, "dim": resolving, "ddim": dominating and resolving}[q]
                if not valid or len(w) != res.value:
                    return "wrong", f"{q} witness {w} is not a valid set of size {res.value}"
                got[q] = res.value
            if got != pin or not (got["gamma"] <= got["ddim"] and got["dim"] <= got["ddim"]):
                return "wrong", f"got {got}, pinned {pin}"
            return "ok", ""

        ops.append(Op(f"random-{i}", lambda g=g: solve_all(g), check))
    return ops


# Workloads whose inputs, and so whose counters, change with the seed.
SEED_DEPENDENT = ("edgelist",)

WORKLOADS: dict[str, Callable[[int, dict], list[Op]]] = {
    "suite": suite_ops,
    "ladder": ladder_ops,
    "graphs": graphs_ops,
    "edgelist": edgelist_ops,
}
