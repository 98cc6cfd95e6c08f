import functools
import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from zdrlab.families import (
    complete,
    complete_bipartite,
    cycle,
    generate_family,
    path,
    star,
)
from zdrlab.graphs import ZDGraph, build_zdgraph, graph_from_edges
from zdrlab import graphs, solver
from zdrlab.rings import build_ring
from zdrlab.solver import (
    Budget,
    BudgetExceededError,
    DisconnectedGraphError,
    domination_number,
    dominant_metric_dimension,
    is_dominating,
    is_resolving,
    metric_dimension,
    solve_dimensions,
    twin_classes,
)

import oracles


def test_is_dominating_examples():
    p3 = generate_family(path(3))
    assert is_dominating(p3, [1])
    assert not is_dominating(p3, [0])
    assert is_dominating(generate_family(complete(5)), [3])
    assert is_dominating(p3, [0, 1, 2])
    assert not is_dominating(p3, [])


def test_is_resolving_examples():
    p3 = generate_family(path(3))
    assert is_resolving(p3, [0])
    assert not is_resolving(p3, [1])
    k4 = generate_family(complete(4))
    assert is_resolving(k4, [0, 1, 2])
    assert not is_resolving(k4, [0, 1])


def test_predicates_validate_range():
    p3 = generate_family(path(3))
    with pytest.raises(ValueError):
        is_dominating(p3, [3])
    with pytest.raises(ValueError):
        is_resolving(p3, [-1])


def test_twin_classes():
    sizes = sorted(len(c) for c in twin_classes(generate_family(complete_bipartite(2, 4))).classes)
    assert sizes == [2, 4]
    assert len(twin_classes(generate_family(path(4))).classes) == 4
    assert len(twin_classes(generate_family(complete(5))).classes) == 1
    part = twin_classes(generate_family(star(6)))
    assert sorted(len(c) for c in part.classes) == [1, 5]
    assert part.lower_bound() == 4


def test_twin_classes_partition_covers():
    for spec in ["Zn:30", "cat:cvA1", "Zni:5"]:
        g = build_zdgraph(build_ring(spec))
        part = twin_classes(g)
        seen = sorted(v for cls in part.classes for v in cls)
        assert seen == list(range(g.order))


def test_domination_examples():
    assert domination_number(generate_family(path(6))).value == 2
    assert domination_number(generate_family(complete_bipartite(3, 3))).value == 2
    single = generate_family(path(1))
    assert domination_number(single).value == 1


def test_metric_dimension_examples():
    assert metric_dimension(generate_family(path(7))).value == 1
    assert metric_dimension(generate_family(complete(6))).value == 5
    assert metric_dimension(generate_family(complete_bipartite(2, 4))).value == 4
    assert metric_dimension(generate_family(path(1))).value == 0


def test_ddim_examples():
    assert dominant_metric_dimension(build_zdgraph(build_ring("Zn:9"))).value == 1
    assert dominant_metric_dimension(build_zdgraph(build_ring("Zn:4"))).value == 0
    assert dominant_metric_dimension(build_zdgraph(build_ring("Zn:25"))).value == 3


def test_ddim_p3_is_two():
    # no single vertex both resolves and dominates a 3-vertex path:
    # an endpoint resolves but leaves the far endpoint undominated, the
    # center dominates but gives both endpoints the same distance vector
    p3 = generate_family(path(3))
    res = dominant_metric_dimension(p3)
    assert res.value == 2
    assert res.witness == (0, 1)
    assert oracles.brute_ddim(p3)[0] == 2


def test_single_vertex_convention():
    single = generate_family(complete(1))
    res = dominant_metric_dimension(single)
    assert res.value == 0 and res.witness == () and res.method == "convention"
    res = solve_dimensions(single, "all").ddim
    assert res.value == 0 and res.witness == () and res.method == "convention"


def test_witnesses_are_lex_least_and_valid():
    for fid in [path(6), cycle(7), complete_bipartite(2, 3), star(5)]:
        g = generate_family(fid)
        got = domination_number(g)
        assert is_dominating(g, got.witness)
        assert got.witness == oracles.brute_gamma(g)[1]
        got = metric_dimension(g)
        assert is_resolving(g, got.witness)
        assert got.witness == oracles.brute_dim(g)[1]
        got = dominant_metric_dimension(g)
        assert is_resolving(g, got.witness) and is_dominating(g, got.witness)
        assert got.witness == oracles.brute_ddim(g)[1]


def test_leaf_keeps_the_full_resolving_test(monkeypatch):
    # the graph is twin-free, so all 28 pairs share the base's one cell;
    # with one pair per vertex the search tracks only the 6 among vertices
    # 0-3, and {5} separates all of them but gives 3 and 4 the same
    # distance 3, so a covered set needs the full resolving test as well
    g = graph_from_edges(8, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 5), (2, 7), (3, 6), (6, 7)])
    assert not is_resolving(g, [5])
    assert all(g.dist[5][u] != g.dist[5][v] for u in range(4) for v in range(u + 1, 4))
    monkeypatch.setattr(solver, "PAIRS_PER_VERTEX", 1)
    res = metric_dimension(g)
    assert (res.value, res.witness) == (2, (1, 6)) == oracles.brute_dim(g)
    res = dominant_metric_dimension(g)
    assert (res.value, res.witness) == oracles.brute_ddim(g)


def test_only_untracked_cells_get_the_resolving_test(monkeypatch):
    # the twins 3 and 6 split the other tops by their distance to 3 into
    # two cells; with one pair per vertex (8 in all) the 6 pairs of the
    # first are tracked and 1 of the 3 of the second, so only the second
    # cell is split at a covered leaf
    g = graph_from_edges(8, [
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5),
        (1, 6), (1, 7), (2, 5), (3, 6), (3, 7), (4, 7), (5, 7), (6, 7),
    ])
    assert solver._shared_cells(g) == [[0, 1, 6, 7], [2, 4, 5]]
    monkeypatch.setattr(solver, "PAIRS_PER_VERTEX", 1)
    untracked, _, pair_rows, _, _ = solver._resolve_elements(g)
    assert untracked == [[2, 4, 5]] and len(pair_rows) == 7
    res = metric_dimension(g)
    assert (res.value, res.witness) == (3, (0, 2, 3)) == oracles.brute_dim(g)
    res = dominant_metric_dimension(g)
    assert (res.value, res.witness) == oracles.brute_ddim(g)


def test_capped_descent_tries_tops_that_cover_no_tracked_pair(monkeypatch):
    # with one pair per vertex only the 6 pairs among vertices 0-3 are
    # tracked; after 0 the one left open is (2, 3), which 1 does not
    # separate, yet the lex-least resolving set is (0, 1, 3)
    g = graph_from_edges(8, [
        (0, 1), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6),
        (1, 7), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 6), (5, 7),
    ])
    assert g.dist[1][2] == g.dist[1][3]
    monkeypatch.setattr(solver, "PAIRS_PER_VERTEX", 1)
    res = metric_dimension(g)
    assert (res.value, res.witness) == (3, (0, 1, 3)) == oracles.brute_dim(g)


def test_pair_masks_stay_small_on_dense_twin_free_graph():
    # G(600, 0.5) is twin-free, so its 179,700 pairs share one cell; the
    # search tracks the 19,110 among its first 196 vertices, at most 32 per
    # vertex, and its set-up peaks near 6 MB
    rng = random.Random(600)
    n = 600
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    assert len(twin_classes(g).classes) == n
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            metric_dimension(g, Budget(max_checks=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_method_labels():
    assert metric_dimension(generate_family(complete_bipartite(2, 4))).method == "twin_reduced"
    assert metric_dimension(generate_family(path(4))).method == "exhaustive"
    assert domination_number(generate_family(path(4))).method == "exhaustive"


def test_disconnected_rejected_for_dim_and_ddim():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        metric_dimension(g)
    with pytest.raises(DisconnectedGraphError):
        dominant_metric_dimension(g)
    # domination still works on disconnected graphs
    assert domination_number(g).value == 2


def test_empty_graph_rejected():
    g = graph_from_edges(0, [])
    with pytest.raises(ValueError):
        domination_number(g)


def test_resolving_with_sentinel_on_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    # {0, 2} resolves: vectors (0,-1),(1,-1),(-1,0),(-1,1) are distinct
    assert is_resolving(g, [0, 2])
    assert not is_resolving(g, [0])


def test_budget_checks_cap():
    g = generate_family(cycle(16))
    with pytest.raises(BudgetExceededError) as err:
        dominant_metric_dimension(g, Budget(max_checks=10))
    assert err.value.checks == 11
    assert str(err.value).endswith("after 11 checks (nodes of the search tree)")


def test_budget_allows_completion():
    g = generate_family(cycle(9))
    res = dominant_metric_dimension(g, Budget(max_checks=10_000_000, max_ms=60_000))
    assert res.value == 3


def test_solve_dimensions_selective():
    g = generate_family(path(5))
    report = solve_dimensions(g, "ddim")
    assert report.gamma is None and report.dim is None
    assert report.ddim.value == 2
    report = solve_dimensions(g, "all")
    assert (report.gamma.value, report.dim.value, report.ddim.value) == (2, 1, 2)
    with pytest.raises(ValueError):
        solve_dimensions(g, "everything")


def test_large_bipartite_twin_reduction():
    g = generate_family(complete_bipartite(8, 48))
    res = metric_dimension(g)
    assert res.value == 54
    assert res.method == "twin_reduced"
    assert res.checks < 100_000
    res = dominant_metric_dimension(g)
    assert res.value == 54


def test_deep_gamma_on_edgeless_graph():
    # every vertex is its own pick: a 3000-deep search path
    g = graph_from_edges(3000, [])
    res = domination_number(g, Budget(max_checks=10_000))
    assert (res.value, res.witness) == (3000, tuple(range(3000)))
    assert res.checks == 3000


def test_gamma_picks_whole_open_classes():
    # isolated vertices are open twins with no neighbour, so the lex-least
    # witness holds every one of them: a rule offering only an open
    # class's least member, as for a clique class, cannot find it
    g = graph_from_edges(5, [])
    res = domination_number(g)
    assert (res.value, res.witness) == (5, (0, 1, 2, 3, 4))
    # the pair {1, 4} beside the path 0-2-3-5-6
    g = graph_from_edges(7, [(0, 2), (2, 3), (3, 5), (5, 6)])
    res = domination_number(g)
    assert (res.value, res.witness) == (4, (0, 1, 4, 5)) == oracles.brute_gamma(g)


def _random_graph(seed: int) -> ZDGraph:
    return oracles.random_connected_graph(random.Random(seed), 22)


# (quantity, graph): searches of 20 to 740 nodes
TICK_CASES = [
    ("gamma", lambda: _random_graph(0)),
    ("gamma", lambda: _ring_graph("Zn:210")),
    ("dim", lambda: _random_graph(1)),
    ("ddim", lambda: _random_graph(0)),
    ("ddim", lambda: generate_family(cycle(16))),
]


@pytest.mark.parametrize("quantity, make", TICK_CASES, ids=[f"{q}-{i}" for i, (q, _) in enumerate(TICK_CASES)])
def test_check_budget_is_exact(quantity, make):
    # the search counts checks itself and tests the cap only where it is
    # due: a budget of exactly the checks a solve takes lets it finish, one
    # fewer raises at the last check, at the cardinality that solved
    g = make()
    res = getattr(solve_dimensions(g, quantity), quantity)
    c = res.checks
    capped = getattr(solve_dimensions(g, quantity, Budget(max_checks=c)), quantity)
    assert (capped.value, capped.witness, capped.checks) == (res.value, res.witness, c)
    with pytest.raises(BudgetExceededError) as err:
        solve_dimensions(g, quantity, Budget(max_checks=c - 1))
    assert (err.value.checks, err.value.cardinality) == (c, res.value)


def test_time_budget_is_tested_every_1024_checks(monkeypatch):
    g = oracles.random_connected_graph(random.Random(16), 26)
    res = metric_dimension(g)
    assert res.checks > 2048
    timed = metric_dimension(g, Budget(max_ms=60_000))
    assert (timed.value, timed.witness, timed.checks) == (res.value, res.witness, res.checks)
    # the pairs' set-up reads the clock once, for its one slice, and
    # cardinalities 1 to 5 start at checks 0, 1, 9, 64 and 412, so with a
    # clock that reads an hour late from its eighth reading on, the start,
    # the slice and those five pass and the test at 1024 checks fails
    readings = iter([0.0] * 7)
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(readings, 3600.0)))
    with pytest.raises(BudgetExceededError) as err:
        metric_dimension(g, Budget(max_ms=1_000))
    assert (err.value.checks, err.value.cardinality) == (1024, 5)


def test_time_budget_bounds_a_solve_of_all_three(monkeypatch):
    # a clock that reads 1 ms later at each reading: gamma, dim and ddim
    # each fit a 15 ms cap alone, but not together, since each quantity
    # gets only what the ones before it left of the cap
    g = oracles.random_connected_graph(random.Random(16), 26)
    expected = solve_dimensions(g, "all")
    readings = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(readings) / 1000.0))
    for quantity in ("gamma", "dim", "ddim"):
        res = getattr(solve_dimensions(g, quantity, Budget(max_ms=15)), quantity)
        assert res.elapsed_ms < 15
    with pytest.raises(BudgetExceededError) as err:
        solve_dimensions(g, "all", Budget(max_ms=15))
    assert err.value.quantity == "ddim"
    report = solve_dimensions(g, "all", Budget(max_ms=30))
    for quantity in ("gamma", "dim", "ddim"):
        res, want = getattr(report, quantity), getattr(expected, quantity)
        assert (res.value, res.witness, res.checks) == (want.value, want.witness, want.checks)


# a 5-cycle with vertex 0 blown up into an open class {0, 5} and vertex 2
# into a clique class {2, 6}
TWIN_CYCLE = (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 1), (5, 4), (6, 1), (6, 3), (6, 2)])


def test_gamma_never_makes_the_twin_quotient(monkeypatch):
    # a domination search reads the adjacency and the twin classes only:
    # neither the build nor a gamma solve makes the quotient or its rows
    def fail(*_args):
        raise AssertionError("the twin quotient was made")

    monkeypatch.setattr(graphs, "_twin_quotient", fail)
    for make in (lambda: build_zdgraph(build_ring("Zn:240")),
                 lambda: build_zdgraph(build_ring("prod:(Zn:10,Zn:12)")),
                 lambda: graph_from_edges(*TWIN_CYCLE)):
        g = make()
        assert len(g.classes) < g.order
        res = solve_dimensions(g, "gamma").gamma
        assert oracles.dominating_def(oracles.neighbor_sets(g), g.order, res.witness)
        assert "_twins" not in vars(g)


@pytest.mark.parametrize("make", [lambda: build_zdgraph(build_ring("Zn:42")),
                                  lambda: graph_from_edges(*TWIN_CYCLE)], ids=["ring", "edgelist"])
def test_resolving_solve_pays_for_the_twin_quotient(make, monkeypatch):
    # the quotient is made on its first read, the connectivity test's, once
    # the dim clock runs: a quotient that takes 1 s spends a 500 ms cap
    # before the first check, and counts in an unbudgeted solve's time
    late = [0.0]
    twin_quotient = graphs._twin_quotient

    def slow(*args):
        late[0] += 1.0
        return twin_quotient(*args)

    monkeypatch.setattr(graphs, "_twin_quotient", slow)
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + late[0]))
    with pytest.raises(BudgetExceededError) as err:
        metric_dimension(make(), Budget(max_ms=500))
    assert (err.value.quantity, err.value.checks) == ("dim", 0)
    assert metric_dimension(make()).elapsed_ms >= 1000
    assert late == [2.0]


def _late_clock(monkeypatch, on_time: int) -> list[int]:
    """Make the solver's clock read 0 for its first ``on_time`` readings and
    an hour from then on; the returned list counts the readings taken."""
    taken = [0]

    def monotonic():
        taken[0] += 1
        return 0.0 if taken[0] <= on_time else 3600.0

    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=monotonic))
    return taken


def test_time_cap_stops_the_quotient_bfs_between_sources(monkeypatch):
    # a 60-vertex path is twin-free and wider than diameter 3, so a dim
    # solve makes its quotient by one BFS per vertex, on the solve's clock:
    # read at the start and before each source, it stops the BFS at the
    # eleventh source with nothing kept, and an unbudgeted solve is unchanged
    g = graph_from_edges(60, [(v, v + 1) for v in range(59)])
    expected = metric_dimension(graph_from_edges(60, [(v, v + 1) for v in range(59)]))
    sources = []
    bfs_rows = graphs._bfs_rows

    def counting(adj, deadline):
        def tick():
            sources.append(len(sources))
            deadline()
        return bfs_rows(adj, tick)

    monkeypatch.setattr(graphs, "_bfs_rows", counting)
    taken = _late_clock(monkeypatch, 11)
    with pytest.raises(BudgetExceededError) as err:
        metric_dimension(g, Budget(max_ms=500))
    assert (err.value.quantity, err.value.cardinality, err.value.checks) == ("dim", 0, 0)
    assert taken == [12] and len(sources) == 11
    assert "_twins" not in vars(g)
    monkeypatch.undo()
    res = metric_dimension(g)
    assert (res.value, res.witness, res.checks) == (expected.value, expected.witness, expected.checks)


def test_time_cap_stops_the_pair_set_up_between_slices(monkeypatch):
    # a 200-vertex path tracks 6,328 pairs, five slices of 1,304; with its
    # quotient made, a dim solve reads the clock at its start and before
    # each slice, so a clock late from its fourth reading stops the third
    g = graph_from_edges(200, [(v, v + 1) for v in range(199)])
    g.is_connected
    taken = _late_clock(monkeypatch, 3)
    with pytest.raises(BudgetExceededError) as err:
        metric_dimension(g, Budget(max_ms=500))
    assert (err.value.quantity, err.value.cardinality, err.value.checks) == ("dim", 0, 0)
    assert taken == [4]


def _long_path(n: int) -> ZDGraph:
    # distances from the formula: all-pairs BFS on a long path is slow
    return ZDGraph(
        order=n,
        labels=tuple(map(str, range(n))),
        external_ids=tuple(range(n)),
        adj=tuple((1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0) for v in range(n)),
        dist=tuple(tuple(range(v, 0, -1)) + tuple(range(n - v)) for v in range(n)),
        classes=tuple((v,) for v in range(n)),
    )


def test_deep_ddim_on_long_path():
    # P_3003 has no twins, so all 1001 picks are tops; any two vertices
    # resolve a path, so ddim = gamma = n / 3, met at the first size the
    # bound n / (Δ+1) allows. Its 4.5M pairs exceed the cap, so the search
    # tracks those among the first 438 vertices and tests the leaf in full
    g = _long_path(3003)
    res = dominant_metric_dimension(g, Budget(max_checks=20_000))
    assert (res.value, res.witness) == (1001, tuple(range(1, 3003, 3)))
    assert res.method == "exhaustive"


@functools.cache
def _ring_graph(spec: str) -> ZDGraph:
    return build_zdgraph(build_ring(spec))


# (quantity, spec, value, size the previous exhaustive search reached
# without a hit, check budget). The sizes come from budget-outs of the
# combinations search, which had ruled out every smaller size, and for
# gamma on Zn:2310 from the search that branched on every vertex; the
# values lie past that frontier.
LARGE_RING_CASES = [
    ("gamma", "Zn:210", 4, 4, 5_000),
    ("gamma", "Zn:2310", 5, 4, 100_000),
    ("dim", "Zn:128", 57, 57, 1_000),
    ("dim", "Zni:25", 217, 217, 1_000),
    ("ddim", "Zn:60", 34, 33, 1_000),
    ("ddim", "prod:(Zn:8,Zn:27)", 130, 129, 1_000),
    ("ddim", "Zn:1024", 503, 502, 1_000),
    ("dim", "Zn:2310", 1799, 1799, 1_000),
    ("ddim", "Zn:2310", 1800, 1799, 1_000),
]
GAMMA_WITNESSES = {"Zn:210": (22, 31, 53, 80), "Zn:2310": (166, 261, 365, 609, 914)}


@pytest.mark.parametrize(
    "quantity, spec, value, reached, max_checks",
    LARGE_RING_CASES,
    ids=[f"{q}-{s}" for q, s, *_ in LARGE_RING_CASES],
)
def test_large_ring_values(quantity, spec, value, reached, max_checks):
    g = _ring_graph(spec)
    res = getattr(solve_dimensions(g, quantity, Budget(max_checks=max_checks)), quantity)
    assert res.value == value >= reached
    assert len(res.witness) == value
    if quantity != "dim":
        assert oracles.dominating_def(oracles.neighbor_sets(g), g.order, res.witness)
    if quantity != "gamma":
        assert oracles.resolving_def(g.dist, g.order, res.witness)
    if quantity == "gamma":
        assert res.witness == GAMMA_WITNESSES[spec]


GOLDEN_RANDOM = Path(__file__).parent / "golden" / "solver_random.json"

# random connected graphs of order 16 to 26, each solved with every
# same-cell pair tracked, with at most one tracked pair per vertex and with
# none (each covered set then gets the full resolving test)
RANDOM_CASES = [(seed, 16 + seed % 11, per_vertex) for seed in range(24) for per_vertex in (32, 1, 0)]


def solver_random_outputs(seed: int, n: int, per_vertex: int) -> dict:
    """``(value, witness, checks, method)`` of gamma, dim and ddim, solved
    together, on ``random_connected_graph`` of order ``n`` from ``seed``."""
    g = oracles.random_connected_graph(random.Random(seed), n)
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        report = solve_dimensions(g, "all")
    return {
        q: [res.value, list(res.witness), res.checks, res.method]
        for q, res in (("gamma", report.gamma), ("dim", report.dim), ("ddim", report.ddim))
    }


@pytest.mark.parametrize("seed, n, per_vertex", RANDOM_CASES, ids=[f"s{s}-n{n}-p{p}" for s, n, p in RANDOM_CASES])
def test_random_graphs_match_golden(seed, n, per_vertex):
    # values, lex-least witnesses, check counts and method labels, pinned
    golden = json.loads(GOLDEN_RANDOM.read_text(encoding="utf-8"))
    assert solver_random_outputs(seed, n, per_vertex) == golden[f"seed={seed} n={n} pairs={per_vertex}"]
