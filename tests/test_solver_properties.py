"""Property tests for the solver against definitional oracles."""

import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdrlab import solver
from zdrlab.graphs import INF, graph_from_edges, graph_invariants
from zdrlab.solver import (
    Budget,
    BudgetExceededError,
    domination_number,
    dominant_metric_dimension,
    is_dominating,
    is_resolving,
    metric_dimension,
    solve_dimensions,
    twin_classes,
)

import oracles

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return oracles.random_connected_graph(random.Random(seed), n)


@st.composite
def sparse_connected_graphs(draw):
    """A random tree on 8-11 vertices plus G(n, p) edges with p <= 0.35:
    sparse enough that many vertex pairs lie at distance 3 or more."""
    n = draw(st.integers(min_value=8, max_value=11))
    p = draw(st.floats(min_value=0.0, max_value=0.35))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return graph_from_edges(n, sorted(edges))


@st.composite
def gnp_graphs(draw, max_n=12, min_n=0):
    """G(n, p), often disconnected; p = 0 gives the empty edge set."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


@st.composite
def blown_up_graphs(draw, bases=connected_graphs(max_n=4)):
    """A graph drawn from ``bases`` (by default connected, of order 2-4)
    with each vertex blown up into a clique or an independent set of 1-3
    twins, labels shuffled: order at most 12, with twin classes of two or
    more vertices."""
    base = draw(bases)
    groups, n = [], 0
    for _ in range(base.order):
        size = draw(st.integers(min_value=1, max_value=3))
        groups.append((range(n, n + size), draw(st.booleans())))
        n += size
    edges = [(u, v) for vs, clique in groups if clique for u in vs for v in vs if u < v]
    edges += [(u, v) for a, b in base.edges() for u in groups[a][0] for v in groups[b][0]]
    perm = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _assert_matches_brute_force(g):
    # same value and the same lex-least witness
    for solve, brute in [
        (domination_number, oracles.brute_gamma),
        (metric_dimension, oracles.brute_dim),
        (dominant_metric_dimension, oracles.brute_ddim),
    ]:
        res = solve(g)
        assert (res.value, res.witness) == brute(g)


@SETTINGS
@given(g=connected_graphs())
def test_solver_matches_brute_force(g):
    _assert_matches_brute_force(g)


@SETTINGS
@given(g=blown_up_graphs())
def test_solver_matches_brute_force_on_twin_rich_graphs(g):
    _assert_matches_brute_force(g)


@settings(max_examples=200, deadline=None)
@given(g=blown_up_graphs(gnp_graphs(max_n=4, min_n=1)))
def test_gamma_matches_brute_force_on_blow_ups_of_any_graph(g):
    # the base may be disconnected or edgeless, so open classes with no
    # neighbour, whose members the witness must all hold, occur often
    res = domination_number(g)
    assert (res.value, res.witness) == oracles.brute_gamma(g)


@SETTINGS
@given(g=gnp_graphs(max_n=11, min_n=1))
def test_solver_matches_brute_force_on_gnp_graphs(g):
    # gamma on every G(n, p), dim and ddim on the connected ones
    res = domination_number(g)
    assert (res.value, res.witness) == oracles.brute_gamma(g)
    if g.is_connected:
        for solve, brute in [
            (metric_dimension, oracles.brute_dim),
            (dominant_metric_dimension, oracles.brute_ddim),
        ]:
            res = solve(g)
            assert (res.value, res.witness) == brute(g)


@settings(max_examples=300, deadline=None)
@given(
    g=st.one_of(connected_graphs(max_n=10), sparse_connected_graphs(), blown_up_graphs()),
    per_vertex=st.sampled_from([0, 1]),
)
def test_solver_matches_brute_force_with_capped_pairs(g, per_vertex):
    # with at most 0 or 1 tracked pairs per vertex most of these graphs
    # have more same-cell pairs than that, so covering the tracked elements
    # no longer makes a set resolving, and each covered set gets the full
    # resolving test, branching on a pair it leaves unresolved
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        _assert_matches_brute_force(g)


@SETTINGS
@given(
    g=st.one_of(connected_graphs(max_n=10), sparse_connected_graphs(), blown_up_graphs()),
    per_vertex=st.sampled_from([0, 1, solver.PAIRS_PER_VERTEX]),
)
def test_check_budget_is_exact_on_random_graphs(g, per_vertex):
    # a node with one pick left tests its options inside its one check, so
    # a budget of exactly the checks a solve takes lets it finish, and one
    # fewer raises at the last check, at the cardinality that solved
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        for quantity in ("gamma", "dim", "ddim"):
            res = getattr(solve_dimensions(g, quantity), quantity)
            capped = getattr(solve_dimensions(g, quantity, Budget(max_checks=res.checks)), quantity)
            assert (capped.value, capped.witness, capped.checks) == (res.value, res.witness, res.checks)
            with pytest.raises(BudgetExceededError) as err:
                solve_dimensions(g, quantity, Budget(max_checks=res.checks - 1))
            assert (err.value.checks, err.value.cardinality) == (res.checks, res.value)


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(connected_graphs(max_n=14), sparse_connected_graphs(), blown_up_graphs()),
    per_vertex=st.sampled_from([0, 1, solver.PAIRS_PER_VERTEX]),
    data=st.data(),
)
def test_check_budget_stops_at_the_cap(g, per_vertex, data):
    # any cap below a solve's checks stops it at the check one past the
    # cap, also when that check is a child that a node with two picks left
    # runs in place
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        for quantity in ("gamma", "dim", "ddim"):
            checks = getattr(solve_dimensions(g, quantity), quantity).checks
            if not checks:
                continue
            cap = data.draw(st.integers(min_value=0, max_value=checks - 1), label=quantity)
            with pytest.raises(BudgetExceededError) as err:
                solve_dimensions(g, quantity, Budget(max_checks=cap))
            assert (err.value.quantity, err.value.checks) == (quantity, cap + 1)


def _outputs(*results):
    return [(res.value, res.witness, res.checks, res.method) for res in results]


@settings(max_examples=200, deadline=None)
@given(
    g=st.one_of(connected_graphs(max_n=10), sparse_connected_graphs(), blown_up_graphs()),
    per_vertex=st.sampled_from([0, 1, solver.PAIRS_PER_VERTEX]),
)
def test_all_matches_the_separate_solves(g, per_vertex):
    # with all three asked for, ddim reads the resolve elements the dim
    # search built; each quantity solved alone builds its own. With 0 or 1
    # tracked pairs per vertex the shared set-up is the capped one, whose
    # covered sets get the full resolving test
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        report = solve_dimensions(g, "all")
        gamma, dim = domination_number(g), metric_dimension(g)
        ddim = dominant_metric_dimension(g, _lower=max(gamma.value, dim.value))
    assert _outputs(report.gamma, report.dim, report.ddim) == _outputs(gamma, dim, ddim)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(connected_graphs(max_n=10), sparse_connected_graphs(), blown_up_graphs()))
def test_ddim_given_the_dim_list_matches_a_fresh_ddim(g):
    # the suite hands a subject's dim list to its ddim without a lower
    # bound: the ddim search is then the fresh one, checks and all
    shared = []
    metric_dimension(g, _shared=shared)
    assert len(shared) == (g.order > 1)
    handed = dominant_metric_dimension(g, _shared=shared)
    assert _outputs(handed) == _outputs(dominant_metric_dimension(g))


def test_solve_dimensions_leaves_nothing_on_the_graph():
    # twin-free with 325 pairs in one cell, all tracked: the shared set-up
    # lives only as long as one call, so a second call on the same graph
    # object does the same work, also after a budget ran out inside dim.
    # The graph's own twin quotient, made on its first read, is not set-up
    g = oracles.random_connected_graph(random.Random(16), 26)
    g.is_connected
    keys = set(vars(g))
    first = solve_dimensions(g, "all")
    expected = _outputs(first.gamma, first.dim, first.ddim)
    assert set(vars(g)) == keys
    again = solve_dimensions(g, "all")
    assert _outputs(again.gamma, again.dim, again.ddim) == expected
    assert first.gamma.checks < 100 < first.dim.checks
    with pytest.raises(BudgetExceededError) as err:
        solve_dimensions(g, "all", Budget(max_checks=100))
    assert err.value.quantity == "dim"
    assert set(vars(g)) == keys
    again = solve_dimensions(g, "all")
    assert _outputs(again.gamma, again.dim, again.ddim) == expected


@SETTINGS
@given(g=sparse_connected_graphs())
def test_solver_matches_brute_force_on_sparse_graphs(g):
    # pairs at distance 3 or more exist here, which the search leaves to
    # the full resolving test at its leaves
    _assert_matches_brute_force(g)


@SETTINGS
@given(g=st.one_of(connected_graphs(), sparse_connected_graphs(), blown_up_graphs()))
def test_ddim_started_at_max_of_gamma_and_dim_is_unchanged(g):
    alone = dominant_metric_dimension(g)
    report = solve_dimensions(g, "all")
    assert (report.ddim.value, report.ddim.witness) == (alone.value, alone.witness)


@SETTINGS
@given(g=connected_graphs())
def test_sandwich_bounds(g):
    gamma = domination_number(g).value
    dim = metric_dimension(g).value
    ddim = dominant_metric_dimension(g).value
    assert max(dim, gamma) <= ddim <= dim + gamma


@SETTINGS
@given(g=connected_graphs(), seed=st.integers(min_value=0, max_value=2**31))
def test_superset_monotonicity(g, seed):
    rng = random.Random(seed)
    base_dom = set(domination_number(g).witness)
    base_res = set(metric_dimension(g).witness)
    extra = [v for v in range(g.order) if rng.random() < 0.5]
    assert is_dominating(g, sorted(base_dom | set(extra)))
    assert is_resolving(g, sorted(base_res | set(extra)))


@settings(max_examples=300, deadline=None)
@given(g=gnp_graphs())
def test_twin_partition_is_exact(g):
    # reference: each vertex's twins by the distance definition alone
    n = g.order
    twin_sets = {tuple(w for w in range(n) if oracles.are_twins(g, v, w)) for v in range(n)}
    assert sorted(v for cls in twin_sets for v in cls) == list(range(n))
    assert g.classes == twin_classes(g).classes == tuple(sorted(twin_sets))


@st.composite
def disconnected_blown_up_graphs(draw):
    """Two blown-up graphs side by side, labels shuffled."""
    a, b = draw(blown_up_graphs()), draw(blown_up_graphs())
    edges = list(a.edges()) + [(u + a.order, v + a.order) for u, v in b.edges()]
    perm = draw(st.permutations(range(a.order + b.order)))
    return graph_from_edges(len(perm), [(perm[u], perm[v]) for u, v in edges])


@st.composite
def pendant_blow_ups(draw):
    """A blow-up of a graph of order 1-4, possibly disconnected, with an
    open class of 2-3 leaves hung off one vertex, labels shuffled. The hub
    is then a class of its own, and a cut vertex by the pendant rule alone
    when the leaves are its only neighbours."""
    g = draw(blown_up_graphs(gnp_graphs(max_n=4, min_n=1)))
    hub = draw(st.integers(min_value=0, max_value=g.order - 1))
    leaves = draw(st.integers(min_value=2, max_value=3))
    n = g.order + leaves
    edges = list(g.edges()) + [(hub, v) for v in range(g.order, n)]
    perm = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=400, deadline=None)
@given(g=st.one_of(
    gnp_graphs(max_n=14), blown_up_graphs(), blown_up_graphs(gnp_graphs(max_n=4, min_n=1)),
    disconnected_blown_up_graphs(), pendant_blow_ups(),
))
def test_quotient_invariants_match_full_graph(g):
    # cut vertices, clique number and girth come from the twin quotient;
    # the oracles run on every vertex, and networkx checks all three.
    # Twin-free G(n, p) graphs are their own quotient; blow-ups of G(n, p)
    # bases have isolated twin classes and pendant open classes.
    inv = graph_invariants(g)
    gx = nx.Graph()
    gx.add_nodes_from(range(g.order))
    gx.add_edges_from(g.edges())
    assert inv.cut_vertices == oracles.cut_vertices(g)
    assert set(inv.cut_vertices) == set(nx.articulation_points(gx))
    assert inv.clique_number == oracles.clique_number(g)
    assert inv.clique_number == max((len(c) for c in nx.find_cliques(gx)), default=0)
    assert inv.girth == oracles.girth(g)
    assert inv.girth == min((len(c) for c in nx.minimum_cycle_basis(gx)), default=INF)


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(
    gnp_graphs(max_n=14), blown_up_graphs(), disconnected_blown_up_graphs(),
    st.just(graph_from_edges(1, [])),
    st.integers(min_value=2, max_value=5).map(lambda n: graph_from_edges(n, [])),
))
def test_distances_match_oracle_bfs_on_random_graphs(g):
    # rows come from a BFS over the twin quotient; the oracle runs BFS from
    # every vertex. Disconnected blow-ups put -1 across components, edgeless
    # graphs -1 inside one isolated open class, and twin-free graphs are
    # their own quotient.
    nbrs = oracles.neighbor_sets(g)
    assert [list(row) for row in g.dist] == [
        oracles.bfs_distances(nbrs, v, g.order) for v in range(g.order)
    ]


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(
    gnp_graphs(), blown_up_graphs(), disconnected_blown_up_graphs(),
    st.just(graph_from_edges(1, [])),
))
def test_twin_class_diameter_matches_every_row(g):
    # the diameter reads one row per twin class; the reference reads them all
    entries = [d for row in g.dist for d in row]
    expected = INF if -1 in entries else max(entries, default=0)
    assert graph_invariants(g).diameter == expected


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(gnp_graphs(min_n=1), blown_up_graphs(), disconnected_blown_up_graphs()))
def test_base_cells_match_distance_vectors(g):
    # a top's cell comes from its distance to one member of each class of
    # two or more; the reference zips the rows of the whole base
    classes = twin_classes(g).classes
    base = [v for cls in classes for v in cls[:-1]]
    shared = [cell for cell in oracles.distance_cells(g, base) if len(cell) > 1]
    assert sorted(solver._shared_cells(g)) == shared


@SETTINGS
@given(g=connected_graphs())
def test_twin_bound_is_a_lower_bound(g):
    assert metric_dimension(g).value >= twin_classes(g).lower_bound()


def test_gamma_on_random_disconnected_graphs():
    rng = random.Random(7)
    for _ in range(30):
        a = oracles.random_connected_graph(rng, rng.randint(2, 5))
        b = oracles.random_connected_graph(rng, rng.randint(2, 5))
        edges = list(a.edges()) + [(u + a.order, v + a.order) for u, v in b.edges()]
        g = graph_from_edges(a.order + b.order, edges)
        res = domination_number(g)
        assert (res.value, res.witness) == oracles.brute_gamma(g)


def _assert_set_up_matches_oracle(g, per_vertex):
    """The cells, untracked cells, covers, ``pair_rows`` bytes, tiers and
    keep masks of the resolve set-up equal the row-list oracle's."""
    assert solver._shared_cells(g) == oracles.keyed_shared_cells(g)
    with mock.patch.object(solver, "PAIRS_PER_VERTEX", per_vertex):
        untracked, covers, pair_rows, tiers, keep = solver._resolve_elements(g)
    want = oracles.row_list_resolve_elements(g, per_vertex)
    assert (untracked, covers, tiers, keep) == (want[0], want[1], want[3], want[4])
    if want[2] is None:
        assert pair_rows is None
    else:
        assert (pair_rows.dtype, pair_rows.shape) == (want[2].dtype, want[2].shape)
        assert pair_rows.tobytes() == want[2].tobytes()


@settings(max_examples=300, deadline=None)
@given(
    g=st.one_of(connected_graphs(max_n=12), sparse_connected_graphs(), gnp_graphs(min_n=1),
                blown_up_graphs(), disconnected_blown_up_graphs()),
    per_vertex=st.sampled_from([0, 1, solver.PAIRS_PER_VERTEX]),
)
def test_resolve_set_up_matches_the_oracle(g, per_vertex):
    _assert_set_up_matches_oracle(g, per_vertex)


@pytest.mark.parametrize("per_vertex", [0, 1, solver.PAIRS_PER_VERTEX])
@pytest.mark.parametrize("spec", ["Zn:42", "Zn:60", "Zn:128", "Zni:25", "prod:(Zn:3,Zn:27)",
                                  "prod:(Zn:8,Zn:27)", "Zn:1024", "Zn:2310"])
def test_resolve_set_up_matches_the_oracle_on_rings(spec, per_vertex):
    from zdrlab.graphs import build_zdgraph
    from zdrlab.rings import build_ring

    _assert_set_up_matches_oracle(build_zdgraph(build_ring(spec)), per_vertex)


def _chunked_graphs():
    """A path of 200 vertices (twin-free) and G(180, 0.1) on a random tree
    with an open twin added to vertex 0: both track more pairs than one
    slice of ~2**18 entries holds."""
    path = graph_from_edges(200, [(v, v + 1) for v in range(199)])
    rng, n = random.Random(180), 180
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1}
    edges |= {(n, w) for w in range(n) if (0, w) in edges or (w, 0) in edges}
    return [path, graph_from_edges(n + 1, sorted(edges))]


@pytest.mark.parametrize("which", [0, 1], ids=["path", "open-twin"])
def test_resolve_set_up_matches_the_oracle_over_several_slices(which):
    g = _chunked_graphs()[which]
    step = max(8, (1 << 18) // g.order // 8 * 8)  # pairs per slice
    pairs = len(solver._resolve_elements(g)[1]) - g.order
    assert pairs > 3 * step
    assert (len(g.classes) < g.order) == bool(which)
    _assert_set_up_matches_oracle(g, solver.PAIRS_PER_VERTEX)


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
    step=st.sampled_from([8, 16, 64, 1 << 18]),
    shift=st.integers(min_value=0, max_value=70),
)
def test_tiers_match_the_scattered_oracle(counts, step, shift):
    # the tier rows, packed a slice of pairs at a time, read as ints
    counts = np.array(counts, dtype=np.uint8)
    assert solver._tiers(counts, step, shift) == oracles.scattered_tiers(counts, shift)
