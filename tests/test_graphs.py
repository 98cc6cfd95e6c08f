import dataclasses
import json
import sys

import networkx as nx
import pytest

from zdrlab.graphs import (
    INF,
    EmptyGraphError,
    build_zdgraph,
    export_graph,
    graph_from_edges,
    graph_invariants,
    parse_edgelist,
)
from zdrlab import graphs, rings
from zdrlab.families import generate_family, path
from zdrlab.rings import build_ring, catalog_ids, zero_divisors
from zdrlab.solver import solve_dimensions, twin_classes

import oracles

# rings with nonempty zero-divisor graphs, used for invariant sweeps
RING_CORPUS = [
    "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12", "Zn:15", "Zn:16", "Zn:25", "Zn:30",
    "Zni:2", "Zni:4", "Zni:5", "Zni:9", "Zni:13",
    "prod:(Zn:2,Zn:2)", "prod:(Zn:2,GF:4)", "prod:(Zn:3,Zn:3)", "prod:(Zn:2,GF:9)",
] + [f"cat:{i}" for i in catalog_ids()]


def _nx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.order))
    gx.add_edges_from(g.edges())
    return gx


def test_build_examples():
    g6 = build_zdgraph(build_ring("Zn:6"))
    assert g6.order == 3
    assert sorted(g6.edges()) == [(0, 1), (1, 2)]
    assert g6.external_ids == (2, 3, 4)

    g4 = build_zdgraph(build_ring("Zn:4"))
    assert g4.order == 1 and g4.size == 0

    g25 = build_zdgraph(build_ring("Zn:25"))
    assert g25.order == 4 and g25.size == 6  # K4


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        build_zdgraph(build_ring("Zn:7"))
    with pytest.raises(EmptyGraphError):
        build_zdgraph(build_ring("Zni:3"))


def test_no_self_loop_for_nilpotents():
    # 3*3 = 0 in Z9 but the graph is simple: single edge 3-6, no loops
    g = build_zdgraph(build_ring("Zn:9"))
    assert g.order == 2 and g.size == 1
    assert not g.has_edge(0, 0)


def test_invariant_examples():
    inv15 = graph_invariants(build_zdgraph(build_ring("Zn:15")))
    assert (inv15.diameter, inv15.girth, inv15.clique_number) == (2, 4, 2)
    inv25 = graph_invariants(build_zdgraph(build_ring("Zn:25")))
    assert (inv25.diameter, inv25.girth, inv25.clique_number) == (1, 3, 4)
    inv8 = graph_invariants(build_zdgraph(build_ring("Zn:8")))
    assert inv8.diameter == 2 and inv8.girth == INF
    assert inv8.degree_one_vertices == (0, 2)
    assert inv8.cut_vertices == (1,)


def test_cut_vertices_of_pendant_open_classes():
    # the leaves of a star are one open class whose only neighbour class is
    # the centre: the quotient is an edge, with no cut node of its own
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert graph_invariants(star).cut_vertices == (0,)
    assert graph_invariants(graph_from_edges(3, [(1, 0), (1, 2)])).cut_vertices == (1,)
    # a clique class hanging off one vertex stays joined without it
    triangle = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert graph_invariants(triangle).cut_vertices == ()
    # a star beside an isolated open class, and an open class of two with two
    # neighbour classes
    g = graph_from_edges(7, [(0, 1), (0, 2), (0, 3)])
    assert graph_invariants(g).cut_vertices == (0,)
    square = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert graph_invariants(square).cut_vertices == ()


def test_size_is_half_degree_sum():
    for spec in RING_CORPUS:
        g = build_zdgraph(build_ring(spec))
        assert sum(g.degree(v) for v in range(g.order)) == 2 * g.size


def test_adjacency_symmetric_no_loops():
    for spec in RING_CORPUS:
        g = build_zdgraph(build_ring(spec))
        for u in range(g.order):
            assert not g.has_edge(u, u)
            for v in graphs._bits(g.adj[u]):
                assert g.has_edge(v, u)


def test_connected_with_diameter_at_most_three():
    for spec in RING_CORPUS:
        g = build_zdgraph(build_ring(spec))
        inv = graph_invariants(g)
        assert g.is_connected, spec
        assert inv.diameter <= 3, spec


def _brute_girth(g):
    """Independent oracle: min over edges of (shortest u-v path avoiding the edge) + 1."""
    gx = _nx(g)
    best = INF
    for u, v in list(gx.edges()):
        gx.remove_edge(u, v)
        if nx.has_path(gx, u, v):
            best = min(best, nx.shortest_path_length(gx, u, v) + 1)
        gx.add_edge(u, v)
    return best


def test_invariants_against_networkx():
    for spec in RING_CORPUS:
        g = build_zdgraph(build_ring(spec))
        inv = graph_invariants(g)
        gx = _nx(g)
        if g.order > 1:
            assert inv.diameter == nx.diameter(gx), spec
        assert inv.girth == _brute_girth(g), spec
        assert set(inv.cut_vertices) == set(nx.articulation_points(gx)), spec
        assert inv.clique_number == max(len(c) for c in nx.find_cliques(gx)), spec
        assert inv.max_degree == max(d for _, d in gx.degree), spec


def test_invariants_against_networkx_random_graphs():
    import random

    rng = random.Random(11)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(2, 10))
        inv = graph_invariants(g)
        gx = _nx(g)
        assert inv.diameter == nx.diameter(gx)
        assert inv.girth == _brute_girth(g)
        assert set(inv.cut_vertices) == set(nx.articulation_points(gx))
        assert inv.clique_number == max(len(c) for c in nx.find_cliques(gx))


def test_girth_families():
    # pq-shaped rings have girth 4; p^2-shaped (p >= 5) have girth 3
    for n, expected in [(15, 4), (21, 4), (35, 4), (25, 3), (49, 3)]:
        inv = graph_invariants(build_zdgraph(build_ring(f"Zn:{n}")))
        assert inv.girth == expected, n


def test_bipartite_girth_parity():
    for spec in RING_CORPUS:
        g = build_zdgraph(build_ring(spec))
        inv = graph_invariants(g)
        if nx.is_bipartite(_nx(g)) and inv.girth != INF:
            assert inv.girth % 2 == 0, spec


def test_star_center_for_z2_cross_field():
    for q in [3, 4, 5, 9]:
        g = build_zdgraph(build_ring(f"prod:(Zn:2,GF:{q})"))
        center = max(range(g.order), key=g.degree)
        assert g.labels[center] == "(1,0)"
        assert g.degree(center) == g.order - 1
        assert all(g.degree(v) == 1 for v in range(g.order) if v != center)


def test_export_edgelist_golden():
    g9 = build_zdgraph(build_ring("Zn:9"))
    assert export_graph(g9, "edgelist").splitlines()[-1] == "3 6"
    g6 = build_zdgraph(build_ring("Zn:6"))
    lines = export_graph(g6, "edgelist").splitlines()
    assert lines[-2:] == ["2 3", "3 4"]


def test_export_dot_single_vertex():
    g4 = build_zdgraph(build_ring("Zn:4"))
    dot = export_graph(g4, "dot")
    assert dot.count("--") == 0
    assert 'v2 [label="2"];' in dot


def test_export_dot_escapes_labels():
    # a quote or a backslash in a label would end the DOT string early
    g = parse_edgelist('# vertex 1 a"b\n# vertex 2 c\\\n1 2\n')
    lines = export_graph(g, "dot").splitlines()
    assert lines[1:3] == ['  v1 [label="a\\"b"];', '  v2 [label="c\\\\"];']


def test_export_json():
    g = build_zdgraph(build_ring("Zn:8"))
    doc = json.loads(export_graph(g, "json"))
    assert doc["order"] == 3
    assert doc["invariants"]["girth"] is None  # acyclic
    assert doc["invariants"]["diameter"] == 2
    assert doc["edges"] == [[0, 1], [1, 2]]


def test_export_rejects_unknown_format():
    g = build_zdgraph(build_ring("Zn:6"))
    with pytest.raises(ValueError):
        export_graph(g, "gml")


def test_edgelist_round_trip():
    for spec in ["Zn:6", "Zn:15", "Zni:5", "cat:cvB1"]:
        g = build_zdgraph(build_ring(spec))
        parsed = parse_edgelist(export_graph(g, "edgelist"))
        assert parsed.order == g.order
        assert sorted(parsed.edges()) == sorted(g.edges())
        assert parsed.labels == g.labels
        assert parsed.dist == g.dist


def test_edgelist_round_trip_single_vertex():
    g = build_zdgraph(build_ring("Zn:4"))
    parsed = parse_edgelist(export_graph(g, "edgelist"))
    assert parsed.order == 1 and parsed.size == 0


def test_parse_edgelist_errors():
    with pytest.raises(ValueError):
        parse_edgelist("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edgelist("0 zero\n")
    # the file's own id and line, not the internal vertex index
    with pytest.raises(ValueError, match=r"^line 2: self-loop at vertex 7 "):
        parse_edgelist("1 2\n7 7\n")
    # a declared id obeys the edge lines' rule: non-negative
    with pytest.raises(ValueError, match=r"^line 1: expected '# vertex <id> \[label\]'"):
        parse_edgelist("# vertex -3 neg\n0 1\n")


# str.isdigit accepts these ids; int() reads the first as 2 and rejects the others
NON_ASCII_ID_LINES = [("0 1\n1 \u0662\n", 2), ("0 1\n1 \u00b2\n", 2), ("# vertex \u00b2 x\n0 1\n", 1)]


@pytest.mark.parametrize("text,lineno", NON_ASCII_ID_LINES)
def test_parse_edgelist_rejects_non_ascii_ids(text, lineno):
    with pytest.raises(ValueError, match=rf"^line {lineno}: expected "):
        parse_edgelist(text)


def test_graph_from_edges_rejects_loops():
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 0)])


def test_graph_order_is_capped():
    # the cap stops a huge graph before its order x order distance rows
    with pytest.raises(ValueError, match="above the order cap ORDER_CAP = 4096"):
        graph_from_edges(4097, [])
    with pytest.raises(ValueError, match="above the order cap"):
        generate_family(path(4097))
    assert graph_from_edges(4096, []).order == 4096


def test_disconnected_distances():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert g.dist[0][2] == -1
    assert graph_invariants(g).diameter == INF
    assert not g.is_connected
    # an isolated open class {2, 3, 4} beside an edge: twins at -1
    g = graph_from_edges(5, [(0, 1)])
    assert [row.typecode for row in g.dist] == ["b"] * 5
    assert [list(row) for row in g.dist] == [
        [0, 1, -1, -1, -1], [1, 0, -1, -1, -1],
        [-1, -1, 0, -1, -1], [-1, -1, -1, 0, -1], [-1, -1, -1, -1, 0],
    ]


@pytest.mark.parametrize("twin", [False, True], ids=["twin-free", "open twins"])
def test_long_path_gets_wide_rows(twin):
    # distances up to 299 do not fit a signed byte; a second leaf on vertex
    # 1 makes {0, 300} an open class, so the rows come through the quotient
    edges = [(i, i + 1) for i in range(299)] + [(1, 300)] * twin
    g = graph_from_edges(300 + twin, edges)
    assert len(g.classes) == 300
    assert {row.typecode for row in g.dist} == {"h"}
    nbrs = oracles.neighbor_sets(g)
    for v in range(g.order):
        assert list(g.dist[v]) == oracles.bfs_distances(nbrs, v, g.order)
    assert graph_invariants(g).diameter == 299


def test_distances_match_oracle_bfs():
    # ring graphs have diameter at most 3: one byte per entry, whose bytes
    # are those of the plain integers
    for spec in ["Zn:30", "Zni:9", "cat:cvA3", "prod:(Zn:4,Zn:9)", "Zn:256"]:
        g = build_zdgraph(build_ring(spec))
        nbrs = oracles.neighbor_sets(g)
        for v in range(g.order):
            row = g.dist[v]
            assert row.itemsize == 1
            assert bytes(row) == bytes(tuple(row))
            assert list(row) == oracles.bfs_distances(nbrs, v, g.order)


@pytest.mark.parametrize("spec", ["Zn:256", "prod:(Zn:4,Zn:8)"])
def test_one_bfs_per_twin_class(spec, monkeypatch):
    # one BFS per class, each on the quotient graph of exactly one vertex
    # per twin class
    runs = []
    bfs_row = graphs._bfs_row

    def counting(order, adj, s):
        runs.append((order, len(adj), s))
        return bfs_row(order, adj, s)

    monkeypatch.setattr(graphs, "_bfs_row", counting)
    g = build_zdgraph(build_ring(spec))
    k = len(twin_classes(g).classes)
    assert k < g.order
    assert runs == [(k, k, c) for c in range(k)]


def test_ring_graph_labels_are_made_on_first_read(monkeypatch):
    calls = []
    term_label = rings._term_label
    monkeypatch.setattr(rings, "_term_label", lambda *a: calls.append(a) or term_label(*a))
    g = build_zdgraph(build_ring("Zn:12"))
    assert calls == []
    assert g.labels == ("2", "3", "4", "6", "8", "9", "10")
    assert len(calls) == 7
    assert g.labels == ("2", "3", "4", "6", "8", "9", "10") and len(calls) == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.labels = ()


# a 5-cycle with vertex 0 blown up into an open class {0, 5} and vertex 2
# into a clique class {2, 6}
TWIN_EDGELIST = "0 1\n1 2\n2 3\n3 4\n4 0\n5 1\n5 4\n6 1\n6 3\n6 2\n"


@pytest.mark.parametrize("make", [
    lambda: build_zdgraph(build_ring("Zn:42")),
    lambda: parse_edgelist(TWIN_EDGELIST),
], ids=["ring", "edgelist"])
def test_twin_partition_is_computed_once_per_graph(make, monkeypatch):
    # the graph keeps its classes; the distance build, the diameter and all
    # three solvers read them instead of keying the adjacency again
    calls = []
    original = graphs.neighbourhood_twin_classes

    def counting(adj):
        calls.append(len(adj))
        return original(adj)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zdrlab":
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counting)
    g = make()
    graph_invariants(g)
    report = solve_dimensions(g, "all")
    assert report.ddim.method == "twin_reduced"
    assert calls == [g.order]


# orders 3 to 67, only Zni:9 (8) a multiple of 8
PACKED_ROW_SPECS = [
    "Zn:6", "Zn:12", "Zn:16", "Zn:30", "Zn:128", "Zni:9", "Zni:10",
    "prod:(Zn:2,GF:4)", "prod:(Zn:4,Zn:6)", "cat:cvA3", "cat:Z2r.r3",
]


@pytest.mark.parametrize("spec", PACKED_ROW_SPECS)
def test_packed_rows_match_edge_list_build(spec):
    ring = build_ring(spec)
    members = zero_divisors(ring).members
    edges = [
        (i, j)
        for i, x in enumerate(members)
        for j, y in enumerate(members)
        if i < j and ring.mul_of(x, y) == 0
    ]
    expected = graph_from_edges(
        len(members), edges, [ring.labels[x] for x in members], members, ring.name
    )
    assert build_zdgraph(ring) == expected
