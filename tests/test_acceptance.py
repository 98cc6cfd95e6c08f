"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the criterion failed.
"""

import math
import random
import time
from pathlib import Path

from zdrlab.families import (
    closed_form_dims,
    complete,
    complete_bipartite,
    cycle,
    generate_family,
    path,
    recognize_family,
    star,
)
from zdrlab.graphs import INF, build_zdgraph, graph_invariants
from zdrlab.rings import (
    CatalogEntry,
    build_ring,
    register_catalog_entry,
    unregister_catalog_entry,
    zero_divisors,
)
from zdrlab.solver import (
    domination_number,
    dominant_metric_dimension,
    is_dominating,
    is_resolving,
    metric_dimension,
    twin_classes,
)
from zdrlab.verify import SuiteConfig, run_suite, verify_theorem

import oracles

TABLE1_GRID = (4, 8, 9, 25, 49, 121, 15, 21, 35, 77)

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_acceptance_01_table1_reproduction():
    start = time.monotonic()
    verdicts = verify_theorem("TAB1", ns=TABLE1_GRID)
    by_instance_aspect = {(v.instance, v.aspect): v for v in verdicts}
    for n in TABLE1_GRID:
        for aspect in ("V", "E", "diameter", "girth", "shape"):
            v = by_instance_aspect[(f"n={n}", aspect)]
            assert v.status == "PASS", (n, aspect, v)
        ddim = by_instance_aspect[(f"n={n}", "ddim")]
        if n == 8:
            assert ddim.status == "ERRATUM" and ddim.erratum_id == "E1"
            assert ddim.claimed == "1" and ddim.computed == "2"
        else:
            assert ddim.status == "PASS", (n, ddim)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, limit 10s"
    _report(1, f"table rows for n in {TABLE1_GRID} reproduced with only the n=8 "
               f"erratum, in {elapsed:.1f}s")


def test_acceptance_02_t26_up_to_200():
    start = time.monotonic()
    verdicts = verify_theorem("T2.6")
    assert not any(v.status == "FAIL" for v in verdicts)
    checked = 0
    for v in verdicts:
        n = int(v.instance.split("=")[1])
        factors = {}
        m = n
        p = 2
        while p * p <= m:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
            p += 1
        if m > 1:
            factors[m] = factors.get(m, 0) + 1
        if len(factors) == 1 and list(factors.values()) == [2] and 2 not in factors:
            p = next(iter(factors))
            assert v.status == "PASS" and v.computed == str(p - 2), v
            checked += 1
        elif len(factors) == 2 and all(e == 1 for e in factors.values()) and 2 not in factors:
            p, q = sorted(factors)
            assert v.status == "PASS" and v.computed == str(p + q - 4), v
            checked += 1
    assert checked >= 30
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, limit 60s"
    _report(2, f"{checked} odd p^2/pq instances up to 200 all PASS, in {elapsed:.1f}s")


def test_acceptance_03_prior_family_results():
    count = 0
    for n in range(4, 17):  # paths
        g = generate_family(path(n))
        assert dominant_metric_dimension(g).value == math.ceil(n / 3)
        assert metric_dimension(g).value == 1
        assert domination_number(g).value == math.ceil(n / 3)
        count += 1
    for n in range(7, 17):  # cycles
        g = generate_family(cycle(n))
        assert dominant_metric_dimension(g).value == math.ceil(n / 3)
        assert metric_dimension(g).value == 2
        count += 1
    for n in range(2, 13):  # complete graphs
        g = generate_family(complete(n))
        assert dominant_metric_dimension(g).value == n - 1
        assert metric_dimension(g).value == n - 1
        assert domination_number(g).value == 1
        count += 1
    for n in range(3, 15):  # stars of order n
        g = generate_family(star(n))
        assert dominant_metric_dimension(g).value == n - 1
        cf = closed_form_dims(star(n))
        if cf.dim is not None:
            assert metric_dimension(g).value == cf.dim
        assert domination_number(g).value == 1
        count += 1
    for m in range(2, 8):  # complete bipartite
        for n in range(m, 15 - m):
            g = generate_family(complete_bipartite(m, n))
            assert dominant_metric_dimension(g).value == m + n - 2
            assert metric_dimension(g).value == m + n - 2
            assert domination_number(g).value == 2
            count += 1
    _report(3, f"{count} family instances equal their closed forms exactly")


def test_acceptance_04_propositions():
    p2_rings = ["Zn:9", "prod:(Zn:2,Zn:2)", "cat:Z3r.r2"]
    p3_rings = ["Zn:6", "Zn:8", "cat:Z2r.r3", "cat:Z4r.2r_r2-2"]
    verdicts = verify_theorem("P2.1")
    ddim = {v.instance: v for v in verdicts if v.aspect == "ddim"}
    for spec in p2_rings:
        assert ddim[spec].status == "PASS" and ddim[spec].computed == "1"
    for spec in p3_rings:
        v = ddim[spec]
        assert v.status == "ERRATUM" and v.erratum_id == "E1" and v.computed == "2"
    verdicts = verify_theorem("P2.2")
    shapes = [v for v in verdicts if v.aspect == "shape"]
    values = [v for v in verdicts if v.aspect == "ddim"]
    assert len(shapes) == 5 and all(v.status == "PASS" for v in shapes)
    assert all(int(v.computed[1:]) <= 4 for v in shapes)  # "C3" / "C4"
    assert len(values) == 5 and all(
        v.status == "PASS" and v.computed == "2" for v in values
    )
    _report(4, "three 2-vertex-path rings give 1, four 3-vertex-path rings give the "
               "E1 erratum, five cycle rings give 2")


def test_acceptance_05_nilpotent_complete_case():
    for spec in ["Zn:9", "Zn:25", "Zn:49", "Zn:121", "cat:Z2rs.rs2"]:
        ring = build_ring(spec)
        members = zero_divisors(ring).members
        assert all(ring.mul_of(x, y) == 0 for x in members for y in members)
        g = build_zdgraph(ring)
        assert g.size == g.order * (g.order - 1) // 2, spec  # complete
        assert dominant_metric_dimension(g).value == len(members) - 1, spec
    _report(5, "square-zero nilpotent rings give complete graphs with ddim |L|-1")


def test_acceptance_06_z2_cross_field_stars():
    for q in (3, 4, 5, 7, 8, 9):
        g = build_zdgraph(build_ring(f"prod:(Zn:2,GF:{q})"))
        center = max(range(g.order), key=g.degree)
        assert g.labels[center] == "(1,0)"
        assert g.degree(center) == g.order - 1
        assert all(g.degree(v) == 1 for v in range(g.order) if v != center)
        assert dominant_metric_dimension(g).value == g.order - 1, q
    _report(6, "Z2 x GF(q) gives a star centered at (1,0) with ddim |L|-1 for "
               "q in {3,4,5,7,8,9}")


def test_acceptance_07_gaussian_suite():
    start = time.monotonic()
    g = build_zdgraph(build_ring("Zni:9"))
    assert recognize_family(g) == complete(8)
    assert dominant_metric_dimension(g).value == 7

    g = build_zdgraph(build_ring("Zni:5"))
    assert recognize_family(g) == complete_bipartite(4, 4)
    assert dominant_metric_dimension(g).value == 6
    assert graph_invariants(g).girth == 4
    girth_verdicts = [
        v for v in verify_theorem("T2123", case1=[], case2=[], case3=[5])
        if v.aspect == "girth"
    ]
    assert girth_verdicts[0].erratum_id == "E5"

    g = build_zdgraph(build_ring("Zni:21"))
    assert recognize_family(g) == complete_bipartite(8, 48)
    res = dominant_metric_dimension(g)
    assert res.value == 54 == 3 * 3 + 7 * 7 - 4
    assert res.method == "twin_reduced"
    value_verdicts = [
        v for v in verify_theorem("T2123", case1=[], case2=[(3, 7)], case3=[])
        if v.aspect == "ddim"
    ]
    assert value_verdicts[0].erratum_id == "E4"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s, limit 120s"
    _report(7, f"Gaussian graphs K8 (ddim 7), K4,4 (ddim 6, E5), K8,48 (ddim 54, E4) "
               f"in {elapsed:.1f}s")


def test_acceptance_08_product_of_fields():
    orders = (3, 4, 5, 7, 8, 9)
    t2121 = verify_theorem("T2121", field_orders=orders)
    t2122 = verify_theorem("T2122", field_orders=orders)
    pairs = [(q1, q2) for q1 in orders for q2 in orders if q1 <= q2]
    girths = [v for v in t2121 if v.aspect == "girth"]
    assert len(girths) == len(pairs) and all(
        v.status == "PASS" and v.computed == "4" for v in girths
    )
    values1 = {v.instance: v for v in t2121 if v.aspect == "ddim"}
    values2 = {v.instance: v for v in t2122 if v.aspect == "ddim"}
    omegas = [v for v in t2122 if v.aspect == "omega"]
    assert all(v.status == "PASS" and v.computed == "2" for v in omegas)
    shapes = [v for v in t2122 if v.aspect == "shape"]
    assert len(shapes) == len(pairs) and all(v.erratum_id == "E3" for v in shapes)
    for q1, q2 in pairs:
        key = f"q1={q1},q2={q2}"
        expect = str(q1 + q2 - 4)
        assert values1[key].status == "PASS" and values1[key].computed == expect
        assert values2[key].status == "PASS" and values2[key].computed == expect
    _report(8, f"both formulas give q1+q2-4 on {len(pairs)} field pairs; girth 4 and "
               f"omega 2 confirmed; E3 reproduced")


def test_acceptance_09_cut_vertex_entries():
    verdicts = verify_theorem("T2.3")
    assert len(verdicts) == 7
    for v in verdicts:
        assert v.status == "PASS" and v.computed in {"3", "5"}
    register_catalog_entry(
        CatalogEntry("testcvNOCUT", (3, 3), ("1", "r"), {(1, 1): (0, 0)},
                     cut_vertex_claim=True)
    )
    try:
        mixed = verify_theorem("T2.3", entries=["testcvNOCUT", "cvA1"])
        status = {v.instance: v.status for v in mixed}
        assert status["cat:testcvNOCUT"] == "INVALID_INSTANCE"
        assert status["cat:cvA1"] == "PASS"
    finally:
        unregister_catalog_entry("testcvNOCUT")
    _report(9, "all seven reconstructions validate with ddim in {3,5}; failed "
               "validation reports INVALID_INSTANCE")


def test_acceptance_10_property_suite():
    rng = random.Random(20260809)
    graphs = [
        oracles.random_connected_graph(rng, rng.randint(2, 9)) for _ in range(220)
    ]
    superset_checks = 0
    for g in graphs:
        gamma = domination_number(g)
        dim = metric_dimension(g)
        ddim = dominant_metric_dimension(g)
        # (a) twin-reduced solver equals unpruned brute force, value and
        # lex-least witness
        assert (gamma.value, gamma.witness) == oracles.brute_gamma(g)
        assert (dim.value, dim.witness) == oracles.brute_dim(g)
        assert (ddim.value, ddim.witness) == oracles.brute_ddim(g)
        # (b) sandwich bound
        assert max(dim.value, gamma.value) <= ddim.value <= dim.value + gamma.value
        # (c) witness re-verification
        assert is_dominating(g, gamma.witness)
        assert is_resolving(g, dim.witness)
        assert is_resolving(g, ddim.witness) and is_dominating(g, ddim.witness)
        # twin classes partition the vertices
        part = twin_classes(g)
        assert sorted(v for c in part.classes for v in c) == list(range(g.order))
        # (d) superset monotonicity
        while superset_checks < 1000 * (graphs.index(g) + 1) / len(graphs):
            extra = [v for v in range(g.order) if rng.random() < 0.5]
            assert is_dominating(g, sorted(set(gamma.witness) | set(extra)))
            assert is_resolving(g, sorted(set(dim.witness) | set(extra)))
            superset_checks += 1
    assert len(graphs) >= 200
    assert superset_checks >= 1000
    _report(10, f"{len(graphs)} random graphs: solver = brute force (3 quantities), "
                f"sandwich and witnesses hold, {superset_checks} supersets monotone")


def test_acceptance_11_full_suite():
    report_a = run_suite()
    report_b = run_suite()
    assert report_a.summary["FAIL"] == 0
    assert report_a.errata_ids == ("E1", "E2", "E3", "E4", "E5", "E6")
    assert report_a.exit_code == 0
    assert report_a.to_json(deterministic=True) == report_b.to_json(deterministic=True)
    assert report_a.to_text(deterministic=True) == report_b.to_text(deterministic=True)
    # `zdrlab verify run [--json] --deterministic` prints exactly these reports
    golden_json = (GOLDEN / "verify_run.json").read_text(encoding="utf-8")
    golden_text = (GOLDEN / "verify_run.txt").read_text(encoding="utf-8")
    assert report_a.to_json(deterministic=True) == golden_json
    assert report_a.to_text(deterministic=True) == golden_text
    _report(11, f"default run: {report_a.summary['PASS']} PASS, "
                f"{report_a.summary['ERRATUM']} ERRATUM (exactly E1..E6), 0 FAIL, "
                f"byte-identical across two deterministic runs and to the golden reports")
