import dataclasses
import json
import re

import pytest

from zdrlab import verify as verify_mod

from zdrlab.rings import (
    CatalogEntry,
    Family,
    FiniteRing,
    register_catalog_entry,
    unregister_catalog_entry,
)
from zdrlab.verify import (
    CLAIM_REGISTRY,
    ERRATA,
    SuiteConfig,
    UnknownClaimError,
    emit_table1,
    emit_table2,
    load_suite_config,
    run_suite,
    verify_theorem,
)


def by_aspect(verdicts, aspect):
    return [v for v in verdicts if v.aspect == aspect]


def test_t26_single_instance():
    (v,) = verify_theorem("T2.6", ns=[15])
    assert v.status == "PASS"
    assert v.claimed == "p + q - 4 = 4"
    assert v.computed == "4"


def test_t26_erratum_at_8_and_uncovered_skip():
    (v8,) = verify_theorem("T2.6", ns=[8])
    assert v8.status == "ERRATUM" and v8.erratum_id == "E1"
    (v12,) = verify_theorem("T2.6", ns=[12])
    assert v12.status == "SKIPPED"


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_t26_rejects_n_below_two(n):
    with pytest.raises(ValueError, match=f"Zn:{n} requires n >= 2"):
        verify_theorem("T2.6", ns=[n])


def test_t26_even_pq_restriction():
    (v,) = verify_theorem("T2.6", ns=[10])
    assert v.status == "ERRATUM" and v.erratum_id == "E6"
    assert v.computed == "4"  # star on 5 vertices


def test_p21_statuses():
    verdicts = verify_theorem("P2.1")
    ddims = by_aspect(verdicts, "ddim")
    assert len(ddims) == 7
    passes = {v.instance for v in ddims if v.status == "PASS"}
    errata = {v.instance for v in ddims if v.erratum_id == "E1"}
    assert passes == {"Zn:9", "prod:(Zn:2,Zn:2)", "cat:Z3r.r2"}
    assert errata == {"Zn:6", "Zn:8", "cat:Z2r.r3", "cat:Z4r.2r_r2-2"}
    assert all(v.status == "PASS" for v in by_aspect(verdicts, "shape"))


def test_p22_statuses():
    verdicts = verify_theorem("P2.2")
    assert all(v.status == "PASS" for v in verdicts)
    assert len(by_aspect(verdicts, "ddim")) == 5


def test_t21_both_directions():
    verdicts = verify_theorem("T2.1")
    assert all(v.status == "PASS" for v in verdicts)
    assert any(v.aspect == "undefined-iff-domain" for v in verdicts)
    assert any(v.aspect == "finite" for v in verdicts)


def test_t23_valid_entries():
    verdicts = verify_theorem("T2.3")
    assert len(verdicts) == 7
    for v in verdicts:
        assert v.status == "PASS"
        assert v.computed in {"3", "5"}


def test_t23_invalid_entries_isolated():
    register_catalog_entry(
        # axioms fail: char-2 unity with a mod-4 second coordinate
        CatalogEntry("testcvBAD", (2, 4), ("1", "r"), {(1, 1): (0, 0)},
                     cut_vertex_claim=True)
    )
    register_catalog_entry(
        # axioms pass but the graph is a single edge: hypotheses fail
        CatalogEntry("testcvSMALL", (3, 3), ("1", "r"), {(1, 1): (0, 0)},
                     cut_vertex_claim=True)
    )
    try:
        verdicts = verify_theorem("T2.3", entries=["testcvBAD", "testcvSMALL", "cvB2"])
        status = {v.instance: v.status for v in verdicts}
        assert status["cat:testcvBAD"] == "INVALID_INSTANCE"
        assert status["cat:testcvSMALL"] == "INVALID_INSTANCE"
        assert status["cat:cvB2"] == "PASS"
    finally:
        unregister_catalog_entry("testcvBAD")
        unregister_catalog_entry("testcvSMALL")


def test_t24_star_and_local_clause():
    verdicts = verify_theorem("T2.4")
    shapes = by_aspect(verdicts, "shape")
    assert len(shapes) == 6 and all(v.status == "PASS" for v in shapes)
    local = [v for v in verdicts if v.note.startswith("local ring")]
    assert {v.status for v in local} == {"PASS", "ERRATUM"}
    assert sum(1 for v in local if v.erratum_id == "E1") == 3


def test_t6_erratum_e2():
    verdicts = verify_theorem("T6")
    status = {v.instance: (v.status, v.erratum_id) for v in verdicts}
    assert status["P1"] == ("ERRATUM", "E2")
    assert status["P2"] == ("PASS", None)


def test_t2122_shape_erratum_e3():
    verdicts = verify_theorem("T2122", field_orders=[3, 4])
    shapes = by_aspect(verdicts, "shape")
    assert shapes and all(v.erratum_id == "E3" for v in shapes)
    values = by_aspect(verdicts, "ddim")
    assert values and all(v.status == "PASS" for v in values)
    omegas = by_aspect(verdicts, "omega")
    assert omegas and all(v.status == "PASS" for v in omegas)


def test_t2121_girth_and_value():
    verdicts = verify_theorem("T2121", field_orders=[3, 5])
    assert all(v.status == "PASS" for v in verdicts)


def test_t2121_skips_small_fields():
    verdicts = verify_theorem("T2121", field_orders=[2, 3])
    assert any(v.status == "SKIPPED" for v in verdicts)


def test_t2123_cases():
    verdicts = verify_theorem("T2123", case1=[3], case2=[(3, 7)], case3=[5])
    e4 = [v for v in verdicts if v.erratum_id == "E4"]
    e5 = [v for v in verdicts if v.erratum_id == "E5"]
    assert len(e4) == 1 and e4[0].computed == "54"
    assert len(e5) == 1 and e5[0].aspect == "girth"
    case1 = [v for v in verdicts if v.instance == "case=1,p=3"]
    assert {v.status for v in case1} == {"PASS"}
    # hypothesis-violating parameters are skipped, not guessed
    skipped = verify_theorem("T2123", case1=[5], case2=[(5, 7)], case3=[3])
    assert all(v.status == "SKIPPED" for v in skipped)


def test_unknown_claim_id():
    with pytest.raises(UnknownClaimError):
        verify_theorem("T9.9")
    with pytest.raises(UnknownClaimError):
        run_suite(SuiteConfig(only=("nope",)))


def test_emit_table1_rows():
    table = emit_table1([25, 8, 7, 12])
    rows = {row[0]: row for row in table.rows}
    assert rows["25"][1:6] == ("4", "6", "1", "3", "K4")
    assert rows["25"][8] == "PASS"
    assert rows["8"][6:9] == ("1", "2", "ERRATUM E1")
    assert rows["7"][8] == "PASS"
    assert rows["12"][8] == "UNSUPPORTED"
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0].startswith("n,V,E,diameter,girth")


def test_emit_table2_rows():
    table = emit_table2()
    rows = {row[0]: row for row in table.rows}
    assert rows["Zn:9"][4] == "PASS"
    assert rows["Zn:6"][4] == "ERRATUM E1"
    assert rows["prod:(GF:3,GF:3)"][1:4] == ("dim = Dim_d = 2", "2", "2")
    assert rows["Zn:25"][4] == "PASS"
    assert rows["cat:Zpr.r2:2"][2:4] == ("0", "0")


def test_run_suite_subset_and_exit_code():
    report = run_suite(SuiteConfig(only=("T1", "T5")))
    assert report.summary["FAIL"] == 0
    assert report.exit_code == 0
    assert {v.theorem_id for v in report.verdicts} == {"T1", "T5"}


def test_run_suite_deterministic_output():
    cfg = SuiteConfig(only=("P2.1", "T6", "TAB2"))
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.to_json(deterministic=True) == b.to_json(deterministic=True)
    assert a.to_text(deterministic=True) == b.to_text(deterministic=True)
    doc = json.loads(a.to_json(deterministic=True))
    assert doc["elapsed_ms"] == 0.0


def test_closed_form_spot_checks_recorded():
    verdicts = verify_theorem("T1")
    spot = [v for v in verdicts if v.note == "closed_form"]
    solved = [v for v in verdicts if v.note == "exact solver"]
    assert spot and solved
    assert all(v.status == "PASS" for v in spot)


def test_errata_ledger_is_complete_and_minimal():
    assert set(ERRATA) == {"E1", "E2", "E3", "E4", "E5", "E6"}
    report = run_suite(SuiteConfig(only=("P2.1", "T6", "T2122", "T2123", "T2.6")))
    assert report.errata_ids == ("E1", "E2", "E3", "E4", "E5", "E6")
    assert report.summary["FAIL"] == 0


def test_load_suite_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"only": ["T2.6"], "t26_max_n": 30}))
    config = load_suite_config(str(path))
    assert config.only == ("T2.6",)
    assert config.t26_max_n == 30
    report = run_suite(config)
    assert all(v.theorem_id == "T2.6" for v in report.verdicts)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(ValueError):
        load_suite_config(str(bad))


def test_unknown_override_key_names_the_accepted_keys():
    with pytest.raises(UnknownClaimError, match="nss; it accepts: ns"):
        verify_theorem("T2.6", nss=[15])
    with pytest.raises(UnknownClaimError, match="ns; it accepts: none"):
        verify_theorem("P2.1", ns=[15])
    with pytest.raises(UnknownClaimError, match="it accepts: case1, case2, case3"):
        verify_theorem("T2123", case4=[3])
    with pytest.raises(UnknownClaimError, match="sizes; it accepts: none"):
        verify_theorem("T1", sizes=[7])
    with pytest.raises(UnknownClaimError, match="it accepts: none"):
        verify_theorem("TAB2", field_orders=[3])
    (v,) = verify_theorem("TAB1", ns=[25])[-1:]
    assert v.aspect == "ddim" and v.status == "PASS"


@pytest.mark.parametrize("claim, key, value, expected", [
    ("T2.6", "ns", 15, "tuple[int, ...]"),
    ("T2.6", "ns", ["a"], "tuple[int, ...]"),
    ("T2.6", "ns", [15.0], "tuple[int, ...]"),
    ("TAB1", "ns", [True], "tuple[int, ...]"),
    ("T2121", "field_orders", 5, "tuple[int, ...]"),
    ("T2122", "field_orders", ["3"], "tuple[int, ...]"),
    ("T2.4", "field_orders", None, "tuple[int, ...]"),
    ("T2123", "case2", [3, 7], "tuple[tuple[int, int], ...]"),
    ("T2123", "case2", [(3, 7, 11)], "tuple[tuple[int, int], ...]"),
    ("T2123", "case3", 5, "tuple[int, ...]"),
    ("T2.3", "entries", "cvA1", "tuple[str, ...]"),
])
def test_override_value_of_the_wrong_type_names_the_key(claim, key, value, expected):
    message = f"override '{key}' for {claim} must be {expected}, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_theorem(claim, **{key: value})


def test_errata_ledger_names_claims_and_aspects_that_exist():
    # a renamed claim or aspect must not leave an erratum that can never match
    emitted = {}
    for v in run_suite().verdicts:
        emitted.setdefault(v.theorem_id, set()).add(v.aspect)
    for e in ERRATA.values():
        assert e.theorems <= set(CLAIM_REGISTRY), e.erratum_id
        for t in e.theorems:
            assert emitted[t] & e.aspects, (e.erratum_id, t)
        for aspect in e.aspects:
            assert any(aspect in emitted[t] for t in e.theorems), (e.erratum_id, aspect)


def test_claim_runner_calls_traceable_module_names(monkeypatch):
    # rows read rings, graphs, invariants and solver results through the
    # module's names at call time, so tools that rebind those names see them
    calls = {}
    names = ("build_ring", "build_zdgraph", "graph_invariants", "ring_properties",
             "zero_divisors", "solve_dimensions")
    for name in names:
        original = getattr(verify_mod, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify_mod, name, counted)
    for claim in ("T2.1", "T2.2", "T2.3", "T2.4", "TAB1"):
        verify_theorem(claim)
    assert set(calls) == set(names)


def test_suite_builds_no_ring_tables(monkeypatch):
    # properties, nilpotents, L(R)^2 = 0 and the axiom check of a catalog
    # ring come from the unit test and the structure constants: no ring of
    # the suite caches anything but its labels
    built = []
    original = verify_mod.build_ring

    def spy(*args, **kwargs):
        ring = original(*args, **kwargs)
        built.append(ring)
        return ring

    monkeypatch.setattr(verify_mod, "build_ring", spy)
    run_suite()
    assert built
    rings = list(built)
    for ring in rings:
        rings.extend(ring.factors)
    assert any(r.spec.family is Family.CATALOG for r in rings)
    kept = {f.name for f in dataclasses.fields(FiniteRing)} | {"labels"}
    cached = {r.name: sorted(set(r.__dict__) - kept) for r in rings}
    assert not any(cached.values()), cached
