import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from zdrlab.graphs import EmptyGraphError, build_zdgraph, graph_from_edges
from zdrlab.rings import (
    CatalogEntry,
    CatalogError,
    Family,
    RingSpec,
    annihilator,
    build_ring,
    catalog_ids,
    cut_vertex_entry_ids,
    factorize,
    parse_ring_spec,
    register_catalog_entry,
    ring_axiom_failures,
    ring_properties,
    spec_order,
    unregister_catalog_entry,
    zero_divisors,
)
from zdrlab.rings import FiniteRing, _associate_reps, _products, _zero_products

import oracles

AXIOM_CORPUS = [
    "Zn:2",
    "Zn:6",
    "Zn:8",
    "Zn:9",
    "Zn:12",
    "Zn:16",
    "Zni:2",
    "Zni:3",
    "Zni:4",
    "Zni:5",
    "Zni:9",
    "GF:4",
    "GF:8",
    "GF:9",
    "GF:25",
    "GF:27",
    "GF:49",
    "prod:(Zn:2,GF:3)",
    "prod:(Zn:4,Zn:4)",
    "prod:(Zn:2,prod:(Zn:2,Zn:2))",
    "cat:Zpr.r2:5",
    "cat:Zpr.r2:13",
] + [f"cat:{i}" for i in catalog_ids()]

# Specs whose op tables are pinned in golden/ring_tables.json: the axiom corpus
# plus large Zn/Zni tables, GF orders whose modulus comes from the fallback
# search, and a catalog ring above order 256.
TABLE_SPECS = AXIOM_CORPUS + [
    "Zn:2048",
    "Zni:45",
    "Zni:49",
    "GF:121",
    "GF:125",
    "GF:169",
    "GF:343",
    "GF:1331",
    "cat:Zpr.r2:17",
]

GOLDEN_TABLES = Path(__file__).parent / "golden" / "ring_tables.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digest(ring) -> dict:
    """Order, unity and sha256 of the add/mul table bytes and the labels."""
    add, mul = oracles.op_tables(ring)
    return {
        "order": ring.order,
        "one": ring.one,
        "add": _sha(add.tobytes()),
        "mul": _sha(mul.tobytes()),
        "labels": _sha("\n".join(ring.labels).encode()),
    }


@pytest.mark.parametrize("spec", AXIOM_CORPUS)
def test_ring_axioms_exhaustive(spec):
    ring = build_ring(spec)
    assert ring.order <= 256
    assert ring_axiom_failures(ring) == []


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_ring_tables_match_golden(spec):
    golden = json.loads(GOLDEN_TABLES.read_text(encoding="utf-8"))
    assert table_digest(build_ring(spec)) == golden[spec]


def test_cut_vertex_entries_present():
    assert cut_vertex_entry_ids() == ("cvA1", "cvA2", "cvA3", "cvA4", "cvB1", "cvB2", "cvB3")


def test_zero_divisors_examples():
    assert zero_divisors(build_ring("Zn:6")).members == (2, 3, 4)
    assert zero_divisors(build_ring("Zn:9")).members == (3, 6)
    assert zero_divisors(build_ring("Zni:3")).members == ()


def test_annihilator_examples():
    r6 = build_ring("Zn:6")
    assert annihilator(r6, 2) == (0, 3)
    assert annihilator(r6, 0) == (0, 1, 2, 3, 4, 5)
    assert annihilator(build_ring("Zn:8"), 4) == (0, 2, 4, 6)
    with pytest.raises(ValueError):
        annihilator(r6, 6)


def test_mul_of_rejects_elements_out_of_range():
    ring = build_ring("Zn:6")
    assert ring.mul_of(5, 5) == 1
    # neither -1 nor 6 is an element, though the digits of each give a product
    for x, y in [(-1, 5), (5, -1), (6, 1), (1, 6)]:
        with pytest.raises(ValueError, match="out of range"):
            ring.mul_of(x, y)


def test_annihilator_cache_matches():
    ring = build_ring("Zn:12")
    zds = zero_divisors(ring)
    for x in zds.members:
        assert len(annihilator(ring, x)) >= 2  # 0 plus a nonzero partner


@pytest.mark.parametrize("spec", ["Zn:2048", "Zni:45", "prod:(Zn:32,Zni:3)", "cat:cvA3"])
def test_mul_of_and_annihilator_build_no_table(spec):
    ring = build_ring(spec)
    xs = sorted({0, ring.one, ring.order - 1, *range(3, ring.order, max(1, ring.order // 37))})
    products = [[ring.mul_of(x, y) for y in xs] for x in xs]
    zeros = [annihilator(ring, x) for x in xs]
    mul = oracles.op_tables(ring)[1]
    assert products == mul[np.ix_(xs, xs)].tolist()
    assert zeros == [tuple(np.flatnonzero(mul[x] == 0).tolist()) for x in xs]


def test_nilpotent_self_annihilates():
    ring = build_ring("Zn:8")
    assert 4 in annihilator(ring, 4)  # 4*4 = 16 = 0 mod 8


def test_properties_examples():
    p9 = ring_properties(build_ring("Zn:9"))
    assert p9.is_local and not p9.is_reduced
    assert p9.nilpotents == (0, 3, 6)
    p22 = ring_properties(build_ring("prod:(Zn:2,Zn:2)"))
    assert p22.is_reduced and not p22.is_local and not p22.is_field
    assert ring_properties(build_ring("GF:4")).is_field
    assert ring_properties(build_ring("GF:27")).is_field


@pytest.mark.parametrize("p,expect_field", [(3, True), (7, True), (11, True), (19, True),
                                            (2, False), (5, False), (13, False), (17, False)])
def test_gaussian_prime_split(p, expect_field):
    # p = 3 mod 4 stays prime over the Gaussian integers; p = 1 mod 4 splits
    props = ring_properties(build_ring(f"Zni:{p}"))
    assert props.is_field == expect_field


def test_gaussian_multiplication():
    ring = build_ring("Zni:5")
    # (2+i)(2+4i) = 4 + 8i + 2i + 4i^2 = 0 + 10i = 0 mod 5
    x = 2 + 1 * 5
    y = 2 + 4 * 5
    assert ring.mul_of(x, y) == 0
    assert ring.labels[x] == "2+i"
    assert ring.labels[y] == "2+4i"
    # i^2 = -1
    i = 0 + 1 * 5
    assert ring.labels[ring.mul_of(i, i)] == "4"


def test_field_iff_no_zero_divisors():
    for spec in AXIOM_CORPUS:
        ring = build_ring(spec)
        props = ring_properties(ring)
        assert props.is_field == (not zero_divisors(ring).members)
        assert props.is_field == props.is_integral_domain
        assert props.is_reduced == (props.nilpotents == (0,))


def test_unity_at_index_one():
    for spec in ["Zn:6", "Zni:5", "GF:9", "cat:Z3r.r2", "cat:cvA4"]:
        assert build_ring(spec).one == 1


def test_catalog_structure_constants():
    ring = build_ring("cat:Z4r.2r_r2-2")
    assert ring.order == 8
    r = ring.labels.index("r")
    two = ring.labels.index("2")
    assert ring.mul_of(r, r) == two      # r^2 = 2
    assert oracles.op_tables(ring)[0][r, r] == 0  # 2r = 0
    ring = build_ring("cat:Z2r.r3")
    r = ring.labels.index("r")
    r2 = ring.labels.index("r^2")
    assert ring.mul_of(r, r) == r2
    assert ring.mul_of(r, r2) == 0


def test_catalog_labels():
    ring = build_ring("cat:Z3r.r2")
    assert ring.labels[0] == "0"
    assert ring.labels[1] == "1"
    assert "2+r" in ring.labels
    assert "2+2r" in ring.labels


def test_parametric_catalog():
    ring = build_ring("cat:Zpr.r2:5")
    assert ring.order == 25
    props = ring_properties(ring)
    assert props.is_local and not props.is_reduced
    assert len(zero_divisors(ring).members) == 4


def test_broken_catalog_entry_rejected():
    # char-2 constant with a mod-4 coefficient breaks distributivity
    register_catalog_entry(
        CatalogEntry("testBROKEN", (2, 4), ("1", "r"), {(1, 1): (0, 0)})
    )
    try:
        with pytest.raises(CatalogError):
            build_ring("cat:testBROKEN")
    finally:
        unregister_catalog_entry("testBROKEN")


def test_broken_catalog_entry_above_order_256_rejected():
    # a 2-torsion unity beside a basis element of order 4 breaks
    # distributivity, whatever the products, at order 296
    register_catalog_entry(
        CatalogEntry("testBROKEN296", (2, 4, 37), ("1", "r", "s"),
                     {(1, 1): (0, 0, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)})
    )
    try:
        with pytest.raises(CatalogError, match="distributivity fails"):
            build_ring("cat:testBROKEN296")
    finally:
        unregister_catalog_entry("testBROKEN296")


def test_large_catalog_ring_builds_no_table():
    # the axiom check reads the basis products, and the non-units come
    # from the zero-product block
    ring = build_ring("cat:Zpr.r2:61")
    assert len(zero_divisors(ring).members) == 60  # the nonzero multiples of r
    props = ring_properties(ring)
    assert props.is_local and not props.is_reduced and len(props.nilpotents) == 61


def test_catalog_nonunits_build_no_order_squared_block():
    # each chunk of rows of the zero products is reduced as it is made: the
    # whole boolean block of cat:Zpr.r2:61 (order 3,721) would take 13.8 MB
    tracemalloc.start()
    try:
        ring = build_ring("cat:Zpr.r2:61")
        zero_divisors(ring)
        ring_properties(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("spec", ["Zn:4096", "prod:(Zn:64,Zn:64)", "Zni:64", "cat:Zpr.r2:61"])
def test_ring_operations_build_no_order_squared_array(spec):
    # one uint16 order x order table of these rings takes 27.7 to 33.6 MB;
    # the unit test and the structure constants need none
    tracemalloc.start()
    try:
        ring = build_ring(spec)
        zero_divisors(ring)
        ring_properties(ring)
        assert ring_axiom_failures(ring) == []
        x = ring.order - 1
        annihilator(ring, x)
        ring.mul_of(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_gf_arithmetic():
    gf9 = build_ring("GF:9")
    # w^2 = -1 in GF(9) built from x^2 + 1
    w = gf9.labels.index("w")
    assert gf9.labels[gf9.mul_of(w, w)] == "2"
    gf8 = build_ring("GF:8")
    # every nonzero element invertible
    for x in range(1, 8):
        assert any(gf8.mul_of(x, y) == 1 for y in range(1, 8))


def test_product_ring_componentwise():
    ring = build_ring("prod:(Zn:2,GF:3)")
    assert ring.order == 6
    one0 = ring.labels.index("(1,0)")
    zero1 = ring.labels.index("(0,1)")
    assert ring.mul_of(one0, zero1) == 0
    assert ring.labels[ring.one] == "(1,1)"


def test_ring_equality_and_hash_are_identity():
    a, b = build_ring("Zn:6"), build_ring("Zn:6")
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_zero_divisor_set_is_frozen():
    zds = zero_divisors(build_ring("Zn:6"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        zds.members = ()


# factor pairs from small Zn, Zni, GF:4/8/9 and catalog entries, and products
# with a product factor on either side
PRODUCT_FACTORS = [
    ("Zn:2", "Zn:3"),
    ("Zn:4", "Zni:2"),
    ("Zni:3", "GF:4"),
    ("GF:8", "Zn:6"),
    ("GF:9", "cat:Z3r.r2"),
    ("cat:cvA2", "Zn:2"),
    ("cat:F4r.r2", "GF:4"),
    ("Zni:2", "cat:Z2rs.rs2"),
    ("prod:(Zn:2,GF:4)", "Zn:3"),
    ("Zn:3", "prod:(Zni:2,cat:Z3r.r2)"),
]


@pytest.mark.parametrize("a,b", PRODUCT_FACTORS)
def test_product_tables_match_gather_oracle(a, b):
    ring = build_ring(f"prod:({a},{b})")
    add, mul = oracles.product_tables(build_ring(a), build_ring(b))
    ring_add, ring_mul = oracles.op_tables(ring)
    assert np.array_equal(ring_mul, mul)
    assert np.array_equal(ring_add, add)


def _factors(ring):
    yield ring
    for factor in ring.factors:
        yield from _factors(factor)


@pytest.mark.parametrize(
    "spec",
    ["Zn:12", "Zni:49", "prod:(Zn:4,Zn:4)", "prod:(Zn:2,prod:(Zn:2,Zn:2))", "prod:(Zni:9,GF:4)"],
)
def test_graph_build_leaves_mul_unbuilt(spec):
    # the graph reads the unit test and the members' block, and the labels
    # of its members only: no ring of the product caches anything, its
    # labels included
    ring = build_ring(spec)
    build_zdgraph(ring)
    fields = {f.name for f in dataclasses.fields(FiniteRing)}
    for r in _factors(ring):
        assert set(r.__dict__) == fields, r.name


# every GF order the default cap admits; Zpr.r2:p up to order 121, which
# keeps the table-scan oracles of the tests below quick
_PRIME_POWERS = [q for q in range(2, 4097) if len(f := list(factorize(q))) == 1 and f[0][1] <= 3]
_ZPR_PRIMES = [2, 3, 5, 7, 11]


@st.composite
def ring_specs(draw, max_order: int = 4096, depth: int = 2):
    """Zn 2-400, Zni 2-40, GF, catalog and Zpr.r2 specs, and products of
    them nested up to ``depth`` deep, of order at most ``max_order``. The
    depth bound keeps out Boolean rings such as (Z_2)^11, whose twin-free
    graphs take seconds to build."""
    if depth and max_order >= 4 and draw(st.integers(min_value=0, max_value=2)) == 0:
        left = draw(ring_specs(max_order // 2, depth - 1))
        rest = max_order // spec_order(parse_ring_spec(left))
        return f"prod:({left},{draw(ring_specs(rest, depth - 1))})"
    leaves = [st.integers(min_value=2, max_value=min(400, max_order)).map(lambda n: f"Zn:{n}")]
    if max_order >= 4:
        leaves.append(st.integers(min_value=2, max_value=min(40, math.isqrt(max_order)))
                      .map(lambda n: f"Zni:{n}"))
        leaves.append(st.sampled_from([p for p in _ZPR_PRIMES if p * p <= max_order])
                      .map(lambda p: f"cat:Zpr.r2:{p}"))
    leaves.append(st.sampled_from([q for q in _PRIME_POWERS if q <= max_order])
                  .map(lambda q: f"GF:{q}"))
    catalog = [i for i in catalog_ids() if spec_order(parse_ring_spec(f"cat:{i}")) <= max_order]
    if catalog:
        leaves.append(st.sampled_from(catalog).map(lambda i: f"cat:{i}"))
    return draw(st.one_of(leaves))


@settings(max_examples=100, deadline=None)
@given(spec=ring_specs())
def test_table_free_graph_matches_table_scan(spec):
    # L(R) from the unit test and the graph from the members' block,
    # against a scan and a gather of the multiplication table
    ring = build_ring(spec)
    members = zero_divisors(ring).members
    if members:
        g = build_zdgraph(ring)
    else:
        with pytest.raises(EmptyGraphError):
            build_zdgraph(ring)
    assert members == oracles.zero_divisors(ring)
    if members:
        block = oracles.zero_block(ring, members)
        np.fill_diagonal(block, False)
        rows = np.packbits(block, axis=1, bitorder="little")
        assert g.adj == tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
        assert g.labels == tuple(ring.labels[x] for x in members)
        assert g.external_ids == members


def _full_block_graph(ring):
    """The zero-divisor graph from the whole members x members block of the
    multiplication table, labelled from the ring's labels."""
    members = oracles.zero_divisors(ring)
    edges = np.argwhere(np.triu(oracles.zero_block(ring, members), 1)).tolist()
    return graph_from_edges(
        len(members), edges, [ring.labels[x] for x in members], members, ring.name
    )


@settings(max_examples=150, deadline=None)
@given(spec=ring_specs(max_order=256))
def test_graph_on_associate_classes_matches_full_block(spec):
    # one block row per representative, gathered to the members, against
    # the build on the members' whole block
    ring = build_ring(spec)
    members = zero_divisors(ring).members
    if not members:
        event("integral domain")
        return
    g = build_zdgraph(ring)
    k = len(set(_associate_reps(ring.spec, np.array(members)).tolist()))
    event("k < n" if k < len(members) else "k = n")
    ref = _full_block_graph(build_ring(spec))
    assert g.adj == ref.adj
    assert g.classes == ref.classes
    assert [(row.typecode, bytes(row)) for row in g.dist] == [
        (row.typecode, bytes(row)) for row in ref.dist
    ]
    assert g.labels == ref.labels and g.external_ids == ref.external_ids
    assert g == ref


# the axiom corpus up to order 128, more Gaussian rings and products with
# Gaussian and field factors
ASSOCIATE_SPECS = [s for s in AXIOM_CORPUS if spec_order(parse_ring_spec(s)) <= 128] + [
    "Zni:6", "Zni:8", "Zni:10", "prod:(Zni:3,Zn:4)", "prod:(GF:4,Zni:5)", "prod:(Zn:6,GF:9)",
]


@pytest.mark.parametrize("spec", ASSOCIATE_SPECS)
def test_associate_reps_are_unit_multiples(spec):
    # each representative is u x for a unit u, by brute force over the
    # units of the table; the Zn, GF and product rules give one per class
    ring = build_ring(spec)
    mul = oracles.op_tables(ring)[1]
    units = np.flatnonzero((mul == ring.one).any(axis=1))
    reps = _associate_reps(ring.spec, np.arange(ring.order)).tolist()
    for x, rep in enumerate(reps):
        assert rep in mul[units, x], (x, rep)
    if "Zni" not in spec and "cat" not in spec:
        classes = {frozenset(mul[units, x].tolist()) for x in range(ring.order)}
        assert len(set(reps)) == len(classes)


def test_zero_product_sums_widen_past_int32():
    # 49729 = 223^2, so the product of two multiples of 223 is 0: the
    # graph on them is K_222, the block is all zero products with the
    # diagonal. Their digit products reach (222 * 223)^2, past int32.
    xs = np.arange(223, 49729, 223)
    spec = RingSpec(Family.ZN, n=49729)
    block = _zero_products(spec, xs)
    assert block.shape == (222, 222) and block.all()
    ys = np.array([1, 2, 222, 224, 49727, 49728])
    expected = [[x * y % 49729 for y in ys.tolist()] for x in xs.tolist()]
    assert _products(spec, xs[:, None], ys).tolist() == expected


@pytest.mark.parametrize("n", [46341, 46342])
def test_zero_products_at_the_int32_edge(n):
    # (n - 1)^2 is the largest sum: it just fits int32 for 46341, and the
    # sums for 46342 run in int64
    xs = np.array([1, 2, 3, 7, 9, 19, 271, n // 2, n // 3, n - 2, n - 1])
    spec = RingSpec(Family.ZN, n=n)
    block = _zero_products(spec, xs)
    expected = [[x * y % n == 0 for y in xs.tolist()] for x in xs.tolist()]
    assert block.tolist() == expected
    products = [[x * y % n for y in xs.tolist()] for x in xs.tolist()]
    assert _products(spec, xs[:, None], xs).tolist() == products


@st.composite
def structure_entries(draw):
    """A basis of 1 to 3 elements with coefficients modulo 2..7 and random
    products; associativity is not needed to build the tables."""
    moduli = tuple(draw(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=3)))
    k = len(moduli)
    table = {
        (i, j): tuple(draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
        for i in range(1, k)
        for j in range(i, k)
    }
    return CatalogEntry("testRANDOM", moduli, ("1", "r", "s")[:k], table)


@settings(max_examples=40, deadline=None)
@given(entry=structure_entries())
def test_structure_tables_match_digit_oracle(entry):
    # the ring is made directly, past build_ring's axiom check, which a
    # random entry may fail; the check on the basis fails exactly when the
    # check of every triple on the tables does, and only where it does
    register_catalog_entry(entry)
    try:
        spec = RingSpec(Family.CATALOG, catalog_id=entry.entry_id)
        ring = FiniteRing(spec, math.prod(entry.moduli), 1, entry.moduli)
        failures = ring_axiom_failures(ring)
        add_ref, mul_ref = oracles.structure_tables(entry)
        add, mul = oracles.op_tables(ring)
        assert mul.tolist() == mul_ref and add.tolist() == add_ref
        if ring.order <= 256:  # the table check is cubic
            reference = oracles.table_axiom_failures(ring)
            assert (failures == []) == (reference == [])
            assert set(failures) <= set(reference)
            event("ring" if not failures else "not a ring")
    finally:
        unregister_catalog_entry(entry.entry_id)


@settings(max_examples=100, deadline=None)
@given(spec=ring_specs(max_order=512))
def test_ring_properties_match_table_scan(spec):
    ring = build_ring(spec)
    props = ring_properties(ring)
    expected = oracles.ring_properties(build_ring(spec))
    assert (props.is_field, props.is_local, props.is_reduced, props.nilpotents) == expected
