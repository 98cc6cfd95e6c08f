"""Verification suite for recorded closed-form claims about zero-divisor
graphs and named families.

Each registry entry encodes one published claim (identified by ids such as
``T2.6`` or ``P2.1``) as a parameterized check. Claimed values are stored as
printed; the computed side always comes from the exact solver (or from closed
forms that the solver validates at smaller sizes, with the method recorded in
the note). A mismatch is reported as ERRATUM when it matches the known-errata
ledger, and as FAIL otherwise, so the suite is green exactly when every
discrepancy is a cataloged erratum.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable

from . import families as fam
from .graphs import (
    INF,
    EmptyGraphError,
    ZDGraph,
    build_zdgraph,
    graph_invariants,
)
from .rings import (
    CatalogError,
    FiniteRing,
    build_ring,
    cut_vertex_entry_ids,
    factorize,
    ring_properties,
    zero_divisors,
)
from .solver import Budget, QuantityResult, solve_dimensions

PASS = "PASS"
ERRATUM = "ERRATUM"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INVALID_INSTANCE = "INVALID_INSTANCE"

_STATUS_ORDER = (PASS, ERRATUM, FAIL, SKIPPED, INVALID_INSTANCE)


class UnknownClaimError(ValueError):
    pass


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    instance: str
    aspect: str
    claimed: str
    computed: str
    status: str
    erratum_id: str | None = None
    note: str = ""


@dataclass(frozen=True)
class ErrataEntry:
    """A known erratum and the failed verdicts it explains.

    A verdict matches when its theorem and aspect are listed, it carries
    ``tag`` and its claimed and computed values equal ``claimed`` and
    ``computed``; a field left as None matches anything.
    """

    erratum_id: str
    printed_claim: str
    computed_truth: str
    explanation: str
    theorems: frozenset[str]
    aspects: frozenset[str]
    tag: str | None = None
    claimed: object = None
    computed: object = None

    def matches(self, theorem_id: str, aspect: str, claimed, computed, tags) -> bool:
        return (
            theorem_id in self.theorems
            and aspect in self.aspects
            and (self.tag is None or self.tag in tags)
            and (self.claimed is None or claimed == self.claimed)
            and (self.computed is None or computed == self.computed)
        )


ERRATA: dict[str, ErrataEntry] = {
    "E1": ErrataEntry(
        "E1",
        "a 3-vertex path zero-divisor graph has dominant metric dimension 1",
        "exhaustive search gives 2: no single vertex both resolves and dominates P3",
        "affects the P3-shaped rings of P2.1, the 2^3 row of T2.6 and TAB1, "
        "the first row of TAB2, and the local-acyclic clause of T2.4",
        frozenset({"P2.1", "T2.6", "T2.4", "TAB1", "TAB2"}), frozenset({"ddim"}),
        tag="path3", claimed=1, computed=2,
    ),
    "E2": ErrataEntry(
        "E2",
        "paths with 1 or 2 vertices are exactly the graphs with dominant metric dimension 1",
        "the single-vertex graph has dominant metric dimension 0 by the stated convention",
        "the printed range n = 1, 2 of T6 conflicts with the single-vertex-zero convention",
        frozenset({"T6"}), frozenset({"ddim"}), tag="P1", computed=0,
    ),
    "E3": ErrataEntry(
        "E3",
        "for a reduced ring with ideals I1, I2 the graph is K_{|I1|,|I2|}",
        "the graph is K_{|I1|-1,|I2|-1}: the zero elements of the ideals are not vertices",
        "shape claim of T2122; the accompanying value formula |I1|+|I2|-2w is correct",
        frozenset({"T2122"}), frozenset({"shape"}),
    ),
    "E4": ErrataEntry(
        "E4",
        "Gaussian case p1*p2 (both 3 mod 4): Dim_d = p1^2 - p2^2 - 2w",
        "Dim_d = p1^2 + p2^2 - 4 (sign and omega-term errors in the printed formula)",
        "value claim of T2123 case 2",
        frozenset({"T2123"}), frozenset({"ddim"}), tag="case2",
    ),
    "E5": ErrataEntry(
        "E5",
        "the girth of a complete bipartite graph is 2",
        "girth 4: shortest cycles in K_{m,n} with m,n >= 2 are 4-cycles",
        "girth claim of T2123 case 3; the value 2p - gr evaluates correctly with gr = 4",
        frozenset({"T2123"}), frozenset({"girth"}), tag="case3", claimed=2, computed=4,
    ),
    "E6": ErrataEntry(
        "E6",
        "the pq row formulas apply to every pair of distinct primes",
        "for p = 2 the graph is a star: Dim_d is q-1 (not q-2) and the girth is undefined",
        "restriction of T2.6 / TAB1 pq rows to odd primes",
        frozenset({"T2.6", "TAB1"}), frozenset({"ddim", "girth"}), tag="even-pq",
    ),
}


def _verdict(
    theorem_id: str,
    instance: str,
    aspect: str,
    claimed,
    computed,
    *,
    claimed_text: str | None = None,
    computed_text: str | None = None,
    ok: bool | None = None,
    tags: Iterable[str] = (),
    note: str = "",
) -> TheoremVerdict:
    tagset = frozenset(tags)
    if ok is None:
        ok = claimed == computed
    if ok:
        status, erratum_id = PASS, None
    else:
        hits = [
            e.erratum_id
            for e in ERRATA.values()
            if e.matches(theorem_id, aspect, claimed, computed, tagset)
        ]
        if hits:
            status, erratum_id = ERRATUM, sorted(hits)[0]
        else:
            status, erratum_id = FAIL, None
    return TheoremVerdict(
        theorem_id=theorem_id,
        instance=instance,
        aspect=aspect,
        claimed=claimed_text if claimed_text is not None else str(claimed),
        computed=computed_text if computed_text is not None else str(computed),
        status=status,
        erratum_id=erratum_id,
        note=note,
    )


def _skip(theorem_id: str, instance: str, aspect: str, reason: str) -> TheoremVerdict:
    return TheoremVerdict(theorem_id, instance, aspect, "", "", SKIPPED, note=reason)


def _invalid(theorem_id: str, instance: str, reason: str) -> TheoremVerdict:
    return TheoremVerdict(
        theorem_id, instance, "hypotheses", "", "", INVALID_INSTANCE, note=reason
    )


# ---------------------------------------------------------------------------
# configuration and shared state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    only: tuple[str, ...] | None = None
    t26_max_n: int = 200
    field_orders: tuple[int, ...] = (3, 4, 5, 7, 8, 9)
    gauss_case1: tuple[int, ...] = (3, 7)
    gauss_case2: tuple[tuple[int, int], ...] = ((3, 7),)
    gauss_case3: tuple[int, ...] = (5, 13)
    table1_n: tuple[int, ...] = (4, 8, 9, 15, 21, 25, 35, 49, 77, 121)
    table2_primes: tuple[int, ...] = (2, 3, 5, 7)
    budget_ms: float | None = None
    budget_checks: int | None = None

    def budget(self) -> Budget:
        return Budget(max_ms=self.budget_ms, max_checks=self.budget_checks)


def load_suite_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    known = {f.name for f in fields(SuiteConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown suite config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return SuiteConfig(**kwargs)


class _Workbench:
    """Caches rings, graphs, and solver results for one suite run."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.budget = config.budget()
        self._rings: dict[str, FiniteRing] = {}
        self._graphs: dict[str, ZDGraph] = {}
        self._results: dict[tuple[str, str], QuantityResult] = {}

    def ring(self, spec_text: str) -> FiniteRing:
        if spec_text not in self._rings:
            self._rings[spec_text] = build_ring(spec_text)
        return self._rings[spec_text]

    def graph(self, spec_text: str) -> ZDGraph:
        if spec_text not in self._graphs:
            self._graphs[spec_text] = build_zdgraph(self.ring(spec_text))
        return self._graphs[spec_text]

    def solve(self, spec_text: str, which: str) -> QuantityResult:
        key = (spec_text, which)
        if key not in self._results:
            report = solve_dimensions(self.graph(spec_text), which, self.budget)
            self._results[key] = getattr(report, which)
        return self._results[key]

    def solve_graph(self, g: ZDGraph, which: str) -> QuantityResult:
        return getattr(solve_dimensions(g, which, self.budget), which)


def _shape_label(g: ZDGraph) -> str:
    fid = fam.recognize_family(g)
    if fid is not None:
        return fid.describe()
    return f"graph(V={g.order},E={g.size})"


def _is_path3(g: ZDGraph) -> bool:
    return fam.recognize_family(g) == fam.path(3)


def _is_star_centered(g: ZDGraph) -> tuple[bool, int]:
    """Star shape with >= 2 vertices; returns (ok, center)."""
    n = g.order
    if n < 2:
        return False, -1
    center = max(range(n), key=g.degree)
    ok = g.degree(center) == n - 1 and all(
        g.degree(v) == 1 for v in range(n) if v != center
    )
    return ok, center


# ---------------------------------------------------------------------------
# checks: prior family results T1-T6
# ---------------------------------------------------------------------------

def _family_ddim_check(
    theorem_id: str,
    wb: _Workbench,
    make: Callable[[int], fam.FamilyId],
    claim: Callable[[int], int],
    claim_text: Callable[[int], str],
    solver_sizes: Iterable[int],
    spot_sizes: Iterable[int],
) -> list[TheoremVerdict]:
    out = []
    for n in solver_sizes:
        fid = make(n)
        g = fam.generate_family(fid)
        computed = wb.solve_graph(g, "ddim").value
        out.append(
            _verdict(
                theorem_id,
                fid.describe(),
                "ddim",
                claim(n),
                computed,
                claimed_text=claim_text(n),
                note="exact solver",
            )
        )
    for n in spot_sizes:
        fid = make(n)
        cf = fam.closed_form_dims(fid)
        if cf.ddim is None:
            continue
        out.append(
            _verdict(
                theorem_id,
                fid.describe(),
                "ddim",
                claim(n),
                cf.ddim,
                claimed_text=claim_text(n),
                note="closed_form",
            )
        )
    return out


def _check_t1(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    sizes = params.get("sizes", range(7, 17))
    return _family_ddim_check(
        "T1",
        wb,
        fam.cycle,
        lambda n: math.ceil(n / 3),
        lambda n: f"gamma(C_{n}) = {math.ceil(n / 3)}",
        sizes,
        (21, 33, 45, 60),
    )


def _check_t2(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    sizes = params.get("sizes", range(2, 15))
    return _family_ddim_check(
        "T2",
        wb,
        fam.star,
        lambda n: n - 1,
        lambda n: f"n - 1 = {n - 1}",
        sizes,
        (25, 40, 60),
    )


def _dim_equals_ddim_check(
    theorem_id: str,
    wb: _Workbench,
    solved: Iterable[tuple[fam.FamilyId, int, str]],
    spots: Iterable[fam.FamilyId],
) -> list[TheoremVerdict]:
    """Claimed dim (exact solver) and dim = ddim (solver, then closed forms)."""
    out = []
    for fid, claimed, formula in solved:
        g = fam.generate_family(fid)
        dim = wb.solve_graph(g, "dim").value
        ddim = wb.solve_graph(g, "ddim").value
        out.append(
            _verdict(theorem_id, fid.describe(), "dim", claimed, dim,
                     claimed_text=f"{formula} = {claimed}", note="exact solver")
        )
        out.append(
            _verdict(theorem_id, fid.describe(), "ddim", dim, ddim,
                     claimed_text=f"dim = {dim}", note="exact solver")
        )
    for fid in spots:
        cf = fam.closed_form_dims(fid)
        out.append(
            _verdict(theorem_id, fid.describe(), "ddim", cf.dim, cf.ddim,
                     claimed_text=f"dim = {cf.dim}", note="closed_form")
        )
    return out


def _check_t3(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    pairs = params.get(
        "pairs",
        [(m, n) for m in range(2, 8) for n in range(m, 15 - m) if m + n <= 14],
    )
    return _dim_equals_ddim_check(
        "T3",
        wb,
        [(fam.complete_bipartite(m, n), m + n - 2, "m + n - 2") for m, n in pairs],
        [fam.complete_bipartite(2, 28), fam.complete_bipartite(10, 20)],
    )


def _check_t4(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    sizes = params.get("sizes", range(4, 17))
    return _family_ddim_check(
        "T4",
        wb,
        fam.path,
        lambda n: math.ceil(n / 3),
        lambda n: f"gamma(P_{n}) = {math.ceil(n / 3)}",
        sizes,
        (25, 40, 60),
    )


def _check_t5(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    sizes = params.get("sizes", range(2, 13))
    return _dim_equals_ddim_check(
        "T5",
        wb,
        [(fam.complete(n), n - 1, "n - 1") for n in sizes],
        [fam.complete(n) for n in (20, 40, 60)],
    )


def _check_t6(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for n in params.get("sizes", (1, 2)):
        g = fam.generate_family(fam.path(n))
        computed = wb.solve_graph(g, "ddim").value
        out.append(
            _verdict(
                "T6",
                f"P{n}",
                "ddim",
                1,
                computed,
                tags={f"P{n}"},
                note="printed equivalence range includes n = 1",
            )
        )
    return out


# ---------------------------------------------------------------------------
# checks: zero-divisor graph results
# ---------------------------------------------------------------------------

P21_RINGS = (
    "Zn:6",
    "Zn:8",
    "Zn:9",
    "prod:(Zn:2,Zn:2)",
    "cat:Z3r.r2",
    "cat:Z2r.r3",
    "cat:Z4r.2r_r2-2",
)

P22_RINGS = (
    "prod:(Zn:3,Zn:3)",
    "cat:Z2rs.rs2",
    "cat:F4r.r2",
    "cat:Z4r.r2+r+1",
    "cat:Z4r.ideal2r^2",
)

T21_DOMAINS = ("Zn:5", "Zn:7", "GF:4", "GF:9", "GF:27", "Zni:3", "Zni:7", "Zni:11")
T21_NON_DOMAINS = (
    "Zn:4",
    "Zn:6",
    "Zn:8",
    "Zn:9",
    "Zn:12",
    "Zni:2",
    "Zni:5",
    "Zni:9",
    "prod:(Zn:2,Zn:2)",
    "cat:Z3r.r2",
    "cat:Z2rs.rs2",
)

T22A_RINGS = ("Zn:9", "Zn:25", "Zn:49", "Zn:121", "cat:Z2rs.rs2")
T22B_RINGS = ("Zn:8", "Zn:16", "Zn:27", "cat:Z2r.r3", "cat:Z4r.2r_r2-2")

T24_LOCAL_ACYCLIC = ("Zn:9", "cat:Z3r.r2", "Zn:8", "cat:Z2r.r3", "cat:Z4r.2r_r2-2")

L2121_RINGS = ("Zn:9", "Zn:15", "Zn:25", "prod:(Zn:3,Zn:3)", "cat:Z2rs.rs2")


def _check_p21(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for spec in params.get("rings", P21_RINGS):
        g = wb.graph(spec)
        shape = _shape_label(g)
        is_path23 = shape in {"K2", "P3"}
        out.append(
            _verdict("P2.1", spec, "shape", "P2 or P3", shape,
                     ok=is_path23, note="path shape claim")
        )
        tags = {"path3"} if _is_path3(g) else set()
        computed = wb.solve(spec, "ddim").value
        out.append(_verdict("P2.1", spec, "ddim", 1, computed, tags=tags))
    return out


def _check_p22(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for spec in params.get("rings", P22_RINGS):
        g = wb.graph(spec)
        fid = fam.recognize_family(g)
        cycle_len = None
        if fid == fam.complete(3):
            cycle_len = 3
        elif fid == fam.complete_bipartite(2, 2):
            cycle_len = 4
        elif fid is not None and fid.kind is fam.FamilyKind.CYCLE:
            cycle_len = fid.n
        out.append(
            _verdict("P2.2", spec, "shape", "C_m with m <= 4",
                     f"C{cycle_len}" if cycle_len else _shape_label(g),
                     ok=cycle_len is not None and cycle_len <= 4)
        )
        out.append(_verdict("P2.2", spec, "ddim", 2, wb.solve(spec, "ddim").value))
    return out


def _check_t21(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for spec in params.get("domains", T21_DOMAINS):
        props = ring_properties(wb.ring(spec))
        try:
            wb.graph(spec)
            computed = "graph built"
            ok = False
        except EmptyGraphError:
            computed = "undefined (empty graph)"
            ok = props.is_integral_domain
        out.append(
            _verdict("T2.1", spec, "undefined-iff-domain", "undefined", computed, ok=ok)
        )
    for spec in params.get("non_domains", T21_NON_DOMAINS):
        value = wb.solve(spec, "ddim").value
        out.append(
            _verdict("T2.1", spec, "finite", "finite", f"finite ({value})", ok=True)
        )
    return out


def _check_t22(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for part, specs in [("a", params.get("rings_a", T22A_RINGS)),
                        ("b", params.get("rings_b", T22B_RINGS))]:
        for spec in specs:
            ring = wb.ring(spec)
            members = zero_divisors(ring).members
            nilp = set(ring_properties(ring).nilpotents)
            if not all(x in nilp for x in members):
                reason = "not every zero divisor is nilpotent"
            # part (a) covers L(R)^2 = 0, part (b) the rest
            elif all(ring.mul_of(x, y) == 0 for x in members for y in members):
                reason = None if part == "a" else "L(R)^2 = 0, belongs to part (a)"
            else:
                reason = "L(R)^2 != 0" if part == "a" else None
            if reason:
                out.append(_skip("T2.2", spec, f"part-{part}", reason))
            elif part == "a":
                g = wb.graph(spec)
                complete_shape = g.size == g.order * (g.order - 1) // 2
                note = "" if len(members) >= 3 else f"|L(R)| = {len(members)} below the stated 3"
                out.append(
                    _verdict("T2.2", spec, "shape", "complete", _shape_label(g),
                             ok=complete_shape, note=note)
                )
                out.append(
                    _verdict("T2.2", spec, "ddim", len(members) - 1,
                             wb.solve(spec, "ddim").value,
                             claimed_text=f"|L(R)| - 1 = {len(members) - 1}", note=note)
                )
            else:
                value = wb.solve(spec, "ddim").value
                out.append(
                    _verdict("T2.2", spec, "finite", "finite", f"finite ({value})", ok=True,
                             note="sanity check only; finiteness is immediate for finite graphs")
                )
    return out


def _check_t23(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for entry_id in params.get("entries", cut_vertex_entry_ids()):
        spec = f"cat:{entry_id}"
        instance = spec
        try:
            ring = wb.ring(spec)
        except CatalogError as exc:
            out.append(_invalid("T2.3", instance, f"axiom validation failed: {exc}"))
            continue
        try:
            g = wb.graph(spec)
        except EmptyGraphError:
            out.append(_invalid("T2.3", instance, "no zero divisors"))
            continue
        inv = graph_invariants(g)
        problems = []
        if g.order < 3:
            problems.append(f"|L(R)| = {g.order} < 3")
        if not inv.cut_vertices:
            problems.append("no cut vertex")
        if inv.degree_one_vertices:
            problems.append("has a degree-1 vertex")
        if problems:
            out.append(_invalid("T2.3", instance, "; ".join(problems)))
            continue
        computed = wb.solve(spec, "ddim").value
        out.append(
            _verdict("T2.3", instance, "ddim", "3 or 5", computed,
                     ok=computed in (3, 5), computed_text=str(computed))
        )
    return out


def _check_t24(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for q in params.get("field_orders", wb.config.field_orders):
        spec = f"prod:(Zn:2,GF:{q})"
        g = wb.graph(spec)
        ok, center = _is_star_centered(g)
        center_ok = ok and g.labels[center] == "(1,0)"
        out.append(
            _verdict("T2.4", spec, "shape",
                     f"K_1,{g.order - 1} with center (1,0)",
                     f"star with center {g.labels[center]}" if ok else _shape_label(g),
                     ok=center_ok)
        )
        out.append(
            _verdict("T2.4", spec, "ddim", g.order - 1, wb.solve(spec, "ddim").value,
                     claimed_text=f"|L(R)| - 1 = {g.order - 1}")
        )
    for spec in params.get("local_acyclic", T24_LOCAL_ACYCLIC):
        ring = wb.ring(spec)
        props = ring_properties(ring)
        g = wb.graph(spec)
        if not props.is_local or graph_invariants(g).girth != INF:
            out.append(_skip("T2.4", spec, "local-acyclic", "hypotheses not met"))
            continue
        tags = {"path3"} if _is_path3(g) else set()
        out.append(
            _verdict("T2.4", spec, "ddim", 1, wb.solve(spec, "ddim").value,
                     tags=tags, note="local ring with acyclic graph clause")
        )
    return out


def _t26_covered(n: int) -> tuple[str, int, int] | None:
    """Shape of n covered by T2.6 as (kind, p, q), with p < q and q = 0 for
    prime powers; None for any other n."""
    f = list(factorize(n))
    if len(f) == 1:
        p, e = f[0]
        if e == 1:
            return "prime", p, 0
        if e == 2:
            return "p2", p, 0
        if e == 3 and p == 2:
            return "eight", p, 0
        return None
    if len(f) == 2 and f[0][1] == 1 and f[1][1] == 1:
        p, q = f[0][0], f[1][0]
        return ("pq_even" if p == 2 else "pq"), p, q
    return None


def _zn_ddim_claim(kind: str, p: int, q: int) -> tuple[int, str, set[str], str]:
    """Printed ddim of Zn for a covered n that is not prime, as used by T2.6
    and TAB1: (value, claim text, erratum tags, note)."""
    if kind == "eight":
        return 1, "1", {"path3"}, ""
    if kind == "p2":
        return p - 2, f"p - 2 = {p - 2}", set(), ""
    text = f"p + q - 4 = {p + q - 4}"
    if kind == "pq":
        return p + q - 4, text, set(), ""
    return p + q - 4, text, {"even-pq"}, "printed pq formula applied at p = 2"


def _check_t26(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    ns = params.get("ns")
    if ns is None:
        # default grid: every covered n up to the bound
        ns = [n for n in range(2, wb.config.t26_max_n + 1) if _t26_covered(n)]
    for n in ns:
        cov = _t26_covered(n)
        instance = f"n={n}"
        if cov is None:
            out.append(_skip("T2.6", instance, "ddim", "n is not of a covered shape"))
            continue
        kind, p, q = cov
        if kind == "prime":
            try:
                wb.graph(f"Zn:{n}")
                out.append(_verdict("T2.6", instance, "ddim", "undefined", "graph built", ok=False))
            except EmptyGraphError:
                out.append(
                    _verdict("T2.6", instance, "ddim", "undefined",
                             "undefined (empty graph)", ok=True)
                )
            continue
        claimed, text, tags, note = _zn_ddim_claim(kind, p, q)
        out.append(
            _verdict("T2.6", instance, "ddim", claimed, wb.solve(f"Zn:{n}", "ddim").value,
                     claimed_text=text, tags=tags, note=note)
        )
    return out


def _field_pairs(wb: _Workbench, params: dict) -> list[tuple[int, int]]:
    orders = params.get("field_orders", wb.config.field_orders)
    return [(q1, q2) for q1 in orders for q2 in orders if q1 <= q2]


def _check_t2121(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for q1, q2 in _field_pairs(wb, params):
        if q1 < 3 or q2 < 3:
            out.append(_skip("T2121", f"q1={q1},q2={q2}", "ddim", "field orders must be >= 3"))
            continue
        spec = f"prod:(GF:{q1},GF:{q2})"
        instance = f"q1={q1},q2={q2}"
        girth = graph_invariants(wb.graph(spec)).girth
        out.append(_verdict("T2121", instance, "girth", 4,
                            "inf" if girth == INF else int(girth)))
        claimed = q1 + q2 - (girth if girth != INF else 0)
        out.append(
            _verdict("T2121", instance, "ddim", claimed, wb.solve(spec, "ddim").value,
                     claimed_text=f"|K1| + |K2| - gr = {claimed}")
        )
    return out


def _check_t2122(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for q1, q2 in _field_pairs(wb, params):
        if q1 < 3 or q2 < 3:
            out.append(_skip("T2122", f"q1={q1},q2={q2}", "ddim", "field orders must be >= 3"))
            continue
        spec = f"prod:(GF:{q1},GF:{q2})"
        instance = f"q1={q1},q2={q2}"
        g = wb.graph(spec)
        omega = graph_invariants(g).clique_number
        out.append(_verdict("T2122", instance, "omega", 2, omega))
        out.append(
            _verdict("T2122", instance, "shape", f"K{q1},{q2}", _shape_label(g))
        )
        claimed = q1 + q2 - 2 * omega
        out.append(
            _verdict("T2122", instance, "ddim", claimed, wb.solve(spec, "ddim").value,
                     claimed_text=f"|I1| + |I2| - 2*omega = {claimed}")
        )
    return out


def _check_l2121(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for spec in params.get("rings", L2121_RINGS):
        diam = graph_invariants(wb.graph(spec)).diameter
        if diam > 2:
            out.append(_skip("L2121", spec, "finite", f"diameter {diam} exceeds 2"))
            continue
        value = wb.solve(spec, "ddim").value
        out.append(
            _verdict("L2121", spec, "finite", "finite", f"finite ({value})", ok=True,
                     note="sanity check only")
        )
    return out


def _check_t2123(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    def prime_mod4(p: int, r: int) -> bool:
        # p is prime iff its least prime factor is p itself, once
        return next(factorize(p), None) == (p, 1) and p % 4 == r

    out = []
    for p in params.get("case1", wb.config.gauss_case1):
        instance = f"case=1,p={p}"
        if not prime_mod4(p, 3):
            out.append(_skip("T2123", instance, "ddim", "p must be a prime with p = 3 mod 4"))
            continue
        spec = f"Zni:{p * p}"
        g = wb.graph(spec)
        out.append(
            _verdict("T2123", instance, "shape", f"K{p * p - 1}", _shape_label(g))
        )
        out.append(
            _verdict("T2123", instance, "ddim", p * p - 2, wb.solve(spec, "ddim").value,
                     claimed_text=f"p^2 - 2 = {p * p - 2}")
        )
    for p1, p2 in params.get("case2", wb.config.gauss_case2):
        instance = f"case=2,p1={p1},p2={p2}"
        if not (prime_mod4(p1, 3) and prime_mod4(p2, 3) and p1 != p2):
            out.append(_skip("T2123", instance, "ddim",
                             "p1, p2 must be distinct primes with p = 3 mod 4"))
            continue
        spec = f"Zni:{p1 * p2}"
        g = wb.graph(spec)
        a, b = sorted((p1 * p1 - 1, p2 * p2 - 1))
        out.append(_verdict("T2123", instance, "shape", f"K{a},{b}", _shape_label(g)))
        omega = graph_invariants(g).clique_number
        claimed = p1 * p1 - p2 * p2 - 2 * omega
        out.append(
            _verdict("T2123", instance, "ddim", claimed, wb.solve(spec, "ddim").value,
                     claimed_text=f"p1^2 - p2^2 - 2*omega = {claimed}",
                     tags={"case2"},
                     note=f"p1^2 + p2^2 - 4 = {p1 * p1 + p2 * p2 - 4} matches the computed value")
        )
    for p in params.get("case3", wb.config.gauss_case3):
        instance = f"case=3,p={p}"
        if not prime_mod4(p, 1):
            out.append(_skip("T2123", instance, "ddim", "p must be a prime with p = 1 mod 4"))
            continue
        spec = f"Zni:{p}"
        g = wb.graph(spec)
        out.append(_verdict("T2123", instance, "shape", f"K{p - 1},{p - 1}", _shape_label(g)))
        girth = graph_invariants(g).girth
        girth_val = "inf" if girth == INF else int(girth)
        out.append(
            _verdict("T2123", instance, "girth", 2, girth_val, tags={"case3"})
        )
        claimed = 2 * p - (girth if girth != INF else 0)
        out.append(
            _verdict("T2123", instance, "ddim", claimed, wb.solve(spec, "ddim").value,
                     claimed_text=f"2p - gr = {claimed}", tags={"case3"})
        )
    return out


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_text(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines) + "\n"


_TABLE1_COLUMNS = (
    "n", "V", "E", "diameter", "girth", "shape", "claimed_ddim", "computed_ddim", "status",
)


def _fmt_inv(value) -> str:
    return "undefined" if value == INF else str(int(value))


def _row_status(verdicts: Iterable[TheoremVerdict]) -> str:
    """Worst status of a table row's verdicts, with the id of the last
    erratum met before any FAIL."""
    worst = PASS
    erratum = ""
    for v in verdicts:
        if v.status == FAIL:
            worst = FAIL
        elif v.status == ERRATUM and worst != FAIL:
            worst = ERRATUM
            erratum = v.erratum_id or ""
    return worst if not erratum else f"{worst} {erratum}"


def _table1_entries(wb: _Workbench, n_list: Iterable[int]):
    """Per-n table rows plus their verdicts."""
    entries = []
    for n in sorted(set(n_list)):
        instance = f"n={n}"
        cov = _t26_covered(n)
        if cov is None:
            entries.append(((str(n),) + ("",) * 7 + ("UNSUPPORTED",),
                            [_skip("TAB1", instance, "row", "n is not of a covered shape")]))
            continue
        kind, p, q = cov
        if kind == "prime":
            try:
                wb.graph(f"Zn:{n}")
                row = (str(n), "?", "?", "?", "?", "?", "undefined", "graph built", FAIL)
                verdicts = [_verdict("TAB1", instance, "ddim", "undefined", "graph built", ok=False)]
            except EmptyGraphError:
                row = (str(n), "0", "0", "0", "undefined", "empty", "undefined", "undefined", PASS)
                verdicts = [_verdict("TAB1", instance, "ddim", "undefined", "undefined", ok=True)]
            entries.append((row, verdicts))
            continue
        g = wb.graph(f"Zn:{n}")
        inv = graph_invariants(g)
        shape = _shape_label(g)
        # printed structure columns per row shape
        if kind == "p2":
            if p == 2:
                expected = (1, 0, 0, INF, "K1")
            elif p == 3:
                expected = (2, 1, 1, INF, "K2")
            else:
                expected = (p - 1, (p - 1) * (p - 2) // 2, 1, 3, f"K{p - 1}")
        elif kind == "eight":
            expected = (3, 2, 2, INF, "P3")
        elif kind == "pq":
            expected = (p + q - 2, (p - 1) * (q - 1), 2, 4, f"K{p - 1},{q - 1}")
        else:  # pq_even
            # the printed K_{q-1,p-1} shape degenerates to a star at p = 2
            star_label = fam.recognize_family(fam.generate_family(fam.star(q))).describe()
            expected = (q, q - 1, 2, 4, star_label)
        ev, ee, ed, eg, eshape = expected
        eddim, _, tags, _ = _zn_ddim_claim(kind, p, q)
        computed = wb.solve(f"Zn:{n}", "ddim").value
        verdicts = [
            _verdict("TAB1", instance, "V", ev, inv.order),
            _verdict("TAB1", instance, "E", ee, inv.size),
            _verdict("TAB1", instance, "diameter", ed,
                     INF if inv.diameter == INF else int(inv.diameter),
                     claimed_text=_fmt_inv(ed), computed_text=_fmt_inv(inv.diameter)),
            _verdict("TAB1", instance, "girth", eg,
                     INF if inv.girth == INF else int(inv.girth),
                     claimed_text=_fmt_inv(eg), computed_text=_fmt_inv(inv.girth),
                     tags=tags),
            _verdict("TAB1", instance, "shape", eshape, shape),
            _verdict("TAB1", instance, "ddim", eddim, computed, tags=tags),
        ]
        row = (
            str(n),
            str(inv.order),
            str(inv.size),
            _fmt_inv(inv.diameter),
            _fmt_inv(inv.girth),
            shape,
            str(eddim),
            str(computed),
            _row_status(verdicts),
        )
        entries.append((row, verdicts))
    return entries


def emit_table1(n_list: Iterable[int], config: SuiteConfig | None = None) -> Table:
    wb = _Workbench(config or SuiteConfig())
    rows = tuple(row for row, _ in _table1_entries(wb, n_list))
    return Table("dominant metric dimension of zero-divisor graphs of Zn",
                 _TABLE1_COLUMNS, rows)


def _check_tab1(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    n_list = params.get("ns", wb.config.table1_n)
    out = []
    for _, verdicts in _table1_entries(wb, n_list):
        out.extend(verdicts)
    return out


_TABLE2_COLUMNS = ("ring", "claimed", "dim", "ddim", "status")


def _table2_entries(wb: _Workbench):
    entries = []

    def add(spec: str, claimed: int, tags=()):
        dim = wb.solve(spec, "dim").value
        ddim = wb.solve(spec, "ddim").value
        verdicts = [
            _verdict("TAB2", spec, "dim", claimed, dim),
            _verdict("TAB2", spec, "ddim", claimed, ddim, tags=tags),
        ]
        row = (spec, f"dim = Dim_d = {claimed}", str(dim), str(ddim), _row_status(verdicts))
        entries.append((row, verdicts))

    for spec in P21_RINGS:
        tags = {"path3"} if _is_path3(wb.graph(spec)) else set()
        add(spec, 1, tags)
    for spec in P22_RINGS:
        add(spec, 2)
    for q1, q2 in _field_pairs(wb, {}):
        if q1 >= 3 and q2 >= 3:
            add(f"prod:(GF:{q1},GF:{q2})", q1 + q2 - 4)
    for p in wb.config.table2_primes:
        add(f"Zn:{p * p}", p - 2)
        add(f"cat:Zpr.r2:{p}", p - 2)
    return entries


def emit_table2(config: SuiteConfig | None = None) -> Table:
    wb = _Workbench(config or SuiteConfig())
    rows = tuple(row for row, _ in _table2_entries(wb))
    return Table("rings with equal metric and dominant metric dimension",
                 _TABLE2_COLUMNS, rows)


def _check_tab2(wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    out = []
    for _, verdicts in _table2_entries(wb):
        out.extend(verdicts)
    return out


# ---------------------------------------------------------------------------
# registry and suite
# ---------------------------------------------------------------------------

CLAIM_REGISTRY: dict[str, Callable[[_Workbench, dict], list[TheoremVerdict]]] = {
    "T1": _check_t1,
    "T2": _check_t2,
    "T3": _check_t3,
    "T4": _check_t4,
    "T5": _check_t5,
    "T6": _check_t6,
    "P2.1": _check_p21,
    "P2.2": _check_p22,
    "T2.1": _check_t21,
    "T2.2": _check_t22,
    "T2.3": _check_t23,
    "T2.4": _check_t24,
    "T2.6": _check_t26,
    "T2121": _check_t2121,
    "T2122": _check_t2122,
    "L2121": _check_l2121,
    "T2123": _check_t2123,
    "TAB1": _check_tab1,
    "TAB2": _check_tab2,
}


def verify_theorem(
    theorem_id: str, config: SuiteConfig | None = None, **params
) -> list[TheoremVerdict]:
    """Run a single registry check with optional parameter overrides."""
    check = CLAIM_REGISTRY.get(theorem_id)
    if check is None:
        raise UnknownClaimError(
            f"unknown claim id {theorem_id!r}; known: {', '.join(CLAIM_REGISTRY)}"
        )
    wb = _Workbench(config or SuiteConfig())
    return check(wb, params)


@dataclass(frozen=True)
class SuiteReport:
    verdicts: tuple[TheoremVerdict, ...]
    elapsed_ms: float

    @property
    def summary(self) -> dict[str, int]:
        counts = {status: 0 for status in _STATUS_ORDER}
        for v in self.verdicts:
            counts[v.status] += 1
        return counts

    @property
    def errata_ids(self) -> tuple[str, ...]:
        return tuple(sorted({v.erratum_id for v in self.verdicts if v.erratum_id}))

    @property
    def exit_code(self) -> int:
        return 3 if self.summary[FAIL] else 0

    def to_json(self, deterministic: bool = False) -> str:
        doc = {
            "verdicts": [
                {
                    "theorem": v.theorem_id,
                    "instance": v.instance,
                    "aspect": v.aspect,
                    "claimed": v.claimed,
                    "computed": v.computed,
                    "status": v.status,
                    "erratum": v.erratum_id,
                    "note": v.note,
                }
                for v in self.verdicts
            ],
            "summary": self.summary,
            "errata_hit": list(self.errata_ids),
            "elapsed_ms": 0.0 if deterministic else round(self.elapsed_ms, 3),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self, deterministic: bool = False) -> str:
        lines = ["claim verification report", "=" * 25]
        current = None
        for v in self.verdicts:
            if v.theorem_id != current:
                current = v.theorem_id
                lines.append(f"{current}:")
            mark = v.status if not v.erratum_id else f"{v.status} {v.erratum_id}"
            detail = f"claimed {v.claimed} | computed {v.computed}" if v.claimed else v.note
            lines.append(f"  [{mark}] {v.instance} {v.aspect}: {detail}")
            if v.note and v.claimed:
                lines.append(f"      note: {v.note}")
        lines.append("")
        summary = self.summary
        lines.append(
            "summary: " + ", ".join(f"{k}={summary[k]}" for k in _STATUS_ORDER)
        )
        lines.append("errata hit: " + (", ".join(self.errata_ids) or "none"))
        if not deterministic:
            lines.append(f"elapsed: {self.elapsed_ms:.0f} ms")
        return "\n".join(lines) + "\n"


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run the selected checks (all, by default) in registry order."""
    config = config or SuiteConfig()
    if config.only is not None:
        unknown = [i for i in config.only if i not in CLAIM_REGISTRY]
        if unknown:
            raise UnknownClaimError(f"unknown claim ids: {', '.join(unknown)}")
    start = time.monotonic()
    wb = _Workbench(config)
    verdicts: list[TheoremVerdict] = []
    for theorem_id, check in CLAIM_REGISTRY.items():
        if config.only is not None and theorem_id not in config.only:
            continue
        verdicts.extend(check(wb, {}))
    return SuiteReport(tuple(verdicts), (time.monotonic() - start) * 1000.0)
