"""Verification suite for recorded closed-form claims about zero-divisor
graphs and named families.

Claims are data. Each claim id (such as ``T2.6`` or ``P2.1``) is one or more
consecutive rows of ``_CLAIMS``, and one runner, ``_run_rows``, turns the
rows into verdicts. A row names its instances (a default, which the
``verify_theorem`` override under the row's key replaces), an optional gate
that reports an instance as SKIPPED or INVALID_INSTANCE instead of checking
it, and the aspects checked on every other instance. An aspect pairs a
computed field of the instance with the claimed value as printed. The
tables TAB1 and TAB2 are claims of rows too, laid out from their verdicts;
TAB1 shares T2.6's instances, gate and printed values.

The computed side always comes from the exact solver (or from closed forms
that the solver validates at smaller sizes, with the method recorded in the
note). A mismatch is reported as ERRATUM when it matches the known-errata
ledger, and as FAIL otherwise, so the suite is green exactly when every
discrepancy is a cataloged erratum.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

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
    _check_order,
    _zero_products,
    build_ring,
    cut_vertex_entry_ids,
    factorize,
    ring_properties,
    zero_divisors,
)
from .solver import Budget, solve_dimensions

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

    def __post_init__(self) -> None:
        self.budget()  # a NaN or negative cap raises ValueError

    def budget(self) -> Budget:
        return Budget(max_ms=self.budget_ms, max_checks=self.budget_checks)


def _fits(value, hint) -> bool:
    """Whether a value has the annotated type of a SuiteConfig field; a tuple
    is read from a list (as JSON gives it) or a tuple, and a float also from
    an integer."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if args:  # a union such as `int | None`
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool):
        return False
    return isinstance(value, hint) or (hint is float and isinstance(value, int))


def _expected(hint) -> str:
    return str(hint) if get_args(hint) else hint.__name__


def load_suite_config(path: str) -> SuiteConfig:
    """Read a JSON object of SuiteConfig fields. Raise ValueError for any
    other JSON value, an unknown key or a value of the wrong type."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"suite config must be a JSON object, not {type(raw).__name__}")
    hints = get_type_hints(SuiteConfig)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ValueError(f"unknown suite config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        hint = hints[key]
        if not _fits(value, hint):
            raise ValueError(f"suite config {key!r} must be {_expected(hint)}, "
                             f"not {json.dumps(value)}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return SuiteConfig(**kwargs)


# The SuiteConfig field whose instances each verify_theorem override key
# replaces; T2.3's `entries` (catalog ids) replaces none.
_OVERRIDE_FIELDS = {"ns": "table1_n", "field_orders": "field_orders", "case1": "gauss_case1",
                    "case2": "gauss_case2", "case3": "gauss_case3"}


def _override_type(key: str):
    field = _OVERRIDE_FIELDS.get(key)
    return get_type_hints(SuiteConfig)[field] if field else tuple[str, ...]


class _Workbench:
    """One suite run: its config, its budget, and each case field computed so
    far, keyed by field name and subject and shared by all cases."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.budget = config.budget()
        self.shared: dict[tuple[str, str | fam.FamilyId], object] = {}


# ---------------------------------------------------------------------------
# claim rows and their runner
# ---------------------------------------------------------------------------


class _Case:
    """One instance of a claim row: its verdict label, its subject, its
    parameters as attributes, and each field of _CASE_FIELDS, read from the
    workbench."""

    def __init__(self, wb: _Workbench, label: str, subject: str | fam.FamilyId, **params):
        self.wb = wb
        self.label = label
        self.subject = subject
        self.__dict__.update(params)

    def __getattr__(self, name: str):
        # reached only while `name` is not yet an attribute
        if name not in _CASE_FIELDS:
            raise AttributeError(name)
        key = (name, self.subject)
        if key not in self.wb.shared:
            self.wb.shared[key] = _CASE_FIELDS[name](self)
        setattr(self, name, self.wb.shared[key])
        return self.wb.shared[key]


def _shape_label(g: ZDGraph) -> str:
    fid = fam.recognize_family(g)
    if fid is not None:
        return fid.describe()
    return f"graph(V={g.order},E={g.size})"


def _is_empty(c: _Case) -> bool:
    try:
        c.graph
    except EmptyGraphError:
        return True
    return False


def _star_shape(c: _Case) -> str:
    """'star with center <label>' for a star on >= 2 vertices, else the shape."""
    g = c.graph
    if g.order >= 2:
        center = max(range(g.order), key=g.degree)
        if g.degree(center) == g.order - 1 and g.size == g.order - 1:
            return f"star with center {g.labels[center]}"
    return c.shape


# What a gate or an aspect reads of a case. A subject is a ring spec,
# standing for its zero-divisor graph, or a FamilyId. Every field depends on
# the subject alone, so the workbench computes it once per subject.
_CASE_FIELDS: dict[str, Callable[[_Case], object]] = {
    "ring": lambda c: build_ring(c.subject),
    "graph": lambda c: (fam.generate_family(c.subject) if isinstance(c.subject, fam.FamilyId)
                        else build_zdgraph(c.ring)),
    "empty": _is_empty,
    "dim": lambda c: solve_dimensions(c.graph, "dim", c.wb.budget).dim.value,
    "ddim": lambda c: solve_dimensions(c.graph, "ddim", c.wb.budget).ddim.value,
    "closed_dim": lambda c: fam.closed_form_dims(c.subject).dim,
    "closed_ddim": lambda c: fam.closed_form_dims(c.subject).ddim,
    "inv": lambda c: graph_invariants(c.graph),
    "omega": lambda c: c.inv.clique_number,
    "girth": lambda c: "inf" if c.inv.girth == INF else int(c.inv.girth),
    "gr": lambda c: 0 if c.inv.girth == INF else c.inv.girth,  # the printed formulas' gr
    "shape": lambda c: _shape_label(c.graph),
    "star": _star_shape,
    # C3 is recognized as K3 and C4 as K2,2
    "cycle": lambda c: {"K3": "C3", "K2,2": "C4"}.get(c.shape, c.shape),
    "path3": lambda c: {"path3"} if c.shape == "P3" else set(),  # the tag of erratum E1
    "zd": lambda c: zero_divisors(c.ring).members,
    "nilpotent": lambda c: set(c.zd) <= set(ring_properties(c.ring).nilpotents),
    "square_zero": lambda c: bool(_zero_products(c.ring.spec, np.array(c.zd, dtype=np.intp)).all()),
    "undefined": lambda c: "undefined (empty graph)" if c.empty else "graph built",
    "finite": lambda c: f"finite ({c.ddim})",
}


def _get(field, c: _Case):
    """A field given as a value or as a function of the case."""
    return field(c) if callable(field) else field


class _Aspect(NamedTuple):
    """One checked aspect: ``computed``, a case field name (the aspect's
    name by default) or a function of the case, against ``claimed``.
    ``claimed``, ``tags`` and ``note`` are values or functions of the case;
    ``text`` prints the claimed value as ``{}`` and may name case
    attributes. ``ok(case, computed)`` replaces the equality test.
    """

    name: str
    claimed: object
    text: str = "{}"
    computed: str | Callable[[_Case], object] | None = None
    tags: object = ()
    note: object = ""
    ok: Callable[[_Case, object], bool] | None = None


def _rings(wb: _Workbench, specs: Iterable[str]) -> Iterator[_Case]:
    return (_Case(wb, spec, spec) for spec in specs)


def _families(wb: _Workbench, fids: Iterable[fam.FamilyId]) -> Iterator[_Case]:
    return (_Case(wb, fid.describe(), fid, n=fid.n, m=fid.m) for fid in fids)


class _Row(NamedTuple):
    """Instances of a claim and the aspects checked on each (a tuple, or a
    function of the case). ``cases`` makes the instances from the
    ``verify_theorem`` override under ``key`` or else from ``default``, a
    value or a function of the SuiteConfig. A case for which ``gate`` gives
    a reason gets one SKIPPED verdict under the aspect ``skip``, or one
    INVALID_INSTANCE verdict when ``skip`` is None.
    """

    claim: str
    default: object
    aspects: tuple[_Aspect, ...] | Callable[[_Case], tuple[_Aspect, ...]]
    cases: Callable[[_Workbench, Iterable], Iterable[_Case]] = _rings
    key: str | None = None
    gate: Callable[[_Case], str | None] | None = None
    skip: str | None = None


def _aspect_verdict(theorem_id: str, c: _Case, a: _Aspect) -> TheoremVerdict:
    """PASS, else ERRATUM when a ledger entry explains the mismatch, else FAIL."""
    claimed = _get(a.claimed, c)
    computed = a.computed(c) if callable(a.computed) else getattr(c, a.computed or a.name)
    ok = claimed == computed if a.ok is None else a.ok(c, computed)
    tags = frozenset(_get(a.tags, c))
    hits = [] if ok else sorted(e.erratum_id for e in ERRATA.values()
                                if e.matches(theorem_id, a.name, claimed, computed, tags))
    status = PASS if ok else ERRATUM if hits else FAIL
    text = str(claimed) if a.text == "{}" else a.text.format(claimed, **vars(c))
    return TheoremVerdict(theorem_id, c.label, a.name, text, str(computed), status,
                          hits[0] if hits else None, _get(a.note, c))


def _case_verdicts(rows: tuple[_Row, ...], wb: _Workbench, params: dict):
    """The verdicts of each case of one claim's rows, in order."""
    keys = sorted(r.key for r in rows if r.key)
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise UnknownClaimError(
            f"unknown override keys for {rows[0].claim}: {', '.join(unknown)}; "
            f"it accepts: {', '.join(keys) or 'none'}"
        )
    for key, value in params.items():
        hint = _override_type(key)
        if not _fits(value, hint):
            raise ValueError(f"override {key!r} for {rows[0].claim} must be "
                             f"{_expected(hint)}, not {value!r}")
    for row in rows:
        source = params[row.key] if row.key in params else _get(row.default, wb.config)
        for c in row.cases(wb, source):
            reason = row.gate(c) if row.gate else None
            if not reason:
                yield [_aspect_verdict(row.claim, c, a) for a in _get(row.aspects, c)]
            else:
                status = INVALID_INSTANCE if row.skip is None else SKIPPED
                yield [TheoremVerdict(row.claim, c.label, row.skip or "hypotheses", "", "",
                                      status, note=reason)]


def _run_rows(rows: tuple[_Row, ...], wb: _Workbench, params: dict) -> list[TheoremVerdict]:
    return [v for verdicts in _case_verdicts(rows, wb, params) for v in verdicts]


# ---------------------------------------------------------------------------
# instances, gates and aspects shared between claims
# ---------------------------------------------------------------------------


def _field_pairs(wb: _Workbench, orders: Iterable[int]) -> Iterator[_Case]:
    """GF(q1) x GF(q2) for each pair of orders with q1 <= q2."""
    orders = list(orders)
    return (_Case(wb, f"q1={q1},q2={q2}", f"prod:(GF:{q1},GF:{q2})", q1=q1, q2=q2)
            for q1 in orders for q2 in orders if q1 <= q2)


def _small_fields(c: _Case) -> str | None:
    return "field orders must be >= 3" if c.q1 < 3 or c.q2 < 3 else None


class _ZnClaim(NamedTuple):
    """What T2.6 and TAB1 print for Zn: the shape of n and, unless n is
    prime, the claimed ddim with its text, erratum tags and note, and the
    TAB1 columns (V, E, diameter, girth, shape)."""

    kind: str
    ddim: int = 0
    text: str = ""
    tags: frozenset[str] = frozenset()
    note: str = ""
    columns: tuple = ()


def _zn_claim(n: int) -> _ZnClaim | None:
    """The claim on Zn, or None for an n of a shape T2.6 does not cover. An n
    below 2 raises ValueError, and one above the order cap OrderCapError,
    before n is factored."""
    if n < 2:
        raise ValueError(f"Zn:{n} requires n >= 2")
    _check_order(f"Zn:{n}", n)
    f = list(factorize(n))
    if len(f) == 1 and f[0][1] == 1:
        return _ZnClaim("prime")
    if len(f) == 1 and f[0][1] == 2:
        p = f[0][0]
        # the graph is K_{p-1}
        columns = (p - 1, (p - 1) * (p - 2) // 2, 0 if p == 2 else 1, INF if p <= 3 else 3,
                   f"K{p - 1}")
        return _ZnClaim("p2", p - 2, f"p - 2 = {p - 2}", columns=columns)
    if f == [(2, 3)]:
        return _ZnClaim("eight", 1, "1", frozenset({"path3"}), columns=(3, 2, 2, INF, "P3"))
    if len(f) == 2 and f[0][1] == f[1][1] == 1:
        (p, _), (q, _) = f
        text = f"p + q - 4 = {p + q - 4}"
        # the graph is K_{p-1,q-1}, which at p = 2 is a star, labelled in TAB1
        columns = (p + q - 2, (p - 1) * (q - 1), 2, 4, f"K{p - 1},{q - 1}" if p > 2 else None)
        if p > 2:
            return _ZnClaim("pq", p + q - 4, text, columns=columns)
        return _ZnClaim("pq_even", p + q - 4, text, frozenset({"even-pq"}),
                        "printed pq formula applied at p = 2", columns)
    return None


def _zn_cases(wb: _Workbench, ns: Iterable[int]) -> Iterator[_Case]:
    return (_Case(wb, f"n={n}", f"Zn:{n}", n=n, claim=_zn_claim(n)) for n in ns)


def _uncovered(c: _Case) -> str | None:
    return "n is not of a covered shape" if c.claim is None else None


def _cut_vertex_hypotheses(c: _Case) -> str | None:
    """T2.3's gate: a valid catalog ring whose graph has >= 3 vertices, a
    cut vertex and no degree-1 vertex."""
    try:
        c.ring
    except CatalogError as exc:
        return f"axiom validation failed: {exc}"
    if c.empty:
        return "no zero divisors"
    problems = []
    if c.graph.order < 3:
        problems.append(f"|L(R)| = {c.graph.order} < 3")
    if not c.inv.cut_vertices:
        problems.append("no cut vertex")
    if c.inv.degree_one_vertices:
        problems.append("has a degree-1 vertex")
    return "; ".join(problems)


def _nilpotent_gate(part: str) -> Callable[[_Case], str | None]:
    """T2.2's gate of part a (L(R)^2 = 0) or part b (L(R)^2 != 0); both
    need every zero divisor nilpotent."""

    def gate(c: _Case) -> str | None:
        if not c.nilpotent:
            return "not every zero divisor is nilpotent"
        if part == "a" and not c.square_zero:
            return "L(R)^2 != 0"
        if part == "b" and c.square_zero:
            return "L(R)^2 = 0, belongs to part (a)"
        return None

    return gate


def _below_three(c: _Case) -> str:
    return "" if len(c.zd) >= 3 else f"|L(R)| = {len(c.zd)} below the stated 3"


def _prime_mod4(c: _Case, p: int, r: int) -> bool:
    """Whether p is a prime with p = r mod 4. The case's ring is read
    first, and its build checks the order against the cap, so a huge p
    raises OrderCapError instead of running trial division."""
    c.ring
    # p is prime iff its least prime factor is p itself, once
    return next(factorize(p), None) == (p, 1) and p % 4 == r


def _fmt_inv(value) -> str:
    return "undefined" if value == INF else str(int(value))


def _finite(note: str = "") -> _Aspect:
    """ddim is finite: a sanity check, true of every finite graph."""
    return _Aspect("finite", "finite", ok=lambda c, v: True, note=note)


def _family_ddim(claim: str, make: Callable[[int], fam.FamilyId], solved: Iterable[int],
                 spots: Iterable[int], formula: Callable[[_Case], int],
                 text: str) -> tuple[_Row, _Row]:
    """Rows of a claim that ddim of the family member make(n) is formula:
    the exact solver on the sizes solved, closed forms on the sizes spots."""
    return (
        _Row(claim, [make(n) for n in solved],
             (_Aspect("ddim", formula, text, note="exact solver"),), _families),
        _Row(claim, [make(n) for n in spots],
             (_Aspect("ddim", formula, text, "closed_ddim", note="closed_form"),), _families),
    )


def _tab2_aspects(claimed, tags=()) -> tuple[_Aspect, _Aspect]:
    return _Aspect("dim", claimed), _Aspect("ddim", claimed, tags=tags)


# T3 and T5: ddim equals dim, from the exact solver and from closed forms.
_DDIM_IS_DIM = _Aspect("ddim", lambda c: c.dim, "dim = {}", note="exact solver")
_DDIM_IS_DIM_SPOT = _Aspect("ddim", lambda c: c.closed_dim, "dim = {}", "closed_ddim",
                            note="closed_form")

# T2.6 and TAB1: Zn for n prime has no graph; every other covered n has a printed ddim.
_ZN_UNDEFINED = _Aspect("ddim", "undefined", computed="undefined", ok=lambda c, v: c.empty)
_ZN_DDIM = _Aspect("ddim", lambda c: c.claim.ddim, "{claim.text}", tags=lambda c: c.claim.tags,
                   note=lambda c: c.claim.note)
_TAB1_PRIME = (_Aspect("ddim", "undefined", ok=lambda c, v: c.empty,
                       computed=lambda c: "undefined" if c.empty else "graph built"),)
_TAB1_COMPOSITE = (
    _Aspect("V", lambda c: c.claim.columns[0], computed=lambda c: c.inv.order),
    _Aspect("E", lambda c: c.claim.columns[1], computed=lambda c: c.inv.size),
    _Aspect("diameter", lambda c: _fmt_inv(c.claim.columns[2]),
            computed=lambda c: _fmt_inv(c.inv.diameter)),
    _Aspect("girth", lambda c: _fmt_inv(c.claim.columns[3]),
            computed=lambda c: _fmt_inv(c.inv.girth), tags=lambda c: c.claim.tags),
    # a missing shape is the star K_{1,q-1} of n = 2q
    _Aspect("shape", lambda c: c.claim.columns[4]
            or _shape_label(fam.generate_family(fam.star(c.n // 2)))),
    _Aspect("ddim", lambda c: c.claim.ddim, tags=lambda c: c.claim.tags),
)


# ---------------------------------------------------------------------------
# the claims
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

# Claims in registry order; consecutive rows with one id make up one claim.
_CLAIMS: tuple[_Row, ...] = (
    *_family_ddim("T1", fam.cycle, range(7, 17), (21, 33, 45, 60),
                  lambda c: math.ceil(c.n / 3), "gamma(C_{n}) = {}"),
    *_family_ddim("T2", fam.star, range(2, 15), (25, 40, 60), lambda c: c.n - 1, "n - 1 = {}"),
    _Row("T3", [fam.complete_bipartite(m, n) for m in range(2, 8) for n in range(m, 15 - m)],
         (_Aspect("dim", lambda c: c.m + c.n - 2, "m + n - 2 = {}", note="exact solver"),
          _DDIM_IS_DIM), _families),
    _Row("T3", [fam.complete_bipartite(2, 28), fam.complete_bipartite(10, 20)],
         (_DDIM_IS_DIM_SPOT,), _families),
    *_family_ddim("T4", fam.path, range(4, 17), (25, 40, 60),
                  lambda c: math.ceil(c.n / 3), "gamma(P_{n}) = {}"),
    _Row("T5", [fam.complete(n) for n in range(2, 13)],
         (_Aspect("dim", lambda c: c.n - 1, "n - 1 = {}", note="exact solver"), _DDIM_IS_DIM),
         _families),
    _Row("T5", [fam.complete(n) for n in (20, 40, 60)], (_DDIM_IS_DIM_SPOT,), _families),
    _Row("T6", [fam.path(1), fam.path(2)],
         (_Aspect("ddim", 1, tags=lambda c: {c.label},
                  note="printed equivalence range includes n = 1"),), _families),
    _Row("P2.1", P21_RINGS,
         (_Aspect("shape", "P2 or P3", ok=lambda c, v: v in {"K2", "P3"}, note="path shape claim"),
          _Aspect("ddim", 1, tags=lambda c: c.path3))),
    _Row("P2.2", P22_RINGS,
         (_Aspect("shape", "C_m with m <= 4", computed="cycle", ok=lambda c, v: v in {"C3", "C4"}),
          _Aspect("ddim", 2))),
    _Row("T2.1", T21_DOMAINS,
         (_Aspect("undefined-iff-domain", "undefined", computed="undefined",
                  ok=lambda c, v: c.empty and ring_properties(c.ring).is_integral_domain),)),
    _Row("T2.1", T21_NON_DOMAINS, (_finite(),)),
    _Row("T2.2", T22A_RINGS,
         (_Aspect("shape", "complete", note=_below_three,
                  ok=lambda c, v: c.graph.size == c.graph.order * (c.graph.order - 1) // 2),
          _Aspect("ddim", lambda c: len(c.zd) - 1, "|L(R)| - 1 = {}", note=_below_three)),
         gate=_nilpotent_gate("a"), skip="part-a"),
    _Row("T2.2", T22B_RINGS,
         (_finite("sanity check only; finiteness is immediate for finite graphs"),),
         gate=_nilpotent_gate("b"), skip="part-b"),
    _Row("T2.3", lambda cfg: cut_vertex_entry_ids(),
         (_Aspect("ddim", "3 or 5", ok=lambda c, v: v in (3, 5)),),
         lambda wb, entries: _rings(wb, [f"cat:{e}" for e in entries]),
         key="entries", gate=_cut_vertex_hypotheses),
    _Row("T2.4", lambda cfg: cfg.field_orders,
         (_Aspect("shape", lambda c: f"K_1,{c.graph.order - 1} with center (1,0)",
                  computed="star", ok=lambda c, v: v == "star with center (1,0)"),
          _Aspect("ddim", lambda c: c.graph.order - 1, "|L(R)| - 1 = {}")),
         lambda wb, qs: _rings(wb, [f"prod:(Zn:2,GF:{q})" for q in qs]), key="field_orders"),
    _Row("T2.4", T24_LOCAL_ACYCLIC,
         (_Aspect("ddim", 1, tags=lambda c: c.path3, note="local ring with acyclic graph clause"),),
         gate=lambda c: None if ring_properties(c.ring).is_local and c.inv.girth == INF
         else "hypotheses not met", skip="local-acyclic"),
    _Row("T2.6", lambda cfg: [n for n in range(2, cfg.t26_max_n + 1) if _zn_claim(n)],
         lambda c: (_ZN_UNDEFINED,) if c.claim.kind == "prime" else (_ZN_DDIM,),
         _zn_cases, key="ns", gate=_uncovered, skip="ddim"),
    _Row("T2121", lambda cfg: cfg.field_orders,
         (_Aspect("girth", 4),
          _Aspect("ddim", lambda c: c.q1 + c.q2 - c.gr, "|K1| + |K2| - gr = {}")),
         _field_pairs, key="field_orders", gate=_small_fields, skip="ddim"),
    _Row("T2122", lambda cfg: cfg.field_orders,
         (_Aspect("omega", 2),
          _Aspect("shape", lambda c: f"K{c.q1},{c.q2}"),
          _Aspect("ddim", lambda c: c.q1 + c.q2 - 2 * c.omega, "|I1| + |I2| - 2*omega = {}")),
         _field_pairs, key="field_orders", gate=_small_fields, skip="ddim"),
    _Row("L2121", L2121_RINGS, (_finite("sanity check only"),),
         gate=lambda c: f"diameter {c.inv.diameter} exceeds 2" if c.inv.diameter > 2 else None,
         skip="finite"),
    _Row("T2123", lambda cfg: cfg.gauss_case1,
         (_Aspect("shape", lambda c: f"K{c.p * c.p - 1}"),
          _Aspect("ddim", lambda c: c.p * c.p - 2, "p^2 - 2 = {}")),
         lambda wb, ps: (_Case(wb, f"case=1,p={p}", f"Zni:{p * p}", p=p) for p in ps),
         key="case1", skip="ddim",
         gate=lambda c: None if _prime_mod4(c, c.p, 3) else "p must be a prime with p = 3 mod 4"),
    _Row("T2123", lambda cfg: cfg.gauss_case2,
         (_Aspect("shape", lambda c: "K{},{}".format(*sorted((c.p1**2 - 1, c.p2**2 - 1)))),
          _Aspect("ddim", lambda c: c.p1**2 - c.p2**2 - 2 * c.omega,
                  "p1^2 - p2^2 - 2*omega = {}", tags={"case2"},
                  note=lambda c: f"p1^2 + p2^2 - 4 = {c.p1**2 + c.p2**2 - 4} "
                                 "matches the computed value")),
         lambda wb, pairs: (_Case(wb, f"case=2,p1={p1},p2={p2}", f"Zni:{p1 * p2}", p1=p1, p2=p2)
                            for p1, p2 in pairs),
         key="case2", skip="ddim",
         gate=lambda c: None if _prime_mod4(c, c.p1, 3) and _prime_mod4(c, c.p2, 3) and c.p1 != c.p2
         else "p1, p2 must be distinct primes with p = 3 mod 4"),
    _Row("T2123", lambda cfg: cfg.gauss_case3,
         (_Aspect("shape", lambda c: f"K{c.p - 1},{c.p - 1}"),
          _Aspect("girth", 2, tags={"case3"}),
          _Aspect("ddim", lambda c: 2 * c.p - c.gr, "2p - gr = {}", tags={"case3"})),
         lambda wb, ps: (_Case(wb, f"case=3,p={p}", f"Zni:{p}", p=p) for p in ps),
         key="case3", skip="ddim",
         gate=lambda c: None if _prime_mod4(c, c.p, 1) else "p must be a prime with p = 1 mod 4"),
    _Row("TAB1", lambda cfg: cfg.table1_n,
         lambda c: _TAB1_PRIME if c.claim.kind == "prime" else _TAB1_COMPOSITE,
         lambda wb, ns: _zn_cases(wb, sorted(set(ns))), key="ns", gate=_uncovered, skip="row"),
    _Row("TAB2", P21_RINGS, _tab2_aspects(1, tags=lambda c: c.path3)),
    _Row("TAB2", P22_RINGS, _tab2_aspects(2)),
    _Row("TAB2", lambda cfg: cfg.field_orders, _tab2_aspects(lambda c: c.q1 + c.q2 - 4),
         lambda wb, qs: (_Case(wb, c.subject, c.subject, q1=c.q1, q2=c.q2)
                         for c in _field_pairs(wb, qs) if not _small_fields(c))),
    _Row("TAB2", lambda cfg: cfg.table2_primes, _tab2_aspects(lambda c: c.p - 2),
         lambda wb, ps: (_Case(wb, spec, spec, p=p)
                         for p in ps for spec in (f"Zn:{p * p}", f"cat:Zpr.r2:{p}"))),
)


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


def _table1_row(verdicts: list[TheoremVerdict]) -> tuple[str, ...]:
    n = verdicts[0].instance.removeprefix("n=")
    if verdicts[0].status == SKIPPED:
        return (n,) + ("",) * 7 + ("UNSUPPORTED",)
    *columns, ddim = verdicts
    if columns:
        columns = [v.computed for v in columns]
    else:  # n prime: the claim holds when Zn has no graph
        columns = ("0", "0", "0", "undefined", "empty") if ddim.status == PASS else ("?",) * 5
    return (n, *columns, ddim.claimed, ddim.computed, _row_status(verdicts))


def _table2_row(verdicts: list[TheoremVerdict]) -> tuple[str, ...]:
    dim, ddim = verdicts
    return (dim.instance, f"dim = Dim_d = {dim.claimed}", dim.computed, ddim.computed,
            _row_status(verdicts))


def emit_table1(n_list: Iterable[int], config: SuiteConfig | None = None) -> Table:
    cases = _case_verdicts(_ROWS["TAB1"], _Workbench(config or SuiteConfig()),
                           {"ns": tuple(n_list)})
    return Table("dominant metric dimension of zero-divisor graphs of Zn",
                 ("n", "V", "E", "diameter", "girth", "shape", "claimed_ddim", "computed_ddim",
                  "status"),
                 tuple(_table1_row(verdicts) for verdicts in cases))


def emit_table2(config: SuiteConfig | None = None) -> Table:
    cases = _case_verdicts(_ROWS["TAB2"], _Workbench(config or SuiteConfig()), {})
    return Table("rings with equal metric and dominant metric dimension",
                 ("ring", "claimed", "dim", "ddim", "status"),
                 tuple(_table2_row(verdicts) for verdicts in cases))


# ---------------------------------------------------------------------------
# registry and suite
# ---------------------------------------------------------------------------

_ROWS: dict[str, tuple[_Row, ...]] = {
    claim: tuple(r for r in _CLAIMS if r.claim == claim)
    for claim in dict.fromkeys(r.claim for r in _CLAIMS)
}

CLAIM_REGISTRY: dict[str, Callable[[_Workbench, dict], list[TheoremVerdict]]] = {
    claim: partial(_run_rows, rows) for claim, rows in _ROWS.items()
}


def verify_theorem(
    theorem_id: str, config: SuiteConfig | None = None, **params
) -> list[TheoremVerdict]:
    """Run a single registry check with optional parameter overrides; an
    override key the claim does not accept raises UnknownClaimError."""
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
            raise UnknownClaimError(f"unknown claim ids: {', '.join(map(repr, unknown))}")
    start = time.monotonic()
    wb = _Workbench(config)
    verdicts: list[TheoremVerdict] = []
    for theorem_id, check in CLAIM_REGISTRY.items():
        if config.only is not None and theorem_id not in config.only:
            continue
        verdicts.extend(check(wb, {}))
    return SuiteReport(tuple(verdicts), (time.monotonic() - start) * 1000.0)
