"""Finite commutative rings with unity.

Rings are described by a small spec grammar (``Zn:6``, ``Zni:9``, ``GF:8``,
``prod:(Zn:2,GF:3)``, ``cat:Z3r.r2``) over a mixed-radix element indexing.
A ring holds its moduli and, for a product, its two factor rings; its
addition and multiplication tables and its labels are built on first use.
Zero divisors come from a unit test per family, since in a finite
commutative ring every nonzero element is a unit or a zero divisor, and the
zero products among a set of elements come from the structure constants on
their digits, so a zero-divisor graph needs no order x order table. Only a
catalog ring, whose tables its axiom check builds at once, is scanned.
Annihilators and the algebraic predicates are exact table scans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, reduce
from typing import Iterable, Iterator

import numpy as np

DEFAULT_ORDER_CAP = 4096

# Op tables are stored as uint16, so no cap may admit a larger order.
MAX_TABLE_ORDER = 1 << 16

# Exhaustive axiom checking is cubic in the order; above this we fall back to
# a seeded random sample of triples.
EXHAUSTIVE_AXIOM_LIMIT = 256


class RingError(Exception):
    """Base class for ring spec and construction errors."""


class SpecSyntaxError(RingError):
    def __init__(self, text: str, pos: int, reason: str):
        super().__init__(f"bad ring spec at position {pos}: {reason} (in {text!r})")
        self.text = text
        self.pos = pos
        self.reason = reason


class OrderCapError(RingError):
    """Requested ring exceeds the configured order cap."""


class CatalogError(RingError):
    """Unknown catalog id or a catalog ring that fails its axiom check."""


class Family(str, Enum):
    ZN = "Zn"
    ZN_GAUSS = "Zni"
    GF = "GF"
    PRODUCT = "prod"
    CATALOG = "cat"


@dataclass(frozen=True)
class RingSpec:
    """Symbolic description of a finite commutative ring."""

    family: Family
    n: int = 0
    children: tuple["RingSpec", ...] = ()
    catalog_id: str = ""

    def to_text(self) -> str:
        if self.family is Family.PRODUCT:
            left, right = self.children
            return f"prod:({left.to_text()},{right.to_text()})"
        if self.family is Family.CATALOG:
            return f"cat:{self.catalog_id}"
        return f"{self.family.value}:{self.n}"


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.^+-_:")


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring spec string; round-trips through :meth:`RingSpec.to_text`."""
    spec, pos = _parse_spec(text, 0)
    if pos != len(text):
        raise SpecSyntaxError(text, pos, "trailing input")
    return spec


def _parse_spec(text: str, pos: int) -> tuple[RingSpec, int]:
    # Longest-prefix order matters: "Zni:" before "Zn:".
    if text.startswith("Zni:", pos):
        n, pos = _parse_int(text, pos + 4)
        if n < 2:
            raise SpecSyntaxError(text, pos, "Zni requires n >= 2")
        return RingSpec(Family.ZN_GAUSS, n=n), pos
    if text.startswith("Zn:", pos):
        n, pos = _parse_int(text, pos + 3)
        if n < 2:
            raise SpecSyntaxError(text, pos, "Zn requires n >= 2")
        return RingSpec(Family.ZN, n=n), pos
    if text.startswith("GF:", pos):
        q, pos = _parse_int(text, pos + 3)
        _check_order(f"GF:{q}", q)
        pk = _prime_power(q)
        if pk is None:
            raise SpecSyntaxError(text, pos, f"GF base {q} is not a prime power")
        if pk[1] > 3:
            raise SpecSyntaxError(text, pos, f"GF exponent {pk[1]} exceeds 3")
        return RingSpec(Family.GF, n=q), pos
    if text.startswith("prod:(", pos):
        left, pos = _parse_spec(text, pos + 6)
        if pos >= len(text) or text[pos] != ",":
            raise SpecSyntaxError(text, pos, "expected ',' in product spec")
        right, pos = _parse_spec(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise SpecSyntaxError(text, pos, "expected ')' closing product spec")
        return RingSpec(Family.PRODUCT, children=(left, right)), pos + 1
    if text.startswith("cat:", pos):
        start = pos + 4
        end = start
        while end < len(text) and text[end] in _ID_CHARS and text[end] not in ",)":
            end += 1
        ident = text[start:end]
        if not ident:
            raise SpecSyntaxError(text, start, "empty catalog id")
        if _resolve_catalog(ident) is None:
            raise SpecSyntaxError(text, start, f"unknown catalog id {ident!r}")
        return RingSpec(Family.CATALOG, catalog_id=ident), end
    raise SpecSyntaxError(text, pos, "expected one of Zn:, Zni:, GF:, prod:(, cat:")


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    # ASCII digits only: str.isdigit also accepts superscripts and other
    # scripts' digits, which int() rejects or reads as ASCII.
    end = pos
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == pos:
        raise SpecSyntaxError(text, pos, "expected an integer")
    try:
        return int(text[pos:end]), end
    except ValueError:  # more digits than int() converts
        raise SpecSyntaxError(text, pos, f"integer of {end - pos} digits is too long") from None


def factorize(n: int) -> Iterator[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, smallest first.

    Lazy trial division: a caller that stops after the first pair pays only
    for finding the least prime factor. Yields nothing for n < 2.
    """
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
        p += 1
    if n > 1:
        yield n, 1


def _check_order(name: str, order: int, cap: int = MAX_TABLE_ORDER) -> None:
    # Spec parsing calls this before factoring, so a huge GF or Zpr.r2 base
    # fails here instead of in trial division.
    if order > cap:
        raise OrderCapError(f"{name} has order {order}, above the cap {cap}")


def _prime_power(q: int) -> tuple[int, int] | None:
    """Factor q as p**k with p prime, else None."""
    for p, k in factorize(q):
        return (p, k) if p**k == q else None
    return None


# ---------------------------------------------------------------------------
# concrete rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite commutative ring with unity over indexed elements.

    Elements are indices 0..order-1 with 0 the additive identity and
    ``one`` the unity (index 1 whenever the encoding allows). Element x has
    mixed-radix digits (x // prod(moduli[:t])) % moduli[t], little-endian,
    and addition is digit-wise modulo ``moduli``. A product ring keeps its
    two factor rings in ``factors``. The op tables and the labels are built
    on first access and cached; do not mutate them. Equality and hashing
    are by identity.
    """

    spec: RingSpec
    order: int
    one: int
    moduli: tuple[int, ...]
    factors: tuple["FiniteRing", ...] = ()

    @cached_property
    def add(self) -> np.ndarray:
        """Addition table, built from ``moduli`` on first access."""
        return _mixed_radix_add(self.moduli)

    @cached_property
    def mul(self) -> np.ndarray:
        """Multiplication table, uint16, built on first access."""
        if self.factors:
            return _product_mul(*self.factors)
        return _build_structure(_structure_entry(self.spec))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every element's label, built on first access."""
        return tuple(self.labels_of(np.arange(self.order)))

    def labels_of(self, xs: np.ndarray) -> list[str]:
        """The labels of the elements at the indices ``xs``."""
        if self.factors:
            left, right = self.factors
            a, b = left.labels, right.labels
            pairs = zip((xs // right.order).tolist(), (xs % right.order).tolist())
            return [f"({a[i]},{b[j]})" for i, j in pairs]
        basis = _structure_entry(self.spec).basis
        digits = [d.tolist() for d in _digits(self.moduli, xs)]
        return [_term_label(c, basis) for c in zip(*digits)]

    @property
    def name(self) -> str:
        return self.spec.to_text()

    def mul_of(self, x: int, y: int) -> int:
        for e in (x, y):
            if not 0 <= e < self.order:
                raise ValueError(f"element {e} out of range for ring of order {self.order}")
        return int(self.mul[x, y])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteRing({self.name}, order={self.order})"


def spec_order(spec: RingSpec) -> int:
    """Order of the ring a spec describes, without building it."""
    if spec.family is Family.ZN:
        return spec.n
    if spec.family is Family.ZN_GAUSS:
        return spec.n * spec.n
    if spec.family is Family.GF:
        return spec.n
    if spec.family is Family.PRODUCT:
        return spec_order(spec.children[0]) * spec_order(spec.children[1])
    return math.prod(_structure_entry(spec).moduli)


def build_ring(spec: RingSpec | str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Build the concrete ring for a spec (or spec string)."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    _check_order(spec.to_text(), spec_order(spec), min(max_order, MAX_TABLE_ORDER))
    return _ring(spec)


def _ring(spec: RingSpec) -> FiniteRing:
    """The ring of a spec within the cap; a product holds its factors."""
    if spec.family is Family.PRODUCT:
        left, right = factors = (_ring(spec.children[0]), _ring(spec.children[1]))
        ring = FiniteRing(
            spec, left.order * right.order, left.one * right.order + right.one,
            right.moduli + left.moduli, factors,
        )
    else:
        moduli = _structure_entry(spec).moduli
        ring = FiniteRing(spec, math.prod(moduli), 1, moduli)
    if spec.family is Family.CATALOG:
        failures = ring_axiom_failures(ring)
        if failures:
            raise CatalogError(
                f"catalog ring {spec.catalog_id!r} fails axioms: " + "; ".join(failures)
            )
    return ring


def _gf_modulus(p: int, k: int) -> tuple[int, ...]:
    """Low coefficients of the GF(p^k) modulus x**k + sum(c_i x**i), k in 2..3.

    The smallest coefficient tuple (little-endian) with no root; for k <= 3
    rootlessness is equivalent to irreducibility.
    """
    for code in range(p**k):
        low = tuple((code // p**i) % p for i in range(k))
        if all((a**k + sum(c * a**i for i, c in enumerate(low))) % p != 0 for a in range(p)):
            return low
    raise RingError(f"no irreducible polynomial found for GF({p}^{k})")  # pragma: no cover


def _term_label(coeffs: Iterable[int], basis: tuple[str, ...] | list[str]) -> str:
    parts = []
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        if b == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(b)
        else:
            parts.append(f"{c}{b}")
    return "+".join(parts) if parts else "0"


def _product_mul(r1: FiniteRing, r2: FiniteRing) -> np.ndarray:
    """Multiplication table of A x B with (a, b) at index a * |B| + b, so
    the mixed-radix moduli are B's followed by A's.

    The broadcast stays in uint16: every entry m_A * |B| + m_B is below the
    order, which build_ring has capped at MAX_TABLE_ORDER.
    """
    o2 = r2.order
    order = r1.order * o2
    mul = r1.mul[:, None, :, None] * np.uint16(o2) + r2.mul[None, :, None, :]
    return mul.reshape(order, order)


# ---------------------------------------------------------------------------
# structure-constant catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A ring given by a coefficient basis with fixed pairwise products.

    Elements are tuples (c0, .., c_{k-1}) with c_i modulo moduli[i]; basis[0]
    is the unity "1". ``table`` gives basis[i] * basis[j] for 1 <= i <= j as a
    coefficient tuple.  Entries flagged ``cut_vertex_claim`` additionally
    promise a zero-divisor graph with a cut vertex and no degree-1 vertex;
    that promise is validated by the verification suite, not at build time.
    Zn, Zni and GF specs are described by entries too (``_structure_entry``).
    """

    entry_id: str
    moduli: tuple[int, ...]
    basis: tuple[str, ...]
    table: dict[tuple[int, int], tuple[int, ...]]
    cut_vertex_claim: bool = False
    note: str = ""


def _z(k: int) -> tuple[int, ...]:
    return (0,) * k


_CATALOG: dict[str, CatalogEntry] = {}


def register_catalog_entry(entry: CatalogEntry) -> None:
    _CATALOG[entry.entry_id] = entry


def unregister_catalog_entry(entry_id: str) -> None:
    _CATALOG.pop(entry_id, None)


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def cut_vertex_entry_ids() -> tuple[str, ...]:
    return tuple(sorted(e for e, v in _CATALOG.items() if v.cut_vertex_claim))


for _entry in [
    CatalogEntry("Z3r.r2", (3, 3), ("1", "r"), {(1, 1): _z(2)},
                 note="Z3 adjoin r with r^2 = 0"),
    CatalogEntry("Z2r.r3", (2, 2, 2), ("1", "r", "r^2"),
                 {(1, 1): (0, 0, 1), (1, 2): _z(3), (2, 2): _z(3)},
                 note="Z2 adjoin r with r^3 = 0"),
    CatalogEntry("Z4r.2r_r2-2", (4, 2), ("1", "r"), {(1, 1): (2, 0)},
                 note="Z4 adjoin r with 2r = 0, r^2 = 2"),
    CatalogEntry("F4r.r2", (2, 2, 2, 2), ("1", "w", "r", "wr"),
                 {(1, 1): (1, 1, 0, 0), (1, 2): (0, 0, 0, 1), (1, 3): (0, 0, 1, 1),
                  (2, 2): _z(4), (2, 3): _z(4), (3, 3): _z(4)},
                 note="GF(4) adjoin r with r^2 = 0; w generates GF(4)"),
    CatalogEntry("Z4r.r2+r+1", (4, 4), ("1", "r"), {(1, 1): (3, 3)},
                 note="Z4 adjoin r with r^2 + r + 1 = 0"),
    CatalogEntry("Z4r.ideal2r^2", (4, 2), ("1", "r"), {(1, 1): _z(2)},
                 note="Z4 adjoin r with 2r = 0, r^2 = 0"),
    CatalogEntry("Z2rs.rs2", (2, 2, 2), ("1", "r", "s"),
                 {(1, 1): _z(3), (1, 2): _z(3), (2, 2): _z(3)},
                 note="Z2 adjoin r, s with r^2 = s^2 = rs = 0"),
    # Cut-vertex entries, reconstructed from their printed presentations.
    CatalogEntry("cvA1", (2, 2, 2, 2), ("1", "r", "s", "rs"),
                 {(1, 1): _z(4), (1, 2): (0, 0, 0, 1), (1, 3): _z(4),
                  (2, 2): (0, 0, 0, 1), (2, 3): _z(4), (3, 3): _z(4)},
                 cut_vertex_claim=True,
                 note="Z2 adjoin r, s with r^2 = 0, s^2 = rs"),
    CatalogEntry("cvA2", (4, 4), ("1", "r"), {(1, 1): (0, 2)},
                 cut_vertex_claim=True,
                 note="Z4 adjoin r with r^2 = -2r"),
    CatalogEntry("cvA3", (4, 2, 2), ("1", "r", "s"),
                 {(1, 1): _z(3), (1, 2): (2, 0, 0), (2, 2): (2, 0, 0)},
                 cut_vertex_claim=True,
                 note="Z4 adjoin r, s with 2r = 2s = 0, r^2 = 0, rs = s^2 = 2"),
    CatalogEntry("cvA4", (8, 2), ("1", "r"), {(1, 1): (4, 0)},
                 cut_vertex_claim=True,
                 note="Z8 adjoin r with 2r = 0, r^2 = -4"),
    CatalogEntry("cvB1", (2, 2, 2, 2), ("1", "r", "s", "rs"),
                 {(1, 1): _z(4), (1, 2): (0, 0, 0, 1), (1, 3): _z(4),
                  (2, 2): _z(4), (2, 3): _z(4), (3, 3): _z(4)},
                 cut_vertex_claim=True,
                 note="Z2 adjoin r, s with r^2 = s^2 = 0"),
    CatalogEntry("cvB2", (4, 4), ("1", "r"), {(1, 1): _z(2)},
                 cut_vertex_claim=True,
                 note="Z4 adjoin r with r^2 = 0"),
    CatalogEntry("cvB3", (4, 2, 2), ("1", "r", "s"),
                 {(1, 1): _z(3), (1, 2): (2, 0, 0), (2, 2): _z(3)},
                 cut_vertex_claim=True,
                 note="Z4 adjoin r, s with 2r = 2s = 0, r^2 = s^2 = 0, rs = 2"),
]:
    register_catalog_entry(_entry)

_PARAM_PREFIX = "Zpr.r2:"


def _resolve_catalog(entry_id: str) -> CatalogEntry | None:
    entry = _CATALOG.get(entry_id)
    if entry is not None:
        return entry
    if entry_id.startswith(_PARAM_PREFIX):
        tail = entry_id[len(_PARAM_PREFIX):]
        if tail.isascii() and tail.isdigit():
            p = _parse_int(tail, 0)[0]
            _check_order(f"cat:{entry_id}", p * p)
            if _prime_power(p) == (p, 1):
                return CatalogEntry(entry_id, (p, p), ("1", "r"), {(1, 1): _z(2)},
                                    note=f"Z{p} adjoin r with r^2 = 0")
    return None


def _structure_entry(spec: RingSpec) -> CatalogEntry:
    """A non-product spec as coefficients over a basis with fixed products."""
    name = spec.to_text()
    if spec.family is Family.ZN:
        return CatalogEntry(name, (spec.n,), ("1",), {})
    if spec.family is Family.ZN_GAUSS:
        n = spec.n
        return CatalogEntry(name, (n, n), ("1", "i"), {(1, 1): (n - 1, 0)})
    if spec.family is Family.GF:
        return _gf_entry(spec.n)
    entry = _resolve_catalog(spec.catalog_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {spec.catalog_id!r}")
    return entry


@cache
def _gf_entry(q: int) -> CatalogEntry:
    """GF(p^k) as Z_p adjoin a root w of the modulus; GF(p) is Z_p.

    Cached: a ring, its labels and its zero products each read the entry,
    and finding the modulus costs more than the rest of a small graph."""
    p, k = _prime_power(q)  # validated at parse time
    low = _gf_modulus(p, k) if k > 1 else ()
    # powers[d] = w**d, reduced by w**k = -sum(c_i w**i) for d >= k
    powers = [tuple(int(i == d) for i in range(k)) for d in range(k)]
    for _ in range(k, 2 * k - 1):
        prev = powers[-1]
        powers.append(tuple((s - prev[-1] * c) % p for s, c in zip((0,) + prev[:-1], low)))
    table = {(i, j): powers[i + j] for i in range(1, k) for j in range(i, k)}
    return CatalogEntry(f"GF:{q}", (p,) * k, ("1", "w", "w^2")[:k], table)


def _build_structure(entry: CatalogEntry) -> np.ndarray:
    """Multiplication table of the ring an entry describes, as uint16,
    summed from one small table per term.

    Element x has coefficient (x // prod(moduli[:t])) % moduli[t] on basis[t],
    so index 1 is the unity. Coordinate t of x*y is the sum over basis pairs
    (i, j) of w_t * c_i(x) * c_j(y), reduced mod moduli[t], where
    basis[i] * basis[j] = sum_t w_t basis[t]. The term (i, j) depends on two
    digits only, so its table is moduli[i] x moduli[j] and lies on those two
    axes of the (x digits, y digits) tensor; for Zn it is the whole table.
    """
    moduli = entry.moduli
    return _mixed_radix_sum(moduli, (
        [_on_axes(moduli, i, j, _product_table(w[t], m, moduli[i], moduli[j]))
         for (i, j), w in _structure_constants(entry).items() if w[t]]
        for t, m in enumerate(moduli)
    )).astype(np.uint16, copy=False)


def _structure_constants(entry: CatalogEntry) -> dict[tuple[int, int], tuple[int, ...]]:
    """basis[i] * basis[j] as coefficients, for every ordered pair (i, j)."""
    k = len(entry.moduli)
    unit = [tuple(int(t == i) for t in range(k)) for i in range(k)]
    return {
        (i, j): unit[i + j] if i == 0 or j == 0 else entry.table[min(i, j), max(i, j)]
        for i in range(k)
        for j in range(k)
    }


def _fold_dtype(m: int):
    """The smallest unsigned dtype in which a sum of two residues mod m, and
    the wrap-around of that sum minus m, stay exact."""
    return np.uint16 if 2 * (m - 1) < 1 << 16 else np.uint32


def _fold_add(a: np.ndarray, b: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod m for residues a, b < m, broadcast, in their unsigned dtype,
    written to ``out`` when given.

    Where a + b < m, a + b - m wraps around to above a + b, so the minimum
    picks a + b; elsewhere it picks a + b - m.
    """
    total = np.add(a, b, out=out)
    return np.minimum(total, total - total.dtype.type(m), out=total)


def _product_table(w: int, m: int, rows: int, cols: int) -> np.ndarray:
    """w * a * b mod m for a < rows and b < cols, built by row doubling:
    rows [h, 2h) are rows [0, h) plus row h, and row 2h is row h doubled.
    Every sum is folded back below m in ``_fold_dtype(m)``; only the first
    row is computed in int64."""
    dtype = _fold_dtype(m)
    table = np.zeros((rows, cols), dtype)
    step = (np.arange(cols, dtype=np.int64) * (w % m) % m).astype(dtype)
    h = 1
    while h < rows:
        span = min(h, rows - h)
        _fold_add(table[:span], step, m, out=table[h:h + span])
        h *= 2
        if h < rows:
            step = _fold_add(step, step, m)
    return table


def _on_axes(moduli: tuple[int, ...], i: int, j: int, table: np.ndarray) -> np.ndarray:
    """A table over (digit i of x, digit j of y) as an array on those two axes
    of the (x digits, y digits) tensor, whose axes run most significant digit
    first so that it reshapes to order x order."""
    k = len(moduli)
    shape = [1] * (2 * k)
    shape[k - 1 - i] = moduli[i]
    shape[2 * k - 1 - j] = moduli[j]
    return table.reshape(shape)


def _mixed_radix_sum(moduli: tuple[int, ...], terms: Iterable[list[np.ndarray]]) -> np.ndarray:
    """The order x order table whose entry at (x, y) is the element with
    digit t equal to the sum, mod moduli[t], of coordinate t's terms there.

    Each term holds residues on some axes of the (x digits, y digits)
    tensor; the terms of all coordinates together span every axis. Each
    coordinate's sum is scaled by its place value in place, so a term may
    be overwritten. Entries stay below the order, which build_ring has
    capped at MAX_TABLE_ORDER, so none overflows.
    """
    total = None
    scale = 1
    for m, coordinate in zip(moduli, terms):
        digit = reduce(lambda a, b: _fold_add(a, b, m), coordinate)
        if scale > 1:
            digit *= digit.dtype.type(scale)
        total = digit if total is None else total + digit
        scale *= m
    return total.reshape(scale, scale)


def _digits(moduli: tuple[int, ...], xs: np.ndarray) -> list[np.ndarray]:
    """The mixed-radix digits of the elements ``xs``, one array per digit."""
    return [xs // math.prod(moduli[:t]) % m for t, m in enumerate(moduli)]


def _mixed_radix_add(moduli: tuple[int, ...]) -> np.ndarray:
    """Addition table of digit-wise sums modulo ``moduli``, as uint16: one
    term per coordinate, the addition table of its digit."""

    def residue_sums(m: int) -> np.ndarray:
        r = np.arange(m, dtype=_fold_dtype(m))
        return _fold_add(r[:, None], r, m)

    return _mixed_radix_sum(
        moduli, ([_on_axes(moduli, t, t, residue_sums(m))] for t, m in enumerate(moduli))
    ).astype(np.uint16, copy=False)


# ---------------------------------------------------------------------------
# axioms and derived structure
# ---------------------------------------------------------------------------


def ring_axiom_failures(ring: FiniteRing) -> list[str]:
    """Check the commutative-ring axioms; returns failure descriptions.

    Exhaustive over all triples for order <= EXHAUSTIVE_AXIOM_LIMIT, else a
    seeded random sample of triples.
    """
    A = ring.add.astype(np.intp)
    M = ring.mul.astype(np.intp)
    n = ring.order
    idx = np.arange(n)
    failures: list[str] = []
    if not np.array_equal(A, A.T):
        failures.append("addition not commutative")
    if not np.array_equal(M, M.T):
        failures.append("multiplication not commutative")
    if not np.array_equal(A[0], idx):
        failures.append("0 is not the additive identity")
    if not (A == 0).any(axis=1).all():
        failures.append("some element has no additive inverse")
    if not np.array_equal(M[ring.one], idx):
        failures.append("designated unity is not a multiplicative identity")
    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        if not np.array_equal(A[A, :], A[:, A]):
            failures.append("addition not associative")
        if not np.array_equal(M[M, :], M[:, M]):
            failures.append("multiplication not associative")
        left = M[:, A]
        right = A[M[:, :, None], M[:, None, :]]
        if not np.array_equal(left, right):
            failures.append("distributivity fails")
    else:
        rng = random.Random(0)
        for _ in range(20000):
            x = rng.randrange(n)
            y = rng.randrange(n)
            z = rng.randrange(n)
            if A[A[x, y], z] != A[x, A[y, z]]:
                failures.append("addition not associative (sampled)")
                break
            if M[M[x, y], z] != M[x, M[y, z]]:
                failures.append("multiplication not associative (sampled)")
                break
            if M[x, A[y, z]] != A[M[x, y], M[x, z]]:
                failures.append("distributivity fails (sampled)")
                break
    return failures


@dataclass(frozen=True)
class ZeroDivisorSet:
    """Nonzero zero divisors of a ring; :func:`annihilator` gives their partners."""

    members: tuple[int, ...]


def zero_divisors(ring: FiniteRing) -> ZeroDivisorSet:
    """Exact zero-divisor set, ordered by element index: the nonzero
    non-units, since in a finite commutative ring every nonzero element is
    a unit or a zero divisor."""
    return ZeroDivisorSet(members=tuple(np.flatnonzero(_nonunits(ring))[1:].tolist()))


def _nonunits(ring: FiniteRing) -> np.ndarray:
    """Whether each element is a non-unit (0 always is).

    x in Zn:n when gcd(x, n) > 1; a + bi in Zni:n when its norm a^2 + b^2,
    a unit exactly when a + bi is, shares a factor with n; only 0 in a
    field; (a, b) in a product when a or b is; in a catalog ring, x with a
    nonzero partner y, x * y = 0, found by a scan of the table.
    """
    spec = ring.spec
    if ring.factors:
        left, right = ring.factors
        return (_nonunits(left)[:, None] | _nonunits(right)[None, :]).ravel()
    if spec.family is Family.ZN:
        return np.gcd(np.arange(spec.n, dtype=np.int64), np.int64(spec.n)) > 1
    if spec.family is Family.ZN_GAUSS:
        a = np.arange(spec.n, dtype=np.int64) ** 2  # index b * n + a: rows b, columns a
        return (np.gcd(a[:, None] + a[None, :], np.int64(spec.n)) > 1).ravel()
    if spec.family is Family.GF:
        return np.arange(ring.order) == 0
    nonunit = (ring.mul == 0)[:, 1:].any(axis=1)
    nonunit[0] = True
    return nonunit


# Entries per row chunk of a zero-product block: a chunk's int32 sums take
# about 256 KB and stay in cache, where the temporaries of a whole block
# would be fresh pages, faulted in on every build.
_CHUNK_ENTRIES = 1 << 16


def _zero_products(spec: RingSpec, xs: np.ndarray) -> np.ndarray:
    """The boolean block of x * y == 0 over the elements ``xs`` x ``xs``,
    with no table of the ring, computed a chunk of rows at a time.

    On a product, the AND of its factors' blocks, each computed on the
    distinct component indices and gathered, columns first. Otherwise
    coordinate t of x * y is the sum over structure constants of
    w_t * c_i(x) * c_j(y), reduced mod moduli[t], on the digits of ``xs``;
    the sums run in int32 unless their largest possible value needs int64.
    Every scalar carries the dtype, so promotion is the same with or
    without NEP 50.
    """
    n = len(xs)
    step = max(1, _CHUNK_ENTRIES // n)
    chunks = [slice(lo, lo + step) for lo in range(0, n, step)]
    if spec.family is Family.PRODUCT:
        left, right = spec.children
        o2 = spec_order(right)
        gathers = []
        for child, part in ((left, xs // o2), (right, xs % o2)):
            distinct, at = np.unique(part, return_inverse=True)
            gathers.append((_zero_products(child, distinct).take(at, axis=1), at))
        (a, at_a), (b, at_b) = gathers
        block = np.empty((n, n), dtype=bool)
        for rows in chunks:
            np.logical_and(a.take(at_a[rows], axis=0), b.take(at_b[rows], axis=0), out=block[rows])
        return block
    entry = _structure_entry(spec)
    moduli = entry.moduli
    consts = _structure_constants(entry)
    largest = max(
        sum(w[t] * (moduli[i] - 1) * (moduli[j] - 1) for (i, j), w in consts.items())
        for t in range(len(moduli))
    )
    dtype = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
    digits = [d.astype(dtype) for d in _digits(moduli, xs)]
    block = np.ones((n, n), dtype=bool)
    for rows in chunks:
        for t, m in enumerate(moduli):
            total = sum(
                (np.multiply.outer(digits[i][rows] * dtype(w[t]), digits[j])
                 for (i, j), w in consts.items() if w[t]),
                dtype(0),
            )
            # a floor division by a scalar is much faster than a remainder
            block[rows] &= total // dtype(m) * dtype(m) == total
    return block


def annihilator(ring: FiniteRing, x: int) -> tuple[int, ...]:
    """All y with x*y = 0; always contains 0."""
    if not 0 <= x < ring.order:
        raise ValueError(f"element {x} out of range for ring of order {ring.order}")
    return tuple(int(y) for y in np.flatnonzero(ring.mul[x] == 0))


@dataclass(frozen=True)
class RingProps:
    is_field: bool
    is_local: bool
    is_reduced: bool
    nilpotents: tuple[int, ...]

    @property
    def is_integral_domain(self) -> bool:
        """A finite integral domain is a field, so this is ``is_field``."""
        return self.is_field


def ring_properties(ring: FiniteRing) -> RingProps:
    """Algebraic predicates, computed exhaustively from the tables."""
    zds = zero_divisors(ring)
    # In a finite commutative ring every element is 0, a unit, or a zero
    # divisor, so non-units are exactly {0} together with L(R).
    nonunits = np.zeros(ring.order, dtype=bool)
    nonunits[0] = True
    for x in zds.members:
        nonunits[x] = True
    nu_idx = np.flatnonzero(nonunits)
    closed = bool(nonunits[ring.add[np.ix_(nu_idx, nu_idx)]].all())

    # x is nilpotent iff x**(2**b) = 0 for 2**b >= order
    power = np.arange(ring.order, dtype=np.intp)
    for _ in range(max(1, ring.order.bit_length())):
        power = ring.mul[power, power].astype(np.intp)
    nilpotents = tuple(int(x) for x in np.flatnonzero(power == 0))

    return RingProps(
        is_field=not zds.members,
        is_local=closed,
        is_reduced=nilpotents == (0,),
        nilpotents=nilpotents,
    )
