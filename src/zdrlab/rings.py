"""Finite commutative rings with unity.

Rings are described by a small spec grammar (``Zn:6``, ``Zni:9``, ``GF:8``,
``prod:(Zn:2,GF:3)``, ``cat:Z3r.r2``) over a mixed-radix element indexing.
A ring is its spec, order, unity and moduli and, for a product, its two
factor rings; its labels are built on first use, and it holds no operation
table. Zero divisors come from a unit test per family, since in a finite
commutative ring every nonzero element is a unit or a zero divisor, and
``_associate_reps`` maps each element to a unit multiple of it, one rule
per family, so a graph evaluates one row per associate class. One kernel,
``_structure_totals``, evaluates the structure constants on the digits of
any elements: the zero products among the representatives (among all
elements, a chunk of rows at a time, for a catalog ring's non-units), the
products that square the non-units for the nilpotents, and the products
of one element for ``mul_of`` and ``annihilator``; the axiom check reads
the structure tensor of the basis elements. Addition is digit-wise modulo the
moduli; the one sum a program path takes, 1 + x for the local test,
moves digit 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

# The largest order of any ring or graph: ``build_ring`` checks every spec
# against it, and spec parsing a GF base or a Zpr.r2 order before factoring.
ORDER_CAP = 4096

class RingError(Exception):
    """Base class for ring spec and construction errors."""


class SpecSyntaxError(RingError):
    def __init__(self, text: str, pos: int, reason: str):
        super().__init__(f"bad ring spec at position {pos}: {reason} (in {text!r})")
        self.text = text
        self.pos = pos
        self.reason = reason


class OrderCapError(RingError):
    """Requested ring exceeds ``ORDER_CAP``."""


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


def _check_order(name: str, order: int) -> None:
    # Spec parsing calls this before factoring, so a huge GF or Zpr.r2 base
    # fails here instead of in trial division.
    if order > ORDER_CAP:
        raise OrderCapError(f"{name} has order {order}, above the cap {ORDER_CAP}")


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
    two factor rings in ``factors``. It holds no operation table: products
    come from the structure constants (``mul_of``). The labels are built on
    first access and cached; do not mutate them. Equality and hashing are
    by identity.
    """

    spec: RingSpec
    order: int
    one: int
    moduli: tuple[int, ...]
    factors: tuple["FiniteRing", ...] = ()

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every element's label, built on first access."""
        return tuple(self.labels_of(np.arange(self.order)))

    def labels_of(self, xs: np.ndarray | tuple[int, ...]) -> list[str]:
        """The labels of the elements at the indices ``xs``."""
        xs = np.asarray(xs)
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
        """The index of x * y, from the structure constants: no table is built."""
        for e in (x, y):
            if not 0 <= e < self.order:
                raise ValueError(f"element {e} out of range for ring of order {self.order}")
        return int(_products(self.spec, np.array([x]), np.array([y]))[0])

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


def build_ring(spec: RingSpec | str) -> FiniteRing:
    """Build the concrete ring for a spec (or spec string) of order at most
    ``ORDER_CAP``."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    _check_order(spec.to_text(), spec_order(spec))
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

    @cached_property
    def _sum_terms(self) -> tuple[type, tuple[tuple[tuple[int, int, int], ...], ...]]:
        """The dtype of the structure sums, and for each coordinate t the
        terms (i, j, w_t), w_t != 0, of basis[i] * basis[j] = sum_t w_t
        basis[t] over every ordered pair (i, j). The sums run in int32
        unless their largest possible value needs int64."""
        moduli = self.moduli
        k = len(moduli)
        unit = [tuple(int(t == i) for t in range(k)) for i in range(k)]
        consts = {
            (i, j): unit[i + j] if i == 0 or j == 0 else self.table[min(i, j), max(i, j)]
            for i in range(k)
            for j in range(k)
        }
        terms = tuple(
            tuple((i, j, w[t]) for (i, j), w in consts.items() if w[t]) for t in range(k)
        )
        largest = max(
            sum(w * (moduli[i] - 1) * (moduli[j] - 1) for i, j, w in coordinate)
            for coordinate in terms
        )
        return (np.int32 if largest <= np.iinfo(np.int32).max else np.int64), terms


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
            return _square_zero_entry(entry_id, p)
    return None


@lru_cache(maxsize=1024)
def _square_zero_entry(entry_id: str, p: int) -> CatalogEntry | None:
    """``Zpr.r2:p`` for a prime p, else None; cached like ``_family_entry``,
    so every read of one ring takes one entry and its ``_sum_terms``."""
    if _prime_power(p) != (p, 1):
        return None
    return CatalogEntry(entry_id, (p, p), ("1", "r"), {(1, 1): _z(2)},
                        note=f"Z{p} adjoin r with r^2 = 0")


def _structure_entry(spec: RingSpec) -> CatalogEntry:
    """A non-product spec as coefficients over a basis with fixed products."""
    if spec.family is Family.CATALOG:
        entry = _resolve_catalog(spec.catalog_id)
        if entry is None:
            raise CatalogError(f"unknown catalog id {spec.catalog_id!r}")
        return entry
    return _family_entry(spec.family, spec.n)


@lru_cache(maxsize=1024)
def _family_entry(family: Family, n: int) -> CatalogEntry:
    """The entry of ``Zn:n``, ``Zni:n`` or ``GF:n``. Cached: a ring, its
    labels, its zero products and each squaring read the entry, which
    keeps its ``_sum_terms``, and finding a GF modulus costs more than the
    rest of a small graph. Bounded, as every order up to the cap has an
    entry."""
    name = f"{family.value}:{n}"
    if family is Family.ZN:
        return CatalogEntry(name, (n,), ("1",), {})
    if family is Family.ZN_GAUSS:
        return CatalogEntry(name, (n, n), ("1", "i"), {(1, 1): (n - 1, 0)})
    return _gf_entry(n)


def _gf_entry(q: int) -> CatalogEntry:
    """GF(p^k) as Z_p adjoin a root w of the modulus; GF(p) is Z_p."""
    p, k = _prime_power(q)  # validated at parse time
    low = _gf_modulus(p, k) if k > 1 else ()
    # powers[d] = w**d, reduced by w**k = -sum(c_i w**i) for d >= k
    powers = [tuple(int(i == d) for i in range(k)) for d in range(k)]
    for _ in range(k, 2 * k - 1):
        prev = powers[-1]
        powers.append(tuple((s - prev[-1] * c) % p for s, c in zip((0,) + prev[:-1], low)))
    table = {(i, j): powers[i + j] for i in range(1, k) for j in range(i, k)}
    return CatalogEntry(f"GF:{q}", (p,) * k, ("1", "w", "w^2")[:k], table)


def _digits(moduli: tuple[int, ...], xs: np.ndarray) -> list[np.ndarray]:
    """The mixed-radix digits of the elements ``xs``, one array per digit.
    Elements are below the order, so what is left after the low digits is
    the last digit, and an element of ``Zn`` is its own digit."""
    digits = []
    for m in moduli[:-1]:
        xs, low = np.divmod(xs, m)
        digits.append(low)
    return digits + [xs]


def _structure_totals(spec: RingSpec, xs: np.ndarray, ys: np.ndarray) -> Iterator[tuple]:
    """For each coordinate t of a non-product ring, its modulus m_t, its
    place value and the unreduced sum of w_t * c_i(x) * c_j(y) over the
    structure constants basis[i] * basis[j] = sum_t w_t basis[t], on the
    digits of the broadcast index arrays ``xs`` and ``ys``.

    Coordinate t of x * y is that sum mod m_t. The sums run in int32 unless
    their largest possible value needs int64. Every scalar carries the
    dtype, so promotion is the same with or without NEP 50.
    """
    entry = _structure_entry(spec)
    dtype, terms = entry._sum_terms
    dx = [d.astype(dtype, copy=False) for d in _digits(entry.moduli, xs)]
    dy = [d.astype(dtype, copy=False) for d in _digits(entry.moduli, ys)]
    place = 1
    for m, coordinate in zip(entry.moduli, terms):
        total = sum((dx[i] * dtype(w) * dy[j] for i, j, w in coordinate), dtype(0))
        yield dtype(m), dtype(place), total
        place *= m


def _products(spec: RingSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The indices of x * y for the broadcast index arrays ``xs`` and ``ys``.

    A product ring multiplies componentwise, with (a, b) at a * |B| + b.
    """
    if spec.family is Family.PRODUCT:
        left, right = spec.children
        o2 = spec_order(right)
        return _products(left, xs // o2, ys // o2) * o2 + _products(right, xs % o2, ys % o2)
    # a floor division by a scalar is much faster than a remainder
    return sum((total - total // m * m) * place for m, place, total in _structure_totals(spec, xs, ys))


# Entries per row chunk of a zero-product block: a chunk's int32 sums take
# about 256 KB and stay in cache, where the temporaries of a whole block
# would be fresh pages, faulted in on every build.
_CHUNK_ENTRIES = 1 << 16


def _row_chunks(rows: int, cols: int) -> list[slice]:
    step = max(1, _CHUNK_ENTRIES // max(cols, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


# ---------------------------------------------------------------------------
# axioms and derived structure
# ---------------------------------------------------------------------------


def ring_axiom_failures(ring: FiniteRing) -> list[str]:
    """Check the commutative-ring axioms; returns failure descriptions.

    Exact at every order, and reads no table. Addition is digit-wise, so R
    is the group of the sums c_0 b_0 + .. + c_{k-1} b_{k-1} of its basis
    elements b_t with c_t modulo m_t, and products are keyed by the
    unordered pair, so multiplication is commutative. R is then a ring with
    unity ``one`` iff m_i (b_i b_j) = 0 for every i, j (else x = b_i and
    (m_i - 1) b_i sum to 0 while their products with b_j do not, and
    otherwise the product is bilinear), ``one`` b_j = b_j for every j, and
    (b_i b_j) b_l = b_i (b_j b_l) for every basis triple, all read off the
    int64 structure tensor T, T[i, j] the digits of b_i b_j, made once from
    the entry's structure constants. A product ring is one iff its factors are.
    """
    if ring.factors:
        return [failure for factor in ring.factors for failure in ring_axiom_failures(factor)]
    m = np.array(ring.moduli, dtype=np.int64)
    tensor = np.zeros((len(m),) * 3, dtype=np.int64)
    for t, coordinate in enumerate(_structure_entry(ring.spec)._sum_terms[1]):
        for i, j, w in coordinate:
            tensor[i, j, t] = w
    tensor %= m
    failures: list[str] = []
    if (tensor * m[:, None, None] % m).any():
        failures.append("distributivity fails")
    one = np.array(_digits(ring.moduli, np.array(ring.one)), dtype=np.int64)
    if not np.array_equal(np.einsum("a,ajt->jt", one, tensor) % m, np.eye(len(m), dtype=np.int64)):
        failures.append("designated unity is not a multiplicative identity")
    left = np.einsum("ija,alt->ijlt", tensor, tensor) % m
    if not np.array_equal(left, np.einsum("jla,iat->ijlt", tensor, tensor) % m):
        failures.append("multiplication not associative")
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

    From the primes p of n, with no test per element: x in Zn:n when some
    p divides it (``_zn_nonunits``); a + bi in Zni:n when some p divides
    its norm a^2 + b^2 (a unit exactly when a + bi is), that is a^2 = -b^2
    mod p, one equality table of the squares mod p; only 0 in a field;
    (a, b) in a product when a or b is; in a catalog ring, x with a nonzero
    partner y, x * y = 0, from the zero products of all elements, a chunk
    of rows at a time, each reduced as it is made.
    """
    spec = ring.spec
    if ring.factors:
        left, right = ring.factors
        return (_nonunits(left)[:, None] | _nonunits(right)[None, :]).ravel()
    if spec.family is Family.ZN:
        return _zn_nonunits(spec.n)
    if spec.family is Family.ZN_GAUSS:
        nonunit = np.zeros((spec.n, spec.n), dtype=bool)  # index b * n + a: rows b, columns a
        for p, _ in factorize(spec.n):
            square = np.arange(spec.n) % p
            square = square * square % p
            nonunit |= np.equal.outer((p - square) % p, square)
        return nonunit.ravel()
    if spec.family is Family.GF:
        return np.arange(ring.order) == 0
    xs = np.arange(ring.order)
    chunks = _row_chunks(ring.order, ring.order)
    nonunit = np.concatenate([_zero_rows(spec, xs[rows], xs[1:]).any(axis=1) for rows in chunks])
    nonunit[0] = True
    return nonunit


def _zn_nonunits(n: int) -> np.ndarray:
    """The non-units of Zn:n, the multiples of the primes p of n: every
    p-th element from 0."""
    nonunit = np.zeros(n, dtype=bool)
    for p, _ in factorize(n):
        nonunit[::p] = True
    return nonunit


def _associate_reps(spec: RingSpec, xs: np.ndarray) -> np.ndarray:
    """An associate u x (u a unit) of each element x of ``xs``, shared by
    the associates the family's rule sees: gcd(x, n) in Zn:n, 1 for x != 0
    in a field, the least index of c x and c i x over the units c of Z_n
    in Zni:n, componentwise in a product, x itself in a catalog ring. Since
    x u = 0 iff x = 0, x y = 0 iff the representatives multiply to 0.

    For x = a + bi in Zni:n, c x = ca + cb i and c i x = -cb + ca i (-1 is
    a unit c, so c i^2 x and c i^3 x add nothing), read from one table of
    c a mod n over the units c and the residues a; the row of the unit
    -c = n - c is the row of c in reverse order. Indices are below
    n^2 <= ``ORDER_CAP`` = 4096, so the table, the keys and their scalars
    are int16, which numpy promotes alike with or without NEP 50.
    """
    if spec.family is Family.PRODUCT:
        left, right = spec.children
        o2 = spec_order(right)
        return _associate_reps(left, xs // o2) * o2 + _associate_reps(right, xs % o2)
    n = spec.n
    if spec.family is Family.ZN:
        return np.gcd(xs, n) % n
    if spec.family is Family.GF:
        return np.minimum(xs, 1)
    if spec.family is Family.CATALOG:
        return xs
    n16 = np.int16(n)
    residues = np.arange(n, dtype=np.int16)
    table = residues[~_zn_nonunits(n), None] * residues  # (n - 1)^2 < 2^15
    table %= n16
    b, a = np.divmod(xs, n)
    key = table[:, b]
    key *= n16
    key += table[:, a]  # c x
    turned = table[:, a]
    turned *= n16
    turned += table[::-1, b]  # c i x
    np.minimum(key, turned, out=key)
    return key.min(axis=0)


def _zero_products(spec: RingSpec, xs: np.ndarray) -> np.ndarray:
    """The boolean block of x * y == 0 over the elements ``xs`` x ``xs``,
    with no table of the ring, computed a chunk of rows at a time.

    On a product, the AND of its factors' blocks, each computed on the
    distinct component indices and gathered, columns first. Otherwise a
    chunk of rows is one ``_zero_rows`` block.
    """
    n = len(xs)
    chunks = _row_chunks(n, n)
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
    block = np.empty((n, n), dtype=bool)
    for rows in chunks:
        block[rows] = _zero_rows(spec, xs[rows], xs)
    return block


def _zero_rows(spec: RingSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The block of x * y == 0 over ``xs`` x ``ys`` of a non-product spec:
    each coordinate's sum is tested for a multiple of its modulus."""
    zero = np.ones((len(xs), len(ys)), dtype=bool)
    for m, _, total in _structure_totals(spec, xs[:, None], ys):
        zero &= total // m * m == total
    return zero


def annihilator(ring: FiniteRing, x: int) -> tuple[int, ...]:
    """All y with x*y = 0; always contains 0. Builds no table."""
    if not 0 <= x < ring.order:
        raise ValueError(f"element {x} out of range for ring of order {ring.order}")
    products = _products(ring.spec, np.array([x]), np.arange(ring.order))
    return tuple(np.flatnonzero(products == 0).tolist())


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
    """Algebraic predicates from the unit test and the structure constants,
    with no table.

    R is local iff 1 + x is a unit for every non-unit x (Atiyah-Macdonald,
    Prop. 1.6). A product of two nonzero rings never is: (1, 0) and (0, 1)
    are non-units that sum to 1. In any other ring the unity is basis[0],
    so 1 + x only moves digit 0 of x. A unit is never nilpotent, so only
    the non-units are squared. If x is nilpotent, the ideals
    R > (x) > (x^2) > .. > (x^k) = 0 shrink strictly, each to at most half
    the last, so x^k = 0 for some k <= log2(order), and x is nilpotent iff
    x**(2**b) = 0 for 2**b >= k.
    """
    nonunit = _nonunits(ring)
    nonunits = np.flatnonzero(nonunit)
    power = nonunits
    for _ in range((ring.order.bit_length() - 1).bit_length()):
        power = _products(ring.spec, power, power)
    nilpotents = tuple(nonunits[power == 0].tolist())
    m = ring.moduli[0]
    low = nonunits % m
    return RingProps(
        is_field=len(nonunits) == 1,
        is_local=not ring.factors and not nonunit[nonunits - low + (low + 1) % m].any(),
        is_reduced=nilpotents == (0,),
        nilpotents=nilpotents,
    )
