"""Finite commutative rings with unity.

Rings are described by a small spec grammar (``Zn:6``, ``Zni:9``, ``GF:8``,
``prod:(Zn:2,GF:3)``, ``cat:Z3r.r2``) and materialized as full addition and
multiplication tables over a canonical element indexing, so that every
downstream computation (zero divisors, annihilators, algebraic predicates,
graph construction) is an exact table scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
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
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise SpecSyntaxError(text, pos, "expected an integer")
    return int(text[pos:end]), end


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


def _prime_power(q: int) -> tuple[int, int] | None:
    """Factor q as p**k with p prime, else None."""
    for p, k in factorize(q):
        return (p, k) if p**k == q else None
    return None


# ---------------------------------------------------------------------------
# concrete rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative ring with unity, materialized as op tables.

    Elements are indices 0..order-1 with 0 the additive identity and
    ``one`` the unity (index 1 whenever the encoding allows). Instances are
    immutable after construction; do not mutate the tables.
    """

    spec: RingSpec
    order: int
    add: np.ndarray
    mul: np.ndarray
    one: int
    labels: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.spec.to_text()

    def add_of(self, x: int, y: int) -> int:
        return int(self.add[x, y])

    def mul_of(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def elements(self) -> range:
        return range(self.order)

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
    entry = _resolve_catalog(spec.catalog_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {spec.catalog_id!r}")
    order = 1
    for m in entry.moduli:
        order *= m
    return order


def build_ring(spec: RingSpec | str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Build the concrete ring for a spec (or spec string)."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    order = spec_order(spec)
    cap = min(max_order, MAX_TABLE_ORDER)
    if order > cap:
        raise OrderCapError(f"{spec.to_text()} has order {order}, above the cap {cap}")
    if spec.family is Family.ZN:
        labels, add, mul, one = _build_zn(spec.n)
    elif spec.family is Family.ZN_GAUSS:
        labels, add, mul, one = _build_gauss(spec.n)
    elif spec.family is Family.GF:
        labels, add, mul, one = _build_gf(spec.n)
    elif spec.family is Family.PRODUCT:
        labels, add, mul, one = _build_product(spec, max_order)
    else:
        labels, add, mul, one = _build_catalog(spec.catalog_id)
    ring = FiniteRing(
        spec=spec,
        order=order,
        add=add.astype(np.uint16),
        mul=mul.astype(np.uint16),
        one=one,
        labels=tuple(labels),
    )
    if spec.family is Family.CATALOG:
        failures = ring_axiom_failures(ring)
        if failures:
            raise CatalogError(
                f"catalog ring {spec.catalog_id!r} fails axioms: " + "; ".join(failures)
            )
    return ring


def _build_zn(n: int):
    idx = np.arange(n, dtype=np.int32)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return [str(i) for i in range(n)], add, mul, 1


def _build_gauss(n: int):
    # element a + b*i at index a + b*n; i**2 = -1
    # int32 throughout: n <= 64 keeps every intermediate below 2**31
    idx = np.arange(n * n, dtype=np.int32)
    a = idx % n
    b = idx // n
    real = (a[:, None] * a[None, :] - b[:, None] * b[None, :]) % n
    imag = (a[:, None] * b[None, :] + b[:, None] * a[None, :]) % n
    mul = real + n * imag
    add = ((a[:, None] + a[None, :]) % n) + n * ((b[:, None] + b[None, :]) % n)
    # index = a + b*n, so iterate b outer, a inner
    labels = [_gauss_label(aa, bb) for bb in range(n) for aa in range(n)]
    return labels, add, mul, 1


def _gauss_label(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    imag = "i" if b == 1 else f"{b}i"
    if a == 0:
        return imag
    return f"{a}+{imag}"


# Fixed irreducible polynomials (coefficients little-endian, monic, the x**k
# coefficient omitted): f(x) = x**k + sum(c_i x**i).
_GF_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1),      # x^2 + x + 1
    (2, 3): (1, 1, 0),   # x^3 + x + 1
    (3, 2): (1, 0),      # x^2 + 1
    (3, 3): (1, 2, 0),   # x^3 + 2x + 1
    (5, 2): (2, 0),      # x^2 + 2
    (7, 2): (1, 0),      # x^2 + 1
}


def _gf_modulus(p: int, k: int) -> tuple[int, ...]:
    poly = _GF_POLYS.get((p, k))
    if poly is not None:
        if _poly_has_root(poly, p, k):
            raise RingError(f"fixed GF({p}^{k}) modulus is reducible")  # pragma: no cover
        return poly
    # Deterministic fallback: smallest coefficient tuple with no root.
    # For k <= 3 rootlessness is equivalent to irreducibility.
    for code in range(p**k):
        cand = tuple((code // p**i) % p for i in range(k))
        if not _poly_has_root(cand, p, k):
            return cand
    raise RingError(f"no irreducible polynomial found for GF({p}^{k})")  # pragma: no cover


def _poly_has_root(low: tuple[int, ...], p: int, k: int) -> bool:
    for a in range(p):
        acc = pow(a, k, p)
        for i, c in enumerate(low):
            acc = (acc + c * pow(a, i, p)) % p
        if acc == 0:
            return True
    return False


def _build_gf(q: int):
    p, k = _prime_power(q)  # validated at parse time
    if k == 1:
        labels, add, mul, one = _build_zn(p)
        return labels, add, mul, one
    low = _gf_modulus(p, k)
    # reduction of x^d for d = k .. 2k-2
    red: dict[int, list[int]] = {k: [(-c) % p for c in low]}
    for d in range(k + 1, 2 * k - 1):
        prev = red[d - 1]
        shifted = [0] + prev[:-1]
        carry = prev[-1]
        red[d] = [(shifted[i] + carry * red[k][i]) % p for i in range(k)]

    def decode(x: int) -> list[int]:
        return [(x // p**i) % p for i in range(k)]

    def encode(c: list[int]) -> int:
        return sum(ci * p**i for i, ci in enumerate(c))

    n = q
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    coeffs = [decode(x) for x in range(n)]
    for x in range(n):
        cx = coeffs[x]
        for y in range(x, n):
            cy = coeffs[y]
            s = [(cx[i] + cy[i]) % p for i in range(k)]
            add[x, y] = add[y, x] = encode(s)
            conv = [0] * (2 * k - 1)
            for i in range(k):
                if cx[i] == 0:
                    continue
                for j in range(k):
                    conv[i + j] += cx[i] * cy[j]
            res = [conv[i] % p for i in range(k)]
            for d in range(k, 2 * k - 1):
                c = conv[d] % p
                if c:
                    rd = red[d]
                    res = [(res[i] + c * rd[i]) % p for i in range(k)]
            mul[x, y] = mul[y, x] = encode(res)
    basis = ["1", "w", "w^2"][:k]
    labels = [_term_label(coeffs[x], basis) for x in range(n)]
    return labels, add, mul, 1


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


def _build_product(spec: RingSpec, max_order: int):
    r1 = build_ring(spec.children[0], max_order)
    r2 = build_ring(spec.children[1], max_order)
    o1, o2 = r1.order, r2.order
    idx = np.arange(o1 * o2, dtype=np.int64)
    i1 = idx // o2
    i2 = idx % o2
    a1 = r1.add.astype(np.int64)
    a2 = r2.add.astype(np.int64)
    m1 = r1.mul.astype(np.int64)
    m2 = r2.mul.astype(np.int64)
    add = a1[i1[:, None], i1[None, :]] * o2 + a2[i2[:, None], i2[None, :]]
    mul = m1[i1[:, None], i1[None, :]] * o2 + m2[i2[:, None], i2[None, :]]
    one = r1.one * o2 + r2.one
    labels = [f"({r1.labels[x]},{r2.labels[y]})" for x in range(o1) for y in range(o2)]
    return labels, add, mul, one


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
        if tail.isdigit():
            p = int(tail)
            if _prime_power(p) == (p, 1):
                return CatalogEntry(entry_id, (p, p), ("1", "r"), {(1, 1): _z(2)},
                                    note=f"Z{p} adjoin r with r^2 = 0")
    return None


def _build_catalog(entry_id: str):
    entry = _resolve_catalog(entry_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {entry_id!r}")
    moduli = entry.moduli
    k = len(moduli)
    order = 1
    for m in moduli:
        order *= m

    def decode(x: int) -> tuple[int, ...]:
        out = []
        for m in moduli:
            out.append(x % m)
            x //= m
        return tuple(out)

    def encode(c: Iterable[int]) -> int:
        x = 0
        scale = 1
        for ci, m in zip(c, moduli):
            x += (ci % m) * scale
            scale *= m
        return x

    elements = [decode(x) for x in range(order)]

    def mul_coeffs(cx, cy) -> tuple[int, ...]:
        res = [0] * k
        for i in range(k):
            if cx[i] == 0:
                continue
            for j in range(k):
                s = cx[i] * cy[j]
                if s == 0:
                    continue
                if i == 0 and j == 0:
                    res[0] += s
                elif i == 0:
                    res[j] += s
                elif j == 0:
                    res[i] += s
                else:
                    prod = entry.table[(min(i, j), max(i, j))]
                    for t in range(k):
                        res[t] += s * prod[t]
        return tuple(res[t] % moduli[t] for t in range(k))

    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for x in range(order):
        cx = elements[x]
        for y in range(x, order):
            cy = elements[y]
            s = encode(tuple((cx[t] + cy[t]) % moduli[t] for t in range(k)))
            add[x, y] = add[y, x] = s
            m = encode(mul_coeffs(cx, cy))
            mul[x, y] = mul[y, x] = m
    labels = [_term_label(elements[x], entry.basis) for x in range(order)]
    return labels, add, mul, 1


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


@dataclass
class ZeroDivisorSet:
    """Nonzero zero divisors of a ring; :func:`annihilator` gives their partners."""

    members: tuple[int, ...]


def zero_divisors(ring: FiniteRing) -> ZeroDivisorSet:
    """Exact zero-divisor set by exhaustive scan, ordered by element index."""
    zero_prod = ring.mul == 0
    nonzero_partner = zero_prod[:, 1:].any(axis=1)
    members = tuple(int(x) for x in np.flatnonzero(nonzero_partner) if x != 0)
    return ZeroDivisorSet(members=members)


def annihilator(ring: FiniteRing, x: int) -> tuple[int, ...]:
    """All y with x*y = 0; always contains 0."""
    if not 0 <= x < ring.order:
        raise ValueError(f"element {x} out of range for ring of order {ring.order}")
    return tuple(int(y) for y in np.flatnonzero(ring.mul[x] == 0))


@dataclass(frozen=True)
class RingProps:
    is_field: bool
    is_integral_domain: bool
    is_local: bool
    is_reduced: bool
    nilpotents: tuple[int, ...]


def ring_properties(ring: FiniteRing) -> RingProps:
    """Algebraic predicates, computed exhaustively from the tables."""
    zds = zero_divisors(ring)
    is_domain = not zds.members
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
        is_field=is_domain,
        is_integral_domain=is_domain,
        is_local=closed,
        is_reduced=nilpotents == (0,),
        nilpotents=nilpotents,
    )
