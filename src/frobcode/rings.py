"""Finite rings with identity, represented by exact operation tables.

Rings are described by a small constructor language (integer residue
rings, Galois fields, full matrix rings, direct products, and the
quadratic extensions F_q[u]/(u^2)) and materialised as dense tables.
Elements are opaque indices 0..size-1 with index 0 the additive
identity and index 1 the multiplicative identity; every operation is a
table lookup, so all downstream arithmetic is exact and ring-agnostic.

Each ring carries a distinguished additive character, encoded as an
exponent map into Z_N for N the exponent of the additive group.  The
character is chosen per constructor (trace-based) and checked at build
time to be generating, i.e. its kernel contains no nonzero one-sided
ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt, lcm
from typing import Sequence, Union


class RingSpecError(ValueError):
    """Malformed ring spec: bad syntax or invalid constructor parameters."""


class CardinalityCapError(RingSpecError):
    """The denoted ring would exceed the configured size cap."""


class CharacterError(ValueError):
    """A character map is not additive or fails the generating test."""


class NotLocalError(ValueError):
    """Operation requires a local ring (units = complement of the radical)."""


DEFAULT_CAP = 512


# ---------------------------------------------------------------------------
# Ring specs (constructor ASTs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Zm:
    m: int


@dataclass(frozen=True)
class GF:
    p: int
    k: int = 1


@dataclass(frozen=True)
class Mat:
    n: int
    inner: "RingSpec"


@dataclass(frozen=True)
class Prod:
    left: "RingSpec"
    right: "RingSpec"


@dataclass(frozen=True)
class ChainQuad:
    """F_q[u]/(u^2) for a prime power q."""

    q: int


RingSpec = Union[Zm, GF, Mat, Prod, ChainQuad]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q as p**f with p prime, or raise.

    Trial division stops at isqrt(q): without a divisor there, q is prime.
    """
    if q < 2:
        raise RingSpecError(f"{q} is not a prime power")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    f = 0
    r = q
    while r % p == 0:
        r //= p
        f += 1
    if r != 1:
        raise RingSpecError(f"{q} is not a prime power")
    return p, f


def validate_spec(spec: RingSpec) -> None:
    if isinstance(spec, Zm):
        if spec.m < 2:
            raise RingSpecError(f"Z{spec.m}: modulus must be >= 2")
    elif isinstance(spec, GF):
        if not _is_prime(spec.p):
            raise RingSpecError(f"GF({spec.p}^{spec.k}): {spec.p} is not prime")
        if spec.k < 1:
            raise RingSpecError(f"GF({spec.p}^{spec.k}): exponent must be >= 1")
        if spec.k > 1 and spec.p > 10:
            # element literals are single-digit coefficient strings
            raise RingSpecError(
                f"GF({spec.p}^{spec.k}): coefficients above 9 have no literal syntax"
            )
    elif isinstance(spec, Mat):
        if spec.n < 1:
            raise RingSpecError(f"M{spec.n}: matrix size must be >= 1")
        validate_spec(spec.inner)
    elif isinstance(spec, Prod):
        validate_spec(spec.left)
        validate_spec(spec.right)
    elif isinstance(spec, ChainQuad):
        _prime_power(spec.q)
    else:
        raise RingSpecError(f"unknown ring spec {spec!r}")


def spec_cardinality(spec: RingSpec) -> int:
    if isinstance(spec, Zm):
        return spec.m
    if isinstance(spec, GF):
        return spec.p ** spec.k
    if isinstance(spec, Mat):
        return spec_cardinality(spec.inner) ** (spec.n * spec.n)
    if isinstance(spec, Prod):
        return spec_cardinality(spec.left) * spec_cardinality(spec.right)
    if isinstance(spec, ChainQuad):
        return spec.q * spec.q
    raise RingSpecError(f"unknown ring spec {spec!r}")


def canonical_ring_name(spec: RingSpec) -> str:
    if isinstance(spec, Zm):
        return f"Z{spec.m}"
    if isinstance(spec, GF):
        return f"GF({spec.p ** spec.k})"
    if isinstance(spec, Mat):
        return f"M{spec.n}({canonical_ring_name(spec.inner)})"
    if isinstance(spec, Prod):
        return f"{canonical_ring_name(spec.left)}x{canonical_ring_name(spec.right)}"
    if isinstance(spec, ChainQuad):
        return f"CHAIN({spec.q})"
    raise RingSpecError(f"unknown ring spec {spec!r}")


# ---------------------------------------------------------------------------
# Ring spec parsing
#
# Grammar (case-insensitive, no whitespace inside terms):
#   spec  := term ('x' term)*          products associate to the left
#   term  := 'Z' int | 'GF(' int ['^' int] ')' | 'M' int '(' spec ')'
#          | 'CHAIN(' int ')'
# ---------------------------------------------------------------------------

def parse_ring_spec(text: str) -> RingSpec:
    stripped = text.strip()
    base = len(text) - len(text.lstrip())
    if not stripped:
        raise RingSpecError("empty ring spec")
    spec = _parse_spec(stripped, 0, len(stripped), base)
    validate_spec(spec)
    return spec


def _spec_error(message: str, pos: int, base: int) -> RingSpecError:
    return RingSpecError(f"{message} (at position {pos + base})")


def _parse_spec(s: str, lo: int, hi: int, base: int) -> RingSpec:
    parts: list[tuple[int, int]] = []
    depth = 0
    start = lo
    for i in range(lo, hi):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise _spec_error("unbalanced ')'", i, base)
        elif ch in "xX" and depth == 0:
            parts.append((start, i))
            start = i + 1
    if depth != 0:
        raise _spec_error("unbalanced '('", hi - 1, base)
    parts.append((start, hi))
    spec = _parse_term(s, *parts[0], base)
    for lo_i, hi_i in parts[1:]:
        spec = Prod(spec, _parse_term(s, lo_i, hi_i, base))
    return spec


def _parse_term(s: str, lo: int, hi: int, base: int) -> RingSpec:
    while lo < hi and s[lo].isspace():
        lo += 1
    while hi > lo and s[hi - 1].isspace():
        hi -= 1
    term = s[lo:hi]
    low = term.lower()
    if not term:
        raise _spec_error("empty ring term", lo, base)
    m = re.fullmatch(r"z(\d+)", low)
    if m:
        return Zm(int(m.group(1)))
    m = re.fullmatch(r"gf\((\d+)(?:\^(\d+))?\)", low)
    if m:
        if m.group(2) is not None:
            return GF(int(m.group(1)), int(m.group(2)))
        p, f = _prime_power(int(m.group(1)))
        return GF(p, f)
    m = re.fullmatch(r"chain\((\d+)\)", low)
    if m:
        return ChainQuad(int(m.group(1)))
    m = re.match(r"m(\d+)\(", low)
    if m and low.endswith(")"):
        inner = _parse_spec(s, lo + m.end(), hi - 1, base)
        return Mat(int(m.group(1)), inner)
    raise _spec_error(f"unrecognised ring term {term!r}", lo, base)


# ---------------------------------------------------------------------------
# Polynomials over F_p (dense little-endian coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    # mod is monic
    r = list(a)
    dm = len(mod) - 1
    while len(r) > dm:
        coef = r[-1] % p
        if coef:
            shift = len(r) - 1 - dm
            for i, cm in enumerate(mod):
                r[shift + i] = (r[shift + i] - coef * cm) % p
        r.pop()
    return _poly_trim(r)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    # monic poly of degree >= 1; trial division by all monic polys of
    # degree 1..deg//2
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = _digits(code, p, d) + (1,)
            if not _poly_mod(poly, div, p):
                return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p, first in the element encoding."""
    for code in range(p ** k):
        poly = _digits(code, p, k) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RingSpecError(f"no irreducible of degree {k} over F_{p}")  # unreachable


def _digits(value: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return tuple(out)


def _undigits(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


# ---------------------------------------------------------------------------
# Ring objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Ring:
    """A finite ring with identity, immutable after construction.

    ``add_table``/``mul_table`` are size x size lookup tables over element
    indices; ``char_exp[x]`` is the exponent of the distinguished generating
    character at x, taken modulo ``add_exponent``.  The structural facts
    ``principal_left_ideals`` and ``radical`` are computed on first use and
    kept on the ring.
    """

    spec: RingSpec
    name: str
    size: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    units: frozenset[int]
    add_exponent: int
    char_exp: tuple[int, ...]
    element_names: tuple[str, ...]
    _name_index: dict = field(repr=False)
    # Facts computed on first use.  Not functools.cached_property: writing
    # the instance __dict__ directly makes every later attribute load on
    # the ring about three times as slow under CPython 3.11, and table
    # lookups through the ring are the hot path of code enumeration.
    _facts: dict = field(default_factory=dict, init=False, repr=False)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def is_unit(self, a: int) -> bool:
        return a in self.units

    def element_name(self, a: int) -> str:
        return self.element_names[a]

    @property
    def principal_left_ideals(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Every nonzero principal left ideal Rx, mapped to its generators.

        Generators are listed in index order.  The generator sets partition
        the nonzero elements, and Rx is the disjoint union of the generator
        sets of the principal left ideals inside it.  The mapping is shared
        by every caller; treat it as read-only.
        """
        if "ideals" not in self._facts:
            ideals: dict[frozenset[int], list[int]] = {}
            for x in range(1, self.size):
                ideals.setdefault(principal_ideal(self, x, "left").members, []).append(x)
            self._facts["ideals"] = {members: tuple(gens) for members, gens in ideals.items()}
        return self._facts["ideals"]

    @property
    def radical(self) -> frozenset[int]:
        """Jacobson radical by the quasi-regularity test.

        x is in the radical iff 1 - r*x is invertible for every r.  In a
        finite ring one-sided inverses are two-sided, so unit membership
        suffices.
        """
        if "radical" not in self._facts:
            mul, units = self.mul_table, self.units
            self._facts["radical"] = frozenset(
                x for x in range(self.size)
                if all(self.sub(1, mul[r][x]) in units for r in range(self.size))
            )
        return self._facts["radical"]

    def __repr__(self) -> str:
        return f"Ring({self.name}, size={self.size})"


def parse_element(ring: Ring, text: str) -> int:
    """Parse an element literal (the same syntax ``element_names`` uses)."""
    key = "".join(text.lower().split())
    try:
        return ring._name_index[key]
    except KeyError:
        raise ValueError(f"{text!r} is not an element literal of {ring.name}") from None


@dataclass(frozen=True)
class Ideal:
    side: str  # "left" | "right"
    generator: int
    members: frozenset[int]


# -- constructor kernels ----------------------------------------------------
#
# Each kernel returns (names, add, mul, neg, add_exponent, char_exp) in a raw
# element encoding; _assemble relabels so that the multiplicative identity
# lands on index 1 and computes the unit group.

def _build_zm(m: int):
    names = [str(a) for a in range(m)]
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    mul = [[(a * b) % m for b in range(m)] for a in range(m)]
    neg = [(-a) % m for a in range(m)]
    char = list(range(m))
    return names, add, mul, neg, m, char


def _build_gf(p: int, k: int):
    size = p ** k
    modulus = _smallest_irreducible(p, k)
    polys = [_digits(v, p, k) for v in range(size)]
    names = ["".join(str(d) for d in poly) for poly in polys]

    def enc(poly: Sequence[int]) -> int:
        return _undigits(tuple(poly) + (0,) * (k - len(poly)), p)

    add = [[enc([(x + y) % p for x, y in zip(a, b)]) for b in polys] for a in polys]
    mul = [[enc(_poly_mod(_poly_mul(a, b, p), modulus, p)) for b in polys] for a in polys]
    neg = [enc([(-x) % p for x in a]) for a in polys]

    # char_exp(x) = trace to the prime field: x + x^p + ... + x^(p^(k-1))
    def power(x: int, e: int) -> int:
        r, b = 1, x
        while e:
            if e & 1:
                r = mul[r][b]
            b = mul[b][b]
            e >>= 1
        return r

    char = []
    for x in range(size):
        total, cur = x, x
        for _ in range(k - 1):
            cur = power(cur, p)
            total = add[total][cur]
        digs = _digits(total, p, k)
        if any(digs[1:]):
            raise CharacterError(f"trace of element {x} left the prime field")
        char.append(digs[0])
    return names, add, mul, neg, p, char


def _build_mat(n: int, inner: Ring):
    s = inner.size
    size = s ** (n * n)
    entries = [_digits(v, s, n * n) for v in range(size)]
    names = ["[" + ";".join(inner.element_names[e] for e in ent) + "]" for ent in entries]

    def enc(ent: Sequence[int]) -> int:
        return _undigits(ent, s)

    iadd, imul = inner.add_table, inner.mul_table
    add = [
        [enc([iadd[x][y] for x, y in zip(a, b)]) for b in entries]
        for a in entries
    ]
    neg = [enc([inner.neg_table[x] for x in a]) for a in entries]

    mul = []
    for a in entries:
        row = []
        for b in entries:
            prod = []
            for r in range(n):
                for c in range(n):
                    acc = 0
                    for t in range(n):
                        acc = iadd[acc][imul[a[r * n + t]][b[t * n + c]]]
                    prod.append(acc)
            row.append(enc(prod))
        mul.append(row)

    char = []
    for a in entries:
        tr = 0
        for r in range(n):
            tr = iadd[tr][a[r * n + r]]
        char.append(inner.char_exp[tr])
    return names, add, mul, neg, inner.add_exponent, char


def _build_prod(left: Ring, right: Ring):
    bs = right.size
    size = left.size * bs
    pairs = [(i // bs, i % bs) for i in range(size)]
    names = [f"{left.element_names[a]}|{right.element_names[b]}" for a, b in pairs]

    def enc(a: int, b: int) -> int:
        return a * bs + b

    add = [
        [enc(left.add_table[a][c], right.add_table[b][d]) for c, d in pairs]
        for a, b in pairs
    ]
    mul = [
        [enc(left.mul_table[a][c], right.mul_table[b][d]) for c, d in pairs]
        for a, b in pairs
    ]
    neg = [enc(left.neg_table[a], right.neg_table[b]) for a, b in pairs]

    n_left, n_right = left.add_exponent, right.add_exponent
    n = lcm(n_left, n_right)
    char = [
        ((n // n_left) * left.char_exp[a] + (n // n_right) * right.char_exp[b]) % n
        for a, b in pairs
    ]
    return names, add, mul, neg, n, char


def _build_chain(q: int, fld: Ring):
    # elements a + b*u with u^2 = 0, a and b in the q-element field
    size = q * q
    pairs = [(i % q, i // q) for i in range(size)]
    names = [f"{fld.element_names[a]}+{fld.element_names[b]}u" for a, b in pairs]

    def enc(a: int, b: int) -> int:
        return a + q * b

    fadd, fmul = fld.add_table, fld.mul_table
    add = [
        [enc(fadd[a][c], fadd[b][d]) for c, d in pairs]
        for a, b in pairs
    ]
    mul = [
        [enc(fmul[a][c], fadd[fmul[a][d]][fmul[b][c]]) for c, d in pairs]
        for a, b in pairs
    ]
    neg = [enc(fld.neg_table[a], fld.neg_table[b]) for a, b in pairs]
    char = [fld.char_exp[fadd[a][b]] for a, b in pairs]
    return names, add, mul, neg, fld.add_exponent, char


def _relabel_identity(names, add, mul, neg, char):
    """Swap element labels so the multiplicative identity has index 1."""
    size = len(names)
    one = next(
        e for e in range(size)
        if all(mul[e][x] == x == mul[x][e] for x in range(size))
    )
    if one == 1:
        return names, add, mul, neg, char
    perm = list(range(size))
    perm[1], perm[one] = one, 1  # involution
    names = [names[perm[i]] for i in range(size)]
    add = [[perm[add[perm[i]][perm[j]]] for j in range(size)] for i in range(size)]
    mul = [[perm[mul[perm[i]][perm[j]]] for j in range(size)] for i in range(size)]
    neg = [perm[neg[perm[i]]] for i in range(size)]
    char = [char[perm[i]] for i in range(size)]
    return names, add, mul, neg, char


def _build(spec: RingSpec) -> Ring:
    if isinstance(spec, Zm):
        parts = _build_zm(spec.m)
    elif isinstance(spec, GF):
        parts = _build_gf(spec.p, spec.k)
    elif isinstance(spec, Mat):
        parts = _build_mat(spec.n, _build(spec.inner))
    elif isinstance(spec, Prod):
        parts = _build_prod(_build(spec.left), _build(spec.right))
    elif isinstance(spec, ChainQuad):
        p, f = _prime_power(spec.q)
        parts = _build_chain(spec.q, _build(GF(p, f)))
    else:
        raise RingSpecError(f"unknown ring spec {spec!r}")

    names, add, mul, neg, n_exp, char = parts
    names, add, mul, neg, char = _relabel_identity(names, add, mul, neg, char)
    size = len(names)
    units = frozenset(
        u for u in range(size)
        if any(mul[u][v] == 1 == mul[v][u] for v in range(size))
    )
    return Ring(
        spec=spec,
        name=canonical_ring_name(spec),
        size=size,
        add_table=tuple(tuple(row) for row in add),
        mul_table=tuple(tuple(row) for row in mul),
        neg_table=tuple(neg),
        units=units,
        add_exponent=n_exp,
        char_exp=tuple(char),
        element_names=tuple(names),
        _name_index={name: i for i, name in enumerate(names)},
    )


def build_ring(spec: RingSpec, cap: int = DEFAULT_CAP) -> Ring:
    """Materialise the ring denoted by ``spec``.

    Raises ``RingSpecError``/``CardinalityCapError`` for invalid or oversized
    specs and ``CharacterError`` if the built-in character fails its
    additivity or generating test (an internal consistency failure).
    """
    validate_spec(spec)
    size = spec_cardinality(spec)
    if size > cap:
        raise CardinalityCapError(
            f"{canonical_ring_name(spec)} has {size} elements, above the cap {cap}"
        )
    ring = _build(spec)
    if not is_generating_character(ring, ring.char_exp):
        raise CharacterError(f"built-in character of {ring.name} is not generating")
    return ring


# ---------------------------------------------------------------------------
# Ideals, radical, socle
# ---------------------------------------------------------------------------

def principal_ideal(ring: Ring, x: int, side: str = "left") -> Ideal:
    """The one-sided principal ideal Rx (left) or xR (right)."""
    if side == "left":
        members = frozenset(ring.mul_table[r][x] for r in range(ring.size))
    elif side == "right":
        members = frozenset(ring.mul_table[x][r] for r in range(ring.size))
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return Ideal(side=side, generator=x, members=members)


def is_generating_character(ring: Ring, exps: Sequence[int]) -> bool:
    """True iff the character with exponent map ``exps`` is generating.

    The kernel must contain no nonzero one-sided ideal, which is checked on
    principal ideals: every nonzero Rx and xR must meet the complement of
    the kernel.  Raises ``CharacterError`` if ``exps`` is not additive.
    """
    n = ring.add_exponent
    for x in range(ring.size):
        for y in range(ring.size):
            if exps[ring.add_table[x][y]] % n != (exps[x] + exps[y]) % n:
                raise CharacterError("character exponent map is not additive")
    mul = ring.mul_table
    for x in range(1, ring.size):
        if not any(exps[mul[r][x]] % n for r in range(ring.size)):
            return False
        if not any(exps[mul[x][r]] % n for r in range(ring.size)):
            return False
    return True


def minimal_left_ideals(ring: Ring) -> tuple[Ideal, ...]:
    """All minimal nonzero left ideals, deduplicated as sets.

    Every minimal left ideal is principal, and a principal left ideal is
    minimal exactly when each of its nonzero members generates it.
    """
    minimal = [
        Ideal(side="left", generator=gens[0], members=members)
        for members, gens in ring.principal_left_ideals.items()
        if len(gens) == len(members) - 1
    ]
    minimal.sort(key=lambda ideal: sorted(ideal.members))
    return tuple(minimal)


def radical(ring: Ring) -> frozenset[int]:
    """The Jacobson radical of ``ring`` (see ``Ring.radical``)."""
    return ring.radical


def is_local(ring: Ring) -> bool:
    """Local means the non-units are exactly the radical."""
    return ring.units == frozenset(range(ring.size)) - ring.radical


def socle_local(ring: Ring) -> frozenset[int]:
    """Two-sided annihilator of the radical; requires a local ring."""
    if not is_local(ring):
        raise NotLocalError(f"{ring.name} is not local")
    rad, mul = ring.radical, ring.mul_table
    return frozenset(
        x for x in range(ring.size)
        if all(mul[x][s] == 0 == mul[s][x] for s in rad)
    )
