"""Finite rings with identity, represented by exact operation tables.

Rings are described by a small constructor language (integer residue
rings, Galois fields, full matrix rings, direct products, and the
quadratic extensions F_q[u]/(u^2)) and materialised as dense tables.
Elements are opaque indices 0..size-1 with index 0 the additive
identity and index 1 the multiplicative identity; every operation is a
table lookup, so all downstream arithmetic is exact and ring-agnostic.

Each constructor builds its tables from its structure rather than by
generic arithmetic per pair of elements: componentwise operations are
Kronecker combinations of smaller tables, GF(p^k) multiplies through
discrete-log tables of a primitive element, and M_n(S) through the
products of row vectors with matrices.  The units are read off the rows
of the multiplication table.

Each ring carries a distinguished additive character, encoded as an
exponent map into Z_N for N the exponent of the additive group.  The
character is chosen per constructor (trace-based) and checked at build
time to be generating, i.e. its kernel contains no nonzero one-sided
ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q as p**f with p prime, or raise; q is prime iff f == 1.

    Trial division stops at isqrt(q): without a divisor there, q is prime.
    Callers bound q by the size cap first, so this never runs on a huge
    literal.
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
    _check_term(spec)
    if isinstance(spec, Mat):
        validate_spec(spec.inner)
    elif isinstance(spec, Prod):
        validate_spec(spec.left)
        validate_spec(spec.right)


def _check_term(spec: RingSpec) -> None:
    # one constructor's own parameters; its subterms are checked separately
    if isinstance(spec, Zm):
        if spec.m < 2:
            raise RingSpecError(f"Z{spec.m}: modulus must be >= 2")
    elif isinstance(spec, GF):
        if spec.k < 1:
            raise RingSpecError(f"GF({spec.p}^{spec.k}): exponent must be >= 1")
        if spec.p < 2 or _prime_power(spec.p)[1] != 1:
            raise RingSpecError(f"GF({spec.p}^{spec.k}): {spec.p} is not prime")
        _check_coefficients(spec)
    elif isinstance(spec, Mat):
        if spec.n < 1:
            raise RingSpecError(f"M{spec.n}: matrix size must be >= 1")
    elif isinstance(spec, ChainQuad):
        _prime_power(spec.q)
    elif not isinstance(spec, Prod):
        raise RingSpecError(f"unknown ring spec {spec!r}")


def _check_coefficients(spec: GF) -> None:
    if spec.k > 1 and spec.p > 10:
        # element literals are single-digit coefficient strings
        raise RingSpecError(
            f"GF({spec.p}^{spec.k}): coefficients above 9 have no literal syntax"
        )


def _capped_cardinality(spec: RingSpec, cap: int) -> int:
    """The number of elements of the ring ``spec`` if at most cap, else cap + 1.

    Builds no integer much above cap, so a huge exponent or nesting costs
    no more than a small one.
    """
    if isinstance(spec, Zm):
        size = spec.m
    elif isinstance(spec, GF):
        size = _capped_power(spec.p, spec.k, cap)
    elif isinstance(spec, Mat):
        size = _capped_power(_capped_cardinality(spec.inner, cap), spec.n * spec.n, cap)
    elif isinstance(spec, Prod):
        size = _capped_cardinality(spec.left, cap) * _capped_cardinality(spec.right, cap)
    elif isinstance(spec, ChainQuad):
        size = _capped_power(spec.q, 2, cap)
    else:
        raise RingSpecError(f"unknown ring spec {spec!r}")
    return min(size, cap + 1)


def _capped_power(base: int, exp: int, cap: int) -> int:
    if base < 2 or exp < 1:
        return base if exp >= 1 else 1
    value = 1
    for _ in range(exp):  # base >= 2: passes the cap within log2(cap) + 1 rounds
        value *= base
        if value > cap:
            return cap + 1
    return value


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

# The spec tree nests at most this deep, counting each product of k factors
# as k - 1 levels and each parenthesis as one: parsing, validation and
# building recurse once per level.
_MAX_NESTING = 256


def parse_ring_spec(text: str, cap: int = DEFAULT_CAP) -> RingSpec:
    """Parse and validate a ring spec.

    Each term is checked as it is parsed, and each literal is factored at
    most once.  A literal above ``cap`` raises ``CardinalityCapError``
    before it is converted or factored: a literal is at most the size of
    its term, so it puts every valid ring that contains it above the cap.
    The size of the whole ring is checked by ``build_ring``.

    Parsing takes time linear in the length of the spec: one pass matches
    the parentheses, and each level of the tree then jumps over its
    parenthesised groups instead of rescanning them.
    """
    stripped = text.strip()
    base = len(text) - len(text.lstrip())
    if not stripped:
        raise RingSpecError("empty ring spec")
    # groups[i] = (index of the ')' matching the '(' at i, parenthesis
    # levels from that '(' down to the innermost one inside it)
    groups: dict[int, tuple[int, int]] = {}
    open_: list[list[int]] = []  # [index, levels of the deepest group inside]
    for i, ch in enumerate(stripped):
        if ch == "(":
            open_.append([i, 0])
        elif ch == ")":
            if not open_:
                raise _spec_error("unbalanced ')'", i, base)
            j, inside = open_.pop()
            groups[j] = (i, inside + 1)
            if open_:
                open_[-1][1] = max(open_[-1][1], inside + 1)
    if open_:
        raise _spec_error("unbalanced '('", len(stripped) - 1, base)
    return _parse_spec(stripped, 0, len(stripped), base, cap, 0, groups)


def _spec_error(message: str, pos: int, base: int) -> RingSpecError:
    return RingSpecError(f"{message} (at position {pos + base})")


def _parse_spec(
    s: str, lo: int, hi: int, base: int, cap: int, nesting: int, groups: dict
) -> RingSpec:
    # s[lo:hi] is balanced except inside 'M<n>(...)' when the '(' after
    # M<n> closes before the final ')': the walk then meets that ')'
    parts: list[tuple[int, int]] = []
    deepest = 0
    start = i = lo
    while i < hi:
        ch = s[i]
        if ch == "(":
            i, levels = groups[i]
            deepest = max(deepest, levels)
        elif ch == ")":
            raise _spec_error("unbalanced ')'", i, base)
        elif ch in "xX":
            parts.append((start, i))
            start = i + 1
        i += 1
    parts.append((start, hi))
    nesting += len(parts) - 1
    if nesting + deepest > _MAX_NESTING:
        raise _spec_error(f"ring spec nests more than {_MAX_NESTING} levels deep", lo, base)
    spec = _parse_term(s, *parts[0], base, cap, nesting, groups)
    for lo_i, hi_i in parts[1:]:
        spec = Prod(spec, _parse_term(s, lo_i, hi_i, base, cap, nesting, groups))
    return spec


_MAT_HEAD = re.compile(r"m(\d+)\(", re.IGNORECASE)


def _parse_term(
    s: str, lo: int, hi: int, base: int, cap: int, nesting: int, groups: dict
) -> RingSpec:
    while lo < hi and s[lo].isspace():
        lo += 1
    while hi > lo and s[hi - 1].isspace():
        hi -= 1
    if lo == hi:
        raise _spec_error("empty ring term", lo, base)

    def literal(digits: str) -> int:
        # comparing digit counts first keeps int() off huge strings
        if len(digits.lstrip("0")) > len(str(cap)) or int(digits) > cap:
            shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
            raise CardinalityCapError(
                f"{s[lo:min(hi, lo + 40)]}: literal {shown} is above the size cap {cap}"
                f" (at position {lo + base})"
            )
        return int(digits)

    # a matrix term is matched on its head, so each level copies no more
    # than its own characters of the spec
    if (m := _MAT_HEAD.match(s, lo, hi)) and s[hi - 1] == ")":
        inner = _parse_spec(s, m.end(), hi - 1, base, cap, nesting + 1, groups)
        spec = Mat(literal(m.group(1)), inner)
        _check_term(spec)
        return spec
    term = s[lo:hi]
    low = term.lower()
    if m := re.fullmatch(r"z(\d+)", low):
        spec = Zm(literal(m.group(1)))
    elif m := re.fullmatch(r"gf\((\d+)\)", low):
        # factoring q shows that p is prime; only the coefficient rule is left
        spec = GF(*_prime_power(literal(m.group(1))))
        _check_coefficients(spec)
        return spec
    elif m := re.fullmatch(r"gf\((\d+)\^(\d+)\)", low):
        spec = GF(literal(m.group(1)), literal(m.group(2)))
    elif m := re.fullmatch(r"chain\((\d+)\)", low):
        spec = ChainQuad(literal(m.group(1)))
    else:
        raise _spec_error(f"unrecognised ring term {term!r}", lo, base)
    _check_term(spec)
    return spec


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
# Each kernel returns (names, add, mul, neg, add_exponent, char_exp, one) in a
# raw element encoding, with ``one`` the raw index of the multiplicative
# identity.  _build relabels so that it lands on index 1 and reads the units
# off the rows of mul: x is a unit iff 1 is in x's row, since one-sided
# inverses are two-sided in a finite ring.  The tables come from _kron
# (componentwise operations), GF(p^k) log tables and M_n(S) row products.

def _kron(left, right):
    """The table of (a, b) o (c, d) = (a o c, b o d) on indices a * |right| + b."""
    s = len(right)
    high = [[x * s for x in row] for row in left]
    return [[h + lo for h in hrow for lo in lrow] for hrow in high for lrow in right]


def _kron_vec(left, right):
    """The map (a, b) -> (left[a], right[b]) on indices a * |right| + b."""
    s = len(right)
    return [x * s + y for x in left for y in right]


def _build_zm(m: int):
    names = [str(a) for a in range(m)]
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    mul = [[(a * b) % m for b in range(m)] for a in range(m)]
    neg = [(-a) % m for a in range(m)]
    char = list(range(m))
    return names, add, mul, neg, m, char, 1


def _primitive_powers(p: int, k: int, modulus: Sequence[int]) -> list[int]:
    """[g^0, g^1, ..., g^(p^k - 2)] for the first primitive element g of GF(p^k)."""
    for g in range(1, p ** k):
        poly, cur, powers = _digits(g, p, k), (1,), [1]
        while True:  # the powers of g return to 1 within p^k - 1 steps
            cur = _poly_mod(_poly_mul(cur, poly, p), modulus, p)
            if cur == (1,):
                break
            powers.append(_undigits(cur, p))
        if len(powers) == p ** k - 1:
            return powers
    raise RingSpecError(f"GF({p}^{k}) has no primitive element")  # unreachable


def _build_gf(p: int, k: int):
    size = p ** k
    names = ["".join(str(d) for d in _digits(v, p, k)) for v in range(size)]
    # coefficient vectors add digit by digit: the k-fold combination of Z_p
    add = reduce(_kron, [[[(a + b) % p for b in range(p)] for a in range(p)]] * k)
    neg = reduce(_kron_vec, [[(-a) % p for a in range(p)]] * k)

    # mul[a][b] = exp[log a + log b] for nonzero a and b
    exp = _primitive_powers(p, k, _smallest_irreducible(p, k))
    log = [0] * size
    for i, x in enumerate(exp):
        log[x] = i
    exp += exp
    logs = log[1:]
    mul = [[0] * size] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

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
    return names, add, mul, neg, p, char, 1


def _build_mat(n: int, inner: Ring):
    # A matrix's index has base |S| digits in row-major order, so it is also
    # its n row vectors as base m = |S|^n digits, row 0 least significant.
    s = inner.size
    m = s ** n
    size = m ** n
    entries = [_digits(v, s, n * n) for v in range(size)]
    names = ["[" + ";".join(inner.element_names[e] for e in ent) + "]" for ent in entries]

    vadd = reduce(_kron, [inner.add_table] * n)  # row vectors
    add = reduce(_kron, [vadd] * n)
    neg = reduce(_kron_vec, [inner.neg_table] * (n * n))

    # scaled[x][w] = x * w for x in S and a row vector w
    scaled = [reduce(_kron_vec, [row] * n) for row in inner.mul_table]
    # rowprod[v][B] = v * B = sum over t of v_t * (row t of B), for every
    # row vector v and matrix B
    rowprod = []
    for v in range(m):
        coeffs = _digits(v, s, n)
        acc = scaled[coeffs[n - 1]]
        for t in range(n - 2, -1, -1):
            acc = [vadd[hi][lo] for hi in acc for lo in scaled[coeffs[t]]]
        rowprod.append(acc)
    # row r of A * B is (row r of A) * B: mul[A][B] combines the n row
    # products in base m, rows of mul in index order of A
    mul = [[w * m ** (n - 1) for w in prods] for prods in rowprod]
    for r in range(n - 2, -1, -1):
        weight = m ** r
        mul = [
            [hi + lo * weight for hi, lo in zip(hrow, prods)]
            for hrow in mul for prods in rowprod
        ]

    char = []
    iadd = inner.add_table
    for a in entries:
        tr = 0
        for r in range(n):
            tr = iadd[tr][a[r * n + r]]
        char.append(inner.char_exp[tr])
    one = sum(s ** (r * n + r) for r in range(n))
    return names, add, mul, neg, inner.add_exponent, char, one


def _build_prod(left: Ring, right: Ring):
    bs = right.size
    pairs = [(i // bs, i % bs) for i in range(left.size * bs)]
    names = [f"{left.element_names[a]}|{right.element_names[b]}" for a, b in pairs]
    add = _kron(left.add_table, right.add_table)
    mul = _kron(left.mul_table, right.mul_table)
    neg = _kron_vec(left.neg_table, right.neg_table)

    n_left, n_right = left.add_exponent, right.add_exponent
    n = lcm(n_left, n_right)
    char = [
        ((n // n_left) * left.char_exp[a] + (n // n_right) * right.char_exp[b]) % n
        for a, b in pairs
    ]
    return names, add, mul, neg, n, char, bs + 1


def _build_chain(q: int, fld: Ring):
    # elements a + b*u with u^2 = 0, a and b in the q-element field, on
    # indices a + q*b
    pairs = [(i % q, i // q) for i in range(q * q)]
    names = [f"{fld.element_names[a]}+{fld.element_names[b]}u" for a, b in pairs]
    fadd, fmul = fld.add_table, fld.mul_table
    add = _kron(fadd, fadd)
    mul = [
        [fmul[a][c] + q * fadd[fmul[a][d]][fmul[b][c]] for c, d in pairs]
        for a, b in pairs
    ]
    neg = _kron_vec(fld.neg_table, fld.neg_table)
    char = [fld.char_exp[fadd[a][b]] for a, b in pairs]
    return names, add, mul, neg, fld.add_exponent, char, 1


def _relabel_identity(one, names, add, mul, neg, char):
    """Swap the labels 1 and ``one`` so the multiplicative identity has index 1."""
    if one == 1:
        return names, add, mul, neg, char
    perm = list(range(len(names)))
    perm[1], perm[one] = one, 1  # involution

    def swap(seq: list) -> list:
        seq[1], seq[one] = seq[one], seq[1]
        return seq

    add = swap([swap([perm[x] for x in row]) for row in add])
    mul = swap([swap([perm[x] for x in row]) for row in mul])
    neg = swap([perm[x] for x in neg])
    return swap(list(names)), add, mul, neg, swap(list(char))


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

    names, add, mul, neg, n_exp, char, one = parts
    names, add, mul, neg, char = _relabel_identity(one, names, add, mul, neg, char)
    mul_table = tuple(tuple(row) for row in mul)
    return Ring(
        spec=spec,
        name=canonical_ring_name(spec),
        size=len(names),
        add_table=tuple(tuple(row) for row in add),
        mul_table=mul_table,
        neg_table=tuple(neg),
        units=frozenset(u for u, row in enumerate(mul_table) if 1 in row),
        add_exponent=n_exp,
        char_exp=tuple(char),
        element_names=tuple(names),
        _name_index={name: i for i, name in enumerate(names)},
    )


def build_ring(spec: RingSpec, cap: int = DEFAULT_CAP) -> Ring:
    """Materialise the ring denoted by ``spec``.

    Raises ``RingSpecError``/``CardinalityCapError`` for invalid or oversized
    specs and ``CharacterError`` if the built-in character fails its
    additivity or generating test (an internal consistency failure).  The
    cap is checked first, so no literal above it is factored.
    """
    if _capped_cardinality(spec, cap) > cap:
        # not named: the name of a huge field spells out its size
        raise CardinalityCapError(f"the ring has more than {cap} elements, above the size cap")
    validate_spec(spec)
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
