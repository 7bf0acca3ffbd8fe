"""Finite rings with identity, represented by exact operation tables.

Rings are described by a small constructor language (integer residue
rings, Galois fields, full matrix rings, direct products, and the
quadratic extensions F_q[u]/(u^2)) and materialised as dense tables.
Elements are opaque indices 0..size-1 with index 0 the additive
identity and index 1 the multiplicative identity; every operation is a
table lookup, so all downstream arithmetic is exact and ring-agnostic.

Each constructor builds its tables from its structure rather than by
generic arithmetic per pair of elements: Z_m rows are slices of a
repeated range, componentwise operations are Kronecker combinations of
smaller tables, GF(p^k) multiplies through F_p-linear maps of
F_p[t]/(f), each gathered from its images of the basis t^i, and M_n(S)
through the outer products of columns with rows.  Every row is made by
C-level slices, gathers (``gather``) and list concatenation, with no
Python arithmetic per entry, so the int objects of a table are shared
from one range rather than allocated once per entry.  The identity of
a product or matrix ring is moved onto index 1 while its rows are made.
A table is made row by row as its rows are read, and whole on the first
read of the whole table, unless the constructor needs it whole to build
itself: the character check reads one addition row per generator of
(R, +), and the weight one multiplication row per right unit orbit.  The
units and the principal left ideals come from the same structure: Z_m by
gcd, a field trivially, F_q[u]/(u^2) by whether the constant term is 0,
a product as the pairs of its factors' units and ideals, (R x S)(x, y) =
Rx x Sy, and M_n(S) by row modules: M_n(S)A is the matrices whose rows
lie in the left S-module that the rows of A span.  Every ring so has its
units and ideals when it is built.  Negation is not tabulated: the
radical's quasi-regularity test, stated with 1 - y, reads 1 + y instead,
since each left ideal is closed under negation.

Each ring carries a distinguished additive character, encoded as an
exponent map into Z_N for N the exponent of the additive group.  The
character is chosen per constructor (trace-based) and checked at build
time to be additive and generating, i.e. its kernel contains no nonzero
left ideal; for a finite ring that also rules out a nonzero right ideal
(J. A. Wood, Amer. J. Math. 121, 1999).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial, reduce
from itertools import chain, product
from math import gcd, isqrt, lcm
from operator import getitem, itemgetter
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

# the keys of Ring._facts that hold the addition and multiplication tables,
# each whole or, until its first whole read, lazy (see ``_by_rows``)
_ADD, _MUL = "add", "mul"


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
        if spec.k > 1 and spec.p > 10:
            # element literals are single-digit coefficient strings
            raise RingSpecError(
                f"GF({spec.p}^{spec.k}): coefficients above 9 have no literal syntax"
            )
    elif isinstance(spec, Mat):
        if spec.n < 1:
            raise RingSpecError(f"M{spec.n}: matrix size must be >= 1")
    elif isinstance(spec, ChainQuad):
        _prime_power(spec.q)


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
# Grammar (case-insensitive; whitespace only around terms):
#   spec  := term ('x' term)*          products associate to the left
#   term  := 'Z' int | 'GF(' int ['^' int] ')' | 'M' int '(' spec ')'
#          | 'CHAIN(' int ')'
# ---------------------------------------------------------------------------

# The spec tree nests at most this deep, counting each product of k factors
# as k - 1 levels and each parenthesis as one: parsing, the cap check and
# building recurse once per level.
_MAX_NESTING = 256

# One term at the cursor of the spec with its ASCII letters lowered.  The
# last group that matched names the constructor: 1 Z, 2 GF(q), 4 GF(p^k),
# 5 CHAIN, 6 the head of M<n>(spec).
_TERM = re.compile(r"z(\d+)|gf\((\d+)\)|gf\((\d+)\^(\d+)\)|chain\((\d+)\)|m(\d+)\(")
_SPACE = re.compile(r"\s*")
_LOWER = str.maketrans("ZGFCHAINMX", "zgfchainmx")
_MAKE = {1: Zm, 2: lambda q: GF(*_prime_power(q)), 4: GF, 5: ChainQuad, 6: Mat}


def parse_ring_spec(text: str, cap: int = DEFAULT_CAP) -> RingSpec:
    """Parse and validate a ring spec; positions in errors index ``text``.

    Errors come in this order: an empty spec, then the first unbalanced
    parenthesis, then nesting beyond 256 levels, then the terms from left
    to right.  Within a matrix term, what follows its ')' is judged first,
    then its inner spec, then its size literal.  Each term is checked as it
    is parsed.  A literal above ``cap`` raises ``CardinalityCapError`` before
    it is converted or factored: a literal is at most the size of its term,
    so it puts every valid ring that contains it above the cap.  So does
    p^k above ``cap`` in ``GF(p^k)``, the literal of the ring's canonical
    name ``GF(q)``, compared without building a power much above the cap;
    so a canonical name parses back at the cap its spec parsed at.  The
    size of the whole ring is checked by ``build_ring``.

    One pass counts the parentheses and the nesting; a recursive descent
    then reads the terms, looping over the factors of a product and
    recursing only into a matrix, so parsing takes linear time.
    """
    if not text.strip():
        raise RingSpecError("empty ring spec")
    # per open parenthesis, and the whole spec at the bottom: [its top-level
    # 'x's, levels of the deepest parenthesis inside it]
    open_ = [[0, 0]]
    for i, ch in enumerate(text):
        if ch == "(":
            open_.append([0, 0])
        elif ch == ")":
            if len(open_) == 1:
                raise RingSpecError(f"unbalanced ')' (at position {i})")
            xs, deepest = open_.pop()
            open_[-1][1] = max(open_[-1][1], xs + deepest + 1)
        elif ch in "xX":
            open_[-1][0] += 1
    if len(open_) > 1:
        raise RingSpecError(f"unbalanced '(' (at position {len(text.rstrip()) - 1})")
    if sum(open_[0]) > _MAX_NESTING:
        at = len(text) - len(text.lstrip())
        raise RingSpecError(f"ring spec nests more than {_MAX_NESTING} levels deep (at position {at})")
    return _parse_spec(text, text.rstrip().translate(_LOWER), 0, cap)[0]


def _parse_spec(text: str, low: str, i: int, cap: int) -> tuple[RingSpec, int]:
    """The spec from index i of ``low`` to the ')' or the end that closes it,
    and the index just past that ')' or end."""
    factors = []
    while True:
        start = i = _SPACE.match(low, i).end()
        m, error = _TERM.match(low, i), None
        i = m.end() if m else i
        if m and m.lastindex == 6:
            try:
                inner, i = _parse_spec(text, low, i, cap)
            except RingSpecError as exc:
                # what follows the ')' is judged first; ``resume`` is where an
                # error inside left off, so each ')' is found in linear time
                error, i = exc, _scan(low, getattr(exc, "resume", i), ")") + 1
        end, i = i, _SPACE.match(low, i).end()
        if not m or low[i:i + 1] not in "x)":  # "" (the end) is in "x)"
            i = _scan(low, end, "x)")
            term = text[start:min(i, start + 40)].rstrip()
            message = f"unrecognised ring term {term!r}" if term else "empty ring term"
            error = RingSpecError(f"{message} (at position {start})")
        if error:
            error.resume = i
            raise error
        shown = text[start:min(end, start + 40)]
        args = [_literal(d, shown, start, cap) for d in m.groups() if d]
        if m.lastindex == 4 and _capped_power(*args, cap) > cap:
            # the size of GF(p^k), the literal of its canonical name GF(q)
            raise CardinalityCapError(
                f"{shown}: {args[0]}^{args[1]} is above the size cap {cap} (at position {start})")
        spec = _MAKE[m.lastindex](*args, *([inner] if m.lastindex == 6 else []))
        _check_term(spec)
        factors.append(spec)
        if low[i:i + 1] != "x":
            return reduce(Prod, factors), i + 1
        i += 1


def _scan(low: str, i: int, stops: str) -> int:
    # the first of ``stops`` from i on outside parentheses, or the end
    depth = 0
    while i < len(low) and (depth or low[i] not in stops):
        depth += (low[i] == "(") - (low[i] == ")")
        i += 1
    return i


def _literal(digits: str, term: str, pos: int, cap: int) -> int:
    # comparing digit counts first keeps int() off huge strings
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(cap)) or int(value) > cap:
        shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
        raise CardinalityCapError(
            f"{term}: literal {shown} is above the size cap {cap} (at position {pos})")
    return int(value)


# ---------------------------------------------------------------------------
# Polynomials (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _divmod_monic(a: Sequence[int], monic: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (constant term first)."""
    r, dm = list(a), len(monic) - 1
    q = [0] * max(len(r) - dm, 0)
    # cyclotomic polynomials are sparse: step only over the nonzero terms
    terms = [(i, c) for i, c in enumerate(monic[:dm]) if c]
    for shift in range(len(q) - 1, -1, -1):
        coef = q[shift] = r[shift + dm]
        if coef:
            for i, c in terms:
                r[shift + i] -= coef * c
    return q, r[:dm]


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    # monic poly of degree >= 1 over F_p; trial division by all monic polys
    # of degree 1..deg//2.  The divisors are monic, so the integer remainder
    # reduced mod p is the remainder over F_p.
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = _digits(code, p, d) + (1,)
            if not any(c % p for c in _divmod_monic(poly, div)[1]):
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
    character at x, taken modulo ``add_exponent``.  The constructor gives
    ``units`` and ``principal_left_ideals``: every nonzero principal left
    ideal Rx, mapped to its generators, keys in index order of their
    smallest generator and generators in index order.  The generator sets
    partition the nonzero elements, and Rx is the disjoint union of the
    generator sets of the principal left ideals inside it; the dict is
    shared by every caller, so treat it as read-only.  Both tables,
    ``radical`` (read off the ideals) and ``unit_orbits`` (the right unit
    orbits) are kept on the ring in ``_facts``.  A table is made whole on
    its first whole read, unless the constructor hands it over made;
    until then ``_row`` makes and keeps the rows it is asked for, one at a
    time.  ``lincode`` keeps the ring's word format there too, and the
    ring itself knows nothing of codes.  There is no negation table: -x is
    the column of 0 in row x of ``add_table``.
    """

    spec: RingSpec
    name: str
    size: int
    units: frozenset[int]
    principal_left_ideals: dict[frozenset[int], tuple[int, ...]] = field(repr=False)
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

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    @property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table(_ADD)

    @property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table(_MUL)

    def _table(self, key: str) -> tuple[tuple[int, ...], ...]:
        """The whole table ``key``, made by the constructor's builder on first
        read unless the constructor handed it over made.  The builder and the
        rows made so far are dropped then, and once both tables are made, so
        are the factor rings that a product's builders hold."""
        table = self._facts[key] = _made(self._facts[key])
        return table

    def _row(self, key: str, x: int) -> tuple[int, ...]:
        """Row x of the table ``key``: read off the whole table if that is
        made, else made alone by the constructor's row function and kept."""
        table = self._facts[key]
        return table[2][x] if callable(table[0]) else table[x]

    @property
    def radical(self) -> frozenset[int]:
        """Jacobson radical by the quasi-regularity test, per principal ideal.

        x is in the radical iff 1 - y is invertible for every y in Rx, and
        Rx = -Rx, so iff 1 + y is.  In a finite ring one-sided inverses are
        two-sided, so unit membership suffices.
        """
        if "radical" not in self._facts:
            one_plus, units = self._row(_ADD, 1), self.units
            self._facts["radical"] = frozenset([0]).union(*(
                gens for members, gens in self.principal_left_ideals.items()
                if all(one_plus[y] in units for y in members)
            ))
        return self._facts["radical"]

    @property
    def unit_orbits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The right unit orbits xU: the number of each element's orbit,
        and the smallest member of each orbit.

        Orbits are numbered in index order of their smallest member, so {0}
        is orbit 0.  The weight from the character formula is constant on
        each orbit, and so is ann_l, as ann_l(xu) = ann_l(x).
        """
        if "orbits" not in self._facts:
            orbit, reps = {}, []
            for x in range(self.size):
                if x not in orbit:  # one multiplication row per orbit
                    row = self._row(_MUL, x)
                    orbit.update((y, len(reps)) for y in {row[u] for u in self.units})
                    reps.append(x)
            self._facts["orbits"] = (tuple(map(orbit.__getitem__, range(self.size))), tuple(reps))
        return self._facts["orbits"]

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
# Each kernel returns (names, add, mul, add_exponent, char_exp, units,
# ideals) with the multiplicative identity on index 1.  ``add`` and ``mul``
# are each a tuple of rows, made, or lazy (``_by_rows``): a row function,
# which ``Ring._row`` calls for the rows it is asked for, and a builder of
# the whole table, which ``Ring.add_table``/``mul_table`` call on first read.
# Every row is a tuple, made by slices, ``gather`` and list concatenation
# only.  Z_m, GF(p^k) and F_q[u]/(u^2) make the whole table as the map of the
# row function; a product makes a row out of one row of each factor, and the
# whole table by one batched ``_kron``.  GF(p^k) makes every map it needs,
# x -> x * t, the rows x -> a * x and the Frobenius x -> x^p, by ``_times``
# from the map's images of the basis t^i, as each is F_p-linear.  A kernel
# that reads its own table in full makes it at once: the addition table of
# GF(p^k), which ``_times`` and its trace read, and of F_q[u]/(u^2), which
# its multiplication rows read.  M_n(S) makes an addition row as a product
# does, out of the rows of its row vectors, and a multiplication row out of
# addition rows, which it reads through the rows made so far (``_Rows``) or,
# for the whole table, out of the whole addition table.  A product or matrix
# ring, whose identity has another raw index ``one``, swaps the labels 1 and
# ``one`` in the ranges it gathers from, in its columns and in its rows as it
# builds.  ``units`` and ``ideals`` (``Ring.principal_left_ideals``) come
# from the constructor's structure, M_n(S)'s from the row modules of its
# matrices; a product reads its pairs through the same swap.


def gather(indices: Sequence[int]):
    """The map from a sequence to the tuple of its items at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)  # returns a scalar for one item, and needs one
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _labels(size: int, one: int) -> tuple[int, ...]:
    """range(size) with the labels 1 and ``one`` swapped."""
    labels = list(range(size))
    return tuple(_swap(labels, one))


def _swap(seq: list, one: int) -> list:
    seq[1], seq[one] = seq[one], seq[1]
    return seq


def _by_rows(row, size: int, whole=None) -> tuple:
    """A lazy table: the row function, the builder of the whole table (by
    default the map of the row function) and the rows made so far."""
    return row, whole or (lambda: map(row, range(size))), _Rows(row)


class _Rows(dict):
    """The rows of a lazy table made so far: a row is made by ``row`` on its
    first read, and kept."""

    def __init__(self, row):
        self.row = row

    def __missing__(self, x: int) -> tuple[int, ...]:
        return self.setdefault(x, self.row(x))


def _made(table) -> tuple[tuple[int, ...], ...]:
    """``table`` made whole, if it is lazy (rows are never callable)."""
    return tuple(table[1]()) if callable(table[0]) else table


def _kron_rows(left, right, labels: Sequence[int]) -> list[tuple[int, ...]]:
    """Row (a, b) of the componentwise table, for rows a of left and b of right.

    On indices a * s + b, s = len(right[0]), the row is (left[a][c] * s +
    right[b][d]) over the columns c * s + d, relabelled by ``labels``, which
    ``_labels`` made.  It is made of min(|left|, s) pieces, each gathered out
    of a slice of the labels: blocks x * s + right[b] out of the shifted
    ranges, concatenated in the order of left[a], or strides left[a] * s + y
    out of the strided ranges, interleaved in the order of right[b].
    """
    width, s = len(left[0]), len(right[0])
    size, one = len(labels), labels[1]
    rows = []
    if width <= s:
        shifted = [labels[x:x + s] for x in range(0, size, s)]
        blocks = [tuple(map(gather(rrow), shifted)) for rrow in right]
        for lrow in left:
            pick = gather(lrow)
            for row_blocks in blocks:
                row = []
                for block in pick(row_blocks):
                    row += block
                rows.append(tuple(_swap(row, one)))
    else:
        strided = [labels[y::s] for y in range(s)]
        for lrow in left:
            strides = tuple(map(gather(lrow), strided))
            for rrow in right:
                row = [0] * size
                for d, stride in enumerate(gather(rrow)(strides)):
                    row[d::s] = stride
                rows.append(tuple(_swap(row, one)))
    return rows


def _kron(left, right, one: int = 1) -> tuple[tuple[int, ...], ...]:
    """The table of (a, b) o (c, d) = (a o c, b o d) on indices a * |right| + b."""
    return tuple(_swap(_kron_rows(left, right, _labels(len(left) * len(right), one)), one))


def _kron_vec(left, right) -> tuple[int, ...]:
    """The map (a, b) -> (left[a], right[b]) on indices a * |right| + b."""
    return _kron_rows([left], [right], _labels(len(left) * len(right), 1))[0]


def _build_zm(m: int):
    residues = tuple(range(m))
    doubled = residues * 2  # doubled[i] = i mod m, for i < 2m
    add = _by_rows(lambda a: doubled[a:a + m], m)
    wrapped = cache(lambda: residues * m)  # wrapped()[i] = i mod m, made on first read
    # row a of mul is 0, a, 2a, ... mod m: every a-th entry of wrapped
    mul = _by_rows(lambda a: wrapped()[:a * m:a] if a else (0,) * m, m)

    # Rx is the multiples of d = gcd(x, m), and x generates it exactly when
    # gcd(x, m) = d; d is the smallest generator, and d = 1 are the units
    by_gcd: dict[int, list[int]] = {}
    for x in residues[1:]:
        by_gcd.setdefault(gcd(x, m), []).append(x)
    ideals = {frozenset(residues[::d]): tuple(gens) for d, gens in by_gcd.items()}
    return list(map(str, residues)), add, mul, m, residues, by_gcd[1], ideals


def _times(images: Sequence[int], add, p: int) -> tuple[int, ...]:
    """The F_p-linear map of GF(p^k) that takes t^i to images[i].

    On v = u + d * p^i, u < p^i, it is the image of u plus d * images[i]:
    the map so far gathered out of the add row of each multiple d * images[i].
    """
    times = (0,)
    for image in images:
        multiples = [0]
        for _ in range(p - 1):
            multiples.append(add[multiples[-1]][image])
        times = tuple(chain.from_iterable(map(gather(times), gather(multiples)(add))))
    return times


def _build_gf(p: int, k: int):
    prime = _build_zm(p)
    if k == 1:
        return prime  # GF(p) is Z_p, on the same indices
    size = p ** k
    names = ["".join(map(str, _digits(v, p, k))) for v in range(size)]
    # coefficient vectors add digit by digit: the k-fold combination of Z_p
    add = reduce(_kron, [_made(prime[1])] * k)

    # x -> x * t takes t^i to t^(i+1), and t^k to the negated low
    # coefficients of the monic modulus
    t_power_k = _undigits([-c % p for c in _smallest_irreducible(p, k)[:k]], p)
    times_t = _times([p ** i for i in range(1, k)] + [t_power_k], add, p)

    def by_t(x: int, steps: int) -> list[int]:  # x, x * t, ..., x * t^steps
        walk = [x]
        for _ in range(steps):
            walk.append(times_t[walk[-1]])
        return walk

    # x -> a * x takes t^i to a * t^i
    mul = _by_rows(lambda a: _times(by_t(a, k - 1), add, p), size)

    # char_exp(x) = trace to the prime field: x + x^p + ... + x^(p^(k-1)),
    # through the Frobenius map x -> x^p, which takes t^i to (t^p)^i
    frobenius = _times(by_t(1, p * (k - 1))[::p], add, p)
    total = power = tuple(range(size))
    for _ in range(k - 1):
        power = gather(power)(frobenius)
        total = tuple(map(getitem, gather(total)(add), power))
    if max(total) >= p:
        raise CharacterError(f"the trace of GF({p}^{k}) left the prime field")
    nonzero = tuple(range(1, size))  # the units, which all generate R
    return names, add, mul, p, total, nonzero, {frozenset(range(size)): nonzero}


def _build_mat(n: int, inner: Ring):
    # A matrix's index has base |S| digits in row-major order, so it is also
    # its n row vectors as base m = |S|^n digits, row 0 least significant.
    s = inner.size
    m = s ** n
    size = m ** n
    one = sum(s ** (r * n + r) for r in range(n))
    labels = _labels(size, one)
    entries = [_digits(v, s, n * n) for v in range(size)]
    names = ["[" + ";".join(inner.element_names[e] for e in ent) + "]" for ent in entries]

    # row vectors add entry by entry, and matrices row by row: the matrix
    # a * m + b, for b its row 0 and a its rows 1..n-1, has as its addition
    # row that of (a, b) in the componentwise table of upper, the table of
    # rows 1..n-1, with vadd
    vadd = reduce(_kron, [inner.add_table] * n)
    upper = reduce(_kron, [vadd] * (n - 1), ((0,),))

    def add_row(x):
        a, b = divmod(labels[x], m)
        return _kron_rows([upper[a]], [vadd[b]], labels)[0]

    whole_add = cache(lambda: _kron(upper, vadd, one))  # read by the whole mul too
    add = _by_rows(add_row, size, whole_add)

    # scaled[x][w] = x * w for x in S and a row vector w
    scaled = [reduce(_kron_vec, [row] * n) for row in inner.mul_table]
    # outer[c][w] is the label of the matrix c w for a column c and a row w,
    # whose row r is c_r * w: read through nested slices of the labels, one
    # level per row, row n - 1 outermost
    nested = labels
    for _ in range(n - 1):
        nested = [nested[j:j + m] for j in range(0, len(nested), m)]
    outer = []
    for c in range(m):
        coeffs = _digits(c, s, n)
        acc = gather(scaled[coeffs[n - 1]])(nested)
        for r in range(n - 2, -1, -1):
            acc = tuple(map(getitem, acc, scaled[coeffs[r]]))
        outer.append(acc)

    def mul_row(x, add_rows=add[2]):
        # A * B is the sum over t of (column t of A)(row t of B), and row t
        # of B is its base m digit t: row A concatenates, for each sum y over
        # the rows above t, the products with row t gathered out of addition
        # row y, made on first read, or read off the whole addition table
        # when the whole multiplication table is made
        ent = entries[labels[x]]
        products = [outer[_undigits(ent[t::n], s)] for t in range(n)]
        row = list(products[n - 1])
        for t in range(n - 2, -1, -1):
            pick, above, row = gather(products[t]), row, []
            for y in above:
                row += pick(add_rows[y])
        return tuple(_swap(row, one))

    mul = _by_rows(mul_row, size, lambda: map(partial(mul_row, add_rows=whole_add()), range(size)))

    # chi(A) = chi_S(trace A), the sum of chi_S over the diagonal, as chi_S
    # is additive
    inner_char, diagonal = inner.char_exp.__getitem__, gather([r * n + r for r in range(n)])
    char = [sum(map(inner_char, diagonal(a))) % inner.add_exponent for a in entries]

    # RA is the matrices whose rows lie in the left S-module N_A = S a_1 +
    # ... + S a_n that the rows a_i of A span: row i of BA is the sum over j
    # of B_ij a_j, and a matrix whose rows lie in N_A is BA for B its
    # coefficients.  So A generates RB exactly when N_A = N_B, and A is a
    # unit exactly when N_A = S^n, as one-sided inverses are two-sided in a
    # finite ring.  N_A is built row by row: N + S w is gathered out of the
    # vadd rows of the members of N at S w, a column of scaled, and memoised
    # for each N and every row vector w; equal modules are one object.
    multiples = [gather(tuple(set(column))) for column in zip(*scaled)]  # S w
    modules, joins = {}, {}

    def joined(module):
        if module not in joins:
            wider = (module if w in module else frozenset(chain.from_iterable(
                map(multiples[w], map(vadd.__getitem__, module)))) for w in range(m))
            joins[module] = tuple(modules.setdefault(x, x) for x in wider)
        return joins[module]

    spans = [frozenset([0])]
    for _ in range(n):  # on level r, the matrix w m^r + v, v < m^r, spans spans[v] + S w
        spans = list(chain.from_iterable(zip(*map(joined, spans))))
    # the generators of each ideal in index order, so keyed in order of the
    # smallest; its members are N^n, and the units generate R = R1
    generators: dict[frozenset[int], list[int]] = {}
    for x, module in enumerate(map(spans.__getitem__, labels[1:]), 1):
        generators.setdefault(module, []).append(x)
    ideals = {frozenset(labels[_undigits(rows, m)] for rows in product(module, repeat=n)): tuple(gens)
              for module, gens in generators.items()}
    units = generators[spans[one]]
    return _swap(names, one), add, mul, inner.add_exponent, _swap(char, one), units, ideals


def _build_prod(left: Ring, right: Ring):
    one, s = right.size + 1, right.size
    names = [f"{a}|{b}" for a in left.element_names for b in right.element_names]
    labels = _labels(len(names), one)

    def table(key: str):
        def row(x):  # raw row labels[x] = a * s + b: row a of left with row b of right
            a, b = divmod(labels[x], s)
            return _kron_rows([left._row(key, a)], [right._row(key, b)], labels)[0]
        return _by_rows(row, len(names), lambda: _kron(left._table(key), right._table(key), one))

    add, mul = table(_ADD), table(_MUL)

    n_left, n_right = left.add_exponent, right.add_exponent
    n = lcm(n_left, n_right)
    char = [
        ((n // n_left) * a + (n // n_right) * b) % n
        for a in left.char_exp for b in right.char_exp
    ]
    # the units are the pairs of units, and (R x S)(x, y) = Rx x Sy, generated
    # exactly by the pairs of generators; pairs read through the relabelling
    blocks = [labels[a:a + s] for a in range(0, len(names), s)]

    def pairs(lefts, rights):  # the labels of (a, b), a in lefts, b in rights
        return chain.from_iterable(map(gather(tuple(rights)), gather(tuple(lefts))(blocks)))

    zero = {frozenset([0]): (0,)}
    ideals = [
        (frozenset(pairs(lm, rm)), tuple(sorted(pairs(lg, rg))))
        for lm, lg in (zero | left.principal_left_ideals).items()
        for rm, rg in (zero | right.principal_left_ideals).items()
    ]
    # keys in order of their smallest generator: the zero ideal, generated
    # by 0 alone, sorts first
    ideals.sort(key=lambda item: item[1][0])
    units = pairs(left.units, right.units)
    return _swap(names, one), add, mul, n, _swap(char, one), units, dict(ideals[1:])


def _build_chain(q: int, fld: Ring):
    # elements a + b*u with u^2 = 0, a and b in the q-element field, on
    # indices a + q*b
    fnames, fadd = fld.element_names, fld.add_table
    names = [f"{fnames[a]}+{fnames[b]}u" for b in range(q) for a in range(q)]
    add = _kron(fadd, fadd)
    char = [fld.char_exp[fadd[a][b]] for b in range(q) for a in range(q)]

    def mul_row(x):
        # (a + bu)(c + du) = (a + bu)c + (ad)u: over each d, the products
        # (a + bu)c gathered out of the add row of (ad)u
        fmul, (b, a) = fld.mul_table, divmod(x, q)
        pick = gather([lo + q * hi for lo, hi in zip(fmul[a], fmul[b])])
        row = []
        for ad in fmul[a]:
            row += pick(add[q * ad])
        return tuple(row)

    # a + bu is a unit iff a != 0, and the only other nonzero principal left
    # ideal is Ru = {bu}, generated by its nonzero members
    size = q * q
    units = tuple(x for x in range(size) if x % q)
    ideals = {frozenset(range(size)): units, frozenset(range(0, size, q)): tuple(range(q, size, q))}
    return names, add, _by_rows(mul_row, size), fld.add_exponent, char, units, ideals


def _build(spec: RingSpec) -> Ring:
    # each term is checked as the walk reaches it, before its subterms
    _check_term(spec)
    if isinstance(spec, Zm):
        parts = _build_zm(spec.m)
    elif isinstance(spec, GF):
        parts = _build_gf(spec.p, spec.k)
    elif isinstance(spec, Mat):
        parts = _build_mat(spec.n, _build(spec.inner))
    elif isinstance(spec, Prod):
        parts = _build_prod(_build(spec.left), _build(spec.right))
    else:
        # the field of F_q[u]/(u^2) is no term of the spec, and not checked
        p, f = _prime_power(spec.q)
        parts = _build_chain(spec.q, _ring(GF(p, f), _build_gf(p, f)))
    return _ring(spec, parts)


def _ring(spec: RingSpec, parts) -> Ring:
    names, add, mul, n_exp, char, units, ideals = parts
    ring = Ring(
        spec=spec,
        name=canonical_ring_name(spec),
        size=len(names),
        units=frozenset(units),
        principal_left_ideals=ideals,
        add_exponent=n_exp,
        char_exp=tuple(char),
        element_names=tuple(names),
        _name_index=dict(zip(names, range(len(names)))),
    )
    ring._facts.update({_ADD: add, _MUL: mul})
    return ring


def build_ring(spec: RingSpec, cap: int = DEFAULT_CAP) -> Ring:
    """Materialise the ring denoted by ``spec``.

    Raises ``RingSpecError``/``CardinalityCapError`` for invalid or oversized
    specs, checking the cap first so no literal above it is factored, then
    each term as the build reaches it, in pre-order, so the first invalid
    term raises.  Raises ``CharacterError`` if the built-in character is not
    additive on a generating set of (R, +) or has a nonzero principal left
    ideal in its kernel (an internal consistency failure; see
    ``is_generating_character``).
    """
    if _capped_cardinality(spec, cap) > cap:
        # not named: the name of a huge field spells out its size
        raise CardinalityCapError(f"the ring has more than {cap} elements, above the size cap")
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
        members = frozenset([row[x] for row in ring.mul_table])
    elif side == "right":
        members = frozenset(ring._row(_MUL, x))
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return Ideal(side=side, generator=x, members=members)


def is_generating_character(ring: Ring, exps: Sequence[int]) -> bool:
    """True iff the character with exponent map ``exps`` is generating.

    Additivity is checked on a generating set of (R, +), not on all pairs.
    The elements are walked in index order; one outside the span H of the
    generators so far becomes a generator g, and H grows to H + <g> one
    coset H + kg at a time.  If chi(x + g) = chi(x) + chi(g) for every x
    and every generator g, then x = 0 gives chi(0) = 0, and induction on
    the number of generators summing to y gives chi(x + y) = chi(x) +
    chi(y) for every y.  Each generator at least doubles the span, so the
    check is O(|R| log |R|).  It reads one row of the addition table per
    generator g, as row g is column g, (R, +) being abelian: x + g and
    h + g are entries of row g.  Raises ``CharacterError`` if the map is
    not additive.

    Generating means that the kernel contains no nonzero left ideal, so
    that every nonzero principal left ideal Rx leaves the kernel.  The
    ideals are ``ring.principal_left_ideals``, which every constructor
    gives as it builds, so the test walks none.  For a finite ring a
    character is left generating exactly when it is right generating
    (J. A. Wood, "Duality for modules over finite rings and applications to
    coding theory", Amer. J. Math. 121, 1999), so the right ideals xR need
    no test of their own.
    """
    n, span = ring.add_exponent, {0}
    for g in range(ring.size):
        if g not in span:
            row = ring._row(_ADD, g)
            if any((exps[y] - exps[x] - exps[g]) % n for x, y in enumerate(row)):
                raise CharacterError("character exponent map is not additive")
            coset = span
            while (coset := {row[h] for h in coset}).isdisjoint(span):
                span |= coset
    return all(any(exps[y] % n for y in members) for members in ring.principal_left_ideals)


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
