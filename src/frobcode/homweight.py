"""Homogeneous weights computed exactly via generating characters.

The weight of an element x is gamma * (1 - avg over units u of chi(xu)),
where chi is the ring's distinguished generating character.  Character
sums are multisets of N-th roots of unity and are reduced modulo the
N-th cyclotomic polynomial, so every weight comes out as an exact
rational; no floating point is involved anywhere.  One integer division
by a monic polynomial builds the cyclotomic polynomials and reduces the
sums.

Storage is normalised: tables keep w(x)/gamma, which is independent of
gamma, and gamma is carried alongside for display; the table coerces
and checks gamma itself.  Word weights are summed in an exact integer
core: each table also holds w(x)/gamma as an integer numerator over one
common denominator, and a ``Fraction`` is built only at the boundary,
once per sum.  An independent oracle solves the weight axioms directly,
as a triangular system over the principal left ideals and their
generators.  The solution is unique, so a table satisfies
the axioms exactly when it equals the oracle's, and every character
table is checked that way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

from .rings import _MUL, CharacterError, Ring, _divmod_monic, socle_local


class NonRationalSumError(ValueError):
    """A character sum did not reduce to a rational number."""


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n; all divisions are exact over the integers.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


@dataclass(frozen=True, eq=False)
class CyclotomicSum:
    """A multiset of N-th roots of unity: sum of counts[j] * zeta_N^j."""

    order: int
    counts: Mapping[int, int]

    @classmethod
    def from_exponents(cls, order: int, exponents: Iterable[int]) -> "CyclotomicSum":
        return cls(order, Counter(e % order for e in exponents))


def cyclotomic_residue(s: CyclotomicSum) -> tuple[int, ...]:
    """Canonical representative modulo the order-N cyclotomic polynomial."""
    if s.order < 1:
        raise ValueError("cyclotomic order must be >= 1")
    dense = [0] * s.order
    for e, c in s.counts.items():
        dense[e % s.order] += c
    r = _divmod_monic(dense, cyclotomic_polynomial(s.order))[1]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def cyclotomic_reduce(s: CyclotomicSum) -> Fraction:
    """The value of the sum, provided it is rational.

    Raises ``NonRationalSumError`` when the reduced representative is not a
    constant, which signals a malformed character upstream.
    """
    residue = cyclotomic_residue(s)
    if len(residue) > 1:
        raise NonRationalSumError(f"sum reduces to degree {len(residue) - 1}, not a constant")
    return Fraction(residue[0] if residue else 0)


# ---------------------------------------------------------------------------
# Weight tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HomWeightTable:
    """Exact homogeneous weight table of a ring.

    ``norm_weight[x]`` is w(x)/gamma; multiply by ``gamma`` for the weight
    itself.  ``denominator`` is the lcm L of the ``norm_weight``
    denominators and ``numerators[x]`` the integer with
    w(x)/gamma = numerators[x] / L; both are derived once, on construction.
    ``gamma`` is coerced to a ``Fraction`` and checked to be positive here,
    the one place every table passes through.  Immutable and safe for
    shared reads.
    """

    ring: Ring
    gamma: Fraction
    norm_weight: tuple[Fraction, ...]
    denominator: int = field(init=False, repr=False)
    numerators: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        gamma = Fraction(self.gamma)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        den = lcm(*(w.denominator for w in self.norm_weight))
        nums = tuple(w.numerator * (den // w.denominator) for w in self.norm_weight)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "numerators", nums)

    def weight(self, x: int) -> Fraction:
        return self.gamma * self.norm_weight[x]


def hom_weight_table(ring: Ring, gamma: Fraction | int = 1) -> HomWeightTable:
    """Weight table from the character formula, checked by ``verify_axioms``.

    One character sum per right unit orbit xU (``Ring.unit_orbits``), at
    its smallest member: sum_u chi(xvu) = sum_u chi(xu) for a unit v.  So
    it reads one multiplication row per orbit, and never makes the whole
    table.
    """
    units, chi = ring.units, ring.char_exp
    orbit, reps = ring.unit_orbits
    values = []
    for x in reps:
        row = ring._row(_MUL, x)
        s = CyclotomicSum.from_exponents(ring.add_exponent, [chi[row[u]] for u in units])
        values.append(1 - cyclotomic_reduce(s) / len(units))
    norm = tuple(map(values.__getitem__, orbit))
    table = HomWeightTable(ring=ring, gamma=gamma, norm_weight=norm)
    if not verify_axioms(table):
        raise CharacterError(f"character formula on {ring.name} violates the weight axioms")
    return table


def verify_axioms(table: HomWeightTable) -> bool:
    """Check the two homogeneity axioms by comparing with the oracle.

    The axioms: w(0) = 0, elements generating the same principal left
    ideal share a weight, and the normalised weight sums to |Rx| over
    every nonzero Rx.  ``solve_weight_axioms`` returns their one solution:

    * Existence: its output satisfies both axioms.  Each y in Rx that does
      not generate Rx generates a smaller principal ideal, which was solved
      earlier, so the sum over Rx is the sum over gen(Rx) plus the rest it
      was solved from.  0 generates no nonzero ideal, so w(0) = 0.
    * Uniqueness: the system is triangular, and its pivots |gen(Rx)| are
      nonzero.

    So a table satisfies the axioms exactly when it equals the solution.
    ``solve_weight_axioms`` must not call this function.  Both tables share
    one value object among many elements, so each distinct pair of objects
    is compared once; the tables keep the objects alive while their ids key
    the pairs.
    """
    weights, solution = table.norm_weight, solve_weight_axioms(table.ring)
    if len(weights) != len(solution):
        return False
    pairs = dict(zip(zip(map(id, weights), map(id, solution)), zip(weights, solution)))
    return all(x == y for x, y in pairs.values())


def local_socle_weight_table(ring: Ring, gamma: Fraction | int = 1) -> HomWeightTable:
    """Weight table of a local ring from its socle, bypassing characters.

    Nonzero socle elements weigh q/(q-1) (normalised) for q the residue
    field size, everything else nonzero weighs 1.
    """
    soc = socle_local(ring)  # raises NotLocalError on non-local input
    q = ring.size // len(ring.radical)
    heavy = Fraction(q, q - 1)
    norm = (Fraction(0),) + tuple(heavy if x in soc else Fraction(1) for x in range(1, ring.size))
    return HomWeightTable(ring=ring, gamma=gamma, norm_weight=norm)


def extend_weight(table: HomWeightTable, word: Sequence[int]) -> Fraction:
    """Coordinatewise sum of normalised weights over a word."""
    num = table.numerators
    return Fraction(sum([num[c] for c in word]), table.denominator)


# ---------------------------------------------------------------------------
# Independent oracle: the axioms as a triangular system
# ---------------------------------------------------------------------------

def solve_weight_axioms(ring: Ring) -> tuple[Fraction, ...]:
    """Solve w(0)=0 plus both homogeneity axioms (normalised) directly.

    The axioms give one unknown W(Rx) per principal left ideal, shared by
    the generators of Rx, with sum over Rx equal to |Rx|.  Rx is the
    disjoint union of the generator sets of the principal ideals inside
    it, so visiting ideals by increasing size solves the system bottom-up:
    W(Rx) = (|Rx| - sum of w over the non-generators of Rx) / |gen(Rx)|.
    That sum counts the members of Rx by their weight, and takes one
    product of a weight and its count per distinct weight in Rx.  The
    solution always exists and is unique.  This uses only the principal
    left ideals and their generators, independent of the character
    formula, so the two can cross-check.
    """
    ideals = sorted(ring.principal_left_ideals.items(), key=lambda item: len(item[0]))
    # each element's weight so far, as the place of its value in ``weights``:
    # one place per distinct value, and place 0, weight 0, for 0 and for the
    # generators of the ideals not solved yet
    place, weights, at = {Fraction(0): 0}, {0: Fraction(0)}, [0] * ring.size
    for members, gens in ideals:
        # the generators of Rx still weigh 0 here, so this sums the non-generators
        counts = Counter(map(at.__getitem__, members))
        value = (len(members) - sum(weights[v] * c for v, c in counts.items())) / len(gens)
        v = place.setdefault(value, len(place))
        weights[v] = value
        for x in gens:
            at[x] = v
    return tuple(map(weights.__getitem__, at))
