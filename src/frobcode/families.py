"""Bound-meeting code families and the residual-chain certificate.

Constructors for the simplex code over an arbitrary ring, the quaternary
Octacode, the code of the projective Hjelmslev line over a length-2
chain ring, the coordinatewise Gray map to binary words, and the chain
of residual codes whose stage invariants certify the Singleton-type
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product
from operator import index, ne
from typing import Sequence

from .homweight import HomWeightTable, hom_weight_table
from .lincode import (
    LinearCode,
    Word,
    _check_sweep,
    build_code,
    cyclic_span,
    ell,
    residual,
    support,
)
from .rings import Ring, Zm, _capped_power, build_ring, is_local


class NotChainRingError(ValueError):
    """Operation requires a chain ring of length 2 (radical^2 = 0 != radical)."""


# the most columns a simplex code may have
_SIMPLEX_CAP = 4096


def simplex(ring: Ring, m: int, table: HomWeightTable | None = None) -> LinearCode:
    """Simplex code: one column per nonzero element of R^m.

    Columns appear in lexicographic element-index order.  Every nonzero
    word has normalised homogeneous weight |R|^m exactly.  At most
    ``_SIMPLEX_CAP`` columns are made.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # |R|^m is checked against the cap without being built: m may be huge
    if _capped_power(ring.size, m, _SIMPLEX_CAP + 1) > _SIMPLEX_CAP + 1:
        raise ValueError(f"simplex length |R|^m - 1 exceeds the cap of {_SIMPLEX_CAP} columns")
    # the sweep's first column is its only zero one
    columns = islice(product(range(ring.size), repeat=m), 1, None)
    return build_code(ring, list(zip(*columns)), table)


OCTACODE_ROWS = (
    (1, 0, 0, 0, 3, 1, 2, 1),
    (0, 1, 0, 0, 1, 2, 3, 1),
    (0, 0, 1, 0, 3, 3, 3, 2),
    (0, 0, 0, 1, 2, 3, 1, 1),
)


def octacode(table: HomWeightTable | None = None) -> LinearCode:
    """The quaternary Octacode: length 8, 256 words, minimum Lee weight 6."""
    if table is None:
        ring = build_ring(Zm(4))
        table = hom_weight_table(ring)
    elif table.ring.spec != Zm(4):
        raise ValueError("the Octacode lives over Z4")
    return build_code(table.ring, OCTACODE_ROWS, table)


# Gray map: the weight-preserving bridge from (Z4, Lee) to (F2^2, Hamming).
_GRAY = ((0, 0), (0, 1), (1, 1), (1, 0))


def gray_map(word: Sequence[int]) -> tuple[int, ...]:
    """Coordinatewise Gray image of a quaternary word (length doubles).

    Coordinates are read through ``operator.index``, as ``lincode`` reads
    word entries, so a float, even one equal to an int, is refused by name.
    """
    for c in word:
        if not (hasattr(c, "__index__") and 0 <= index(c) <= 3):
            raise ValueError(f"coordinate {c!r} is not a Z4 element")
    return tuple(chain.from_iterable(map(_GRAY.__getitem__, word)))


def gray_image(code: LinearCode) -> frozenset[tuple[int, ...]]:
    """Set of Gray images of all codewords; requires a Z4 code."""
    if code.ring.spec != Zm(4):
        raise ValueError("the Gray map is defined on Z4 codes")
    return frozenset(gray_map(w) for w in code.word_order)


def min_hamming_distance(words) -> int | None:
    """Minimum pairwise Hamming distance of a set of equal-length words."""
    return min((sum(map(ne, u, v)) for u, v in combinations(words, 2)), default=None)


def hjelmslev_line(ring: Ring, table: HomWeightTable | None = None) -> LinearCode:
    """Code of the projective Hjelmslev line over a length-2 chain ring.

    Points are the cyclic right submodules xR of R^2 generated outside
    rad(R^2); each contributes its lexicographically smallest generator as
    a column, in sorted column order.  Over a chain ring with q-element
    residue field this yields q^2 + q columns.
    """
    rad = _length2_chain_radical(ring)
    # the q^2 + q columns (q = |rad|) sweep R^2: refuse before enumerating points
    _check_sweep(ring, 2, len(rad) ** 2 + len(rad))
    mul = ring.mul_table
    # For v outside rad(R^2), vR is free of rank one, so the generators of
    # the point vR are exactly the v*u for units u.  The first vector of
    # each orbit met in lexicographic order is its smallest generator.
    seen: set[tuple[int, int]] = set()
    columns = []
    for v in product(range(ring.size), repeat=2):
        if v in seen or (v[0] in rad and v[1] in rad):
            continue
        columns.append(v)
        seen.update((mul[v[0]][u], mul[v[1]][u]) for u in ring.units)
    return build_code(ring, list(zip(*columns)), table)


def _length2_chain_radical(ring: Ring) -> frozenset[int]:
    rad = ring.radical
    if len(rad) < 2:
        raise NotChainRingError(f"{ring.name} has zero radical")
    if not is_local(ring):
        raise NotChainRingError(f"{ring.name} is not local")
    mul = ring.mul_table
    if any(mul[s][t] != 0 for s in rad for t in rad):
        raise NotChainRingError(f"{ring.name} has radical of length > 2")
    if len(rad) ** 2 != ring.size:
        raise NotChainRingError(f"{ring.name} is not a chain ring")
    return rad


# ---------------------------------------------------------------------------
# Residual chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStage:
    code: LinearCode
    word: Word | None  # chosen word, absent at the final stage
    cyclic_size: int | None


@dataclass(frozen=True)
class ResidualChain:
    """A maximal chain of residual codes with its certificate.

    ``checks`` records the exact stage invariants; they are theorems when
    the input code satisfies n <= d/gamma (``hypothesis_holds``), and are
    reported as data otherwise.  ``inequality_lhs``/``inequality_rhs`` are
    the two sides of the support chain inequality
    n >= (1 - 1/|Rc^0|) * d/gamma + r (absent when r = 0).
    """

    stages: tuple[ChainStage, ...]
    r: int
    hypothesis_holds: bool
    checks: tuple[tuple[str, bool | None], ...]
    inequality_lhs: int | None
    inequality_rhs: Fraction | None

    @property
    def final(self) -> LinearCode:
        return self.stages[-1].code


def residual_chain(code: LinearCode) -> ResidualChain:
    """Iterated residuals along words of incomplete support.

    At each stage the word with the largest cyclic submodule among nonzero
    words of incomplete support is removed (ties: smallest Hamming weight,
    then earliest in word order); the chain stops when every nonzero word
    has full support.  The stage checks are made as the walk removes each
    word c: the residual's size times |Rc| is the stage's size, and
    drop = d/gamma - ell(c) is positive and at most the residual's d/gamma
    (when it has one); the |Rc| are multiplied up for the code-size check.
    The final-code checks read the last code.
    """
    stages: list[ChainStage] = []
    current = code
    size_recursion = weight_growth = True
    removed = 1  # the product of the |Rc| removed so far
    while (chosen := _select_chain_word(current)) is not None:
        cyclic_size = len(cyclic_span(current.ring, chosen))
        stages.append(ChainStage(code=current, word=chosen, cyclic_size=cyclic_size))
        after = residual(current, support(chosen))
        size_recursion = size_recursion and after.size * cyclic_size == current.size
        drop = current.min_hom_norm - ell(chosen)
        if drop <= 0 or (after.min_hom_norm is not None and after.min_hom_norm < drop):
            weight_growth = False
        removed *= cyclic_size
        current = after
    stages.append(ChainStage(code=current, word=None, cyclic_size=None))
    r = len(stages) - 1

    d0 = code.min_hom_norm
    hypothesis = d0 is not None and code.n <= d0
    size_product = code.size == removed * current.size
    final_constant = all(h == current.n for h in current.hamming_weights if h)
    final_small = current.size <= code.ring.size

    ineq_lhs = ineq_rhs = None
    chain_ineq: bool | None = None
    if r >= 1 and d0 is not None:
        c0_size = stages[0].cyclic_size
        ineq_lhs = code.n
        ineq_rhs = Fraction(c0_size - 1, c0_size) * d0 + r
        chain_ineq = ineq_lhs >= ineq_rhs

    checks = (
        ("stage sizes divide out the removed cyclic submodule", size_recursion),
        ("stage minimum weights drop by at most the removed support", weight_growth),
        ("code size factors through the chain", size_product),
        ("final code has constant Hamming weight on nonzero words", final_constant),
        ("final code size is at most the ring size", final_small),
        ("support chain inequality", chain_ineq),
    )
    return ResidualChain(
        stages=tuple(stages),
        r=r,
        hypothesis_holds=hypothesis,
        checks=checks,
        inequality_lhs=ineq_lhs,
        inequality_rhs=ineq_rhs,
    )


def _select_chain_word(code: LinearCode) -> Word | None:
    ells, sizes = code.hamming_weights, code.cyclic_sizes
    best = min((i for i, h in enumerate(ells) if 0 < h < code.n),
               key=lambda i: (-sizes[i], ells[i]), default=None)
    return None if best is None else code.word(best)
