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
from itertools import product
from math import prod
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
from .rings import Ring, Zm, build_ring, is_local


class NotChainRingError(ValueError):
    """Operation requires a chain ring of length 2 (radical^2 = 0 != radical)."""


def simplex(
    ring: Ring,
    m: int,
    table: HomWeightTable | None = None,
    max_length: int = 4096,
) -> LinearCode:
    """Simplex code: one column per nonzero element of R^m.

    Columns appear in lexicographic element-index order.  Every nonzero
    word has normalised homogeneous weight |R|^m exactly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = ring.size ** m - 1
    if n > max_length:
        raise ValueError(f"simplex length {n} exceeds the cap {max_length}")
    columns = [col for col in product(range(ring.size), repeat=m) if any(col)]
    rows = [tuple(col[i] for col in columns) for i in range(m)]
    return build_code(ring, rows, table)


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
    """Coordinatewise Gray image of a quaternary word (length doubles)."""
    out: list[int] = []
    for c in word:
        if not 0 <= c <= 3:
            raise ValueError(f"coordinate {c} is not a Z4 element")
        out.extend(_GRAY[c])
    return tuple(out)


def gray_image(code: LinearCode) -> frozenset[tuple[int, ...]]:
    """Set of Gray images of all codewords; requires a Z4 code."""
    if code.ring.spec != Zm(4):
        raise ValueError("the Gray map is defined on Z4 codes")
    return frozenset(gray_map(w) for w in code.word_order)


def min_hamming_distance(words) -> int | None:
    """Minimum pairwise Hamming distance of a set of equal-length words."""
    words = sorted(words)
    best = None
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            dist = sum(1 for a, b in zip(u, v) if a != b)
            if best is None or dist < best:
                best = dist
    return best


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
    vectors = list(product(range(ring.size), repeat=2))
    outside = [v for v in vectors if not (v[0] in rad and v[1] in rad)]
    span_of = {
        v: frozenset((mul[v[0]][r], mul[v[1]][r]) for r in range(ring.size))
        for v in outside
    }
    # one column per point: its lexicographically smallest generator
    columns = sorted(
        min(w for w in span if span_of.get(w) == span)
        for span in set(span_of.values())
    )
    rows = [tuple(col[i] for col in columns) for i in range(2)]
    return build_code(ring, rows, table)


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
    has full support.
    """
    stages: list[ChainStage] = []
    current = code
    while True:
        chosen = _select_chain_word(current)
        if chosen is None:
            stages.append(ChainStage(code=current, word=None, cyclic_size=None))
            break
        stages.append(
            ChainStage(
                code=current,
                word=chosen,
                cyclic_size=len(cyclic_span(current.ring, chosen)),
            )
        )
        current = residual(current, support(chosen))
    r = len(stages) - 1

    d0 = code.min_hom_norm
    hypothesis = d0 is not None and code.n <= d0

    size_recursion = all(
        stages[i].code.size * stages[i - 1].cyclic_size == stages[i - 1].code.size
        for i in range(1, len(stages))
    )
    weight_growth = True
    for i in range(1, len(stages)):
        prev, cur = stages[i - 1], stages[i]
        drop = prev.code.min_hom_norm - ell(prev.word)
        if drop <= 0:
            weight_growth = False
        elif cur.code.min_hom_norm is not None and cur.code.min_hom_norm < drop:
            weight_growth = False
    size_product = code.size == prod(
        s.cyclic_size for s in stages[:-1]
    ) * stages[-1].code.size
    final_code = stages[-1].code
    final_constant = all(
        ell(w) == final_code.n for w in final_code.word_order if any(w)
    )
    final_small = final_code.size <= code.ring.size

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
    return min((w for w in code.word_order if any(w) and ell(w) < code.n),
               key=lambda w: (-code.cyclic_size(w), ell(w)), default=None)
