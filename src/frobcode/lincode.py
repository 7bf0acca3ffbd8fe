"""Left-linear codes over a finite ring, stored as fully enumerated word sets.

A code is the set of left combinations x*G of the rows of a generator
matrix.  Codes are kept at desk scale and enumerated exhaustively, so
every cached parameter (size, support, minimum Hamming weight, minimum
normalised homogeneous weight) is exact.  Coordinate positions are
1-based throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

from .homweight import HomWeightTable, extend_weight, hom_weight_table
from .rings import Ring, parse_element, principal_ideal


class SweepCapError(ValueError):
    """The message space is too large for exhaustive enumeration."""


class DecompositionError(ValueError):
    """No scaled-unit decomposition exists for the given word."""


Word = tuple[int, ...]


def support(word: Sequence[int]) -> frozenset[int]:
    """1-based positions of the nonzero coordinates."""
    return frozenset(i + 1 for i, c in enumerate(word) if c != 0)


def ell(word: Sequence[int]) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    return sum(1 for c in word if c != 0)


def word_add(ring: Ring, u: Sequence[int], v: Sequence[int]) -> Word:
    add = ring.add_table
    return tuple(add[a][b] for a, b in zip(u, v))


def scale_word(ring: Ring, r: int, word: Sequence[int]) -> Word:
    row = ring.mul_table[r]
    return tuple(row[c] for c in word)


class LinearCode:
    """An enumerated left-linear code with cached exact parameters.

    Immutable after construction.  ``word_order`` fixes a deterministic
    iteration order (message order for generated codes, sorted order for
    derived ones) used wherever a tie-break is needed.
    """

    def __init__(
        self,
        ring: Ring,
        n: int,
        generators: tuple[Word, ...],
        word_order: tuple[Word, ...],
        table: HomWeightTable,
    ):
        self.ring = ring
        self.table = table
        self.n = n
        self.generators = generators
        self.word_order = word_order
        self.words = frozenset(word_order)
        self.size = len(self.words)
        supp: set[int] = set()
        for w in word_order:
            supp.update(support(w))
        self.support = frozenset(supp)
        self.ell_C = len(self.support)
        nonzero = [w for w in word_order if any(w)]
        self.min_hamming = min((ell(w) for w in nonzero), default=None)
        self.min_hom_norm = min(
            (extend_weight(table, w) for w in nonzero), default=None
        )
        # {word: |Rc|}, filled by the first cyclic_size call; a plain field
        # for the reason given on Ring._facts
        self._cyclic_sizes: dict[Word, int] | None = None

    def cyclic_size(self, c: Sequence[int]) -> int:
        """|Rc|, the size of the cyclic submodule of the codeword ``c``.

        The first call fills a table for every codeword, and every later
        call reads it.  One ``cyclic_span`` serves a whole unit orbit,
        since R(uc) = Rc for every unit u.  A caller that needs one word
        only should call ``cyclic_span`` itself rather than fill the table.
        """
        if self._cyclic_sizes is None:
            ring = self.ring
            sizes: dict[Word, int] = {}
            # unit multiples not yet met in word_order; popping them keys the
            # table by the code's own word objects, not by fresh copies
            pending: dict[Word, int] = {}
            for w in self.word_order:
                if w not in pending:
                    size = len(cyclic_span(ring, w))
                    pending.update((scale_word(ring, u, w), size) for u in ring.units)
                sizes[w] = pending.pop(w)
            self._cyclic_sizes = sizes
        try:
            return self._cyclic_sizes[tuple(c)]
        except KeyError:
            raise ValueError("word is not in the code") from None

    def __contains__(self, word: Sequence[int]) -> bool:
        return tuple(word) in self.words

    def __iter__(self):
        return iter(self.word_order)

    def __repr__(self) -> str:
        return (
            f"LinearCode({self.ring.name}, n={self.n}, size={self.size}, "
            f"min_hom={self.min_hom_norm})"
        )


_MESSAGE_CAP = 1 << 24


def _check_sweep(ring: Ring, k: int, n: int, message_cap: int = _MESSAGE_CAP) -> None:
    """Refuse a sweep of R^k into length-n words above |R|^k * n coordinates."""
    if ring.size ** k * max(n, 1) > message_cap:
        raise SweepCapError(
            f"{ring.size}^{k} messages x {n} coordinates exceed the enumeration"
            f" cap {message_cap}"
        )


def build_code(
    ring: Ring,
    rows: Sequence[Sequence[int]],
    table: HomWeightTable | None = None,
    message_cap: int = _MESSAGE_CAP,
) -> LinearCode:
    """Enumerate the code generated by the given rows.

    The message space R^k is swept in lexicographic index order; words are
    deduplicated on first appearance, which fixes ``word_order``.  The
    sweep builds |R|^k words of n coordinates each, so ``SweepCapError``
    is raised when |R|^k * n exceeds ``message_cap``.
    """
    rows = tuple(tuple(r) for r in rows)
    k = len(rows)
    n = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != n:
            raise ValueError("generator rows have unequal lengths")
        for c in r:
            if not 0 <= c < ring.size:
                raise ValueError(f"entry {c} outside the ring of size {ring.size}")
    _check_sweep(ring, k, n, message_cap)
    if table is None:
        table = hom_weight_table(ring)
    scaled = [[scale_word(ring, r, row) for r in range(ring.size)] for row in rows]
    zero = (0,) * n
    seen: set[Word] = set()
    order: list[Word] = []
    for message in product(range(ring.size), repeat=k):
        word = zero
        for i, m in enumerate(message):
            word = word_add(ring, word, scaled[i][m])
        if word not in seen:
            seen.add(word)
            order.append(word)
    return LinearCode(ring, n, rows, tuple(order), table)


def code_from_words(
    ring: Ring,
    n: int,
    words: Iterable[Sequence[int]],
    table: HomWeightTable,
    generators: tuple[Word, ...] | None = None,
) -> LinearCode:
    """Wrap an already-enumerated submodule of R^n as a code.

    A small generating set is derived greedily when none is supplied; the
    input must be closed under addition and left scaling.
    """
    word_set = {tuple(w) for w in words}
    order = tuple(sorted(word_set))
    if generators is None:
        generators = _derive_generators(ring, n, word_set)
    return LinearCode(ring, n, generators, order, table)


def _derive_generators(ring: Ring, n: int, words: set[Word]) -> tuple[Word, ...]:
    span: set[Word] = {(0,) * n}
    gens: list[Word] = []
    for w in sorted(words):
        if w in span:
            continue
        gens.append(w)
        span = {
            word_add(ring, s, scale_word(ring, r, w))
            for s in span
            for r in range(ring.size)
        }
    if span != words:
        raise ValueError("word set is not closed under the module operations")
    return tuple(gens)


def _as_positions(code: LinearCode, s) -> frozenset[int]:
    """Accept either a set of 1-based positions or a word (whose support is used)."""
    if isinstance(s, (set, frozenset)):
        positions = frozenset(s)
    else:
        word = tuple(s)
        if len(word) != code.n:
            raise ValueError(f"word length {len(word)} does not match code length {code.n}")
        positions = support(word)
    if not positions <= frozenset(range(1, code.n + 1)):
        raise ValueError(f"positions {sorted(positions)} outside 1..{code.n}")
    return positions


def shorten(code: LinearCode, s, compact: bool = False) -> LinearCode:
    """Subcode of words supported inside ``s`` (a position set or a word).

    The result keeps the ambient length with zeroed coordinates outside
    ``s``; ``compact=True`` drops those always-zero coordinates instead.
    """
    positions = _as_positions(code, s)
    kept = [w for w in code.word_order if support(w) <= positions]
    if compact:
        cols = sorted(positions)
        kept = [tuple(w[i - 1] for i in cols) for w in kept]
        n = len(cols)
    else:
        n = code.n
    return code_from_words(code.ring, n, kept, code.table)


def residual(code: LinearCode, s) -> LinearCode:
    """Projection of the code onto the coordinates outside ``s``."""
    positions = _as_positions(code, s)
    cols = [i - 1 for i in range(1, code.n + 1) if i not in positions]
    projected = {tuple(w[i] for i in cols) for w in code.word_order}
    return code_from_words(code.ring, len(cols), projected, code.table)


def coset_average(
    code: LinearCode, x: Sequence[int], table: HomWeightTable | None = None
) -> Fraction:
    """Average normalised weight over the coset x + C."""
    if table is None:
        table = code.table
    x = tuple(x)
    if len(x) != code.n:
        raise ValueError(f"word length {len(x)} does not match code length {code.n}")
    total = Fraction(0)
    for c in code.word_order:
        total += extend_weight(table, word_add(code.ring, x, c))
    return total / code.size


@dataclass(frozen=True)
class CyclicSubmodule:
    generator: Word
    members: frozenset[Word]


def cyclic_span(ring: Ring, word: Sequence[int]) -> frozenset[Word]:
    """The set of left scalar multiples of a word."""
    word = tuple(word)
    return frozenset(scale_word(ring, r, word) for r in range(ring.size))


def cyclic_submodule(code: LinearCode, c: Sequence[int]) -> CyclicSubmodule:
    c = tuple(c)
    if c not in code.words:
        raise ValueError("word is not in the code")
    return CyclicSubmodule(generator=c, members=cyclic_span(code.ring, c))


def min_hamming_word_structure(
    code: LinearCode, c: Sequence[int]
) -> tuple[int, dict[int, int]]:
    """Decompose a minimum-Hamming-weight word as c_i = alpha * u_i.

    Returns alpha and a map from 1-based support positions to units; the
    found alpha additionally satisfies |R alpha| = |Rc|.  Raises
    ``DecompositionError`` when no decomposition exists, which signals
    that ``c`` was not of minimum Hamming weight (or an internal fault).
    """
    ring = code.ring
    c = tuple(c)
    if c not in code.words:
        raise ValueError("word is not in the code")
    positions = sorted(support(c))
    cyclic_size = len(cyclic_span(ring, c))
    for alpha in range(ring.size):
        row = ring.mul_table[alpha]
        units_at: dict[int, int] = {}
        for i in positions:
            unit = next((u for u in sorted(ring.units) if row[u] == c[i - 1]), None)
            if unit is None:
                break
            units_at[i] = unit
        else:
            if len(principal_ideal(ring, alpha).members) == cyclic_size:
                return alpha, units_at
    raise DecompositionError("no scaled-unit decomposition; word is not minimum-Hamming")


# ---------------------------------------------------------------------------
# Generator matrix files: one row per line, whitespace-separated element
# literals, '#' starts a comment.
# ---------------------------------------------------------------------------

def read_generator_rows(path: str | Path, ring: Ring) -> tuple[Word, ...]:
    rows: list[Word] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(parse_element(ring, tok) for tok in line.split()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no generator rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: generator rows have unequal lengths")
    return tuple(rows)


def format_generator_rows(ring: Ring, rows: Sequence[Sequence[int]]) -> str:
    lines = [f"# ring: {ring.name}"]
    for row in rows:
        lines.append(" ".join(ring.element_names[c] for c in row))
    return "\n".join(lines) + "\n"


def write_generator_file(path: str | Path, ring: Ring, rows: Sequence[Sequence[int]]) -> None:
    Path(path).write_text(format_generator_rows(ring, rows), encoding="utf-8")
