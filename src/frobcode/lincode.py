"""Left-linear codes over a finite ring, stored as fully enumerated word sets.

A code is the set of left combinations x*G of the rows of a generator
matrix.  Codes are kept at desk scale and enumerated exhaustively, so
every cached parameter (size, support, minimum Hamming weight, minimum
normalised homogeneous weight) is exact.  Coordinate positions are
1-based throughout the public interface.

Words are tuples of element indices in the public interface, and the
per-word helpers index the ring's operation tables directly.  While a
code over a ring of at most 256 elements is enumerated, its words are
packed as bytes, one byte per coordinate: addition and scaling are
``bytes.translate`` calls through tables kept on the ring.  Up to 16
elements a level of the enumeration is extended word by word through a
table of pairs; above, column by column.  A word's |Rc| depends only on
the classes it meets, the right unit orbits xU, so every code over a ring
reads them from the ring's one orbit map (``Ring.unit_orbits``), with its
memo of |Rc| by set of classes.  A code gathers its per-word facts
(Hamming weights, weight sums, class sets) before its words become
tuples, translating each packed word into class indices and into indices
of weight values, and reads |Rc| once per class set.
Its support is read off its generator rows.  A derived (shortened or
residual) code packs and sorts its words once, and its generators are
picked greedily from them by the same enumeration.  Weight sums use the
table's integer numerators over its one denominator and return a
``Fraction`` only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from mmap import mmap
from operator import getitem
from pathlib import Path
from typing import Collection, Iterable, Sequence

from .homweight import HomWeightTable, hom_weight_table
from .rings import Ring, gather, parse_element, principal_ideal


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
    return len(word) - word.count(0)


# The per-word kernels index the tuple tables in list comprehensions, which
# CPython 3.11 runs faster than map over a bound __getitem__.

def word_add(ring: Ring, u: Sequence[int], v: Sequence[int]) -> Word:
    add = ring.add_table
    return tuple([add[a][b] for a, b in zip(u, v)])


def scale_word(ring: Ring, r: int, word: Sequence[int]) -> Word:
    row = ring.mul_table[r]
    return tuple([row[c] for c in word])


# Element indices of a ring of at most 256 elements fit in a byte, so its words
# are enumerated as bytes, one byte per coordinate.  Up to PACK_LIMIT elements
# a pair of indices fits in one byte too, and a level is extended word by word
# through the pair table; above, column by column.
PACK_LIMIT = 16


class LinearCode:
    """An enumerated left-linear code with cached exact parameters.

    Immutable after construction.  ``word_order`` fixes a deterministic
    iteration order (message order for generated codes, sorted order for
    derived ones) used wherever a tie-break is needed.  Over a ring of at
    most 256 elements the words are given packed as bytes, one byte per
    coordinate; the per-word facts are read from the packed words, and
    ``word_order`` holds them as tuples.  Each word's Hamming weight, weight
    numerator and set of classes (an int bitmask of the right unit orbits
    of ``Ring.unit_orbits``) are read when the code is made, and its |Rc|
    from the set of classes through the ring's memo.  A packed word is
    translated into class indices (at most 256 classes, so one byte each),
    read by one membership test per class, and into indices of weight
    values, read by one count per value, at any length.  ``hamming_weights``
    and ``cyclic_sizes`` are aligned with ``word_order``.  The
    ``generators`` must generate ``word_order``: the support is read off
    them, as coordinate i vanishes on the code exactly when it vanishes on
    every generator.
    """

    def __init__(
        self,
        ring: Ring,
        n: int,
        generators: tuple[Word, ...],
        word_order: Sequence[Word | bytes],
        table: HomWeightTable,
    ):
        # specs, not objects: two builds of one spec give identical tables
        if table.ring.spec != ring.spec:
            raise ValueError(f"weight table of {table.ring.name} given for a code over {ring.name}")
        self.ring = ring
        self.table = table
        self.n = n
        self.generators = generators
        self.support = frozenset(i for i, col in enumerate(zip(*generators), 1) if any(col))
        self.ell_C = len(self.support)
        # a list is unpacked in place below, so each packed word is freed as
        # its tuple is made
        order = word_order if isinstance(word_order, list) else list(word_order)
        self.hamming_weights = [n - w.count(0) for w in order]
        bits, reps, _ = self._classes = ring.unit_orbits
        num = table.numerators
        if _packer(ring) is bytes:
            # a packed word is translated into class indices, each class then
            # read by one membership test, and into indices of weight values,
            # each value then read by one count, all at C speed; a translation
            # is dropped as soon as it is read, so none are held at once
            pad = bytes(256 - ring.size)
            to_classes = bytes(b.bit_length() - 1 for b in bits) + pad
            values = sorted(set(num))
            to_values = bytes(values.index(v) for v in num) + pad
            class_bits = [(k, 1 << k) for k in range(len(reps))]
            value_terms = [(i, v) for i, v in enumerate(values) if v]
            self._masks = [sum([bit for k, bit in class_bits if k in w])
                           for w in map(bytes.translate, order, repeat(to_classes))]
            weights = (sum([v * w.count(i) for i, v in value_terms])
                       for w in map(bytes.translate, order, repeat(to_values)))
        else:
            weights = (sum([num[x] for x in w]) for w in order)
            self._masks = [sum({bits[x] for x in set(w)}) for w in order]
        least = min(compress(weights, self.hamming_weights), default=None)
        del weights
        self.min_hamming = min(filter(None, self.hamming_weights), default=None)
        self.min_hom_norm = None if least is None else Fraction(least, table.denominator)
        for i, w in enumerate(order):
            order[i] = tuple(w)
        self.word_order = tuple(order)
        self.words = frozenset(self.word_order)
        self.size = len(self.words)
        # the per-word list read from the ring's memo, filled on first use; a
        # plain field for the reason given on Ring._facts
        self._cyclic_sizes: list[int] | None = None

    def _mask_cyclic_size(self, mask: int) -> int:
        """|Rc| for the words c that meet the classes of ``mask``."""
        _, reps, sizes = self._classes
        if mask not in sizes:
            sizes[mask] = len(cyclic_span(self.ring, [x for k, x in enumerate(reps) if mask >> k & 1]))
        return sizes[mask]

    def cyclic_size(self, c: Sequence[int]) -> int:
        """|Rc|, the size of the cyclic submodule of the codeword ``c``.

        rc = r'c exactly when (r - r')x = 0 for every value x of c, so |Rc|
        is |R| over the size of the meet of the ann_l(x).  As ann_l(xu) =
        ann_l(x) for a unit u, |Rc| = |RV| for V one member of each class
        that c meets, and one ``cyclic_span`` serves every word that meets
        the same classes.
        """
        if tuple(c) not in self.words:
            raise ValueError("word is not in the code")
        return self._mask_cyclic_size(sum({self._classes[0][x] for x in set(c)}))

    @property
    def cyclic_sizes(self) -> list[int]:
        """|Rc| for each word c of ``word_order``, as ``cyclic_size`` reads it."""
        if self._cyclic_sizes is None:
            self._cyclic_sizes = list(map(self._mask_cyclic_size, self._masks))
        return self._cyclic_sizes

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
    sweep covers |R|^k messages of n coordinates each, so ``SweepCapError``
    is raised when |R|^k * n exceeds ``message_cap``.  At least one row is
    needed: it fixes the length n.
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise ValueError("no generator rows")
    n = len(rows[0])
    _check_rows(ring, rows, n)
    _check_sweep(ring, len(rows), n, message_cap)
    if table is None:
        table = hom_weight_table(ring)
    # Level i holds the distinct partial sums of the first i rows, in the
    # order they first appear in the lexicographic sweep.
    pack = _packer(ring)
    level = [pack((0,) * n)]
    for row in rows:
        level = list(_extend_level(ring, level, pack(row)))
    return LinearCode(ring, n, rows, level, table)


def _check_rows(ring: Ring, rows: Iterable[Sequence[int]], n: int) -> None:
    """Refuse rows (tuples or packed words) other than n elements of the ring."""
    for r in rows:
        if len(r) != n:
            raise ValueError("generator rows have unequal lengths")
        low, high = min(r, default=0), max(r, default=0)
        if low < 0 or high >= ring.size:
            bad = low if low < 0 else high
            raise ValueError(f"entry {bad} outside the ring of size {ring.size}")


def _packer(ring: Ring):
    """The word type of enumeration: bytes up to 256 elements, else tuple."""
    return bytes if ring.size <= 256 else tuple


def _extend_level(ring: Ring, level: Collection, row) -> dict:
    """The distinct words w + r*row, for w in ``level`` and r in R, as dict keys.

    They come in sweep order (w outer, r inner), one addition per pair.
    Dropping a repeated word keeps the order of a message sweep, since its
    extensions already appeared under its first copy.  Words and ``row``
    are of the ``_packer`` type.  A one-word level is the zero word, whose
    extensions are the multiples of ``row``.  Up to ``PACK_LIMIT`` elements
    a packed sum shifts w by 4 bits, so each byte holds a << 4 | b, and one
    translate through the pair table adds every coordinate.  Above, column
    j of the level is translated once per r through the table of
    +r*row[j], and written into word r of every w by one strided slice of a
    flat buffer that holds the next level, word after word.
    """
    if ring.size > 256:
        scaled = [scale_word(ring, r, row) for r in range(ring.size)]
        return dict.fromkeys(word_add(ring, w, s) for w in level for s in scaled)
    add, mul = ring.byte_tables
    if len(level) == 1:
        return dict.fromkeys(row.translate(m) for m in mul)
    n = len(row)
    if ring.size <= PACK_LIMIT:
        scaled = [int.from_bytes(row.translate(m), "big") for m in mul]
        return dict.fromkeys(
            (high | s).to_bytes(n, "big").translate(add)
            for high in (int.from_bytes(w, "big") << 4 for w in level) for s in scaled
        )
    flat, stride = b"".join(level), n * ring.size
    # an anonymous map, whose slices are bytes: the words need no copy of it
    with mmap(-1, len(flat) * ring.size) as out:
        for j, g in enumerate(row):
            column = flat[j::n]
            for r, m in enumerate(mul):
                out[r * n + j::stride] = column.translate(add[m[g]])
        return dict.fromkeys(out[i:i + n] for i in range(0, len(out), n))


def code_from_words(
    ring: Ring, n: int, words: Iterable[Sequence[int]], table: HomWeightTable
) -> LinearCode:
    """Wrap an already-enumerated submodule of R^n as a code.

    The words are packed once and sorted once (bytes sort as the tuples of
    their values do), which fixes ``word_order``.  A word outside the span
    of the smaller ones becomes a generator, and the span of the generators
    must be the input: it must be closed under addition and left scaling.
    The zero code's one generator is the zero row, so ``build_code`` remakes
    it at length n.  Each word must have n entries, each an element of the
    ring; the distinct words are checked once packed, and a word that
    cannot be packed is checked on its own.
    """
    pack, packed = _packer(ring), set()
    try:
        for w in words:
            packed.add(pack(w))
    except ValueError:  # bytes() refuses an entry outside 0..255; name it
        _check_rows(ring, [w], n)
        raise
    _check_rows(ring, packed, n)
    order = sorted(packed)
    span = {pack((0,) * n): None}
    gens: list[Word] = []
    for w in order:
        if w not in span:
            gens.append(tuple(w))
            span = _extend_level(ring, span, w)
    if span.keys() != packed:
        raise ValueError("word set is not closed under the module operations")
    del packed, span  # the words live on only in order, unpacked there in place
    return LinearCode(ring, n, tuple(gens) or ((0,) * n,), order, table)


def _as_positions(code: LinearCode, s) -> frozenset[int]:
    """Accept either a set of 1-based positions or a word (whose support is used)."""
    if isinstance(s, (set, frozenset)):
        positions = frozenset(s)
    else:
        word = tuple(s)
        if len(word) != code.n:
            raise ValueError(f"word length {len(word)} does not match code length {code.n}")
        _check_rows(code.ring, [word], code.n)
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
    outside = gather([i for i in range(code.n) if i + 1 not in positions])
    kept = [w for w in code.word_order if not any(outside(w))]
    if compact:
        cols = [i - 1 for i in sorted(positions)]
        kept = map(gather(cols), kept)
        n = len(cols)
    else:
        n = code.n
    return code_from_words(code.ring, n, kept, code.table)


def residual(code: LinearCode, s) -> LinearCode:
    """Projection of the code onto the coordinates outside ``s``."""
    positions = _as_positions(code, s)
    cols = [i - 1 for i in range(1, code.n + 1) if i not in positions]
    return code_from_words(code.ring, len(cols), map(gather(cols), code.word_order), code.table)


def coset_average(code: LinearCode, x: Sequence[int]) -> Fraction:
    """Average normalised weight over the coset x + C."""
    x = tuple(x)
    if len(x) != code.n:
        raise ValueError(f"word length {len(x)} does not match code length {code.n}")
    _check_rows(code.ring, [x], code.n)
    # shifted[i][y] is the weight numerator of x_i + y
    num, add = code.table.numerators, code.ring.add_table
    shifted = [[num[s] for s in add[a]] for a in x]
    total = sum(sum(map(getitem, shifted, c)) for c in code.word_order)
    return Fraction(total, code.table.denominator * code.size)


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

    Returns alpha and a map from 1-based support positions to the smallest
    such units; alpha is the smallest member of the right unit orbit of the
    first nonzero entry, the only orbit every c_i can lie in, and also
    satisfies |R alpha| = |Rc|.  Raises
    ``DecompositionError`` when no decomposition exists, which signals
    that ``c`` was not of minimum Hamming weight (or an internal fault).
    """
    ring = code.ring
    cyclic_size = code.cyclic_size(c)
    bits, reps, _ = ring.unit_orbits
    # the zero word has no nonzero entry, and alpha = 0
    alpha = reps[bits[next((x for x in c if x), 0)].bit_length() - 1]
    # {alpha * u: the smallest such unit u}
    smallest = {ring.mul_table[alpha][u]: u for u in sorted(ring.units, reverse=True)}
    units_at = {i: smallest.get(x) for i, x in enumerate(c, 1) if x}
    if None in units_at.values() or len(principal_ideal(ring, alpha).members) != cyclic_size:
        raise DecompositionError("no scaled-unit decomposition; word is not minimum-Hamming")
    return alpha, units_at


# ---------------------------------------------------------------------------
# Generator matrix files: one row per line, whitespace-separated element
# literals, '#' starts a comment.
# ---------------------------------------------------------------------------

def read_generator_rows(path: str | Path, ring: Ring) -> tuple[Word, ...]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    rows: list[Word] = []
    # element names are kept as parse_element normalises them, so a token
    # found among them needs no parsing; parse_element reads or names the rest
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            row = tuple(map(ring._name_index.get, tokens))
            rows.append(tuple(parse_element(ring, tok) for tok in tokens) if None in row else row)
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
