"""Left-linear codes over a finite ring, stored as fully enumerated word sets.

A code is the set of left combinations x*G of the rows of a generator
matrix.  Codes are kept at desk scale and enumerated exhaustively, so
every cached parameter (size, support, minimum Hamming weight, minimum
normalised homogeneous weight) is exact.  Coordinate positions are
1-based throughout the public interface.

Words are tuples of element indices in the public interface, and the
per-word helpers index the ring's operation tables directly.  How a code
holds its words is decided in one place, ``_word_format``, built once per
ring: over a ring of at most 256 elements they are packed as bytes, one
byte per coordinate, and addition and scaling are ``bytes.translate``
calls through its tables.  Up to 16 elements a level of the enumeration
is extended word by word through a table of pairs; above, column by
column.  A code keeps its words packed, and makes tuples only where it
hands a word out.  A word's |Rc| depends only on the classes it meets,
the right unit orbits xU (``Ring.unit_orbits``), so every code over a
ring shares the format's memo of |Rc| by set of classes.  A code reads
its per-word facts (weight sums and Hamming weights when it is made, the
set of classes of each word when its |Rc| are first read) off the packed
words, and reads |Rc| once per class set.  A code of M packed words of
length n >= 1 with M >= 4n reads them column by column (``_columns``):
column j of the words joined end to end, translated through a byte
table, is read as one int with a byte lane per word, and the columns are
added (``_lane_sums``) or OR-ed (``_lanes_or``).  Shorter codes, or
longer words, are read word by word.  The switch is the code's own shape: on
words of 6 entries the column reads took under a third of the time per
word, at n = 255 and M = 256 the two were even, and at n = 4095 (simplex
GF(2), m = 12) columns took 2.3 times as long, and the whole family job
0.8 s and 62 MB instead of 0.25 s and 42 MB (Python 3.11, 2 vCPUs).
``shorten`` keeps the words whose columns outside S OR to zero, and
``residual`` writes the kept columns into one buffer by strided slice
assignments and slices it into words (``_project``).  A code's support
is read off its generator rows.  A residual code, and a shortened code
that drops no word, takes its parent's generators cut to its
coordinates, as the cut of a span is the span of the cut rows
(``_cut``); its words are sorted once.  A shortened code that drops
words is a kernel with no generators at hand: ``code_from_words``
checks its packed words in a few whole passes, sorts them once, and
picks its generators greedily from them by the same enumeration.
Weight sums use the table's integer numerators over its one denominator
and return a ``Fraction`` only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, filterfalse, islice, repeat
from mmap import mmap
from operator import getitem, index, not_, or_
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


def _word_format(ring: Ring) -> tuple:
    """The ring's word format ``(pack, add, mul, to_class, bits, sizes)``,
    built on first use and kept on the ring; the one place that decides it.

    ``pack`` is the word type of enumeration: ``bytes`` up to 256 elements,
    one byte per coordinate, else ``tuple``.  For bytes, ``add`` and ``mul``
    are the ring's operations as ``bytes.translate`` tables, with ``mul[r][c]``
    = rc.  Up to ``PACK_LIMIT`` elements, whose indices fit in 4 bits, ``add``
    is one pair table: ``add[a << 4 | b]`` is a + b; above, ``add[s][x]`` is
    x + s, one table per addend.  ``to_class`` translates an element into the
    number k of its right unit orbit (``Ring.unit_orbits``), its class.
    Entries outside the ring are 0.  The tuple format has none of these
    three.  In either format ``bits[x]`` is the bit 1 << k of the class of
    x, so a set of classes is the sum of their bits.  ``sizes`` is the memo
    {set of classes: |Rc|}, which every code over the ring (shortened,
    residual and chain codes too) shares and ``LinearCode`` fills.
    """
    if "words" not in ring._facts:
        orbit = ring.unit_orbits[0]
        entry = (tuple, None, None, None, tuple(1 << k for k in orbit), {})
        if ring.size <= 256:
            pad = bytes(256 - ring.size)
            add = tuple(bytes(row) + pad for row in ring.add_table)
            if ring.size <= PACK_LIMIT:
                add = b"".join(row[:16] for row in add).ljust(256, b"\0")
            mul = tuple(bytes(row) + pad for row in ring.mul_table)
            entry = (bytes, add, mul, bytes(orbit) + pad, *entry[4:])
        ring._facts["words"] = entry
    return ring._facts["words"]


_BITS = bytes(1 << k for k in range(8)).ljust(256, b"\0")  # class k to bit k, up to 8 classes


def _by_columns(words: list, n: int) -> bool:
    """Whether ``words`` (a code's, never empty) are read column by column:
    packed as bytes, of n >= 1 entries, and at least 4n of them.  On long
    words the strided reads of a column cost more than they save (see the
    module docstring), and a code of length 0 is its one empty word."""
    return 0 < 4 * n <= len(words) and isinstance(words[0], bytes)


def _columns(words: list[bytes], n: int, cols: Iterable[int], table: bytes | None = None):
    """Column j of the packed words of length n for each j of ``cols``,
    translated through ``table``: byte i of a column is entry j of word i.

    The columns are slices of the words joined end to end.  ``bytes.join``
    holds a buffer view of 80 bytes per item while it joins, more than a
    short word itself, so a long list is joined 1024 words at a time onto
    one buffer.
    """
    if len(words) <= 1024:
        flat = b"".join(words)
    else:
        flat = bytearray()
        for i in range(0, len(words), 1024):
            flat += b"".join(words[i:i + 1024])
    return (flat[j::n].translate(table) for j in cols)


def _lanes_or(words: list[bytes], n: int, cols: Iterable[int], table: bytes | None = None) -> bytes:
    """Byte i is the OR of the entries of word i at ``cols``, translated
    through ``table``: the OR of the columns read as ints, each with byte
    lane i for word i."""
    lanes = map(int.from_bytes, _columns(words, n, cols, table), repeat("little"))
    return reduce(or_, lanes, 0).to_bytes(len(words), "little")


def _lane_sums(words: list[bytes], n: int, table: bytes, top: int) -> Iterable[int]:
    """For each word of n >= 1 entries, the sum of ``table`` over them,
    read once; ``top`` is the largest entry of ``table`` for an element.

    Each column is read as an int with byte lane i for word i, and columns
    are added as many at a time as cannot carry out of a lane.  One such
    chunk is the answer; the bytes of several are added word by word.
    """
    step = 255 // max(top, 1)
    lanes = map(int.from_bytes, _columns(words, n, range(n), table), repeat("little"))
    chunks = [sum(islice(lanes, step)).to_bytes(len(words), "little") for _ in range(0, n, step)]
    return chunks[0] if len(chunks) == 1 else map(sum, zip(*chunks))


def _project(words: list, n: int, cols: list[int]) -> set:
    """The distinct words cut to the coordinates ``cols`` (0-based, in
    order), of the type of ``words``.

    Column by column (``_by_columns``), each kept column is written into
    one buffer by a strided slice assignment, and the words are its slices,
    1024 words at a time, so that the buffers stay small; otherwise each
    word is gathered and packed on its own.
    """
    if not _by_columns(words, n):
        return set(map(type(words[0]), map(gather(cols), words)))
    if len(words) > 1024:
        return reduce(or_, (_project(words[i:i + 1024], n, cols) for i in range(0, len(words), 1024)))
    m, out = len(cols), bytearray(len(cols) * len(words))
    for i, column in enumerate(_columns(words, n, cols)):
        out[i::m] = column
    out = bytes(out)  # whose slices are bytes
    return {out[k * m:(k + 1) * m] for k in range(len(words))}


class LinearCode:
    """An enumerated left-linear code with cached exact parameters.

    Immutable after construction.  The words are held as the constructors
    hand them over: a list in the ring's word format (``_word_format``),
    packed as bytes over a ring of at most 256 elements, in a deterministic
    order (message order for generated codes, sorted order for derived
    ones) used wherever a tie-break is needed.  Tuples are the view the API
    hands out: ``word(i)`` is the i-th word, and ``word_order`` (all of
    them in order) and ``words`` (their set) are built on first read.
    Membership packs the queried word and looks it up among the packed
    ones.  Each word's Hamming weight and weight numerator are read when
    the code is made, and its set of classes (an int bitmask of the right
    unit orbits of ``Ring.unit_orbits``) on the first read of
    ``cyclic_sizes``, its |Rc| then from the set of classes through the
    format's memo.  With at least 4n packed words they are read column by
    column: the weights through a byte table of the numerators (when none
    exceeds 255), the Hamming weights through one of 1 per nonzero
    element, and the classes through one of 1 << class (up to 8 classes,
    one bit each in a byte lane).  Otherwise, and for tuple words, each
    word is read on its own: a packed word is translated into indices of
    weight values, each counted, or, up to 8 classes, into class indices,
    each tested for.  Above 8 classes, and for tuple words, a word's set
    of classes is the sum of the distinct bits of its entries.
    ``hamming_weights`` and ``cyclic_sizes`` are aligned with
    ``word_order``.  The ``generators`` must generate the words: the
    support is read off them, as coordinate i vanishes on the code exactly
    when it vanishes on every generator.
    """

    def __init__(self, ring: Ring, n: int, generators: tuple[Word, ...], words: list[Word | bytes],
                 table: HomWeightTable):
        # specs, not objects: two builds of one spec give identical tables
        if table.ring.spec != ring.spec:
            raise ValueError(f"weight table of {table.ring.name} given for a code over {ring.name}")
        self.ring, self.table, self.n, self.generators = ring, table, n, generators
        self.support = frozenset(i for i, col in enumerate(zip(*generators), 1) if any(col))
        self.ell_C = len(self.support)
        self._packed = words  # distinct words, as both constructors pass them
        self.size = len(words)
        self._format = _word_format(ring)
        num, columns = table.numerators, _by_columns(words, n)
        self.hamming_weights = (list(_lane_sums(words, n, b"\0" + b"\1" * 255, 1)) if columns
                                else [n - w.count(0) for w in words])
        if columns and max(num) < 256:
            weights = _lane_sums(words, n, bytes(num).ljust(256, b"\0"), max(num))
        elif self._format[0] is bytes:
            # a packed word is translated into indices of weight values, each
            # value then read by one count
            values = sorted(set(num))
            to_values = bytes(map(values.index, num)).ljust(256, b"\0")
            weights = (sum([v * w.count(i) for i, v in enumerate(values) if v])
                       for w in map(bytes.translate, words, repeat(to_values)))
        else:
            weights = (sum([num[x] for x in w]) for w in words)
        least = min(compress(weights, self.hamming_weights), default=None)
        self.min_hamming = min(filter(None, self.hamming_weights), default=None)
        self.min_hom_norm = None if least is None else Fraction(least, table.denominator)
        # the views, the set of packed words and the per-word |Rc|, each made
        # on first use; plain fields for the reason given on Ring._facts
        self._word_order = self._words = self._members = self._cyclic_sizes = None

    def word(self, i: int) -> Word:
        """The i-th word of ``word_order``, as a tuple."""
        return tuple(self._packed[i])

    @property
    def word_order(self) -> tuple[Word, ...]:
        """Every word as a tuple, in the code's order."""
        if self._word_order is None:
            self._word_order = tuple(map(tuple, self._packed))
        return self._word_order

    @property
    def words(self) -> frozenset[Word]:
        """The set of the words as tuples."""
        if self._words is None:
            self._words = frozenset(self.word_order)
        return self._words

    def _mask_cyclic_size(self, mask: int) -> int:
        """|Rc| for the words c that meet the classes of ``mask``."""
        sizes = self._format[5]
        if mask not in sizes:
            reps = self.ring.unit_orbits[1]
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
        if c not in self:
            raise ValueError("word is not in the code")
        return self._mask_cyclic_size(sum({self._format[4][x] for x in set(c)}))

    @property
    def cyclic_sizes(self) -> list[int]:
        """|Rc| for each word c of ``word_order``, as ``cyclic_size`` reads it."""
        if self._cyclic_sizes is None:
            pack, _, _, to_class, bits, sizes = self._format
            classes = range(len(self.ring.unit_orbits[1]))
            if pack is tuple or len(classes) > 8:
                # the bits of the distinct entries, not one test per class
                masks = (sum(set(map(bits.__getitem__, w))) for w in self._packed)
            elif _by_columns(self._packed, self.n):
                # the classes met by word i are the bits of its byte
                masks = _lanes_or(self._packed, self.n, range(self.n), to_class.translate(_BITS))
            else:
                masks = (sum([1 << k for k in classes if k in w])
                         for w in map(bytes.translate, self._packed, repeat(to_class)))
            # a hit reads the memo; |Rc| >= 1, so only a miss spans
            self._cyclic_sizes = [sizes.get(mask) or self._mask_cyclic_size(mask) for mask in masks]
        return self._cyclic_sizes

    def __contains__(self, word: Sequence[int]) -> bool:
        """Whether ``word`` packs to a word of the code; a sequence that
        cannot be packed (an entry outside 0..255, or not an int) is none,
        in either word format."""
        if self._members is None:
            self._members = frozenset(self._packed)
        try:  # through map, as bytes(3) would be three zero bytes; index
            # refuses a float equal to an int, which tuple() would keep
            return self._format[0](map(index, word)) in self._members
        except (TypeError, ValueError):
            return False

    def __iter__(self):
        return iter(self.word_order)

    def __repr__(self) -> str:
        return (
            f"LinearCode({self.ring.name}, n={self.n}, size={self.size}, "
            f"min_hom={self.min_hom_norm})"
        )


_MESSAGE_CAP = 1 << 24


def _check_sweep(ring: Ring, k: int, n: int) -> None:
    """Refuse a sweep of R^k into length-n words above |R|^k * n coordinates."""
    if ring.size ** k * max(n, 1) > _MESSAGE_CAP:
        raise SweepCapError(f"{ring.size}^{k} messages x {n} coordinates exceed the enumeration"
                            f" cap {_MESSAGE_CAP}")


def build_code(ring: Ring, rows: Sequence[Sequence[int]],
               table: HomWeightTable | None = None) -> LinearCode:
    """Enumerate the code generated by the given rows.

    The message space R^k is swept in lexicographic index order; words are
    deduplicated on first appearance, which fixes ``word_order``.  The
    sweep covers |R|^k messages of n coordinates each, so ``SweepCapError``
    is raised when |R|^k * n exceeds ``_MESSAGE_CAP``.  At least one row is
    needed: it fixes the length n.
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise ValueError("no generator rows")
    n = len(rows[0])
    _check_rows(ring, rows, n)
    _check_sweep(ring, len(rows), n)
    if table is None:
        table = hom_weight_table(ring)
    # Level i holds the distinct partial sums of the first i rows, in the
    # order they first appear in the lexicographic sweep.
    pack = _word_format(ring)[0]
    level = [pack((0,) * n)]
    for row in rows:
        level = list(_extend_level(ring, level, pack(row)))
    return LinearCode(ring, n, rows, level, table)


def _check_rows(ring: Ring, rows: Iterable[Sequence[int]], n: int) -> None:
    """Refuse rows (tuples or packed words) other than n elements of the
    ring.  Entries are read through ``operator.index``, as membership reads
    them, so a float, even one equal to an int, is refused by name.  A bad
    entry is named by its repr, so ``None`` is named too."""
    for r in rows:
        if len(r) != n:
            raise ValueError("generator rows have unequal lengths")
        try:
            bad = next(map(repr, filterfalse(range(ring.size).__contains__, map(index, r))), None)
        except TypeError:
            bad = next(repr(x) for x in r if not hasattr(x, "__index__"))
        if bad is not None:
            raise ValueError(f"entry {bad} outside the ring of size {ring.size}")


def _extend_level(ring: Ring, level: Collection, row) -> dict:
    """The distinct words w + r*row, for w in ``level`` and r in R, as dict keys.

    They come in sweep order (w outer, r inner), one addition per pair.
    Dropping a repeated word keeps the order of a message sweep, since its
    extensions already appeared under its first copy.  Words and ``row``
    are of the ring's ``_word_format`` type.  A one-word level is the zero
    word, whose extensions are the multiples of ``row``.  Through the pair
    table, a packed sum shifts w by 4 bits, so each byte holds a << 4 | b,
    and one translate adds every coordinate.  Through one table per addend,
    column j of the level (``_columns``) is translated once per r through
    the table of +r*row[j], and written into word r of every w by one
    strided slice of a flat buffer that holds the next level, word after
    word.
    """
    _, add, mul, *_ = _word_format(ring)
    if add is None:
        scaled = [scale_word(ring, r, row) for r in range(ring.size)]
        return dict.fromkeys(word_add(ring, w, s) for w in level for s in scaled)
    if len(level) == 1:
        return dict.fromkeys(row.translate(m) for m in mul)
    n = len(row)
    if isinstance(add, bytes):  # the pair table
        scaled = [int.from_bytes(row.translate(m), "big") for m in mul]
        return dict.fromkeys(
            (high | s).to_bytes(n, "big").translate(add)
            for high in (int.from_bytes(w, "big") << 4 for w in level) for s in scaled
        )
    stride = n * ring.size
    # an anonymous map, whose slices are bytes: the words need no copy of it
    with mmap(-1, len(level) * stride) as out:
        for j, (g, column) in enumerate(zip(row, _columns(list(level), n, range(n)))):
            for r, m in enumerate(mul):
                out[r * n + j::stride] = column.translate(add[m[g]])
        return dict.fromkeys(out[i:i + n] for i in range(0, len(out), n))


def code_from_words(ring: Ring, n: int, words: Iterable[Sequence[int]],
                    table: HomWeightTable) -> LinearCode:
    """Wrap an already-enumerated submodule of R^n as a code: words from
    the user, and the words a ``shorten`` keeps when it drops some.

    The words are packed once and sorted once (bytes sort as the tuples of
    their values do), which fixes ``word_order``.  A word outside the span
    of the smaller ones becomes a generator, and the span of the generators
    must be the input: it must be closed under addition and left scaling.
    The zero code's one generator is the zero row, so ``build_code`` remakes
    it at length n.  Each word must have n entries, each an element of the
    ring.  Packed words are kept as they are (bytes(w) is w): their types
    and lengths are read in one pass each, and their entries 1024 words at
    a time, joined, by one translate that deletes the elements.  Other
    words, and packed ones that fail, are checked word by word, which names
    a bad entry.
    """
    pack, words = _word_format(ring)[0], list(words)
    if pack is not bytes or set(map(type, words)) - {bytes} or set(map(len, words)) - {n} or any(
            b"".join(words[i:i + 1024]).translate(None, bytes(range(ring.size)))
            for i in range(0, len(words), 1024)):
        _check_rows(ring, words, n)
    packed = set(map(pack, words))
    order = sorted(packed)
    span = {pack((0,) * n): None}
    gens: list[Word] = []
    # each span holds the last, so the search for the next word outside it
    # goes on where the last one stopped
    rest = iter(order)
    while (w := next(filterfalse(span.__contains__, rest), None)) is not None:
        gens.append(tuple(w))
        span = _extend_level(ring, span, w)
    if span.keys() != packed:
        raise ValueError("word set is not closed under the module operations")
    return LinearCode(ring, n, tuple(gens) or ((0,) * n,), order, table)


def _checked_word(code: LinearCode, x: Sequence[int]) -> Word:
    """``x`` as a tuple, refused unless it is n elements of the code's ring."""
    x = tuple(x)
    if len(x) != code.n:
        raise ValueError(f"word length {len(x)} does not match code length {code.n}")
    _check_rows(code.ring, [x], code.n)
    return x


def _as_positions(code: LinearCode, s) -> frozenset[int]:
    """Accept either a set of 1-based positions or a word (whose support is used)."""
    if isinstance(s, (set, frozenset)):
        positions = frozenset(s)
    else:
        positions = support(_checked_word(code, s))
    if not positions <= frozenset(range(1, code.n + 1)):
        raise ValueError(f"positions {sorted(positions)} outside 1..{code.n}")
    return positions


def shorten(code: LinearCode, s) -> LinearCode:
    """Subcode of words supported inside ``s`` (a position set or a word),
    at the ambient length, zero outside ``s``.

    Its cut to ``s``, without those always-zero coordinates, is
    ``residual(shorten(code, s), outside)`` for ``outside`` the positions
    not in ``s``.  When no word meets the coordinates outside ``s``, the
    subcode is the code itself, made from the code's generators (``_cut``).
    Otherwise the kept words are a kernel with no generators at hand, and
    ``code_from_words`` finds them.
    """
    positions = _as_positions(code, s)
    words, n = code._packed, code.n
    outside = [i for i in range(n) if i + 1 not in positions]
    # word i meets the coordinates outside s where hit[i] is nonzero
    hit = _lanes_or(words, n, outside) if _by_columns(words, n) else map(any, map(gather(outside), words))
    kept = list(compress(words, map(not_, hit)))
    if len(kept) == len(words):
        return _cut(code, range(n))
    return code_from_words(code.ring, n, kept, code.table)


def residual(code: LinearCode, s) -> LinearCode:
    """Projection of the code onto the coordinates outside ``s``, made from
    the code's generators (``_cut``)."""
    positions = _as_positions(code, s)
    return _cut(code, [i - 1 for i in range(1, code.n + 1) if i not in positions])


def _cut(code: LinearCode, cols: Sequence[int]) -> LinearCode:
    """The code cut to the coordinates ``cols`` (0-based, in order).

    The cut of the span of the generators is the span of their cuts, so
    the cut words are a module with those generators, with no search and
    no closure check; they are sorted as ``code_from_words`` sorts them.
    """
    # all n coordinates, in order, are the words themselves
    words = code._packed if len(cols) == code.n else _project(code._packed, code.n, cols)
    gens = tuple(map(gather(cols), code.generators))
    return LinearCode(code.ring, len(cols), gens, sorted(words), code.table)


def coset_average(code: LinearCode, x: Sequence[int]) -> Fraction:
    """Average normalised weight over the coset x + C."""
    x = _checked_word(code, x)
    num, add, words, n = code.table.numerators, code.ring.add_table, code._packed, code.n
    if _by_columns(words, n):
        # column j holds y count(y) times, each weighing num[x_j + y]
        total = sum(num[s] * column.count(y)
                    for a, column in zip(x, _columns(words, n, range(n))) for y, s in enumerate(add[a]))
    else:
        # shifted[i][y] is the weight numerator of x_i + y
        shifted = [[num[s] for s in add[a]] for a in x]
        total = sum(sum(map(getitem, shifted, c)) for c in words)
    return Fraction(total, code.table.denominator * code.size)


@dataclass(frozen=True)
class CyclicSubmodule:
    generator: Word
    members: frozenset[Word]


def cyclic_span(ring: Ring, word: Sequence[int]) -> frozenset[Word]:
    """The set of left scalar multiples of a word."""
    word = tuple(word)
    return frozenset(tuple([row[c] for c in word]) for row in ring.mul_table)


def cyclic_submodule(code: LinearCode, c: Sequence[int]) -> CyclicSubmodule:
    c = tuple(c)
    if c not in code:
        raise ValueError("word is not in the code")
    return CyclicSubmodule(generator=c, members=cyclic_span(code.ring, c))


def min_hamming_word_structure(code: LinearCode, c: Sequence[int]) -> tuple[int, dict[int, int]]:
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
    orbit, reps = ring.unit_orbits
    # the zero word has no nonzero entry, and alpha = 0
    alpha = reps[orbit[next((x for x in c if x), 0)]]
    # {alpha * u: the smallest such unit u}
    row = ring.mul_table[alpha]
    smallest = {row[u]: u for u in sorted(ring.units, reverse=True)}
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
