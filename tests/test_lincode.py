import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from frobcode.lincode import _word_format, scale_word, word_add
from helpers import (BEYOND_LOCAL_SPECS, column_multiset_parameters, generated_ideal_size, krawtchouk,
                     macwilliams_transform, right_dual_enumerator, ring, ring_specs, table,
                     unit_orbit_index)

F = Fraction


def z4_code(rows):
    return fc.build_code(ring("Z4"), rows, table("Z4"))


def shortened_cut(code, s):
    """The shortened code cut to ``s`` (a position set or a word):
    ``residual(shorten(code, s), outside)``, for ``outside`` the positions
    not in ``s``."""
    inside = s if isinstance(s, (set, frozenset)) else fc.support(s)
    return fc.residual(fc.shorten(code, s), set(range(1, code.n + 1)) - inside)


# ---------------------------------------------------------------------------
# Words: support and Hamming weight (positions are 1-based)
# ---------------------------------------------------------------------------

def test_support_and_ell():
    assert fc.support((0, 2, 0, 2)) == {2, 4}
    assert fc.ell((0, 2, 0, 2)) == 2
    assert fc.support(()) == frozenset()
    assert fc.ell((0, 0, 0)) == 0
    assert fc.ell((0, 0, 0, 2, 0, 2, 2, 2)) == 4


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_single_row_z4():
    code = z4_code([(1, 2, 3)])
    assert code.size == 4
    assert code.words == {(0, 0, 0), (1, 2, 3), (2, 0, 2), (3, 2, 1)}
    assert code.min_hom_norm == 4
    assert all(fc.extend_weight(code.table, w) == 4 for w in code.words if any(w))
    assert code.min_hamming == 2
    assert code.ell_C == 3


def test_zero_generator_row():
    code = z4_code([(0, 0, 0, 0, 0)])
    assert code.size == 1
    assert code.words == {(0,) * 5}
    assert code.min_hom_norm is None
    assert code.min_hamming is None
    assert code.ell_C == 0


def test_word_order_is_message_order():
    code = z4_code([(1, 2, 3)])
    assert code.word_order == ((0, 0, 0), (1, 2, 3), (2, 0, 2), (3, 2, 1))


def product_sweep_order(r, rows):
    # the message sweep as a product loop: the word of every message is
    # built from zero, and kept on its first appearance
    n = len(rows[0])
    order = {}
    for message in product(range(r.size), repeat=len(rows)):
        word = (0,) * n
        for m, row in zip(message, rows):
            word = tuple(r.add(a, r.mul(m, b)) for a, b in zip(word, row))
        order.setdefault(word, None)
    return tuple(order)


def random_rows(rng, r, k, n):
    # fresh, zero, repeated and dependent rows, so that prefixes collide
    rows = []
    for _ in range(k):
        kind = rng.randrange(4) if rows else 0
        if kind == 0:
            rows.append(tuple(rng.randrange(r.size) for _ in range(n)))
        elif kind == 1:
            rows.append((0,) * n)
        elif kind == 2:
            rows.append(rng.choice(rows))
        else:
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = rng.randrange(r.size), rng.randrange(r.size)
            rows.append(tuple(r.add(r.mul(a, x), r.mul(b, y)) for x, y in zip(u, v)))
    return rows


@pytest.mark.parametrize(
    "spec,max_k",
    [("Z4", 4), ("GF(4)", 4), ("M2(GF(2))", 3), ("Z6", 3), ("Z8", 3), ("Z9", 3)],
)
def test_word_order_matches_product_sweep(spec, max_k):
    r, t = ring(spec), table(spec)
    rng = random.Random(spec)
    for _ in range(25):
        rows = random_rows(rng, r, rng.randint(1, max_k), rng.randint(1, 5))
        assert fc.build_code(r, rows, t).word_order == product_sweep_order(r, rows)


def test_octacode_parameters():
    code = fc.octacode()
    assert (code.n, code.size, code.min_hom_norm) == (8, 256, 6)
    assert (0, 0, 0, 2, 0, 2, 2, 2) in code
    assert code.min_hamming == 4


def test_row_length_mismatch():
    with pytest.raises(ValueError):
        z4_code([(1, 2), (1, 2, 3)])


def test_entry_out_of_range():
    with pytest.raises(ValueError):
        z4_code([(1, 7)])


def test_code_from_words_checks_word_length():
    # a word of length 3 in a code of length 2 would weigh 2 - 3 = -1
    with pytest.raises(ValueError, match="unequal lengths"):
        fc.code_from_words(ring("Z4"), 2, [(0, 0, 0)], table("Z4"))


def test_code_from_words_checks_entries():
    # GF(257) words are tuples: 300 would index past the end of its tables
    with pytest.raises(ValueError, match="entry 300 outside the ring of size 257"):
        fc.code_from_words(ring("GF(257)"), 2, [(0, 0), (300, 300)], table("GF(257)"))
    # Z17 words are bytes, which hold 20: it is refused once packed
    with pytest.raises(ValueError, match="entry 20 outside the ring of size 17"):
        fc.code_from_words(ring("Z17"), 2, [(0, 0), (20, 20)], table("Z17"))
    with pytest.raises(ValueError, match="entry 7 outside the ring of size 4"):
        fc.code_from_words(ring("Z4"), 2, [(0, 0), (7, 0)], table("Z4"))
    # Z4 words are packed as bytes, which cannot hold -1 or 300: the message
    # still names the entry
    with pytest.raises(ValueError, match="entry -1 outside the ring of size 4"):
        fc.code_from_words(ring("Z4"), 2, [(0, 0), (0, -1)], table("Z4"))
    with pytest.raises(ValueError, match="entry 300 outside the ring of size 4"):
        fc.code_from_words(ring("Z4"), 2, [(0, 0), (0, 300)], table("Z4"))


def test_code_from_words_refuses_a_set_that_is_not_a_submodule():
    with pytest.raises(ValueError, match="not closed"):
        fc.code_from_words(ring("Z4"), 2, [(0, 0), (1, 0)], table("Z4"))


@pytest.mark.parametrize("other", ["GF(4)", "Z2"])
def test_weight_table_of_another_ring_is_refused(other):
    # GF(4) has four elements, so its table would read as a wrong weight
    # (min_hom 8/3 where Z4 gives 4); Z2's is too short for the words
    message = rf"weight table of {re.escape(other)} given for a code over Z4"
    with pytest.raises(ValueError, match=message):
        fc.build_code(ring("Z4"), [(1, 2, 3)], table(other))


def test_weight_table_of_another_build_of_the_same_ring_is_accepted():
    again = fc.build_ring(fc.parse_ring_spec("Z4"))
    assert again is not ring("Z4")
    code = fc.build_code(ring("Z4"), [(1, 2, 3)], fc.hom_weight_table(again))
    assert code.min_hom_norm == 4
    assert fc.code_from_words(again, 3, code.words, table("Z4")).min_hom_norm == 4


def test_message_cap(monkeypatch):
    monkeypatch.setattr(fc.lincode, "_MESSAGE_CAP", 1 << 10)
    with pytest.raises(fc.SweepCapError):
        fc.build_code(ring("Z4"), [(1,)] * 20, table("Z4"))
    # the cap bounds coordinates built, |R|^k * n: 16 messages x 5 = 80 > 64
    monkeypatch.setattr(fc.lincode, "_MESSAGE_CAP", 64)
    with pytest.raises(fc.SweepCapError, match="coordinates"):
        fc.build_code(ring("Z4"), [(1, 0, 1, 2, 3), (0, 1, 1, 1, 2)], table("Z4"))
    monkeypatch.setattr(fc.lincode, "_MESSAGE_CAP", 20)
    assert fc.build_code(ring("Z4"), [(1, 0, 1, 2, 3)], table("Z4")).size == 4
    monkeypatch.undo()
    # 256^3 messages x 2 = 33.5M coordinates: rejected before any sweep or
    # weight table, at the default cap
    gf256 = ring("GF(256)")
    start = time.perf_counter()
    with pytest.raises(fc.SweepCapError):
        fc.build_code(gf256, [(1, 0), (0, 1), (1, 1)])
    assert time.perf_counter() - start < 1


def test_length_zero_code():
    code = fc.build_code(ring("Z4"), [()], table("Z4"))
    assert code.n == 0
    assert code.size == 1
    assert code.min_hom_norm is None


def test_build_code_needs_a_row():
    with pytest.raises(ValueError, match="no generator rows"):
        fc.build_code(ring("Z4"), [], table("Z4"))


@pytest.mark.parametrize("spec", ["Z4", "Z17", "GF(257)"])
def test_zero_code_rebuilds_at_its_length(spec):
    # words packed in pairs, in bytes and in tuples: a zero code's one
    # generator is the zero row
    r, t = ring(spec), table(spec)
    code = fc.build_code(r, [(1, 2, 0, 0)], t)
    shortened, projected = fc.shorten(code, set()), fc.residual(code, {1, 2})
    assert (shortened.n, projected.n) == (4, 2)
    for zero in (shortened, projected):
        assert zero.generators == ((0,) * zero.n,)
        again = fc.build_code(r, zero.generators, t)
        assert (again.n, again.word_order) == (zero.n, zero.word_order)


# ---------------------------------------------------------------------------
# Packed words (rings of at most 256 elements) against the tuple kernels
# ---------------------------------------------------------------------------

def tuple_sweep(r, rows, n):
    # the reference enumeration, the level sweep over tuples: one word_add
    # per extended prefix, each level deduplicated on first appearance
    level = [(0,) * n]
    for row in rows:
        scaled = [scale_word(r, a, row) for a in range(r.size)]
        level = list(dict.fromkeys(word_add(r, w, s) for w in level for s in scaled))
    return tuple(level)


@st.composite
def generator_rows(draw, r, max_rows=3):
    """1 to ``max_rows`` rows of length 0-8 over the ring ``r``, each fresh,
    zero, or a repeat or left multiple of an earlier one."""
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "multiple"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            rows.append(tuple(draw(st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n))))
        elif kind == "zero":
            rows.append((0,) * n)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a = draw(st.integers(0, r.size - 1))
            rows.append(scale_word(r, a, draw(st.sampled_from(rows))))
    return rows


# 16 elements fill the 4-bit pair table; Z17 is the first ring on tuples
@settings(max_examples=25, deadline=None, database=None)
@given(st.sampled_from(["GF(16)", "Z16", "CHAIN(4)", "Z2xZ8", "Z17"]), st.data())
def test_build_code_matches_the_tuple_sweep(spec, data):
    r, t = ring(spec), table(spec)
    rows = data.draw(generator_rows(r))
    n = len(rows[0])
    code = fc.build_code(r, rows, t)
    order = tuple_sweep(r, rows, n)
    assert code.word_order == order
    nonzero = [w for w in order if any(w)]
    weights = [sum((t.norm_weight[c] for c in w), F(0)) for w in nonzero]
    assert code.min_hom_norm == min(weights, default=None)
    assert code.min_hamming == min((sum(1 for c in w if c) for w in nonzero), default=None)
    assert code.support == {i + 1 for w in order for i, c in enumerate(w) if c}


@pytest.mark.parametrize(
    "spec", ["Z2", "Z4", "GF(8)", "GF(16)", "M2(GF(2))", "Z2xZ8", "Z17", "CHAIN(9)", "M2(GF(4))"])
def test_byte_tables_are_the_operation_tables(spec):
    # one pair table up to 16 elements, then one table per addend
    r = ring(spec)
    pack, add, mul, *_ = entry = _word_format(r)
    assert _word_format(r) is entry is r._facts["words"]  # built once per ring
    assert pack is bytes
    assert all(len(m) == 256 for m in mul) and len(mul) == r.size
    for a in range(r.size):
        for b in range(r.size):
            total = add[a << 4 | b] if r.size <= 16 else add[b][a]
            assert total == r.add(a, b) and mul[a][b] == r.mul(a, b)


def test_byte_tables_need_at_most_256_elements():
    pack, add, mul, to_class, _, _ = _word_format(ring("GF(256)"))
    assert pack is bytes and len(add) == len(mul) == 256 and len(to_class) == 256
    # above 256 elements words are tuples, with no translate tables; the class
    # bits are in both formats: GF(257) has the classes {0} and the units
    pack, add, mul, to_class, bits, _ = _word_format(ring("GF(257)"))
    assert (pack, add, mul, to_class) == (tuple, None, None, None)
    assert bits == (1,) + (2,) * 256


def check_against_the_tuple_reference(code, rows):
    """``word_order``, the per-word facts, a coset average and the derived
    codes of a code built from ``rows``, against the tuple sweep and
    per-word definitions; over more than 64 elements |Rc| is checked on
    every 5th word."""
    r, n = code.ring, code.n
    sample = 1 if r.size <= 64 else 5
    order = tuple_sweep(r, rows, n)
    assert code.word_order == order
    check_per_word_facts(code, sample)
    x = tuple((3 * i + 1) % r.size for i in range(n))
    total = sum(code.table.numerators[r.add(a, c)] for w in order for a, c in zip(x, w))
    assert fc.coset_average(code, x) == F(total, code.table.denominator * len(order))
    for s in [set(range(1, n + 1, 2)), fc.support(order[-1])]:
        inside = [w for w in order if fc.support(w) <= s]
        cols = [i - 1 for i in sorted(s)]
        rest = [i for i in range(n) if i + 1 not in s]
        expected = [
            (fc.shorten(code, s), inside),
            (shortened_cut(code, s), [tuple(w[i] for i in cols) for w in inside]),
            (fc.residual(code, s), [tuple(w[i] for i in rest) for w in order]),
        ]
        for derived, words in expected:
            assert derived.word_order == tuple(sorted(set(words)))
            assert set(tuple_sweep(r, derived.generators, derived.n)) == derived.words
            check_per_word_facts(derived, sample)


@settings(max_examples=20, deadline=None, database=None)
@given(ring_specs(256).filter(lambda drawn: drawn[1] >= 17), st.data())
def test_byte_words_match_the_tuple_reference(drawn, data):
    # rings of 17-256 elements: words of one byte per coordinate, each level
    # built column by column
    r = ring(drawn[0])
    rows = data.draw(generator_rows(r, max_rows=2 if r.size <= 32 else 1))
    check_against_the_tuple_reference(fc.build_code(r, rows, table(drawn[0])), rows)


# the top of the pair table, the first and last rings of one byte per
# coordinate (M2(GF(4)) not commutative, Z2^8 with 256 classes), and the
# first ring left on tuples
BOUNDARY_SPECS = ["GF(16)", "Z17", "GF(256)", "M2(GF(4))", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "GF(257)"]


@pytest.mark.parametrize("spec", BOUNDARY_SPECS)
def test_boundary_rings_match_the_tuple_reference(spec):
    r, t = ring(spec), table(spec)
    rng = random.Random(spec)
    u = rng.choice(sorted(set(range(r.size)) - r.units - {0}) or [0])
    row = tuple(rng.randrange(r.size) for _ in range(5))
    # a fresh row, a zero row, a row repeated, and a non-unit multiple, over
    # which the level collapses
    for rows in [[row], [row, (0,) * 5], [row, row], [row, scale_word(r, u, row)]]:
        check_against_the_tuple_reference(fc.build_code(r, rows, t), rows)
    for rows in [[()], [(), ()], [(0,) * 4, (0,) * 4]]:
        code = fc.build_code(r, rows, t)
        assert code.word_order == ((0,) * len(rows[0]),)
        check_against_the_tuple_reference(code, rows)
    with pytest.raises(ValueError, match="not closed"):
        fc.code_from_words(r, 2, [(0, 0), (1, 0)], t)


# ---------------------------------------------------------------------------
# The tuple views of a code's packed words
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, database=None)
@given(ring_specs().map(lambda drawn: drawn[0]) | st.sampled_from(BOUNDARY_SPECS), st.data())
def test_tuple_views_match_the_tuple_sweep(spec, data):
    r, t = ring(spec), table(spec)
    rows = data.draw(generator_rows(r, max_rows=2 if r.size <= 32 else 1))
    code = fc.build_code(r, rows, t)
    order = tuple_sweep(r, rows, code.n)
    assert code._word_order is None and code._words is None  # made on first read
    assert tuple(map(code.word, range(code.size))) == order
    assert code.word_order == order == tuple(code) and code.size == len(order)
    assert code.words == frozenset(order)
    other = tuple(data.draw(st.lists(st.integers(0, r.size - 1), min_size=code.n, max_size=code.n)))
    assert (other in code) == (list(other) in code) == (other in order)
    average = sum((t.norm_weight[r.add(a, b)] for c in order for a, b in zip(other, c)), F(0))
    assert fc.coset_average(code, other) == average / len(order)
    for c in order[::max(1, len(order) // 6)]:
        assert c in code and list(c) in code
        members = frozenset(tuple(r.mul(a, x) for x in c) for a in range(r.size))
        assert fc.cyclic_submodule(code, c).members == members
        assert code.cyclic_size(c) == len(members) == code.cyclic_sizes[order.index(c)]
        s = fc.support(c)
        assert fc.shorten(code, c).words == {w for w in order if fc.support(w) <= s}
        assert fc.residual(code, c).words == {
            tuple(x for i, x in enumerate(w, 1) if i not in s) for w in order}


@pytest.mark.parametrize("spec", ["Z4", *BOUNDARY_SPECS])
def test_words_that_cannot_be_packed_are_not_members(spec):
    r = ring(spec)
    code = fc.build_code(r, [(1, 1, 0)], table(spec))
    assert (1, 1, 0) in code and [1, 1, 0] in code
    # wrong lengths, an entry of |R| or more, of 256 or more, negative, or
    # not an int, and things that are not sequences of entries at all
    for word in [(), (1, 1), (1, 1, 0, 0), (r.size, 0, 0), (0, 0, 256), (0, 0, 10 ** 30),
                 (-1, 0, 0), (1, 1, -256), (1, 1, 0.5), (1, "1", 0), (None, 1, 0), ((1,), 1, 0),
                 "110", 3, None]:
        assert word not in code, word
        with pytest.raises(ValueError, match="word is not in the code"):
            code.cyclic_size(word)


@pytest.mark.parametrize("spec", ["Z4", "GF(257)"])
def test_membership_is_the_same_in_both_word_formats(spec):
    # Z4 packs words as bytes and GF(257) keeps tuples; an entry that is
    # not an int is refused by both, even when it equals one
    code = fc.build_code(ring(spec), [(1, 0)], table(spec))
    assert (1, 0) in code and [1, 0] in code and (True, False) in code
    for word in [(1.0, 0.0), (1.0, 0), (1, 0.0), (Fraction(1), 0), (1 + 0j, 0)]:
        assert word not in code, word
        with pytest.raises(ValueError, match="word is not in the code"):
            code.cyclic_size(word)


def test_bounds_and_the_chain_leave_the_tuple_views_unbuilt():
    # check_all and the residual chain read the packed words and the
    # per-word lists; only their witness and chain words become tuples
    code = fc.simplex(ring("GF(2)"), 4, table("GF(2)"))
    fc.check_all(code)
    chain = fc.residual_chain(code)
    assert chain.r > 0
    for stage in chain.stages:
        assert stage.code._word_order is None and stage.code._words is None


# ---------------------------------------------------------------------------
# Per-word facts through the class map, against their per-word definitions
# ---------------------------------------------------------------------------

def check_per_word_facts(code, sample=1):
    """Hamming weights, the minimum weight and every ``sample``-th |Rc|."""
    r, t = code.ring, code.table
    assert code.hamming_weights == [fc.ell(w) for w in code.word_order]
    weights = [sum((t.norm_weight[x] for x in w), F(0)) for w in code.word_order if any(w)]
    assert code.min_hom_norm == min(weights, default=None)
    for w, size in list(zip(code.word_order, code.cyclic_sizes))[::sample]:
        assert size == code.cyclic_size(w) == len(fc.cyclic_span(r, w))


@pytest.mark.parametrize("spec, m", [("Z4", 4), ("GF(16)", 2), ("M2(GF(2))", 2), ("CHAIN(5)", 1)])
def test_weight_sums_average_to_the_effective_length(spec, m):
    # a second method for weights read by class: sum over C of w(c)/gamma =
    # |C| ell(C), with each entry weighed as the least member of its class
    r, t = ring(spec), table(spec)
    code = fc.simplex(r, m, t)
    classes, reps = r.unit_orbits
    by_class = [t.numerators[reps[k]] for k in classes]
    read = sum(by_class[c] for w in code.word_order for c in w)
    per_coordinate = sum(t.numerators[c] for w in code.word_order for c in w)
    assert read == per_coordinate == code.size * code.ell_C * t.denominator
    check_per_word_facts(code)


@pytest.mark.parametrize("spec", ["Z4", "Z9", "GF(16)", "M2(GF(2))", "Z25", "GF(27)"])
def test_classes_are_unit_orbits_cut_by_weight(spec):
    # one map per ring, of whole orbits: the weight from characters is
    # constant on each orbit, so cutting by it leaves the orbit whole; the
    # word format translates each element to its orbit's index
    r, t = ring(spec), table(spec)
    classes, reps = r.unit_orbits
    assert r.unit_orbits is r._facts["orbits"]
    assert classes[0] == 0 and list(reps) == sorted(reps)
    _, _, _, to_class, bits, _ = _word_format(r)
    assert list(to_class) == list(classes) + [0] * (256 - r.size)
    assert bits == tuple(1 << k for k in classes)
    for x in range(r.size):
        assert reps[classes[x]] == min(y for y in range(r.size) if classes[y] == classes[x])
        orbit = {r.mul(x, u) for u in r.units}
        assert {y for y in range(r.size) if classes[y] == classes[x]} == orbit == {
            y for y in orbit if t.numerators[y] == t.numerators[x]}


def odd_table(r):
    """A weight table of the ring ``r`` that is not constant on the unit
    orbits of most rings, with numerators 2..4 over 2."""
    return fc.HomWeightTable(ring=r, gamma=F(1), norm_weight=tuple(
        F(0) if x == 0 else F(x % 3 + 1, 2) for x in range(r.size)))


@pytest.mark.parametrize("spec", ["Z5", "GF(9)", "Z19"])
def test_per_word_facts_under_weights_not_constant_on_unit_orbits(spec):
    # the units of these rings form one orbit, which this table cuts by
    # weight: weights are read per element, |Rc| per whole orbit
    r = ring(spec)
    odd = odd_table(r)
    assert len(r.unit_orbits[1]) == 2
    rng = random.Random(spec)
    for k, n in [(1, 3), (2, 5), (1, 40)]:
        code = fc.build_code(r, random_rows(rng, r, k, n), odd)
        check_per_word_facts(code)


def test_per_word_facts_on_512_classes():
    # one unit, so every element is its own class: the masks have 512 bits
    spec = "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"
    code = fc.simplex(ring(spec), 1, table(spec))
    assert len(ring(spec).unit_orbits[1]) == 512
    check_per_word_facts(code, sample=17)


def test_codes_over_one_ring_and_table_share_their_cyclic_sizes(monkeypatch):
    # a ring of its own, so its word format is not built yet and its memo
    # starts empty: a code and its shortened, residual and chain codes share
    # one entry, and span each set of classes once between them
    r = fc.build_ring(fc.parse_ring_spec("CHAIN(3)"))
    t = fc.hom_weight_table(r)
    spans, span = [], fc.lincode.cyclic_span
    monkeypatch.setattr(fc.lincode, "cyclic_span", lambda r, v: spans.append(tuple(v)) or span(r, v))
    assert "words" not in r._facts
    code = fc.hjelmslev_line(r, t)
    c = code.word_order[-1]
    entry = r._facts["words"]
    reps, sizes = r.unit_orbits[1], entry[5]
    chain = [stage.code for stage in fc.residual_chain(code).stages]
    assert len(chain) > 1
    derived = [fc.shorten(code, c), shortened_cut(code, c), fc.residual(code, c)]
    for shared in [code, *derived, *chain]:
        check_per_word_facts(shared)
        assert shared._format is entry is _word_format(r)
    assert len(spans) == len(set(spans)) == len(sizes) > 1
    for mask, size in sizes.items():
        assert size == len(span(r, [x for k, x in enumerate(reps) if mask >> k & 1]))


# |Rc| against a second method: the size of the right ideal c_1R + ... + c_nR
# (helpers.generated_ideal_size), with no multiple of the word taken

@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(BEYOND_LOCAL_SPECS), st.data())
def test_cyclic_sizes_are_the_sizes_of_the_right_ideals_of_the_entries(spec, data):
    r = ring(spec)
    k, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 4))
    row = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
    code = fc.build_code(r, data.draw(st.lists(row, min_size=k, max_size=k)), table(spec))
    assert code.cyclic_sizes == [generated_ideal_size(r, w) for w in code.word_order]


@pytest.mark.parametrize("spec", ["M3(GF(2))", "Z512", "GF(512)", "Z8xZ64", "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2"])
def test_cyclic_sizes_at_the_cap_are_the_sizes_of_the_right_ideals(spec):
    # every 4th multiple of a drawn row of 6 entries
    r, rng = ring(spec), random.Random(spec)
    code = fc.build_code(r, [tuple(rng.randrange(r.size) for _ in range(6))], table(spec))
    sizes = code.cyclic_sizes
    for i in range(0, code.size, 4):
        assert sizes[i] == generated_ideal_size(r, code.word(i))


def test_left_ideals_of_the_entries_fail_the_second_method():
    # over M2(GF(2)), (E11, E12) has |Rc| = 4, the size of E11R + E12R (the
    # matrices with a zero second row), but RE11 + RE12 is the whole ring
    r = ring("M2(GF(2))")
    e11, e12 = (fc.parse_element(r, x) for x in ("[1;0;0;0]", "[0;1;0;0]"))
    code = fc.build_code(r, [(e11, e12)], table("M2(GF(2))"))
    left = [generated_ideal_size(r, w, side="left") for w in code.word_order]
    assert code.cyclic_sizes == [generated_ideal_size(r, w) for w in code.word_order] != left
    assert code.cyclic_size((e11, e12)) == 4 == generated_ideal_size(r, (e11, e12))
    assert generated_ideal_size(r, (e11, e12), side="left") == 16


@settings(max_examples=30, deadline=None, database=None)
@given(ring_specs(32), st.data())
def test_per_word_lists_match_the_per_word_facts(drawn, data):
    r = ring(drawn[0])
    k = data.draw(st.integers(1, 2 if r.size <= 16 else 1))
    # short and long words: packed words of codes with at least 4n words
    # by columns, the rest word by word, tuples per coordinate
    n = data.draw(st.integers(1, 8) | st.integers(120, 130))
    row = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
    code = fc.build_code(r, data.draw(st.lists(row, min_size=k, max_size=k)))
    assert len(code.hamming_weights) == len(code.cyclic_sizes) == code.size
    check_per_word_facts(code)


# Rings for the column reads of packed words (at least 4n words of n bytes):
# GF(256) weighs nonzero elements 256/255, a numerator past one byte, so
# its weights are read word by word, and Z2^4 has 16 classes, past the 8
# bits of a byte lane, so its classes are; GF(16) and CHAIN(13) words of
# more than 15 and 19 entries add their weights in more than one chunk of
# byte lanes; Z9 and M2(GF(2)) are rings of the sweep workload, M2(GF(2))
# not commutative; the units of Z5 and Z19 form one orbit, which
# ``odd_table`` cuts by weight.
COLUMN_SPECS = ["GF(256)", "Z2xZ2xZ2xZ2", "Z9", "M2(GF(2))", "GF(16)", "CHAIN(13)", "Z5", "Z19"]


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(COLUMN_SPECS), st.booleans(), st.data())
def test_column_reads_match_the_tuple_reference(spec, odd, data):
    # codes of M words on both sides of M = 4n: words of up to M/2 entries,
    # under the ring's table or one not constant on its unit orbits, and
    # with some coordinates zero on every row, so that the coset averages
    # depend on x off the support
    r = ring(spec)
    t = odd_table(r) if odd else table(spec)
    k = data.draw(st.integers(1, 2 if r.size <= 16 else 1))
    n = data.draw(st.integers(1, min(r.size ** k // 2, 96)))
    word = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
    zero = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    rows = [tuple(0 if i in zero else x for i, x in enumerate(row))
            for row in data.draw(st.lists(word, min_size=k, max_size=k))]
    check_against_the_tuple_reference(fc.build_code(r, rows, t), rows)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_lane_sums_match_the_per_word_sums(data):
    # byte tables up to 255, about half their entries at the top, on words
    # long enough for several chunks of byte lanes: each chunk holds as many
    # columns as cannot carry, which a word of top entries only fills
    top = data.draw(st.sampled_from([1, 2, 16, 128, 255]) | st.integers(1, 255))
    table = bytes(data.draw(st.lists(st.integers(0, top) | st.just(top), min_size=256, max_size=256)))
    top = max(table)
    n = data.draw(st.integers(1, 300))
    words = data.draw(st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=40))
    words.append(bytes([table.index(top)]) * n)
    sums = list(fc.lincode._lane_sums(words, n, table, top))
    assert sums == [sum(table[x] for x in w) for w in words]


def test_facts_are_read_by_columns_from_four_words_per_coordinate(monkeypatch):
    # one row of units over Z4 makes 4 words: 4 >= 4n only at n = 1, where
    # the weights, Hamming weights, classes, shortening, projection and
    # coset average each read the code's columns once; words above 256
    # elements are tuples, never read by columns
    read, columns = [], fc.lincode._columns
    monkeypatch.setattr(fc.lincode, "_columns", lambda words, *rest: read.append(words) or columns(
        words, *rest))
    for spec, n, reads in [("Z4", 1, 6), ("Z4", 2, 0), ("GF(257)", 1, 0)]:
        code = fc.build_code(ring(spec), [(1,) * n], table(spec))
        code.cyclic_sizes, fc.shorten(code, {1}), fc.residual(code, {1}), fc.coset_average(code, (1,) * n)
        assert sum(words is code._packed for words in read) == reads


MACWILLIAMS_SPECS = ("Z4", "GF(4)", "CHAIN(2)", "M2(GF(2))", "Z6", "Z8", "Z2xZ4", "Z9", "M2(Z2)xZ2")


def test_macwilliams_duality_checks_the_enumerated_codes():
    # a second method for the word sets: the right dual, swept over R^n from
    # the generator rows alone, has |R|^n / |C| words, and its left-orbit
    # enumerator is the MacWilliams transform of the enumerated code
    rng = random.Random(22)
    codes = [fc.octacode(table("Z4"))]
    for spec in MACWILLIAMS_SPECS:
        r = ring(spec)
        for _ in range(6):
            k, n = rng.randint(1, 2), rng.randint(1, 4)
            codes.append(fc.build_code(r, random_rows(rng, r, k, n), table(spec)))
    kernels = {}
    for code in codes:
        r = code.ring
        if r.name not in kernels:
            kernels[r.name] = krawtchouk(r, r.char_exp, r.add_exponent)
        dual = right_dual_enumerator(r, code.generators)
        assert code.size * sum(dual.values()) == r.size ** code.n
        assert macwilliams_transform(code, kernels[r.name]) == {
            comp: code.size * count for comp, count in dual.items()}
    # the Octacode is its own dual: its words and its dual's meet the left
    # unit orbits alike
    octa, left = codes[0], unit_orbit_index(ring("Z4"), "left")
    assert right_dual_enumerator(octa.ring, octa.generators) == Counter(
        tuple(sum(left[x] == k for x in c) for k in range(max(left) + 1)) for c in octa)
    # 2 chi is not generating on Z4 (it vanishes on the ideal {0, 2}), and
    # the identity then fails on the Octacode and on each drawn Z4 code
    z4 = ring("Z4")
    doubled = krawtchouk(z4, [2 * e for e in z4.char_exp], z4.add_exponent)
    for code in codes[:7]:
        dual = right_dual_enumerator(z4, code.generators)
        assert macwilliams_transform(code, doubled) != {
            comp: code.size * count for comp, count in dual.items()}


def multiset_codes(spec, count, seed):
    """``count`` drawn codes over ``spec``, with some of their shortened and
    residual codes, whose generators are found or cut, not given."""
    r, rng = ring(spec), random.Random(seed)
    codes = []
    for _ in range(count):
        code = fc.build_code(r, random_rows(rng, r, rng.randint(1, 3), rng.randint(1, 5)), table(spec))
        c = code.word(rng.randrange(code.size))
        codes += [code, fc.shorten(code, c), fc.residual(code, c)]
    return codes


def parameters(code):
    return code.size, code.min_hom_norm, code.min_hamming


def test_column_multisets_check_the_enumerated_codes():
    # a second method for M, d/gamma and the least Hamming weight: G's
    # columns grouped by right unit orbit weigh every message, with no word
    # set, over a non-commutative ring, a Hjelmslev line and commutative rings
    m2 = ring("M2(GF(2))")
    codes = [fc.simplex(m2, 1, table("M2(GF(2))")), fc.simplex(m2, 2, table("M2(GF(2))")),
             fc.hjelmslev_line(ring("CHAIN(9)"), table("CHAIN(9)")), fc.octacode(table("Z4"))]
    for spec in MACWILLIAMS_SPECS:
        codes += multiset_codes(spec, 10, spec)
    for code in codes:
        assert column_multiset_parameters(code) == parameters(code)


def test_left_orbit_columns_fail_the_column_multisets():
    # x.(u g) is not (x.g) u' over M2(GF(2)): grouping the columns by left
    # unit orbits {u g} misreads its simplex codes and some drawn codes
    m2 = ring("M2(GF(2))")
    for m in (1, 2):
        code = fc.simplex(m2, m, table("M2(GF(2))"))
        assert column_multiset_parameters(code, "left") != parameters(code)
    drawn = multiset_codes("M2(GF(2))", 10, 30)
    assert any(column_multiset_parameters(code, "left") != parameters(code) for code in drawn)


def test_closure_exhaustive():
    code = z4_code([(1, 2, 3), (0, 2, 2)])
    for u in code.words:
        for v in code.words:
            assert fc.lincode.word_add(code.ring, u, v) in code.words
        for r in range(4):
            assert fc.lincode.scale_word(code.ring, r, u) in code.words


# ---------------------------------------------------------------------------
# Shortening and residuals
# ---------------------------------------------------------------------------

def test_shorten_octacode_is_cyclic_submodule():
    code = fc.octacode()
    c = (0, 0, 0, 2, 0, 2, 2, 2)
    sho = fc.shorten(code, c)
    assert sho.words == {(0,) * 8, c}
    assert sho.words == fc.cyclic_submodule(code, c).members
    assert fc.ell(c) == 4 < code.min_hom_norm  # the shortening hypothesis


def test_shorten_full_and_empty_position_sets():
    code = z4_code([(1, 2, 3)])
    assert fc.shorten(code, set(range(1, 4))).words == code.words
    assert fc.shorten(code, set()).words == {(0, 0, 0)}


def test_shorten_compact_drops_vanishing_coordinates():
    code = fc.octacode()
    c = (0, 0, 0, 2, 0, 2, 2, 2)
    sho = shortened_cut(code, c)
    assert sho.n == 4
    assert sho.words == {(0, 0, 0, 0), (2, 2, 2, 2)}


def test_projections_keep_zero_and_one_column():
    code = z4_code([(1, 2, 3), (0, 2, 0)])
    assert fc.residual(code, {1, 2, 3}).words == {()}
    assert fc.residual(code, {1, 3}).words == {(0,), (2,)}
    assert shortened_cut(code, {2}).words == {(0,), (2,)}
    assert shortened_cut(code, set()).words == {()}


def test_shorten_validates_positions():
    code = z4_code([(1, 2, 3)])
    with pytest.raises(ValueError):
        fc.shorten(code, {0, 1})
    with pytest.raises(ValueError):
        fc.shorten(code, {4})


@pytest.mark.parametrize("derive", [fc.shorten, fc.residual])
@pytest.mark.parametrize("word,bad", [((9,) * 8, 9), ((-1,) + (0,) * 7, -1), ((0,) * 7 + (4,), 4)])
def test_derived_codes_refuse_words_outside_the_ring(derive, word, bad):
    # (9,)*8 over Z4 once shortened to all 256 words: its entries were never read
    with pytest.raises(ValueError, match=f"entry {bad} outside the ring of size 4"):
        derive(fc.octacode(), word)


@pytest.mark.parametrize("spec", ["Z4", "GF(257)"])  # bytes words, then tuple words
def test_entries_that_are_not_ints_are_refused_by_name(spec):
    # entries are read through operator.index, as membership reads them: a
    # float once passed shorten and residual, and coset_average indexed by it
    r, t = ring(spec), table(spec)
    code = fc.build_code(r, [(1, 2, 3)], t)
    with pytest.raises(ValueError, match=r"entry 1\.5 outside the ring"):
        fc.shorten(code, (1.5, 0, 0))
    with pytest.raises(ValueError, match=r"entry 0\.5 outside the ring"):
        fc.residual(code, (0.5, 0, 0))
    with pytest.raises(ValueError, match=r"entry 1\.0 outside the ring"):
        fc.coset_average(code, (1.0, 2, 3))
    with pytest.raises(ValueError, match=r"entry 2\.0 outside the ring"):
        fc.build_code(r, [(1, 2.0, 3)], t)
    with pytest.raises(ValueError, match="entry '1' outside the ring"):
        fc.code_from_words(r, 3, [(0, 0, 0), ("1", 2, 3)], t)
    assert (1.0, 2, 3) not in code and (1, 2, 3) in code


def test_residual_octacode():
    code = fc.octacode()
    res = fc.residual(code, (0, 0, 0, 2, 0, 2, 2, 2))
    assert (res.n, res.size, res.min_hom_norm) == (4, 128, 2)


def test_residual_empty_set_is_identity():
    code = z4_code([(1, 2, 3)])
    res = fc.residual(code, set())
    assert res.words == code.words


def test_residual_simplex_word():
    code = z4_code([(1, 2, 3)])
    res = fc.residual(code, fc.support((2, 0, 2)))
    assert res.n == 1
    assert res.words == {(0,), (2,)}
    assert res.size == code.size // len(fc.cyclic_submodule(code, (2, 0, 2)).members)


def test_size_factors_through_shorten_and_residual():
    code = fc.octacode()
    for s in [set(), {1}, {1, 2, 3}, {4, 6, 7, 8}, set(range(1, 9))]:
        assert code.size == fc.shorten(code, s).size * fc.residual(code, s).size
    small = z4_code([(1, 2, 3), (0, 2, 2)])
    for s in [set(), {1}, {2, 3}, {1, 3}]:
        assert small.size == fc.shorten(small, s).size * fc.residual(small, s).size


def word_support(w):
    return {i + 1 for i, c in enumerate(w) if c}


@settings(max_examples=40, deadline=None, database=None)
@given(ring_specs(), st.data())
def test_derived_codes_match_their_per_word_definitions(drawn, data):
    # rings of up to 64 elements: packed words up to 16, tuples above
    r, t = ring(drawn[0]), table(drawn[0])
    k = data.draw(st.integers(1, 3 if r.size <= 16 else 2))
    n = data.draw(st.integers(0, 6))
    word = st.tuples(*[st.integers(0, r.size - 1)] * n)
    code = fc.build_code(r, data.draw(st.lists(word, min_size=k, max_size=k)), t)
    # S as a position set, a codeword or any word
    position_set = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: {i for i, b in enumerate(bits, 1) if b})
    s = data.draw(position_set | st.sampled_from(code.word_order) | word)
    positions = s if isinstance(s, set) else word_support(s)
    kept = sorted(positions)
    outside = [i for i in range(1, n + 1) if i not in positions]
    inside = [w for w in code.word_order if word_support(w) <= positions]

    def project(words, cols):
        return {tuple(w[i - 1] for i in cols) for w in words}

    cases = [
        (fc.shorten(code, s), n, set(inside)),
        (shortened_cut(code, s), len(kept), project(inside, kept)),
        (fc.residual(code, s), len(outside), project(code.word_order, outside)),
    ]
    for derived, length, words in cases:
        assert derived.n == length
        assert derived.word_order == tuple(sorted(words))
        assert derived.support == set().union(*map(word_support, words))
        assert set(derived.generators) <= derived.words


def check_cut_against_code_from_words(code, s):
    """``residual(C, s)``, and ``shorten(C, s)`` and its cut to ``s`` when no
    word meets the coordinates outside ``s``, made from C's generators, against
    ``code_from_words`` on the same words: the same words in the same order,
    support and per-word facts, and generators that span exactly the words."""
    r, t = code.ring, code.table
    derived = [fc.residual(code, s)]
    if {i for w in code.word_order for i in word_support(w)} <= s:
        derived += [fc.shorten(code, s), shortened_cut(code, s)]
    for cut in derived:
        reference = fc.code_from_words(r, cut.n, cut.word_order, t)
        assert cut.word_order == reference.word_order == tuple(sorted(cut.word_order))
        assert cut.support == reference.support
        assert cut.hamming_weights == reference.hamming_weights
        assert cut.min_hom_norm == reference.min_hom_norm
        assert cut.cyclic_sizes == reference.cyclic_sizes
        assert set(tuple_sweep(r, cut.generators, cut.n)) == cut.words
    return derived


@settings(max_examples=40, deadline=None, database=None)
@given(ring_specs().map(lambda drawn: drawn[0]) | st.sampled_from(BOUNDARY_SPECS), st.data())
def test_cut_codes_match_code_from_words(spec, data):
    # S as a random position set, the support of the code plus random
    # positions (nothing is dropped by shortening), or a codeword
    r = ring(spec)
    rows = data.draw(generator_rows(r, max_rows=2 if r.size <= 32 else 1))
    code = fc.build_code(r, rows, table(spec))
    some = st.sets(st.integers(1, code.n), max_size=code.n) if code.n else st.just(set())
    s = data.draw(some | some.map(code.support.union) | st.sampled_from(code.word_order).map(word_support))
    check_cut_against_code_from_words(code, s)


@pytest.mark.parametrize("spec, rows", [
    # tuple words above 256 elements, and packed words read by columns
    ("GF(257)", [(1, 5, 0, 256)]),
    ("Z512", [(2, 0, 256, 6, 8)]),
    ("Z4", [(1, 2, 3, 0), (0, 2, 2, 0)]),
    ("GF(16)", [(1, 2, 0, 4, 5), (0, 0, 0, 7, 9)]),
])
def test_cut_codes_match_code_from_words_on_fixed_codes(spec, rows):
    code = fc.build_code(ring(spec), rows, table(spec))
    n = code.n
    for s in [set(), {1}, set(code.support), set(range(1, n + 1)), {2, n}]:
        derived = check_cut_against_code_from_words(code, s)
        assert len(derived) == (3 if code.support <= s else 1)


def test_cuts_make_no_search_and_no_span(monkeypatch):
    # residuals, chain stages and shortenings that drop no word are made
    # from the parent's generators; a shortening that drops words still
    # goes through code_from_words, which spans its generators
    code = fc.octacode()
    c = (0, 0, 0, 2, 0, 2, 2, 2)
    calls = Counter()
    for name in ["code_from_words", "_extend_level"]:
        def counted(*args, name=name, original=getattr(fc.lincode, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(fc.lincode, name, counted)
    everything = set(range(1, 9))
    cuts = [fc.residual(code, c), fc.residual(code, set()), fc.shorten(code, everything),
            shortened_cut(code, everything)]
    chain = fc.residual_chain(code)
    assert chain.r > 0 and [cut.size for cut in cuts] == [128, 256, 256, 256]
    assert calls == Counter()
    assert fc.shorten(code, c).size == 2
    assert calls["code_from_words"] == 1 and calls["_extend_level"] >= 1


# ---------------------------------------------------------------------------
# Coset averages
# ---------------------------------------------------------------------------

def test_coset_average_trivial_code():
    code = z4_code([(0, 0)])
    for x in [(1, 2), (3, 0), (2, 2)]:
        assert fc.coset_average(code, x) == fc.extend_weight(code.table, x)


def test_coset_average_full_space():
    code = z4_code([(1, 0), (0, 1)])
    assert code.size == 16
    for x in [(0, 0), (1, 3), (2, 2)]:
        assert fc.coset_average(code, x) == 2


def test_coset_average_line_code():
    code = z4_code([(2, 2)])  # {(0,0), (2,2)}
    assert fc.coset_average(code, (1, 0)) == 2


def coset_average_formula(code, x):
    # support-side expression, independently of the coset sum
    w = code.table.norm_weight
    outside = [i for i in range(code.n) if i + 1 not in code.support]
    return code.ell_C + sum((w[x[i]] for i in outside), F(0))


@pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "GF(4)", "CHAIN(2)"])
def test_coset_identity_small_exhaustive(spec):
    # every code spanned by two rows of length 2, against every coset rep
    from itertools import product

    r = ring(spec)
    t = table(spec)
    for rows in product(product(range(r.size), repeat=2), repeat=2):
        code = fc.build_code(r, rows, t)
        for x in product(range(r.size), repeat=2):
            assert fc.coset_average(code, x) == coset_average_formula(code, x)


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z9", "GF(4)", "M2(GF(2))", "CHAIN(2)"])
def test_weight_sums_match_fraction_sums(spec):
    # the integer kernel against plain Fraction sums over norm_weight
    r, t = ring(spec), table(spec)
    rng = random.Random(spec)

    def fraction_weight(word):
        return sum((t.norm_weight[c] for c in word), F(0))

    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randrange(r.size) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        code = fc.build_code(r, rows, t)
        weights = [fraction_weight(w) for w in code.word_order if any(w)]
        assert code.min_hom_norm == min(weights, default=None)
        assert code.min_hom_norm is None or isinstance(code.min_hom_norm, Fraction)
        for w in code.word_order:
            value = fc.extend_weight(t, w)
            assert isinstance(value, Fraction) and value == fraction_weight(w)
        x = tuple(rng.randrange(r.size) for _ in range(n))
        total = sum(
            (fraction_weight([r.add(a, b) for a, b in zip(x, c)]) for c in code.word_order), F(0)
        )
        average = fc.coset_average(code, x)
        assert isinstance(average, Fraction) and average == total / code.size


def test_coset_average_length_check():
    with pytest.raises(ValueError):
        fc.coset_average(z4_code([(1, 2, 3)]), (1, 2))


@pytest.mark.parametrize("word,bad", [((-1,) + (0,) * 7, -1), ((7,) * 8, 7), ((0,) * 7 + (4,), 4)])
def test_coset_average_refuses_words_outside_the_ring(word, bad):
    # -1 once indexed from the end and averaged the coset of (3, 0, ..., 0)
    with pytest.raises(ValueError, match=f"entry {bad} outside the ring of size 4"):
        fc.coset_average(fc.octacode(), word)


# ---------------------------------------------------------------------------
# Cyclic submodules
# ---------------------------------------------------------------------------

def test_cyclic_submodule_octacode_word():
    code = fc.octacode()
    sub = fc.cyclic_submodule(code, (0, 0, 0, 2, 0, 2, 2, 2))
    assert len(sub.members) == 2


def test_cyclic_submodule_zero():
    code = z4_code([(1, 2, 3)])
    assert fc.cyclic_submodule(code, (0, 0, 0)).members == {(0, 0, 0)}


def test_cyclic_submodule_full_orbit():
    code = z4_code([(1, 2, 3)])
    assert len(fc.cyclic_submodule(code, (1, 2, 3)).members) == 4


def test_cyclic_submodule_requires_membership():
    with pytest.raises(ValueError):
        fc.cyclic_submodule(z4_code([(1, 2, 3)]), (1, 1, 1))


# ---------------------------------------------------------------------------
# Minimum-Hamming word structure
# ---------------------------------------------------------------------------

def test_structure_constant_word():
    code = z4_code([(2, 2, 0)])
    alpha, units = fc.min_hamming_word_structure(code, (2, 2, 0))
    assert alpha == 2
    assert units == {1: 1, 2: 1}


def test_structure_octacode_min_word():
    code = fc.octacode()
    c = (0, 0, 0, 2, 0, 2, 2, 2)
    assert fc.ell(c) == code.min_hamming
    alpha, units = fc.min_hamming_word_structure(code, c)
    assert alpha == 2
    assert units == {4: 1, 6: 1, 7: 1, 8: 1}
    assert all(code.ring.mul(alpha, units[i]) == c[i - 1] for i in units)


def test_structure_simplex_m2f2():
    r = ring("M2(GF(2))")
    code = fc.simplex(r, 1, table("M2(GF(2))"))
    c = next(w for w in code.word_order if fc.ell(w) == code.min_hamming)
    alpha, units = fc.min_hamming_word_structure(code, c)
    assert alpha not in r.units and alpha != 0  # rank-1 scale
    assert all(r.mul(alpha, u) == c[i - 1] for i, u in units.items())
    assert len(fc.cyclic_span(r, c)) == len(fc.cyclic_span(r, (alpha,)))


def test_structure_fails_on_non_minimal_word():
    code = z4_code([(1, 2)])
    assert code.min_hamming == 1  # attained by (2, 0)
    with pytest.raises(fc.DecompositionError):
        fc.min_hamming_word_structure(code, (1, 2))


def alpha_scan(code, c):
    """The decomposition by trying every alpha in index order."""
    r = code.ring
    cyclic_size = code.cyclic_size(c)
    descending = sorted(r.units, reverse=True)
    for alpha in range(r.size):
        smallest = {r.mul(alpha, u): u for u in descending}
        units_at = {}
        for i in sorted(word_support(c)):
            if c[i - 1] not in smallest:
                break
            units_at[i] = smallest[c[i - 1]]
        else:
            if len(fc.cyclic_span(r, (alpha,))) == cyclic_size:
                return alpha, units_at
    raise fc.DecompositionError


def decomposition(find, code, c):
    try:
        return find(code, c)
    except fc.DecompositionError:
        return "no decomposition"


@settings(max_examples=40, deadline=None, database=None)
@given(ring_specs(), st.data())
def test_structure_matches_the_alpha_scan(drawn, data):
    r = ring(drawn[0])
    k = data.draw(st.integers(1, 2 if r.size <= 16 else 1))
    n = data.draw(st.integers(0, 5))
    row = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
    code = fc.build_code(r, data.draw(st.lists(row, min_size=k, max_size=k)), table(drawn[0]))
    for c in code.word_order:
        assert (decomposition(fc.min_hamming_word_structure, code, c)
                == decomposition(alpha_scan, code, c))


# ---------------------------------------------------------------------------
# Generator matrix files
# ---------------------------------------------------------------------------

def test_generator_file_round_trip(tmp_path):
    r = ring("M2(GF(2))")
    rows = ((1, 0, 5), (3, 1, 2))
    path = tmp_path / "gen.txt"
    fc.write_generator_file(path, r, rows)
    assert fc.read_generator_rows(path, r) == rows


def test_generator_file_comments_and_blanks(tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("# header\n\n1 2 3  # trailing comment\n0 2 2\n")
    assert fc.read_generator_rows(path, ring("Z4")) == ((1, 2, 3), (0, 2, 2))


def test_generator_file_names_the_line_of_an_unknown_token(tmp_path):
    # tokens found among the element names skip parse_element; the others
    # are parsed, or refused with their line
    path = tmp_path / "gen.txt"
    path.write_text("# ring: Z4\n1 2 3\n\n0 2 x  # comment\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: 'x' is not an element literal of Z4$"):
        fc.read_generator_rows(path, ring("Z4"))
    path.write_text("[1; 0;0;1]\n")  # spaces split the literal into unknown tokens
    with pytest.raises(ValueError, match=r":1: '\[1;' is not an element literal"):
        fc.read_generator_rows(path, ring("M2(GF(2))"))
    path.write_text("0+1U 1+0u\n")  # not a stored name, but parse_element reads it
    assert fc.read_generator_rows(path, ring("CHAIN(2)")) == ((2, 1),)


def test_generator_file_errors(tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        fc.read_generator_rows(path, ring("Z4"))
    path.write_text("1 2\n1 2 3\n")
    with pytest.raises(ValueError):
        fc.read_generator_rows(path, ring("Z4"))
    path.write_text("1 9\n")
    with pytest.raises(ValueError):
        fc.read_generator_rows(path, ring("Z4"))
