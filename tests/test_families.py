import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from helpers import reference_chain_certificate, ring, ring_specs, table

F = Fraction


# ---------------------------------------------------------------------------
# Simplex codes
# ---------------------------------------------------------------------------

def test_simplex_z4_m1_words():
    code = fc.simplex(ring("Z4"), 1, table("Z4"))
    assert code.n == 3
    assert code.words == {(0, 0, 0), (1, 2, 3), (2, 0, 2), (3, 2, 1)}
    assert all(fc.extend_weight(code.table, w) == 4 for w in code.words if any(w))


def test_simplex_binary_m2_is_classical():
    code = fc.simplex(ring("GF(2)"), 2, table("GF(2)"))
    assert code.n == 3 and code.size == 4
    assert code.min_hamming == 2
    # normalised homogeneous weight 4 = |R|^m at gamma = 1/2
    assert all(fc.extend_weight(code.table, w) == 4 for w in code.words if any(w))


def test_simplex_m2f2_parameters():
    code = fc.simplex(ring("M2(GF(2))"), 1, table("M2(GF(2))"))
    assert (code.n, code.size) == (15, 16)
    assert code.min_hamming == 12
    assert code.min_hom_norm == 16


@pytest.mark.parametrize(
    "spec,m",
    [("Z4", 1), ("Z4", 2), ("GF(2)", 1), ("GF(2)", 3), ("GF(4)", 1), ("Z6", 1),
     ("M2(GF(2))", 1), ("CHAIN(2)", 1), ("Z2xZ3", 1)],
)
def test_simplex_constant_weight_and_hamming_laws(spec, m):
    r = ring(spec)
    code = fc.simplex(r, m, table(spec))
    target = r.size ** m
    assert code.size == target
    for w in code.word_order:
        if any(w):
            assert fc.extend_weight(code.table, w) == target
        assert fc.ell(w) == target - target // len(fc.cyclic_span(r, w))


def test_simplex_validation(monkeypatch):
    with pytest.raises(ValueError):
        fc.simplex(ring("Z4"), 0)
    monkeypatch.setattr(fc.families, "_SIMPLEX_CAP", 100)
    with pytest.raises(ValueError):
        fc.simplex(ring("Z4"), 4)


@pytest.mark.parametrize("m", [10**14, 10**7, 4000, 7])
def test_simplex_length_cap_fails_fast(m):
    # |R|^m is checked without being built: no huge integer, no hang
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the cap of 4096 columns"):
        fc.simplex(ring("Z4"), m)
    assert time.perf_counter() - start < 1


def test_simplex_length_cap_is_inclusive(monkeypatch):
    # 4^2 - 1 = 15 columns
    monkeypatch.setattr(fc.families, "_SIMPLEX_CAP", 15)
    assert fc.simplex(ring("Z4"), 2).n == 15
    monkeypatch.setattr(fc.families, "_SIMPLEX_CAP", 14)
    with pytest.raises(ValueError, match="cap of 14 columns"):
        fc.simplex(ring("Z4"), 2)


def test_simplex_column_order_is_lexicographic():
    code = fc.simplex(ring("Z4"), 2, table("Z4"))
    cols = list(zip(*code.generators))
    assert cols == [c for c in product(range(4), repeat=2) if any(c)]


# ---------------------------------------------------------------------------
# Octacode and the Gray map
# ---------------------------------------------------------------------------

def test_octacode_pipeline():
    code = fc.octacode()
    assert (code.n, code.size, code.min_hom_norm) == (8, 256, 6)
    c = (0, 0, 0, 2, 0, 2, 2, 2)
    assert c in code
    res = fc.residual(code, c)
    assert (res.n, res.size, res.min_hom_norm) == (4, 128, 2)
    image = fc.gray_image(res)
    assert len(image) == 128
    assert len(next(iter(image))) == 8
    assert fc.min_hamming_distance(image) == 2


def test_octacode_rejects_foreign_table():
    with pytest.raises(ValueError):
        fc.octacode(table("Z9"))


def test_gray_map_values():
    assert fc.gray_map((2,)) == (1, 1)
    assert fc.gray_map((0, 1, 2, 3)) == (0, 0, 0, 1, 1, 1, 1, 0)
    assert fc.gray_map((0,) * 5) == (0,) * 10


def test_gray_map_validates_alphabet():
    with pytest.raises(ValueError):
        fc.gray_map((4,))


@pytest.mark.parametrize("word, bad", [((1.5,), "1.5"), ((1.0, 2), "1.0"), ((0, None), "None"),
                                       (("1",), "'1'")])
def test_gray_map_refuses_non_integer_coordinates_by_name(word, bad):
    # read through operator.index: a float is refused even when it equals an
    # element of Z4
    with pytest.raises(ValueError, match=f"^coordinate {re.escape(bad)} is not a Z4 element$"):
        fc.gray_map(word)


def test_gray_image_requires_z4():
    code = fc.build_code(ring("GF(2)"), [(1, 1)], table("GF(2)"))
    with pytest.raises(ValueError):
        fc.gray_image(code)


def test_gray_isometry_exhaustive_up_to_length_4():
    t = table("Z4")
    for n in range(1, 5):
        for word in product(range(4), repeat=n):
            image = fc.gray_map(word)
            assert fc.ell(image) == fc.extend_weight(t, word)


# ---------------------------------------------------------------------------
# Hjelmslev line codes
# ---------------------------------------------------------------------------

def test_hjelmslev_z4_matches_point_enumeration():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    cols = sorted(zip(*code.generators))
    assert cols == [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1)]
    assert (code.n, code.size, code.min_hom_norm) == (6, 16, 6)
    weights = {fc.extend_weight(code.table, w) for w in code.words if any(w)}
    assert weights == {6, 8}


@pytest.mark.parametrize(
    "spec,q", [("Z4", 2), ("CHAIN(2)", 2), ("Z9", 3), ("CHAIN(3)", 3)]
)
def test_hjelmslev_parameters_general_q(spec, q):
    r = ring(spec)
    code = fc.hjelmslev_line(r, table(spec))
    assert code.n == q * q + q
    assert code.size == r.size ** 2  # free of rank 2
    assert code.min_hom_norm == q * q + q
    weights = {fc.extend_weight(code.table, w) for w in code.words if any(w)}
    assert weights == {F(q * q + q), F(q ** 3, q - 1)}
    assert fc.max_cyclic_size(code) == q * q  # maximal cyclic submodules have ring size


@pytest.mark.parametrize("spec,q", [("Z4", 2), ("Z9", 3), ("CHAIN(3)", 3)])
def test_hjelmslev_weight_split_by_radical(spec, q):
    # messages outside rad(R^2) hit q^2 unit and q-1 heavy coordinates
    r = ring(spec)
    code = fc.hjelmslev_line(r, table(spec))
    rad = fc.radical(r)
    cols = list(zip(*code.generators))
    for x in product(range(r.size), repeat=2):
        if x[0] in rad and x[1] in rad:
            continue
        values = [r.add(r.mul(x[0], g[0]), r.mul(x[1], g[1])) for g in cols]
        unit_hits = sum(1 for v in values if v in r.units)
        heavy_hits = sum(1 for v in values if v != 0 and v in rad)
        assert unit_hits == q * q and heavy_hits == q - 1


@pytest.mark.parametrize(
    "spec",
    ["Z4", "CHAIN(2)", "Z9", "CHAIN(3)", "CHAIN(4)", "Z25", "CHAIN(5)", "CHAIN(7)",
     "CHAIN(8)", "CHAIN(9)", "Z49"],
)
def test_hjelmslev_columns_match_point_spans(spec):
    # the points as the distinct spans vR for v outside rad(R^2), each
    # represented by its smallest generator, in sorted order
    r = ring(spec)
    mul = r.mul_table
    span_of = {
        v: frozenset((mul[v[0]][x], mul[v[1]][x]) for x in range(r.size))
        for v in product(range(r.size), repeat=2)
        if not (v[0] in r.radical and v[1] in r.radical)
    }
    columns = sorted(
        min(w for w in span if span_of.get(w) == span) for span in set(span_of.values())
    )
    code = fc.hjelmslev_line(r, table(spec))
    assert list(zip(*code.generators)) == columns


def test_hjelmslev_rejects_non_chain_rings():
    with pytest.raises(fc.NotChainRingError):
        fc.hjelmslev_line(ring("GF(4)"), table("GF(4)"))  # zero radical
    with pytest.raises(fc.NotChainRingError):
        fc.hjelmslev_line(ring("Z6"), table("Z6"))  # not local
    with pytest.raises(fc.NotChainRingError):
        fc.hjelmslev_line(ring("Z8"), table("Z8"))  # length 3
    # Z6 has a zero radical; Z4xZ2's is {(0, 0), (2, 0)}, and it is not local
    with pytest.raises(fc.NotChainRingError, match="Z4xZ2 is not local"):
        fc.hjelmslev_line(ring("Z4xZ2"), table("Z4xZ2"))


# ---------------------------------------------------------------------------
# Residual chains
# ---------------------------------------------------------------------------

def test_chain_hjelmslev_z4():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    chain = fc.residual_chain(code)
    assert chain.r == 1
    assert chain.hypothesis_holds
    assert all(holds for _, holds in chain.checks)
    assert chain.inequality_lhs == 6
    assert chain.inequality_rhs == F(3, 4) * 6 + 1
    final = chain.final
    assert all(fc.ell(w) == final.n for w in final.words if any(w))


def test_chain_simplex_z4_removes_the_short_word():
    code = fc.simplex(ring("Z4"), 1, table("Z4"))
    chain = fc.residual_chain(code)
    assert chain.r == 1
    assert chain.stages[0].word == (2, 0, 2)
    assert chain.stages[0].cyclic_size == 2
    assert chain.final.n == 1
    assert chain.final.words == {(0,), (2,)}
    assert all(holds for _, holds in chain.checks)


def test_chain_constant_weight_code_is_trivial():
    code = fc.build_code(ring("Z4"), [(2, 2)], table("Z4"))
    chain = fc.residual_chain(code)
    assert chain.r == 0
    assert chain.stages[0].word is None
    assert chain.inequality_lhs is None
    # the support inequality is skipped, everything else holds
    assert [holds for _, holds in chain.checks] == [True, True, True, True, True, None]


def test_chain_reaching_trivial_final_code():
    # R(1,0): the single step strips the support entirely
    code = fc.build_code(ring("Z4"), [(1, 0)], table("Z4"))
    chain = fc.residual_chain(code)
    assert chain.r == 1
    assert not chain.hypothesis_holds  # n = 2 > 1 = d/gamma
    assert chain.final.size == 1
    named = dict(chain.checks)
    assert named["code size factors through the chain"]
    assert named["final code size is at most the ring size"]


def test_chain_sizes_telescope():
    for code in (
        fc.octacode(),
        fc.hjelmslev_line(ring("Z9"), table("Z9")),
        fc.simplex(ring("Z4"), 2, table("Z4")),
    ):
        chain = fc.residual_chain(code)
        sizes = [s.cyclic_size for s in chain.stages[:-1]]
        prod = 1
        for s in sizes:
            prod *= s
        assert code.size == prod * chain.final.size


@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_drawn_chain_stages_divide_out_the_removed_cyclic_submodule(data):
    """|C| = |residual(C, c)| |Rc| at every stage that removes a word c.

    A theorem when n <= d/gamma (the chain's hypothesis), where the words
    supported inside supp(c) are Rc; for every code, |C| is the size of
    the shortened code times that of the residual.
    """
    if data.draw(st.booleans()):
        # simplex codes meet the hypothesis, and most have chain stages
        r = ring(data.draw(ring_specs(8))[0])
        code = fc.simplex(r, data.draw(st.integers(1, 2)))
    else:
        r = ring(data.draw(ring_specs(32))[0])
        n = data.draw(st.integers(1, 5))
        row = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
        code = fc.build_code(r, data.draw(st.lists(row, min_size=1, max_size=2 if r.size <= 16 else 1)))
    chain = fc.residual_chain(code)
    for stage, after in zip(chain.stages, chain.stages[1:]):
        c = stage.word
        removed = fc.residual(stage.code, c)
        assert after.code.words == removed.words
        assert stage.cyclic_size == stage.code.cyclic_size(c) == len(fc.cyclic_span(r, c))
        assert stage.code.size == fc.shorten(stage.code, c).size * removed.size
        if chain.hypothesis_holds:
            assert stage.code.size == removed.size * stage.cyclic_size


CERTIFICATE_SPECS = ("Z4", "GF(4)", "CHAIN(2)", "Z6", "Z8", "Z9", "M2(GF(2))", "Z2xZ4")


def test_chain_certificate_matches_the_multi_pass_reference():
    """The six checks, r, the hypothesis and the inequality of every chain
    equal those recomputed from its stages, down to True/False/None."""
    rng = random.Random(21)
    seen = set()
    for spec in CERTIFICATE_SPECS:
        for _ in range(50):
            k, n = rng.randint(1, 2), rng.randint(1, 4)
            rows = [tuple(rng.randrange(ring(spec).size) for _ in range(n)) for _ in range(k)]
            code = fc.build_code(ring(spec), rows, table(spec))
            chain = fc.residual_chain(code)
            got = (chain.r, chain.hypothesis_holds, chain.checks,
                   chain.inequality_lhs, chain.inequality_rhs)
            assert repr(got) == repr(reference_chain_certificate(code, chain.stages))
            seen.update((text, holds) for text, holds in chain.checks)
    # the drawn codes reach the failing and the skipped branches
    assert ("stage sizes divide out the removed cyclic submodule", False) in seen
    assert ("stage minimum weights drop by at most the removed support", False) in seen
    assert ("support chain inequality", None) in seen
