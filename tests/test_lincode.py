import time
from fractions import Fraction

import pytest

import frobcode as fc
from helpers import ring, table

F = Fraction


def z4_code(rows):
    return fc.build_code(ring("Z4"), rows, table("Z4"))


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


def test_message_cap():
    with pytest.raises(fc.SweepCapError):
        fc.build_code(ring("Z4"), [(1,)] * 20, table("Z4"), message_cap=1 << 10)
    # the cap bounds coordinates built, |R|^k * n: 16 messages x 5 = 80 > 64
    with pytest.raises(fc.SweepCapError, match="coordinates"):
        fc.build_code(ring("Z4"), [(1, 0, 1, 2, 3), (0, 1, 1, 1, 2)], table("Z4"),
                      message_cap=64)
    assert fc.build_code(ring("Z4"), [(1, 0, 1, 2, 3)], table("Z4"), message_cap=20).size == 4
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
    sho = fc.shorten(code, c, compact=True)
    assert sho.n == 4
    assert sho.words == {(0, 0, 0, 0), (2, 2, 2, 2)}


def test_shorten_validates_positions():
    code = z4_code([(1, 2, 3)])
    with pytest.raises(ValueError):
        fc.shorten(code, {0, 1})
    with pytest.raises(ValueError):
        fc.shorten(code, {4})


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


def test_coset_average_length_check():
    with pytest.raises(ValueError):
        fc.coset_average(z4_code([(1, 2, 3)]), (1, 2))


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
