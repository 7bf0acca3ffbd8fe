import random
from fractions import Fraction
from itertools import product

import pytest

import frobcode as fc
from frobcode.bounds import BOUND_ORDER, best_plotkin_refined
from helpers import ring, table

F = Fraction


def zero_code():
    return fc.build_code(ring("Z4"), [(0, 0, 0)], table("Z4"))


def simplex_z4():
    return fc.simplex(ring("Z4"), 1, table("Z4"))


def simplex_m2f2():
    return fc.simplex(ring("M2(GF(2))"), 1, table("M2(GF(2))"))


# ---------------------------------------------------------------------------
# Exact ceil(log) search
# ---------------------------------------------------------------------------

def test_ceil_log_exact_powers():
    assert fc.ceil_log(4, F(1)) == 0
    assert fc.ceil_log(4, F(4)) == 1
    assert fc.ceil_log(4, F(16)) == 2


def test_ceil_log_between_powers():
    assert fc.ceil_log(2, F(5)) == 3
    assert fc.ceil_log(3, F(10)) == 3
    assert fc.ceil_log(10, F(11, 10)) == 1


def test_ceil_log_below_one():
    assert fc.ceil_log(2, F(1, 3)) == -1
    assert fc.ceil_log(2, F(1, 4)) == -2
    assert fc.ceil_log(5, F(1, 2)) == 0


def test_ceil_log_validation():
    with pytest.raises(ValueError):
        fc.ceil_log(1, F(2))
    with pytest.raises(ValueError):
        fc.ceil_log(2, F(0))


# ---------------------------------------------------------------------------
# Averaging bound
# ---------------------------------------------------------------------------

def test_averaging_simplex_sharp():
    rep = fc.averaging_bound(simplex_z4())
    assert rep.applicable and rep.satisfied and rep.sharp
    assert rep.lhs == 3 and rep.rhs == 3


def test_averaging_octacode_not_sharp():
    rep = fc.averaging_bound(fc.octacode())
    assert rep.applicable and rep.satisfied and not rep.sharp
    assert rep.lhs == F(255, 256) * 6
    assert rep.rhs == 8


def test_averaging_zero_code_inapplicable():
    rep = fc.averaging_bound(zero_code())
    assert not rep.applicable
    assert rep.satisfied is None and rep.lhs is None


# ---------------------------------------------------------------------------
# Plotkin-type bounds
# ---------------------------------------------------------------------------

def test_plotkin_refined_simplex_word():
    rep = fc.plotkin_refined(simplex_z4(), (2, 0, 2))
    assert rep.applicable and rep.sharp
    assert rep.lhs == 4 and rep.rhs == 4
    assert rep.details["cyclic_size"] == 2


@pytest.mark.parametrize("spec,m", [("Z4", 1), ("Z4", 2), ("GF(2)", 2), ("M2(GF(2))", 1)])
def test_plotkin_refined_simplex_meets_ring_power(spec, m):
    code = fc.simplex(ring(spec), m, table(spec))
    expected = ring(spec).size ** m
    for w in code.word_order:
        if fc.ell(w) < code.min_hom_norm:
            rep = fc.plotkin_refined(code, w)
            assert rep.applicable and rep.rhs == expected
    best = best_plotkin_refined(code)
    assert best.sharp and best.rhs == expected == code.size


def test_plotkin_refined_word_must_be_in_code():
    with pytest.raises(ValueError):
        fc.plotkin_refined(simplex_z4(), (1, 1, 1))


def test_plotkin_refined_inapplicable_at_boundary():
    # full length-1 space has d/gamma = 1 = n
    code = fc.build_code(ring("Z4"), [(1,)], table("Z4"))
    rep = best_plotkin_refined(code)
    assert not rep.applicable
    assert rep.details["word"] is None


def test_plotkin_minham_simplex_values():
    rep = fc.plotkin_minham(simplex_z4())
    assert rep.applicable and rep.satisfied and not rep.sharp
    assert rep.lhs == 4 and rep.rhs == 8  # 4 * (4-2)/(4-3)


def test_plotkin_minham_m2f2():
    rep = fc.plotkin_minham(simplex_m2f2())
    assert rep.applicable and rep.satisfied and not rep.sharp
    assert rep.lhs == 16 and rep.rhs == 64  # 16 * (16-12)/(16-15)


def test_plotkin_minham_boundary_inapplicable():
    code = fc.build_code(ring("Z4"), [(1,)], table("Z4"))
    assert not fc.plotkin_minham(code).applicable


def test_plotkin_minimal_ideal_m2f2_sharp():
    rep = fc.plotkin_minimal_ideal(simplex_m2f2())
    assert rep.applicable and rep.sharp
    assert rep.details["Q"] == 4
    assert rep.lhs == 16 and rep.rhs == 16


def test_plotkin_minimal_ideal_z4_sharp():
    rep = fc.plotkin_minimal_ideal(simplex_z4())
    assert rep.applicable and rep.sharp
    assert rep.details["Q"] == 2
    assert rep.lhs == 4 and rep.rhs == 4


def test_plotkin_minimal_ideal_field_uses_whole_ring():
    code = fc.simplex(ring("GF(4)"), 1, table("GF(4)"))
    rep = fc.plotkin_minimal_ideal(code)
    assert rep.details["Q"] == 4  # fields are simple


def test_minimal_ideal_rhs_no_larger_than_minham_rhs():
    for code in (simplex_z4(), simplex_m2f2(), fc.simplex(ring("CHAIN(2)"), 1, table("CHAIN(2)"))):
        a, b = fc.plotkin_minimal_ideal(code), fc.plotkin_minham(code)
        if a.applicable and b.applicable:
            assert a.rhs <= b.rhs


def test_minham_rhs_decreases_as_min_hamming_grows():
    # the rhs |R|(d - l)/(d - n) tightens with larger minimum Hamming weight,
    # which is what makes it a refinement
    d, n, size = F(16), 15, 16
    values = [size * (d - l) / (d - n) for l in range(0, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Singleton-type bounds
# ---------------------------------------------------------------------------

def test_singleton_P_hjelmslev_sharp():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    rep = fc.singleton_P(code)
    assert rep.applicable and rep.sharp
    assert rep.lhs == 1 and rep.rhs == 1
    assert rep.details["P"] == 4


def test_singleton_P_octacode_inapplicable():
    rep = fc.singleton_P(fc.octacode())
    assert not rep.applicable  # n = 8 > 6 = d/gamma


def test_singleton_P_constant_support_inapplicable():
    code = fc.build_code(ring("GF(2)"), [(1,)], table("GF(2)"))
    rep = fc.singleton_P(code)
    assert not rep.applicable  # every nonzero word has full support


def test_singleton_Q_simplex_z4():
    rep = fc.singleton_Q(simplex_z4())
    assert rep.applicable and rep.sharp
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.details["Q"] == 4


def test_singleton_Q_simplex_m2f2():
    rep = fc.singleton_Q(simplex_m2f2())
    assert rep.applicable and rep.sharp
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.details["Q"] == 16


def test_singleton_Q_boundary_inapplicable():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    assert not fc.singleton_Q(code).applicable  # needs n < d/gamma strictly


def test_singleton_weak_hjelmslev():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    rep = fc.singleton_weak(code)
    assert rep.applicable and rep.sharp
    assert rep.lhs == 1 and rep.rhs == 1


def test_singleton_weak_simplex():
    rep = fc.singleton_weak(simplex_z4())
    assert rep.applicable and rep.sharp
    assert rep.lhs == 0 and rep.rhs == 0


def test_singleton_weak_inapplicable_when_n_large():
    assert not fc.singleton_weak(fc.octacode()).applicable


def test_singleton_weak_is_violable_on_socle_codes():
    # The ring-size counting bound is not a theorem: on {0, 2} inside Z4^1
    # the weight of the single nonzero word is forced to 2*gamma, so
    # lhs = 1 - ceil(3/4 * 2) = -1 while rhs = ceil(log_4 2 - 1) = 0.
    # The checker must report this honestly rather than mask it.
    code = fc.build_code(ring("Z4"), [(2,)], table("Z4"))
    rep = fc.singleton_weak(code)
    assert rep.applicable
    assert rep.lhs == -1 and rep.rhs == 0
    assert rep.satisfied is False
    # the cyclic-size variants remain sound and sharp on the same code
    rep_q = fc.singleton_Q(code)
    assert rep_q.applicable and rep_q.satisfied and rep_q.sharp


# ---------------------------------------------------------------------------
# check_all
# ---------------------------------------------------------------------------

def test_check_all_order_and_octacode_verdicts():
    reports = fc.check_all(fc.octacode())
    assert [r.bound for r in reports] == list(BOUND_ORDER)
    by_name = {r.bound: r for r in reports}
    assert by_name["averaging"].satisfied
    for name in ("singleton-P", "singleton-Q", "singleton-weak"):
        assert not by_name[name].applicable


def test_check_all_simplex_z4_2():
    code = fc.simplex(ring("Z4"), 2, table("Z4"))
    assert (code.n, code.size, code.min_hom_norm) == (15, 16, 16)
    by_name = {r.bound: r for r in fc.check_all(code)}
    assert by_name["plotkin-refined"].sharp
    assert by_name["plotkin-refined"].rhs == 16


def test_check_all_zero_code_all_inapplicable():
    assert all(not r.applicable for r in fc.check_all(zero_code()))


def test_every_applicable_bound_satisfied_on_families():
    codes = [
        fc.octacode(),
        simplex_z4(),
        simplex_m2f2(),
        fc.simplex(ring("GF(3)"), 2, table("GF(3)")),
        fc.hjelmslev_line(ring("Z9"), table("Z9")),
        fc.hjelmslev_line(ring("CHAIN(2)"), table("CHAIN(2)")),
    ]
    for code in codes:
        for rep in fc.check_all(code):
            assert rep.satisfied is not False, (code, rep)


def test_max_cyclic_size_variants():
    code = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    assert fc.max_cyclic_size(code) == 4
    assert fc.max_cyclic_size(code, incomplete_support_only=True) == 4
    sx = simplex_z4()
    assert fc.max_cyclic_size(sx) == 4
    assert fc.max_cyclic_size(sx, incomplete_support_only=True) == 2


# ---------------------------------------------------------------------------
# The cyclic-size table and the two selections that read it, against the
# per-word scans they replaced, on non-commutative and non-local rings
# ---------------------------------------------------------------------------

def _scan_best_plotkin_refined(code):
    """One plotkin_refined report per qualifying word; the first minimum wins."""
    best = None
    for w in code.word_order:
        if fc.ell(w) >= code.min_hom_norm:
            continue
        report = fc.plotkin_refined(code, w)
        if best is None or report.rhs < best.rhs:
            best = report
    return best


def _scan_chain_word(code):
    """Largest |Rc| over nonzero incomplete-support words, then smallest ell(c)."""
    best = best_key = None
    for w in code.word_order:
        lw = fc.ell(w)
        if not any(w) or lw >= code.n:
            continue
        key = (-len(fc.cyclic_span(code.ring, w)), lw)
        if best_key is None or key < best_key:
            best, best_key = w, key
    return best


def _random_codes(spec, count, rng):
    """Codes whose columns are random nonzero vectors of R^k (repeats
    allowed), so that d/gamma > n is common, as in simplex codes."""
    r, t = ring(spec), table(spec)
    for _ in range(count):
        k, n = rng.randint(1, 2), rng.randint(1, 5)
        vectors = [v for v in product(range(r.size), repeat=k) if any(v)]
        columns = [rng.choice(vectors) for _ in range(n)]
        yield fc.build_code(r, [tuple(col[i] for col in columns) for i in range(k)], t)


def test_cyclic_size_table_and_selections_match_per_word_scans():
    rng = random.Random(7)
    refined = stages = 0
    for spec in ("M2(GF(2))", "Z6", "Z2xZ3", "Z8", "Z9"):
        for code in _random_codes(spec, 60, rng):
            for w in code.word_order:
                assert code.cyclic_size(w) == len(fc.cyclic_span(code.ring, w))
            d = code.min_hom_norm
            if d is not None and d > code.n:
                assert best_plotkin_refined(code) == _scan_best_plotkin_refined(code)
                refined += 1
            for stage in fc.residual_chain(code).stages:
                assert stage.word == _scan_chain_word(stage.code)
                if stage.word is not None:
                    assert stage.cyclic_size == stage.code.cyclic_size(stage.word)
                stages += 1
    assert refined >= 30 and stages >= 500
    with pytest.raises(ValueError, match="not in the code"):
        simplex_z4().cyclic_size((1, 1, 1))
