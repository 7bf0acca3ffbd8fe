from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm

import pytest

import frobcode as fc
from frobcode.homweight import CyclotomicSum
from helpers import SUITE_SPECS, ring, table

F = Fraction


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic
# ---------------------------------------------------------------------------

KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_known_table():
    for n, coeffs in KNOWN_CYCLOTOMICS.items():
        assert fc.cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_product_recovers_x_n_minus_1():
    # 256 and 512: Phi is x^128 + 1 and x^256 + 1, the sparse divisors
    for n in [*range(1, 201), 256, 360, 512]:
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = fc.cyclotomic_polynomial(d)
                assert phi[-1] == 1
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    if a:
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_reduce_i_plus_i_cubed_is_zero():
    assert fc.cyclotomic_reduce(CyclotomicSum(4, {1: 1, 3: 1})) == 0


def test_reduce_all_roots_sum_to_zero():
    assert fc.cyclotomic_reduce(CyclotomicSum(6, {j: 1 for j in range(6)})) == 0


def test_reduce_constant():
    assert fc.cyclotomic_reduce(CyclotomicSum(4, {0: 2})) == 2


def test_reduce_irrational_raises():
    with pytest.raises(fc.NonRationalSumError):
        fc.cyclotomic_reduce(CyclotomicSum(4, {1: 1}))


def test_residue_of_primitive_root():
    # zeta_4 reduces to the residue x itself
    assert fc.cyclotomic_residue(CyclotomicSum(4, {1: 1})) == (0, 1)
    # zeta_3 + zeta_3^2 = -1
    assert fc.cyclotomic_residue(CyclotomicSum(3, {1: 1, 2: 1})) == (-1,)
    # degree phi(N) >= 2, so zeta_N stays x
    for n in (360, 512):
        assert fc.cyclotomic_residue(CyclotomicSum(n, {1: 1})) == (0, 1)


def _totient(n):
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def _mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _ramanujan_sum(n, k):
    g = gcd(n, k)
    return _mobius(n // g) * _totient(n) // _totient(n // g)


def test_reduce_ramanujan_sums():
    # c_n(k) = sum of zeta_n^(jk) over the j coprime to n
    #        = mu(n/g) phi(n) / phi(n/g), g = gcd(n, k)
    cases = [(n, range(n)) for n in range(1, 65)]
    cases += [(n, (0, 1, 2, 3, 5, 6, 64, 120, n // 2, n - 1)) for n in (256, 360, 512)]
    for n, ks in cases:
        coprime = [j for j in range(1, n + 1) if gcd(j, n) == 1]
        for k in ks:
            s = CyclotomicSum.from_exponents(n, (j * k for j in coprime))
            assert fc.cyclotomic_reduce(s) == _ramanujan_sum(n, k), (n, k)


# ---------------------------------------------------------------------------
# Weight tables from the character formula
# ---------------------------------------------------------------------------

def test_z4_lee_weight():
    t = table("Z4")
    assert t.norm_weight == (F(0), F(1), F(2), F(1))
    assert [t.weight(x) for x in range(4)] == [0, 1, 2, 1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_fields_give_hamming_weight(q):
    t = table(f"GF({q})", F(q - 1, q))
    assert t.weight(0) == 0
    assert all(t.weight(x) == 1 for x in range(1, q))
    assert all(t.norm_weight[x] == F(q, q - 1) for x in range(1, q))


def test_m2f2_unit_singular_pattern():
    r = ring("M2(GF(2))")
    t = fc.hom_weight_table(r, F(3, 2))
    assert t.weight(0) == 0
    for x in range(1, 16):
        assert t.weight(x) == (1 if x in r.units else 2)


def test_gamma_independence_and_scaling():
    base = table("Z4")
    scaled = fc.hom_weight_table(ring("Z4"), F(5, 7))
    assert scaled.norm_weight == base.norm_weight
    assert scaled.weight(2) == F(10, 7)


def test_character_table_that_differs_from_the_oracle_is_refused(monkeypatch):
    # verify_axioms compares the character formula's table with the oracle:
    # one moved value of the oracle makes them differ
    solve = fc.homweight.solve_weight_axioms

    def moved(r):
        solution = list(solve(r))
        solution[2] += 1
        return tuple(solution)

    monkeypatch.setattr(fc.homweight, "solve_weight_axioms", moved)
    with pytest.raises(fc.CharacterError, match=r"character formula on Z4 violates the weight axioms"):
        fc.hom_weight_table(ring("Z4"))


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        fc.hom_weight_table(ring("Z4"), 0)
    with pytest.raises(ValueError):
        fc.hom_weight_table(ring("Z4"), F(-1, 2))
    with pytest.raises(ValueError):
        fc.local_socle_weight_table(ring("Z4"), 0)
    lee = table("Z4").norm_weight
    with pytest.raises(ValueError, match="gamma must be positive"):
        fc.HomWeightTable(ring=ring("Z4"), gamma=0, norm_weight=lee)
    # an int gamma comes back as a Fraction, on every route to a table
    for t in (fc.hom_weight_table(ring("Z4"), 3), fc.local_socle_weight_table(ring("Z4"), 3),
              fc.HomWeightTable(ring=ring("Z4"), gamma=3, norm_weight=lee)):
        assert type(t.gamma) is Fraction and t.gamma == 3
        assert type(t.weight(2)) is Fraction and t.weight(2) == 6


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_denominators_divide_unit_group_order(spec):
    r = ring(spec)
    t = table(spec)
    for v in t.norm_weight:
        assert v >= 0
        assert len(r.units) % v.denominator == 0


def assert_integer_core(t):
    # numerators over one denominator, the lcm of the norm_weight denominators
    assert t.denominator == lcm(*(v.denominator for v in t.norm_weight))
    assert len(t.numerators) == len(t.norm_weight)
    for num, v in zip(t.numerators, t.norm_weight):
        assert type(num) is int and Fraction(num, t.denominator) == v


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_integer_numerators_over_one_denominator(spec):
    assert_integer_core(table(spec))
    assert_integer_core(table(spec, F(7, 3)))


@pytest.mark.parametrize("spec", ["Z4", "Z9", "CHAIN(2)", "CHAIN(3)", "GF(4)", "Z8"])
def test_integer_numerators_of_local_socle_tables(spec):
    assert_integer_core(fc.local_socle_weight_table(ring(spec)))


def test_integer_numerators_of_a_constructed_table():
    t = fc.HomWeightTable(
        ring=ring("Z6"), gamma=F(2),
        norm_weight=(F(0), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)),
    )
    assert t.denominator == 12
    assert t.numerators == (0, 6, 8, 9, 10, 12)
    assert_integer_core(t)
    with pytest.raises(FrozenInstanceError):
        t.denominator = 1


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

def test_verify_axioms_accepts_lee():
    assert fc.verify_axioms(table("Z4"))


def test_verify_axioms_rejects_tampered_table():
    t = table("Z4")
    bad = fc.HomWeightTable(
        ring=t.ring, gamma=t.gamma, norm_weight=(F(0), F(1), F(1), F(1))
    )
    assert not fc.verify_axioms(bad)  # weights over {0, 2} sum to 1, not 2


def test_verify_axioms_rejects_nonzero_at_zero():
    t = table("Z4")
    bad = fc.HomWeightTable(ring=t.ring, gamma=t.gamma, norm_weight=(F(1), F(1), F(2), F(1)))
    assert not fc.verify_axioms(bad)


def test_verify_axioms_compares_every_element_of_a_shared_value():
    # the table holds one Fraction per unit orbit, shared by the orbit's
    # elements; verify_axioms compares each distinct pair of value objects
    # once, so one element moved onto another orbit's value object must
    # still fail, and a copy of its own value equal but not identical pass
    t = table("Z9")
    weights = t.norm_weight
    assert sum(w is weights[1] for w in weights) == 6  # the units share one
    moved = list(weights)
    moved[1] = weights[3]
    assert weights[3] != weights[1]
    assert not fc.verify_axioms(fc.HomWeightTable(ring=t.ring, gamma=t.gamma, norm_weight=tuple(moved)))
    copied = list(weights)
    copied[1] = F(weights[1].numerator, weights[1].denominator)
    assert copied[1] is not weights[1]
    assert fc.verify_axioms(fc.HomWeightTable(ring=t.ring, gamma=t.gamma, norm_weight=tuple(copied)))
    assert not fc.verify_axioms(fc.HomWeightTable(ring=t.ring, gamma=t.gamma, norm_weight=weights[:-1]))


def test_any_hamming_multiple_is_homogeneous_on_fields():
    r = ring("GF(5)")
    t = fc.HomWeightTable(
        ring=r, gamma=F(1), norm_weight=tuple(F(0) if x == 0 else F(5, 4) for x in range(5))
    )
    assert fc.verify_axioms(t)


# ---------------------------------------------------------------------------
# Local-ring socle formula
# ---------------------------------------------------------------------------

def test_local_table_z4():
    t = fc.local_socle_weight_table(ring("Z4"))
    assert t.norm_weight == (F(0), F(1), F(2), F(1))


def test_local_table_z9():
    t = fc.local_socle_weight_table(ring("Z9"))
    assert t.weight(3) == t.weight(6) == F(3, 2)
    assert all(t.weight(x) == 1 for x in (1, 2, 4, 5, 7, 8))


def test_local_table_chain2():
    r = ring("CHAIN(2)")
    t = fc.local_socle_weight_table(r)
    u = fc.parse_element(r, "0+1u")
    assert t.weight(u) == 2
    nonsocle = [x for x in range(1, 4) if x != u]
    assert all(t.weight(x) == 1 for x in nonsocle)


@pytest.mark.parametrize("spec", ["Z4", "Z9", "CHAIN(2)", "CHAIN(3)", "GF(4)", "Z8"])
def test_local_formula_matches_character_formula(spec):
    assert fc.local_socle_weight_table(ring(spec)).norm_weight == table(spec).norm_weight


def test_local_table_rejects_nonlocal():
    with pytest.raises(fc.NotLocalError):
        fc.local_socle_weight_table(ring("Z6"))


# ---------------------------------------------------------------------------
# Independent oracle: the axioms as a triangular system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_character_formula_matches_linear_system(spec):
    assert table(spec).norm_weight == fc.solve_weight_axioms(ring(spec))


@pytest.mark.parametrize(
    "spec",
    ["CHAIN(9)", "Z4xGF(4)", "M2(GF(3))", "M2(Z4)", "CHAIN(16)", "Z8xZ64", "GF(256)", "M3(GF(2))"],
)
def test_oracle_agreement_on_mixed_constructors(spec):
    # constructors the named examples never combine: chain over an extension
    # field, product with a field factor, matrices over an odd prime field;
    # then rings near the size cap: non-commutative M2(Z4) (256 elements),
    # a chain ring over GF(16), non-local Z8xZ64 (512 elements), the field
    # GF(256) and non-commutative M3(GF(2)) (512 elements)
    assert table(spec).norm_weight == fc.solve_weight_axioms(ring(spec))


def test_axioms_hold_on_matrices_over_z4():
    # 256 elements, non-commutative: the exhaustive axiom check on the
    # character-formula table
    assert fc.verify_axioms(table("M2(Z4)"))


# ---------------------------------------------------------------------------
# Left-right symmetry of the character sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_character_sums_symmetric(spec):
    r = ring(spec)
    for x in range(r.size):
        left = CyclotomicSum.from_exponents(
            r.add_exponent, (r.char_exp[r.mul(x, u)] for u in r.units)
        )
        right = CyclotomicSum.from_exponents(
            r.add_exponent, (r.char_exp[r.mul(u, x)] for u in r.units)
        )
        assert fc.cyclotomic_residue(left) == fc.cyclotomic_residue(right)


# ---------------------------------------------------------------------------
# Additive extension to words
# ---------------------------------------------------------------------------

def test_extend_weight_lee():
    assert fc.extend_weight(table("Z4"), (1, 2, 3)) == 4


def test_extend_weight_zero_word():
    assert fc.extend_weight(table("Z4"), (0,) * 7) == 0


def test_extend_weight_m2f2():
    r = ring("M2(GF(2))")
    t = table("M2(GF(2))")
    unit = min(r.units - {1}) if len(r.units) > 1 else 1
    singular = next(x for x in range(1, 16) if x not in r.units)
    assert fc.extend_weight(t, (unit, singular)) == 2  # 2/3 + 4/3
