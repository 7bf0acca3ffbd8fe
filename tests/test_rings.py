from math import lcm

import pytest

import frobcode as fc
from helpers import SUITE_SPECS, ring

# rings small enough for cubic axiom sweeps
SMALL_SPECS = ["Z2", "Z4", "Z6", "Z9", "GF(4)", "GF(8)", "GF(9)", "M2(GF(2))", "Z2xZ3", "CHAIN(2)", "CHAIN(3)"]


# ---------------------------------------------------------------------------
# Construction basics
# ---------------------------------------------------------------------------

def test_z4_defining_data():
    r = ring("Z4")
    assert r.size == 4
    assert r.units == {1, 3}
    assert r.add_exponent == 4
    assert r.char_exp == (0, 1, 2, 3)
    assert r.element_names == ("0", "1", "2", "3")


def test_identity_indices():
    for spec in SUITE_SPECS:
        r = ring(spec)
        assert all(r.add(0, x) == x for x in range(r.size))
        assert all(r.mul(1, x) == x == r.mul(x, 1) for x in range(r.size))


def _m2f2_entries(name):
    # "[a;b;c;d]" row-major over GF(2)
    return [int(tok) for tok in name[1:-1].split(";")]


def test_m2f2_units_match_determinant():
    r = ring("M2(GF(2))")
    assert r.size == 16
    dets = set()
    for x in range(16):
        a, b, c, d = _m2f2_entries(r.element_names[x])
        if (a * d - b * c) % 2 == 1:
            dets.add(x)
    assert r.units == dets
    assert len(r.units) == 6


def test_prod_units_match_componentwise():
    r = ring("Z2xZ3")
    assert r.size == 6
    assert r.add_exponent == 6
    expected = set()
    for x, name in enumerate(r.element_names):
        a, b = name.split("|")
        if int(a) % 2 == 1 and int(b) % 3 in (1, 2):
            expected.add(x)
    assert r.units == expected
    assert len(r.units) == 2


def test_constructor_sizes_multiply():
    assert ring("Z2xZ3").size == ring("Z2").size * ring("Z3").size
    assert ring("M2(GF(2))").size == ring("GF(2)").size ** 4
    assert ring("CHAIN(4)").size == 16


def test_gf_moduli_are_the_standard_small_ones():
    # smallest irreducibles in the element encoding
    g4 = ring("GF(4)")
    t = fc.parse_element(g4, "01")
    # t^2 = t + 1 under t^2 + t + 1
    assert g4.mul(t, t) == fc.parse_element(g4, "11")
    g9 = ring("GF(9)")
    t9 = fc.parse_element(g9, "01")
    # t^2 = -1 = 2 under t^2 + 1
    assert g9.mul(t9, t9) == fc.parse_element(g9, "20")


# ---------------------------------------------------------------------------
# Ring axioms, exhaustively
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_ring_axioms_exhaustive(spec):
    r = ring(spec)
    n = r.size
    add, mul, neg = r.add_table, r.mul_table, r.neg_table
    for a in range(n):
        assert add[a][neg[a]] == 0
        for b in range(n):
            assert add[a][b] == add[b][a]
            for c in range(n):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                assert mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]]


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_units_are_exactly_the_invertibles(spec):
    r = ring(spec)
    for u in range(r.size):
        invertible = any(r.mul(u, v) == 1 == r.mul(v, u) for v in range(r.size))
        assert (u in r.units) == invertible


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_additive_exponent_is_group_exponent(spec):
    r = ring(spec)
    exponent = 1
    for x in range(r.size):
        acc, order = x, 1
        while acc != 0:
            acc = r.add(acc, x)
            order += 1
        exponent = lcm(exponent, order)
    assert exponent == r.add_exponent


# ---------------------------------------------------------------------------
# Principal ideals
# ---------------------------------------------------------------------------

def test_principal_ideal_z4():
    r = ring("Z4")
    assert fc.principal_ideal(r, 2, "left").members == {0, 2}
    assert fc.principal_ideal(r, 3, "left").members == {0, 1, 2, 3}


def test_principal_ideal_e11_m2f2():
    r = ring("M2(GF(2))")
    e11 = fc.parse_element(r, "[1;0;0;0]")
    members = fc.principal_ideal(r, e11, "left").members
    # independent enumeration: multiply matrices entrywise over GF(2)
    expected = set()
    for x in range(16):
        a, b, c, d = _m2f2_entries(r.element_names[x])
        prod = [a % 2, 0, c % 2, 0]  # [a b; c d] * E11 = [a 0; c 0]
        expected.add(fc.parse_element(r, "[%d;%d;%d;%d]" % tuple(prod)))
    assert members == expected
    assert len(members) == 4


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_ideal_order_divides_ring_order(spec):
    r = ring(spec)
    for x in range(r.size):
        for side in ("left", "right"):
            assert r.size % len(fc.principal_ideal(r, x, side).members) == 0


def test_principal_ideal_bad_side():
    with pytest.raises(ValueError):
        fc.principal_ideal(ring("Z4"), 1, "middle")


# ---------------------------------------------------------------------------
# Generating characters
# ---------------------------------------------------------------------------

def test_generating_character_z4_identity():
    assert fc.is_generating_character(ring("Z4"), [0, 1, 2, 3])


def test_doubled_character_z4_not_generating():
    # kernel contains the ideal {0, 2}
    assert not fc.is_generating_character(ring("Z4"), [0, 2, 0, 2])


def test_trace_character_m2f2_generating():
    r = ring("M2(GF(2))")
    exps = []
    for name in r.element_names:
        a, _, _, d = _m2f2_entries(name)
        exps.append((a + d) % 2)
    assert fc.is_generating_character(r, exps)


def test_non_additive_character_rejected():
    with pytest.raises(fc.CharacterError):
        fc.is_generating_character(ring("Z4"), [0, 1, 1, 1])


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_builtin_character_is_generating(spec):
    r = ring(spec)
    assert fc.is_generating_character(r, r.char_exp)


# ---------------------------------------------------------------------------
# Minimal ideals, radical, socle
# ---------------------------------------------------------------------------

def test_minimal_ideals_z4():
    ideals = fc.minimal_left_ideals(ring("Z4"))
    assert [i.members for i in ideals] == [{0, 2}]


def test_minimal_ideals_m2f2():
    ideals = fc.minimal_left_ideals(ring("M2(GF(2))"))
    assert len(ideals) == 3
    assert all(len(i.members) == 4 for i in ideals)
    # pairwise intersections are trivial
    for i in ideals:
        for j in ideals:
            if i is not j:
                assert i.members & j.members == {0}


def test_minimal_ideals_field_is_itself():
    r = ring("GF(4)")
    ideals = fc.minimal_left_ideals(r)
    assert len(ideals) == 1
    assert ideals[0].members == set(range(r.size))


@pytest.mark.parametrize("spec", SUITE_SPECS + ["Z4xGF(4)", "Z2xM2(GF(2))"])
def test_minimal_ideals_match_definition(spec):
    r = ring(spec)
    ideal_of = [fc.principal_ideal(r, x).members for x in range(r.size)]
    # the stored grouping partitions the nonzero elements by the ideal they generate
    grouping = r.principal_left_ideals
    assert sorted(x for gens in grouping.values() for x in gens) == list(range(1, r.size))
    for members, gens in grouping.items():
        assert list(gens) == sorted(gens)
        assert all(ideal_of[x] == members for x in gens)
    # minimal: the principal left ideals that each of their nonzero members generates
    expected = [
        fc.Ideal(side="left", generator=min(members - {0}), members=members)
        for members in set(ideal_of[1:])
        if all(ideal_of[y] == members for y in members if y != 0)
    ]
    expected.sort(key=lambda ideal: sorted(ideal.members))
    assert fc.minimal_left_ideals(r) == tuple(expected)


def test_radical_and_socle_z4():
    r = ring("Z4")
    assert fc.radical(r) == {0, 2}
    assert fc.socle_local(r) == {0, 2}


def test_radical_semisimple():
    assert fc.radical(ring("GF(9)")) == {0}
    assert fc.radical(ring("Z2xZ3")) == {0}


def test_radical_socle_chain2():
    r = ring("CHAIN(2)")
    u = fc.parse_element(r, "0+1u")
    assert fc.radical(r) == {0, u}
    assert fc.socle_local(r) == {0, u}


def test_socle_requires_local():
    with pytest.raises(fc.NotLocalError):
        fc.socle_local(ring("Z6"))


def test_is_local():
    assert fc.is_local(ring("Z4"))
    assert fc.is_local(ring("GF(5)"))
    assert fc.is_local(ring("CHAIN(3)"))
    assert not fc.is_local(ring("Z6"))
    assert not fc.is_local(ring("M2(GF(2))"))


# ---------------------------------------------------------------------------
# Spec validation and parsing of element literals
# ---------------------------------------------------------------------------

def test_invalid_specs_rejected():
    with pytest.raises(fc.RingSpecError):
        fc.build_ring(fc.Zm(1))
    with pytest.raises(fc.RingSpecError):
        fc.build_ring(fc.GF(4, 1))  # 4 is not prime
    with pytest.raises(fc.RingSpecError):
        fc.build_ring(fc.GF(2, 0))
    with pytest.raises(fc.RingSpecError):
        fc.build_ring(fc.ChainQuad(6))  # not a prime power
    with pytest.raises(fc.RingSpecError):
        fc.build_ring(fc.Mat(0, fc.Zm(2)))


def test_cardinality_cap():
    with pytest.raises(fc.CardinalityCapError):
        fc.build_ring(fc.Zm(600))
    with pytest.raises(fc.CardinalityCapError):
        fc.build_ring(fc.Mat(2, fc.Zm(5)), cap=512)
    assert fc.build_ring(fc.Zm(600), cap=1024).size == 600
    # large prime literals: factoring must stop at the square root
    for text in ("GF(1000000007)", "CHAIN(1000000007)", "GF(999999999989)"):
        with pytest.raises(fc.CardinalityCapError):
            fc.build_ring(fc.parse_ring_spec(text))


@pytest.mark.parametrize("spec", SUITE_SPECS)
def test_element_names_round_trip(spec):
    r = ring(spec)
    for x in range(r.size):
        assert fc.parse_element(r, r.element_names[x]) == x


def test_parse_element_tolerates_spacing_and_case():
    r = ring("M2(GF(2))")
    assert fc.parse_element(r, " [1; 0;0; 1] ") == 1
    c = ring("CHAIN(2)")
    assert fc.parse_element(c, "0+1U") == fc.parse_element(c, "0+1u")
    with pytest.raises(ValueError):
        fc.parse_element(r, "[9;9;9;9]")
