import hashlib
import time
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from frobcode import cli
from helpers import (CAP_SPECS, SUITE_SPECS, reference_principal_left_ideals,
                     reference_solve_weight_axioms, reference_tables, reference_units, ring,
                     ring_specs, unit_orbit_index)

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
    add, mul = r.add_table, r.mul_table
    for a in range(n):
        assert 0 in add[a]
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


@pytest.mark.parametrize("spec", SUITE_SPECS + ["Z4xGF(4)", "Z2xM2(GF(2))", "M3(GF(2))", "Z8xZ64",
                                  "Z512", "GF(512)"])
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


# specs built by hand, not parsed, so only build_ring checks their terms:
# the first invalid term in pre-order (a term before its subterms, left
# before right) raises, after a cap error
@pytest.mark.parametrize("spec, message", [
    (fc.Prod(fc.Zm(1), fc.GF(4, 1)), "Z1: modulus"),
    (fc.Prod(fc.GF(4, 1), fc.Zm(1)), "4 is not prime"),
    (fc.Mat(0, fc.Prod(fc.Zm(1), fc.GF(2, 0))), "M0: matrix size"),
    (fc.Mat(1, fc.Prod(fc.Zm(2), fc.ChainQuad(6))), "6 is not a prime power"),
    (fc.Prod(fc.Mat(1, fc.GF(2, 0)), fc.Zm(0)), "GF.2\\^0.: exponent"),
    (fc.Prod(fc.Zm(2), fc.Mat(1, fc.GF(11, 2))), "coefficients above 9"),
    (fc.Prod(fc.Zm(1), fc.Zm(600)), "more than 512 elements"),
    (fc.Mat(2, fc.Prod(fc.GF(4, 1), fc.Zm(5))), "more than 512 elements"),
], ids=["Z1xGF(4^1)", "GF(4^1)xZ1", "M0(Z1xGF(2^0))", "M1(Z2xCHAIN(6))",
        "M1(GF(2^0))xZ0", "Z2xM1(GF(11^2))", "Z1xZ600", "M2(GF(4^1)xZ5)"])
def test_nested_invalid_specs_raise_their_first_invalid_term(spec, message):
    with pytest.raises(fc.RingSpecError, match=message):
        fc.build_ring(spec)


def test_the_field_of_a_chain_ring_is_no_checked_term(monkeypatch):
    # CHAIN(q) builds its field GF(p^f) through the field's kernel: a term
    # the spec does not hold is not checked, so GF(11^2), which has no
    # literal syntax, could serve CHAIN(121)
    seen, check = [], fc.rings._check_term
    monkeypatch.setattr(fc.rings, "_check_term", lambda spec: seen.append(spec) or check(spec))
    assert fc.build_ring(fc.ChainQuad(9)).size == 81
    assert seen == [fc.ChainQuad(9)]


def test_cardinality_cap():
    with pytest.raises(fc.CardinalityCapError):
        fc.build_ring(fc.Zm(600))
    with pytest.raises(fc.CardinalityCapError):
        fc.build_ring(fc.Mat(2, fc.Zm(5)), cap=512)
    assert fc.build_ring(fc.Zm(600), cap=1024).size == 600
    # large prime literals are rejected before they are factored
    for text in (
        "GF(1000000007)", "CHAIN(1000000007)", "GF(999999999989)",
        "GF(10000000000000061)", "CHAIN(10000000000000061)",
    ):
        with pytest.raises(fc.CardinalityCapError):
            fc.build_ring(fc.parse_ring_spec(text))


def test_cap_checked_before_large_sizes_are_built():
    # the size is compared with the cap without building it, 2^(9 * 512^4)
    # and 2^100000 here
    with pytest.raises(fc.CardinalityCapError, match="more than 512 elements"):
        fc.build_ring(fc.parse_ring_spec("M512(M512(Z512))"))
    with pytest.raises(fc.CardinalityCapError, match="more than 512 elements"):
        fc.build_ring(fc.GF(2, 100000))
    # a literal is checked against the cap that parse_ring_spec is given
    assert fc.parse_ring_spec("Z600", cap=1024) == fc.Zm(600)
    with pytest.raises(fc.CardinalityCapError, match="literal 600"):
        fc.parse_ring_spec("Z600")


def test_deep_nesting_rejected():
    # matrix nesting and long products both nest the spec tree
    # (the last, 120 KB, is rejected in linear time, not length x depth)
    for deep in ("M1(" * 2000 + "Z2" + ")" * 2000, "x".join(["Z2"] * 2000),
                 "M1(" * 200 + "x".join(["Z2"] * 100) + ")" * 200,
                 "M1(" * 250 + "Z2x" * 40000 + "Z2" + ")" * 250):
        start = time.perf_counter()
        with pytest.raises(fc.RingSpecError, match="nests more than 256 levels"):
            fc.parse_ring_spec(deep)
        assert time.perf_counter() - start < 1
    assert fc.build_ring(fc.parse_ring_spec("M1(" * 200 + "Z2" + ")" * 200)).size == 2
    assert fc.build_ring(fc.parse_ring_spec("M1(" * 255 + "GF(2)" + ")" * 255)).size == 2


# sha256 of each ring's tables as built at the parent commit of the
# structural table builders (Kronecker combinations, GF(p^k) log tables,
# row-vector matrix products); element indices feed the pinned outputs,
# so every table must come out identical entry for entry
PARENT_TABLE_DIGESTS = {
    "GF(2)": "e92f78e4bb8717b036a3f3f50f9003f6a055f384441416a8dc3d66901cdc9881",
    "GF(3)": "e3155b95ddb88c603fc4cbcda247b25f9ab993c7478c606fb0a4147712b58bbe",
    "GF(4)": "dbceda03765c9ca7589e4b3c5d1efee6cd35efbf9e4e9d184b6783471165314f",
    "GF(5)": "de7bccb0e9b8286304b17aede3274dc3abd060363fe5e4f45e6e74f7dba66be1",
    "GF(7)": "1941c9bf3de7240bcd95ec17ffeb9f1fc81852632d6f6caf016a4837e1d3f991",
    "GF(8)": "f5d4d09826a7e456147e8f7d8b626ee39491ad2d1c8684ed586b3276f243f0ac",
    "GF(9)": "25f9603e5dd7c9829161497eb0919c95514f33cc76d0c4276ba7a2978ca19543",
    "GF(16)": "a223898cf3127304ab1ceb9333f8f19820ad6f727805175df390d593bc32e6cf",
    "GF(25)": "d7df4dbb3a2ff3d0d6fb119085b6987e37a800949b3f36d92fe9fc3461f8dffa",
    "GF(27)": "195aaf5ae4d565559534dbd2006ced407735526fb35f9429b60f9e6a8dd7670a",
    "GF(32)": "8c9604a2130ab783f3b89eec4fc546b2d63bdd85fc6bffa6bcb4e90f7913ed4f",
    "GF(49)": "b7dae2071b62c096032865d9039e094691b9074ccf4dc97374d6b43cb2c1729a",
    "GF(64)": "7eb03e94acaf99f1f4d3561af35c9fc2552944dc4e4fcd3a7b736034529fb78e",
    "GF(81)": "d7dca2e07519a92d40513c1cc39c79628edd74ab570b3301ff4c433b2303b08f",
    "GF(125)": "6c1d3bd7826a52b18329f32f024896c2893ea2402226af9abee3cec76a328342",
    "GF(128)": "ce96d586f454368a5e832adfe3403eabc7c49a5a4a8e37d0ff2f7530e1eec2e6",
    "GF(243)": "29f5c7b46f6ff4e00fcc634f2b41371ecf19763d5eabccd34265448ce2d6f883",
    "GF(256)": "c9b2aab67d62f63cbdac64fddf4a1f806fd55eab8f161c9c4328dd230b5a4f18",
    "GF(343)": "0e0d968dd6e009f56089fd10803e76104e4492846b21f8edbf8378c42bc45d88",
    "GF(512)": "f4dbe2350a3f527674090fc635e0809289d6eab9bfb1bef699971846cd0e700f",
    "GF(251)": "4ef3f4fce890ba21910e4fa6aa62019ad870ca16053d80abd0df797359bf3b95",
    "GF(509)": "e3b772461ca2ec1ffe691699548a024fc60300e92d8f6d20751325188a0547f0",
    "M2(GF(2))": "b70bec3b6c37a4b44da1c4d81403907f1434ce1d49e652a1cbdb7b03a949c874",
    "M2(GF(3))": "20e4b4a55ab85c9ebdbac4da326c7b6cc3ad5f5e6e83b83e0182106065aaa1f9",
    "M2(GF(4))": "05d7e0c0681ebda50b9bda7cd56dbcbd0de7f53bba36f4767a6a054f1bf65c46",
    "M2(Z4)": "224bbd7a6f92d1ee366ae07ec89deb7673fea08a77065ead74b091e91cf7ef9a",
    "M3(GF(2))": "b52d8670d5bd9464acd3c1fcbf899b9da29c3829fadbc128aacab6f13cde409a",
    "M2(CHAIN(2))": "5b12bcd4a057d5ac3ead01b670f02bf9aaf49dde99786cdf4d899748add635c7",
    "CHAIN(2)": "1ddf47812015877cb59852745202b708d220c25e3c8c7de78880e16ace596241",
    "CHAIN(3)": "ff7680ec0e33c44e6c05d5bba3b2a6ec62fa6db54a0afc11336de3954e74985d",
    "CHAIN(4)": "e9d89a978ba2297c624efc8c50950fd56ffc9e019e948708ea5545af893d5968",
    "CHAIN(5)": "a13de2485cf8ea84ee2ab0cd50af3abf2ca5d3dafb0ac62831cfc4d4b0811a1f",
    "CHAIN(7)": "0f2796ab5fca915fcc824d2eac9c374a98ca8e87d87c920c466b8dd7ad0315f3",
    "CHAIN(8)": "4d16701da8544626f9935770fc68d8e6f33304eb8c971f48593ae2da73e977fb",
    "CHAIN(9)": "d46f012386f8af4d48c0a4fdfe5ca63540c407c365320112e37bb674df0843f7",
    "CHAIN(11)": "c07e0701d51a16786ae799554845e7db2865892e0fafd314129c89c5f7e04d4c",
    "CHAIN(13)": "e43e0db5efe7ff9734fb4d95618276426254ffcc919f2f211cea8677fb6e956e",
    "CHAIN(16)": "c838fe0815eb8666a7f655d9482ffebe2c9ca75705c7887c0ad9d7ff2c91bbce",
    "Z2xGF(256)": "8ca460f7fd0e62862d2d2f77b9a3eb257446d80f4ed7b80b1e3aab536de27f91",
    "Z8xZ64": "c394c91df74ca0a66566d9e484adf17781e98e70e334b2def50521805687a12d",
    "GF(2)xCHAIN(4)xZ8": "c23488a5082943540575b427f2309b7c0d65e2436ad258f5280be89c849aeeec",
    # residue rings, large primes, triple and nested products: computed
    # before the table kernels became gathers through existing rows
    "Z2": "e92f78e4bb8717b036a3f3f50f9003f6a055f384441416a8dc3d66901cdc9881",
    "Z6": "51d530122e0433d2a3d920507ec01f59b79d77db9aff5929f70dbdff2c8d44db",
    "Z64": "af78d97c4e4c758f68c1e65139c4488c7f556ca52d2bb060e2b2a1debc4ee866",
    "Z255": "6618a44a4f0e1f23189e952b543f97cc1135dd069543b0c8216b75dffd2ca0bb",
    "Z256": "017805c337328fb5f605955db511fade3c2f8427f4c5bf53455c6834e173f8fc",
    "Z360": "80b647e43267a529a370570d4abcb9ec6089ab2828b229a24f4052fbc2cc55cc",
    "Z511": "8ea1127d3be955d85759a1ae3140d1002aba679f30289473a2a858289b4f99b6",
    "Z512": "cd2300d77f6a71f43272c21c0ff91d6e1517102b02d3fcdec890d9e92e642846",
    "GF(257)": "4941b07354b12df11fd6ddb909ac0a3a336791e9f443f25d167870214e0b6510",
    "CHAIN(17)": "8261f7b38b34fd2ac9d0c996d99b73ea1687fd9239c279ddbe6f66cdacaadf38",
    "CHAIN(19)": "7a410773ea9c22a22faf90d958ec0179d06b02f54676402947bdd804c97d5b82",
    "Z4xZ8xZ16": "b297fa5f84643ef5ab0570a8d00025ea7c03ad6ca8fd55f8bbba2edfbcb21fa7",
    "Z3xM2(GF(2))xZ5": "7aea5e8614118169b379405efa0091360faee891940f87ec3701aaf30929f30f",
    "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2": "b5fd0a5741db1899ebf81931e6eaa17bd96f36f9aae358fcedace5185f4984cc",
    "M2(Z2xZ2)": "1b216e3365139a253c7c890e4f255e7350c54affb23f8814f45bd7f4552bca79",
    "M2(Z2)xM2(Z2)": "c78187acad940eccb3798034c0577129994be7d5ece9382eaa2fc691b7e28283",
    "M1(Z6)": "7113cb7744a2d05d3a1e58473c556bea9109f4fcf8d721bec0b4e545f394ff3c",
}


@pytest.mark.parametrize("spec", sorted(PARENT_TABLE_DIGESTS))
def test_tables_match_parent_build(spec):
    r = fc.build_ring(fc.parse_ring_spec(spec))
    # the negation table these digests were taken with is -x = add[x].index(0)
    negation = tuple(row.index(0) for row in r.add_table)
    data = (r.add_table, r.mul_table, negation, sorted(r.units), r.add_exponent,
            r.char_exp, r.element_names)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == PARENT_TABLE_DIGESTS[spec]


def _assert_reference_tables(r):
    assert all(type(row) is tuple for row in r.add_table + r.mul_table)
    for key, value in reference_tables(r.spec).items():
        assert getattr(r, key) == value, key


@settings(max_examples=30, deadline=None)
@given(ring_specs())
def test_tables_match_reference_kernels(drawn):
    _assert_reference_tables(ring(drawn[0]))


@pytest.mark.parametrize("spec", CAP_SPECS)
def test_cap_tables_match_reference_kernels(spec):
    _assert_reference_tables(ring(spec))


# the Ring._facts keys of the addition and multiplication tables, each
# whole or lazy: (row function, whole builder, rows made so far)
ADD, MUL = fc.rings._ADD, fc.rings._MUL


def _whole_tables(r):
    return {key for key in (ADD, MUL) if not callable(r._facts[key][0])}


def _ring_of_cli(command, spec, monkeypatch, capsys):
    # the ring that ``frobcode <command>`` builds, caught on its way out
    built = []

    def build_ring(*args, **kwargs):
        built.append(fc.build_ring(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_ring", build_ring)
    assert cli.main([*command, "--ring", spec]) == 0
    out = capsys.readouterr().out
    (r,) = built
    # ring info names the ring; weight prints one line per element
    assert out.startswith(f"ring: {r.name}\n") if command[0] == "ring" else out.count("\n") == r.size
    return r


# the tables that GF(p^k) and F_q[u]/(u^2) make whole as they build, since
# they read them in full
MADE_WITH_THE_RING = {"GF(512)": {ADD}, "CHAIN(19)": {ADD}}


# one ring per path of the builders: Z_m, GF(p) through Z_p, GF(p^k),
# F_q[u]/(u^2), a product, matrix rings over a field of order 2 and 4, and
# a product with a matrix factor
@pytest.mark.parametrize("spec", ["Z400", "GF(7)", "GF(512)", "CHAIN(19)", "Z8xZ64",
                                  "M3(GF(2))", "M2(GF(4))", "M2(Z2)xZ2"])
def test_multiplication_table_is_built_on_first_read(spec, monkeypatch, capsys):
    # ring info reads addition rows, and weight multiplication rows too, but
    # neither makes a whole table
    made = MADE_WITH_THE_RING.get(spec, set())
    built = [fc.build_ring(fc.parse_ring_spec(spec)),
             _ring_of_cli(["ring", "info"], spec, monkeypatch, capsys),
             _ring_of_cli(["weight"], spec, monkeypatch, capsys)]
    for r in built:  # the radical and the orbits are read off rows too
        r.radical, r.unit_orbits
    assert [_whole_tables(r) for r in built] == [made] * 3
    expected = reference_tables(built[0].spec)
    for r in built:
        for key in ("add_table", "mul_table"):
            table = getattr(r, key)
            assert table == expected[key]
            assert getattr(r, key) is table
        assert _whole_tables(r) == {ADD, MUL}
        assert not any(map(callable, r._facts.values()))


def _assert_rows_match_reference(spec, order=None, cap=fc.rings.DEFAULT_CAP):
    # a fresh ring: the cached ones may have made their tables whole
    r = fc.build_ring(fc.parse_ring_spec(spec, cap), cap)
    order = range(r.size - 1, -1, -1) if order is None else order
    made, expected = _whole_tables(r), reference_tables(r.spec)
    for key, name in ((ADD, "add_table"), (MUL, "mul_table")):
        rows = {x: r._row(key, x) for x in order}
        assert all(type(row) is tuple for row in rows.values())
        assert [rows[x] for x in range(r.size)] == list(expected[name])
    assert _whole_tables(r) == made


@settings(max_examples=30, deadline=None)
@given(ring_specs(), st.data())
def test_rows_match_reference_kernels(drawn, data):
    order = data.draw(st.permutations(range(drawn[1])))
    _assert_rows_match_reference(drawn[0], order)


@pytest.mark.parametrize("spec", CAP_SPECS)
def test_cap_rows_match_reference_kernels(spec):
    _assert_rows_match_reference(spec)


@pytest.mark.parametrize("spec", ["GF(625)", "GF(729)"])
def test_odd_fields_above_the_default_cap_match_reference_kernels(spec):
    # GF(5^4) and GF(3^6): rows read before the whole tables, then the whole
    # tables and the trace; the reference multiplies through discrete logs
    _assert_rows_match_reference(spec, cap=1024)
    _assert_reference_tables(fc.build_ring(fc.parse_ring_spec(spec, 1024), 1024))


def test_a_reducible_modulus_fails_the_trace_check(monkeypatch):
    # over t^2, t * t = 0, so the trace of t is t + t^2 = t, outside F_2
    monkeypatch.setattr(fc.rings, "_smallest_irreducible", lambda p, k: (0, 0, 1))
    with pytest.raises(fc.CharacterError, match=r"the trace of GF\(2\^2\) left the prime field"):
        fc.build_ring(fc.parse_ring_spec("GF(4)"))


# one spec per constructor, a product with a matrix factor, and matrix rings
# over a non-commutative ring (M1(M2(GF(2)))), a chain ring, a product, a
# field of odd order and in three rows
@pytest.mark.parametrize("spec", ["Z12", "GF(7)", "GF(9)", "CHAIN(4)", "Z2xZ4", "M2(GF(2))", "M2(Z2)xZ2",
                                  "M1(M2(GF(2)))", "M2(Z4)", "M2(CHAIN(2))", "M2(Z2xZ2)", "M2(GF(3))",
                                  "M3(GF(2))"])
def test_every_kernel_hands_over_its_principal_left_ideals(spec, monkeypatch):
    # the ring comes out of the build walk with its ideals: no principal_ideal
    # runs to walk them, then or on the first read
    def walked(*args):
        raise AssertionError("principal ideal taken to walk the ideals")

    monkeypatch.setattr(fc.rings, "principal_ideal", walked)
    r = fc.rings._build(fc.parse_ring_spec(spec))
    assert list(r.principal_left_ideals.items()) == list(reference_principal_left_ideals(r).items())


def _local_factors(spec):
    # a commutative S as a product of local rings S_i: (|S_i|, q_i) for
    # F_(q_i) the residue field of S_i
    if isinstance(spec, fc.rings.Zm):
        m, factors, p = spec.m, [], 2
        while m > 1:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m, e = m // p, e + 1
                factors.append((p ** e, p))
            p += 1
        return factors
    if isinstance(spec, fc.rings.GF):
        return [(spec.p ** spec.k, spec.p ** spec.k)]
    if isinstance(spec, fc.rings.ChainQuad):
        return [(spec.q ** 2, spec.q)]
    if isinstance(spec, fc.rings.Prod):
        return _local_factors(spec.left) + _local_factors(spec.right)
    assert isinstance(spec, fc.rings.Mat) and spec.n == 1, spec  # M1(S) is S
    return _local_factors(spec.inner)


def gl_order(n, spec):
    """|GL_n(S)| = prod_i (|S_i|/q_i)^(n^2) prod_(j<n) (q_i^n - q_i^j): a matrix
    over a local ring is invertible exactly when it is over the residue field."""
    return prod((size // q) ** (n * n) * prod(q ** n - q ** j for j in range(n))
                for size, q in _local_factors(spec))


# every M_n(S) up to the cap for n >= 2, M_1 over commutative and
# non-commutative rings, and one above the default cap, with the orders
# that CI checks too
GL_SPECS = ([f"M2({s})" for s in ("Z2", "Z3", "Z4", "GF(2)", "GF(3)", "GF(4)", "CHAIN(2)", "Z2xZ2",
                                  "M1(Z4)")]
            + ["M3(Z2)", "M3(GF(2))", "M2(M1(GF(2)))"]
            + [f"M1({s})" for s in ("Z12", "GF(8)", "CHAIN(3)", "Z2xGF(4)", "M2(GF(2))", "M2(Z2)xZ2",
                                    "M1(Z6)")])
GL_ORDERS = {"M3(GF(2))": 168, "M2(GF(4))": 180, "M2(Z4)": 96, "M2(CHAIN(2))": 96, "M2(Z2xZ2)": 36,
             "M2(Z5)": 480}


@pytest.mark.parametrize("spec", GL_SPECS + ["M2(Z5)"])
def test_matrix_ring_units_match_the_order_of_gl(spec):
    # the units come from the row modules: |GL_n(S)| in closed form for n
    # >= 2, and for n = 1 the unit count of S's own kernel
    cap = 1024 if spec == "M2(Z5)" else fc.rings.DEFAULT_CAP
    r = fc.build_ring(fc.parse_ring_spec(spec, cap), cap)
    n, inner = r.spec.n, r.spec.inner
    order = len(fc.build_ring(inner).units) if n == 1 else gl_order(n, inner)
    assert len(r.units) == order == GL_ORDERS.get(spec, order)
    assert sorted(r.units) == sorted(reference_units(r))


@pytest.mark.parametrize("spec", SMALL_SPECS + ["Z2xZ4"] + CAP_SPECS)
def test_unit_orbits_number_each_element(spec):
    orbit, reps = ring(spec).unit_orbits
    assert list(orbit) == unit_orbit_index(ring(spec), "right")
    assert [orbit[x] for x in reps] == list(range(len(reps)))


def _assert_reference_facts(r):
    # in order: units ascending, ideals by smallest generator, generators
    # ascending, and the oracle's weights by element
    assert sorted(r.units) == sorted(reference_units(r))
    assert list(r.principal_left_ideals.items()) == list(reference_principal_left_ideals(r).items())
    assert list(fc.solve_weight_axioms(r)) == list(reference_solve_weight_axioms(r))


@settings(max_examples=30, deadline=None)
@given(ring_specs())
def test_facts_match_generic_reference(drawn):
    _assert_reference_facts(ring(drawn[0]))


# every pinned ring, with products of a matrix factor among them
# (M2(Z2)xZ2, Z3xM2(GF(2))xZ5, M2(Z2)xM2(Z2))
@pytest.mark.parametrize("spec", sorted(set(CAP_SPECS) | set(PARENT_TABLE_DIGESTS)))
def test_pinned_facts_match_generic_reference(spec):
    _assert_reference_facts(ring(spec))


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
