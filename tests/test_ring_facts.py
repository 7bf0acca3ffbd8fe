"""The per-ring facts against their per-element definitions.

``Ring.principal_left_ideals`` walks one unit orbit at a time, the radical
and the left half of the generating test read its grouping, and
``hom_weight_table`` takes one character sum per right unit orbit.  The
references here are the direct loops over every element: Rx for each x,
the quasi-regularity scan, the two-sided scan over xR and Rx, and one
cyclotomic reduction per element.
"""

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from frobcode.homweight import CyclotomicSum
from helpers import SUITE_SPECS, ring

CAP_SPECS = ["M3(GF(2))", "Z8xZ64", "Z512", "GF(512)"]


def grouping_reference(r):
    ideals = {}
    for x in range(1, r.size):
        members = frozenset(r.mul_table[s][x] for s in range(r.size))
        ideals.setdefault(members, []).append(x)
    return {members: tuple(gens) for members, gens in ideals.items()}


def radical_reference(r):
    add, mul, neg = r.add_table, r.mul_table, r.neg_table
    return frozenset(
        x for x in range(r.size)
        if all(add[1][neg[mul[s][x]]] in r.units for s in range(r.size))
    )


def generating_reference(r, exps):
    n, mul, every = r.add_exponent, r.mul_table, range(r.size)
    return all(
        any(exps[mul[s][x]] % n for s in every) and any(exps[mul[x][s]] % n for s in every)
        for x in range(1, r.size)
    )


def weight_reference(r):
    units = sorted(r.units)
    return tuple(
        1 - fc.cyclotomic_reduce(CyclotomicSum.from_exponents(
            r.add_exponent, (r.char_exp[r.mul_table[x][u]] for u in units)
        )) / len(units)
        for x in range(r.size)
    )


def multiples(r):
    """Exponent maps k * chi: every k for small N, a spread of k otherwise."""
    n = r.add_exponent
    ks = range(n) if n <= 16 else sorted({0, 1, 2, 3, n // 2, n - 1})
    return [[k * e % n for e in r.char_exp] for k in ks]


def check_facts(r, weights=True):
    assert list(r.principal_left_ideals.items()) == list(grouping_reference(r).items())
    assert r.radical == radical_reference(r)
    for exps in multiples(r):
        assert fc.is_generating_character(r, exps) == generating_reference(r, exps)
    norm = fc.hom_weight_table(r).norm_weight
    assert norm == fc.solve_weight_axioms(r)
    if weights:
        assert norm == weight_reference(r)


@pytest.mark.parametrize("spec", SUITE_SPECS + CAP_SPECS)
def test_facts_match_per_element_definitions(spec):
    # the dense per-element reduction mod x^256 + 1 takes about a second on Z512
    check_facts(ring(spec), weights=spec != "Z512")


# ---------------------------------------------------------------------------
# Rings drawn from the spec grammar, at most 64 elements
# ---------------------------------------------------------------------------

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
                43, 47, 49, 53, 59, 61, 64]


@st.composite
def ring_specs(draw, budget=64):
    """A spec string and its ring size, at most ``budget``."""
    kinds = ["Z", "GF"]
    if budget >= 4:
        kinds += ["CHAIN", "x"]
    if budget >= 16:
        kinds.append("M2")
    kind = draw(st.sampled_from(kinds))
    if kind == "Z":
        m = draw(st.integers(2, budget))
        return f"Z{m}", m
    if kind == "GF":
        q = draw(st.sampled_from([q for q in PRIME_POWERS if q <= budget]))
        return f"GF({q})", q
    if kind == "CHAIN":
        q = draw(st.sampled_from([q for q in PRIME_POWERS if q * q <= budget]))
        return f"CHAIN({q})", q * q
    if kind == "M2":
        inner, size = draw(ring_specs(2))
        return f"M2({inner})", size ** 4
    left, left_size = draw(ring_specs(budget // 2))
    right, right_size = draw(ring_specs(budget // left_size))
    return f"{left}x{right}", left_size * right_size


@settings(max_examples=30, deadline=None, database=None)
@given(ring_specs())
def test_drawn_ring_facts_match_per_element_definitions(drawn):
    spec, size = drawn
    r = fc.build_ring(fc.parse_ring_spec(spec))
    assert r.size == size
    check_facts(r)
