"""The per-ring facts against their per-element definitions.

``Ring.principal_left_ideals`` comes from each constructor's structure (a
matrix ring walks one unit orbit at a time), the radical and the
generating test read its grouping, and ``hom_weight_table`` takes one
character sum per right unit orbit.  The references here are the
direct loops over every element: Rx for each x, the quasi-regularity
scan, and one cyclotomic reduction per element.  ``verify_axioms`` must
accept the character table and reject it with one weight raised.  The
generating test checks left ideals only; its reference scans both Rx and
xR, so it also checks that a character is left generating exactly when
it is right generating.  The additivity check, run on a generating set
of (R, +), must reject maps changed at one element or on one coset of a
subgroup.  On drawn rings and words, |Rc| depends only on the set of
values of c, up to units: the rule ``LinearCode.cyclic_size`` reads.
On drawn codes, the weight sums average to the effective length.
"""

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from frobcode.homweight import CyclotomicSum
from frobcode.lincode import scale_word
from helpers import CAP_SPECS, SUITE_SPECS, ring, ring_specs


def grouping_reference(r):
    ideals = {}
    for x in range(1, r.size):
        members = frozenset(r.mul_table[s][x] for s in range(r.size))
        ideals.setdefault(members, []).append(x)
    return {members: tuple(gens) for members, gens in ideals.items()}


def radical_reference(r):
    add, mul = r.add_table, r.mul_table
    neg = [row.index(0) for row in add]
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
    t = fc.hom_weight_table(r)
    norm = t.norm_weight
    assert norm == fc.solve_weight_axioms(r)
    if weights:
        assert norm == weight_reference(r)
    # the axiom check is the comparison with the oracle: it must reject a
    # table with one nonzero weight raised, as that changes the sum over Rx
    assert fc.verify_axioms(t)
    xs = range(1, r.size) if r.size <= 16 else sorted(
        {1, 2, 3, r.size // 3, r.size // 2, r.size - 1})
    for x in xs:
        raised = norm[:x] + (norm[x] + 1,) + norm[x + 1:]
        assert not fc.verify_axioms(fc.HomWeightTable(ring=r, gamma=t.gamma, norm_weight=raised))


@pytest.mark.parametrize("spec", SUITE_SPECS + CAP_SPECS)
def test_facts_match_per_element_definitions(spec):
    # the dense per-element reduction mod x^256 + 1 takes about a second on Z512
    check_facts(ring(spec), weights=spec != "Z512")


def changed_on_cosets(r, spread):
    """The built-in exponent map plus 1 on one coset x + H, x not in H.

    A check on generators that all lie in H passes such a map, so these
    maps pin that the generators span (R, +).  H runs over the maximal
    subgroups of (R, +), the kernels of y -> chi(ya) of prime index for a
    in ``spread``, and over the intersections of two of them.  The map is
    additive only when H has index 2 and the exponent is 2, and is skipped
    there: in exponent 2 a check on generators that span a maximal
    subgroup is still complete, and smaller spans lie in an intersection.
    """
    mul, n = r.mul_table, r.add_exponent
    kernels = {frozenset(y for y in range(r.size) if r.char_exp[mul[y][a]] % n == 0)
               for a in spread}
    maximal = [h for h in kernels if _is_prime(r.size // len(h))]
    for h in {h & k for h in maximal for k in maximal}:
        if not (len(h) * 2 == r.size and n == 2):
            x = min(set(range(r.size)) - h)
            coset = {r.add_table[x][y] for y in h}
            yield [(e + (y in coset)) % n for y, e in enumerate(r.char_exp)]


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, m))


# on Z2 the map changed at 1 is [0, 0], which is additive
@pytest.mark.parametrize("spec", [s for s in SUITE_SPECS if ring(s).size > 2] + CAP_SPECS)
def test_character_changed_at_one_element_is_not_additive(spec):
    r = ring(spec)
    xs = range(1, r.size) if r.size <= 16 else sorted({2, 3, r.size // 3, r.size // 2, r.size - 1})
    for x in xs:
        exps = [(e + (y == x)) % r.add_exponent for y, e in enumerate(r.char_exp)]
        with pytest.raises(fc.CharacterError, match="not additive"):
            fc.is_generating_character(r, exps)


# Z2xZ4: exponent 4 and a maximal subgroup of index 2
@pytest.mark.parametrize("spec", SUITE_SPECS + CAP_SPECS + ["Z2xZ4"])
def test_character_changed_on_a_coset_is_not_additive(spec):
    r = ring(spec)
    spread = range(r.size) if r.size <= 16 else sorted({0, 1, 2, 3, r.size // 2, r.size - 1})
    cases = 0
    for exps in changed_on_cosets(r, spread):
        cases += 1
        with pytest.raises(fc.CharacterError, match="not additive"):
            fc.is_generating_character(r, exps)
    assert cases > 0 or r.size == 2


@pytest.mark.parametrize("spec, position", [("M2(GF(2))", 1), ("Z2xZ2", 0)],
                         ids=["X11 on M2(GF(2))", "a on Z2xZ2"])
def test_additive_map_that_is_not_generating(spec, position):
    # X -> X11 vanishes on the left ideal of matrices with zero first column,
    # (a, b) -> a on the ideal 0 x Z2
    r = ring(spec)
    exps = [int(name[position]) for name in r.element_names]
    assert generating_reference(r, exps) is False
    assert fc.is_generating_character(r, exps) is False


# ---------------------------------------------------------------------------
# Rings drawn from the spec grammar, at most 64 elements
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, database=None)
@given(ring_specs())
def test_drawn_ring_facts_match_per_element_definitions(drawn):
    spec, size = drawn
    r = fc.build_ring(fc.parse_ring_spec(spec))
    assert r.size == size
    check_facts(r)


@settings(max_examples=30, deadline=None, database=None)
@given(ring_specs(), st.data())
def test_cyclic_size_is_read_from_the_value_set_up_to_units(drawn, data):
    """|Rc| = |RV| for the value set V of c, and |R(uV)| = |RV| for units u."""
    r = fc.build_ring(fc.parse_ring_spec(drawn[0]))
    w = data.draw(st.lists(st.integers(0, r.size - 1), min_size=1, max_size=8))
    size = len(fc.cyclic_span(r, w))
    assert len(fc.cyclic_span(r, sorted(set(w)))) == size
    for u in r.units:
        assert len(fc.cyclic_span(r, scale_word(r, u, set(w)))) == size


@settings(max_examples=30, deadline=None, database=None)
@given(ring_specs(), st.data())
def test_weight_sums_over_a_drawn_code_average_to_its_effective_length(drawn, data):
    """Sum over c in C of w(c)/gamma = |C| ell(C), in the integer core.

    Each coordinate in the support takes every value of a nonzero left
    ideal I equally often, and the normalised weight sums to |I| over I,
    since the character sums over the nonzero left ideals Iu vanish.
    """
    r = fc.build_ring(fc.parse_ring_spec(drawn[0]))
    n = data.draw(st.integers(1, 4))
    row = st.lists(st.integers(0, r.size - 1), min_size=n, max_size=n)
    code = fc.build_code(r, data.draw(st.lists(row, min_size=1, max_size=2)))
    num, den = code.table.numerators, code.table.denominator
    assert sum(num[x] for w in code.word_order for x in w) == code.size * code.ell_C * den
