"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  All comparisons are exact (Fraction equality, byte equality);
the stated wall-clock budgets are asserted too.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import frobcode as fc
from frobcode.cli import main
from frobcode.lincode import scale_word, word_add
from helpers import SUITE_SPECS, ring, table

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def _pass(number: int, started: float, budget: float, description: str) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s / budget {budget:.0f}s) - {description}")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 1. Homogeneous weight tables
# ---------------------------------------------------------------------------

def test_criterion_1_weight_tables():
    started = time.monotonic()

    assert table("Z4").norm_weight == (F(0), F(1), F(2), F(1))

    for q in (2, 3, 4, 5, 7, 8, 9):
        t = table(f"GF({q})", F(q - 1, q))
        assert t.weight(0) == 0
        assert all(t.weight(x) == 1 for x in range(1, q))

    r = ring("M2(GF(2))")
    t = fc.hom_weight_table(r, F(3, 2))
    assert t.weight(0) == 0
    assert all(t.weight(x) == (1 if x in r.units else 2) for x in range(1, 16))

    for spec in ("Z4", "Z9", "CHAIN(2)", "CHAIN(3)"):
        assert fc.local_socle_weight_table(ring(spec)).norm_weight == table(spec).norm_weight

    _pass(1, started, 1.0, "weight tables: Lee, Hamming, matrix ring, local formula")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    for spec in SUITE_SPECS:
        assert table(spec).norm_weight == fc.solve_weight_axioms(ring(spec)), spec
    _pass(2, started, 10.0, f"character formula == axiom solver on {len(SUITE_SPECS)} rings")


# ---------------------------------------------------------------------------
# 3. Coset-average identity
# ---------------------------------------------------------------------------

def _all_submodules(r, n):
    """Every submodule of R^n, as frozensets of words (joins of cyclics)."""
    vectors = list(product(range(r.size), repeat=n))
    zero_mod = frozenset({(0,) * n})
    cyclics = {
        frozenset(scale_word(r, s, v) for s in range(r.size)) for v in vectors
    }
    submodules = {zero_mod} | cyclics
    frontier = set(submodules)
    while frontier:
        fresh = set()
        for sub in frontier:
            for cyc in cyclics:
                if cyc <= sub:
                    continue
                join = frozenset(word_add(r, a, b) for a in sub for b in cyc)
                if join not in submodules:
                    submodules.add(join)
                    fresh.add(join)
        frontier = fresh
    return submodules


def _coset_rhs(code, x):
    w = code.table.norm_weight
    outside = [i for i in range(code.n) if i + 1 not in code.support]
    return code.ell_C + sum((w[x[i]] for i in outside), F(0))


def test_criterion_3_coset_average_identity():
    started = time.monotonic()
    r, t = ring("Z4"), table("Z4")

    checked = 0
    for n in (1, 2, 3):
        for words in _all_submodules(r, n):
            code = fc.code_from_words(r, n, words, t)
            for x in product(range(4), repeat=n):
                assert fc.coset_average(code, x) == _coset_rhs(code, x)
                checked += 1

    rng = random.Random(0)
    larger = [
        fc.octacode(),
        fc.hjelmslev_line(ring("Z9"), table("Z9")),
        fc.simplex(ring("Z4"), 2, table("Z4")),
    ]
    for _ in range(1000):
        code = rng.choice(larger)
        x = tuple(rng.randrange(code.ring.size) for _ in range(code.n))
        assert fc.coset_average(code, x) == _coset_rhs(code, x)

    _pass(3, started, 30.0, f"coset averages: {checked} exhaustive pairs + 1000 random")


# ---------------------------------------------------------------------------
# 4. Octacode pipeline
# ---------------------------------------------------------------------------

def test_criterion_4_octacode_pipeline():
    started = time.monotonic()
    code = fc.octacode()
    assert (code.size, code.min_hom_norm) == (256, 6)

    c = (0, 0, 0, 2, 0, 2, 2, 2)
    assert c in code
    sho = fc.shorten(code, c)
    assert sho.words == fc.cyclic_submodule(code, c).members
    assert sho.size == 2

    res = fc.residual(code, c)
    assert (res.n, res.size, res.min_hom_norm) == (4, 128, 2)

    image = fc.gray_image(res)
    assert len(image) == 128 and len(next(iter(image))) == 8
    assert fc.min_hamming_distance(image) == 2
    for w in code.word_order:  # Lee-Hamming isometry over all 256 words
        assert fc.ell(fc.gray_map(w)) == fc.extend_weight(code.table, w)

    _pass(4, started, 5.0, "octacode: shorten = Rc, residual (4,128,2), Gray isometry")


# ---------------------------------------------------------------------------
# 5. Plotkin sharpness
# ---------------------------------------------------------------------------

def test_criterion_5_plotkin_sharpness():
    started = time.monotonic()
    cases = [("Z4", 1), ("Z4", 2), ("M2(GF(2))", 1)]
    for spec, m in cases:
        r = ring(spec)
        code = fc.simplex(r, m, table(spec))
        target = r.size ** m
        assert all(
            fc.extend_weight(code.table, w) == target for w in code.words if any(w)
        )
        refined = fc.check_all(code)[1]
        assert refined.bound == "plotkin-refined"
        assert refined.sharp and refined.rhs == target

    m2 = fc.simplex(ring("M2(GF(2))"), 1, table("M2(GF(2))"))
    cor3 = fc.plotkin_minimal_ideal(m2)
    assert cor3.details["Q"] == 4
    assert cor3.sharp and cor3.lhs == 16 == cor3.rhs

    _pass(5, started, 5.0, "simplex codes constant-weight, bounds sharp at |R|^m")


# ---------------------------------------------------------------------------
# 6. Singleton sharpness
# ---------------------------------------------------------------------------

def _check_chain_exact(code, chain):
    stages = chain.stages
    assert all(holds in (True, None) for _, holds in chain.checks)
    for i in range(1, len(stages)):
        prev = stages[i - 1]
        assert stages[i].code.size * prev.cyclic_size == prev.code.size
        assert stages[i].code.n == prev.code.n - fc.ell(prev.word)
        drop = prev.code.min_hom_norm - fc.ell(prev.word)
        assert drop > 0
        if stages[i].code.min_hom_norm is not None:
            assert stages[i].code.min_hom_norm >= drop
    total = chain.final.size
    for stage in stages[:-1]:
        total *= stage.cyclic_size
    assert total == code.size
    if chain.r >= 1:
        assert chain.inequality_lhs >= chain.inequality_rhs


def test_criterion_6_singleton_sharpness():
    started = time.monotonic()

    z4 = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    assert (z4.n, z4.size, z4.min_hom_norm) == (6, 16, 6)
    assert {fc.extend_weight(z4.table, w) for w in z4.words if any(w)} == {6, 8}
    rep = fc.singleton_P(z4)
    assert rep.details["P"] == 4
    assert rep.sharp and rep.lhs == 1 == rep.rhs
    chain = fc.residual_chain(z4)
    assert chain.r == 1
    _check_chain_exact(z4, chain)

    z9 = fc.hjelmslev_line(ring("Z9"), table("Z9"))
    assert (z9.n, z9.size, z9.min_hom_norm) == (12, 81, 12)
    rep9 = fc.singleton_P(z9)
    assert rep9.details["P"] == 9
    # lhs = 12 - ceil(8/9 * 12) = 1, rhs = ceil(log_9 81 - log_9 9) = 1
    assert rep9.sharp and rep9.lhs == 1 == rep9.rhs
    chain9 = fc.residual_chain(z9)
    _check_chain_exact(z9, chain9)

    _pass(6, started, 10.0, "Hjelmslev line codes meet the Singleton-type bound at q=2,3")


# ---------------------------------------------------------------------------
# 7. Theorem soundness sweep
# ---------------------------------------------------------------------------

def _two_generated_codes(r, t, max_n):
    """Deduplicated codes spanned by at most two rows, lengths 1..max_n."""
    for n in range(1, max_n + 1):
        vectors = list(product(range(r.size), repeat=n))
        multiples = {v: [scale_word(r, s, v) for s in range(r.size)] for v in vectors}
        seen = set()
        for i, g1 in enumerate(vectors):
            for g2 in vectors[i:]:
                words = frozenset(
                    word_add(r, a, b)
                    for a in multiples[g1]
                    for b in multiples[g2]
                )
                if words in seen:
                    continue
                seen.add(words)
                yield fc.code_from_words(r, n, words, t, generators=(g1, g2))


def _check_lemmas(code):
    r = code.ring
    d = code.min_hom_norm
    if d is None:
        return
    n = code.n
    spans = {w: fc.cyclic_span(r, w) for w in code.word_order}
    # the code's cyclic-size table, filled one span per unit orbit
    assert all(code.cyclic_size(w) == len(spans[w]) for w in code.word_order)

    # removal of a short-support word leaves exactly its cyclic submodule,
    # and the residual parameters follow
    for c in code.word_order:
        lc = fc.ell(c)
        if not any(c) or lc >= d:
            continue
        assert fc.shorten(code, c).words == spans[c]
        res = fc.residual(code, c)
        assert res.n == n - lc
        assert res.size * len(spans[c]) == code.size
        if res.min_hom_norm is not None:
            assert res.min_hom_norm >= d - lc

    # scaled-unit structure of minimum-Hamming words
    for c in code.word_order:
        if any(c) and fc.ell(c) == code.min_hamming:
            alpha, units = fc.min_hamming_word_structure(code, c)
            assert all(r.mul(alpha, u) == c[i - 1] for i, u in units.items())
            # below the minimum weight, the cyclic submodule is simple
            if code.min_hamming < d:
                assert all(
                    spans[w] == spans[c] for w in spans[c] if any(w)
                )

    # residual cyclic sizes stay below the code-level maxima
    if n <= d:
        q_max = fc.max_cyclic_size(code)
        p_max = fc.max_cyclic_size(code, incomplete_support_only=True)
        for c in code.word_order:
            lc = fc.ell(c)
            if not any(c) or lc >= n:
                continue
            res = fc.residual(code, c)
            for w in res.word_order:
                size = len(fc.cyclic_span(r, w))
                assert size <= q_max
                if fc.ell(w) < n - lc:
                    assert size <= p_max


def _counting_sides(n, d, size, ring_size, m):
    """n - ceil((m-1)/m * d/gamma) and ceil(log_|R| M - 1), in integers.

    At m = |R| these are singleton-weak's two sides, recomputed from
    (n, d/gamma, M, |R|) without the library's ``ceil_log``.
    """
    d = F(d)
    lhs = n + (1 - m) * d.numerator // (m * d.denominator)
    digits = 0  # ceil(log_|R| M)
    while ring_size**digits < size:
        digits += 1
    return lhs, digits - 1


def _check_singleton_weak(code, by_name):
    """Assert what is proven of singleton-weak on one code (docs/singleton-weak.md).

    With m = min |Rc| over the nonzero codewords c, the counting inequality
    in m holds on every code; at m = |R| (case a) it is singleton-weak.
    Cases (b) and (c) are singleton-Q and singleton-P with the same sides.
    Returns None when singleton-weak is inapplicable, else "proven", "open"
    (satisfied outside the proven cases) or "counterexample".
    """
    r, d, n = code.ring, code.min_hom_norm, code.n
    if d is None:
        return None
    m = min(len(fc.cyclic_span(r, w)) for w in code.word_order if any(w))
    lhs_m, rhs = _counting_sides(n, d, code.size, r.size, m)
    assert lhs_m >= rhs
    weak = by_name["singleton-weak"]
    if not weak.applicable:
        return None
    sides = (weak.lhs, weak.rhs)
    assert sides == _counting_sides(n, d, code.size, r.size, r.size)
    q, p = by_name["singleton-Q"], by_name["singleton-P"]
    case_b = q.details["Q"] == r.size and n < d
    case_c = p.details["P"] == r.size and code.min_hamming < n
    if case_b:
        assert sides == (q.lhs, q.rhs)
    if case_c:
        assert sides == (p.lhs, p.rhs)
    if m == r.size or case_b or case_c:
        assert weak.satisfied
        return "proven"
    return "open" if weak.satisfied else "counterexample"


def test_criterion_7_soundness_sweep():
    started = time.monotonic()
    plans = [("Z4", 4), ("GF(4)", 3), ("CHAIN(2)", 3)]
    codes = 0
    violations = []
    weak = Counter()
    for spec, max_n in plans:
        r, t = ring(spec), table(spec)
        for code in _two_generated_codes(r, t, max_n):
            codes += 1
            by_name = {rep.bound: rep for rep in fc.check_all(code)}
            for rep in by_name.values():
                # singleton-weak is not a theorem; it is checked below
                if rep.bound != "singleton-weak" and rep.applicable and not rep.satisfied:
                    violations.append(
                        f"{spec} n={code.n} words={sorted(code.words)} "
                        f"{rep.bound}: {rep.lhs} vs {rep.rhs}"
                    )
            weak[_check_singleton_weak(code, by_name)] += 1
            _check_lemmas(code)
    # Every structure lemma and every proven singleton-weak case already held
    # (hard asserts); the six theorem bounds must hold on every code.  The
    # singleton-weak counterexamples (smallest: {0, 2} inside Z4^1, where
    # 1 - ceil(3/4 * 2) = -1 < 0 = ceil(log_4 2 - 1)) are counted, not hidden.
    assert not violations, (
        f"{len(violations)} applicable-but-violated theorem-bound reports out of "
        f"{codes} codes:\n" + "\n".join(violations)
    )
    applicable = codes - weak[None]
    _pass(
        7,
        started,
        300.0,
        f"six theorem bounds and all structure lemmas hold on {codes} codes; "
        f"singleton-weak: {applicable} applicable, {weak['proven']} in proven cases "
        f"(all hold), {weak['counterexample']} counterexamples",
    )


# ---------------------------------------------------------------------------
# 8. CLI golden files
# ---------------------------------------------------------------------------

GOLDEN_CASES = [
    ("bounds_octacode.json", ["bounds", "check", "--ring", "Z4", "--gen", "octacode.gen", "--json"]),
    ("bounds_simplex_z4_2.json", ["bounds", "check", "--ring", "Z4", "--gen", "simplex_z4_2.gen", "--json"]),
    ("bounds_hjelmslev_z4.json", ["bounds", "check", "--ring", "Z4", "--gen", "hjelmslev_z4.gen", "--json"]),
    ("chain_octacode.json", ["chain", "--ring", "Z4", "--gen", "octacode.gen", "--json"]),
    ("chain_simplex_z4_2.json", ["chain", "--ring", "Z4", "--gen", "simplex_z4_2.gen", "--json"]),
    ("chain_hjelmslev_z4.json", ["chain", "--ring", "Z4", "--gen", "hjelmslev_z4.gen", "--json"]),
    # schema stability beyond the three required codes
    ("bounds_simplex_m2f2_1.json", ["bounds", "check", "--ring", "M2(GF(2))", "--gen", "simplex_m2f2_1.gen", "--json"]),
    ("family_hjelmslev_z4.json", ["family", "hjelmslev", "--ring", "Z4", "--json"]),
]


@pytest.mark.parametrize("fixture,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_criterion_8_cli_golden_files(fixture, argv, capsys):
    started = time.monotonic()
    argv = [a if not a.endswith(".gen") else str(GOLDEN / a) for a in argv]
    exit_code = main(argv)
    out = capsys.readouterr().out
    assert exit_code == 0
    expected = (GOLDEN / fixture).read_text(encoding="utf-8")
    assert out == expected
    json.loads(out)  # stays well-formed
    _pass(8, started, 5.0, f"golden file {fixture} matches byte-for-byte")
