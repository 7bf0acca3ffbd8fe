"""Shared cached builders for the test suite, the reference ring tables,
ring facts and chain certificate, and MacWilliams duality and column
multisets as second methods for codes."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm, prod

from hypothesis import strategies as st

import frobcode as fc
from frobcode.homweight import CyclotomicSum, cyclotomic_reduce
from frobcode.rings import _digits, _divmod_monic, _prime_power, _smallest_irreducible, _undigits

# every ring exercised by the cross-checking suites
SUITE_SPECS = (
    ["Z%d" % m for m in range(2, 13)]
    + ["GF(%d)" % q for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["M2(GF(2))", "Z2xZ3", "CHAIN(2)", "CHAIN(3)"]
)

# criterion 7b's non-commutative or non-local rings, and chain rings of
# length 3 and 2
BEYOND_LOCAL_SPECS = ("M2(GF(2))", "Z6", "Z2xZ3", "Z8", "Z9", "Z2xZ4", "M2(Z2)xZ2")

# rings at the size cap, one per constructor shape
CAP_SPECS = ["M3(GF(2))", "Z8xZ64", "Z512", "GF(512)",
             "Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "M2(Z2)xZ2"]


@lru_cache(maxsize=None)
def ring(spec_text: str) -> fc.Ring:
    return fc.build_ring(fc.parse_ring_spec(spec_text))


@lru_cache(maxsize=None)
def table(spec_text: str, gamma=Fraction(1)) -> fc.HomWeightTable:
    return fc.hom_weight_table(ring(spec_text), Fraction(gamma))


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


# ---------------------------------------------------------------------------
# Reference ring tables: every entry by Python arithmetic on element indices,
# then the identity relabelled onto index 1 in a second pass.  The package
# builds the same tables out of gathers and slices.
# ---------------------------------------------------------------------------

def reference_tables(spec) -> dict:
    """The tables of the ring ``spec`` (a spec object), entry by entry."""
    names, add, mul, n_exp, char, one = _reference_parts(spec)
    names, add, mul, char = _relabel_identity(one, names, add, mul, char)
    return {
        "size": len(names),
        "add_table": tuple(tuple(row) for row in add),
        "mul_table": tuple(tuple(row) for row in mul),
        "units": frozenset(u for u, row in enumerate(mul) if 1 in row),
        "add_exponent": n_exp,
        "char_exp": tuple(char),
        "element_names": tuple(names),
    }


def _reference_parts(spec):
    if isinstance(spec, fc.Zm):
        return _ref_zm(spec.m)
    if isinstance(spec, fc.GF):
        return _ref_gf(spec.p, spec.k)
    if isinstance(spec, fc.Mat):
        return _ref_mat(spec.n, reference_tables(spec.inner))
    if isinstance(spec, fc.Prod):
        return _ref_prod(reference_tables(spec.left), reference_tables(spec.right))
    p, f = _prime_power(spec.q)
    return _ref_chain(spec.q, reference_tables(fc.GF(p, f)))


def _kron(left, right):
    s = len(right)
    high = [[x * s for x in row] for row in left]
    return [[h + lo for h in hrow for lo in lrow] for hrow in high for lrow in right]


def _kron_vec(left, right):
    s = len(right)
    return [x * s + y for x in left for y in right]


def _ref_zm(m):
    names = [str(a) for a in range(m)]
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    mul = [[(a * b) % m for b in range(m)] for a in range(m)]
    return names, add, mul, m, list(range(m)), 1


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    n = len(out)
    while n > 0 and out[n - 1] == 0:
        n -= 1
    return tuple(out[:n])


def _ref_primitive_powers(p, k, modulus):
    for g in range(1, p ** k):
        poly, cur, powers = _digits(g, p, k), (1,), [1]
        while True:
            cur = [c % p for c in _divmod_monic(_poly_mul(cur, poly, p), modulus)[1]]
            value = _undigits(cur, p)
            if value == 1:
                break
            powers.append(value)
        if len(powers) == p ** k - 1:
            return powers
    raise AssertionError("no primitive element")


def _ref_gf(p, k):
    size = p ** k
    names = ["".join(str(d) for d in _digits(v, p, k)) for v in range(size)]
    add = reduce(_kron, [[[(a + b) % p for b in range(p)] for a in range(p)]] * k)
    exp = _ref_primitive_powers(p, k, _smallest_irreducible(p, k))
    log = [0] * size
    for i, x in enumerate(exp):
        log[x] = i
    exp += exp
    logs = log[1:]
    mul = [[0] * size] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

    def power(x, e):
        r, b = 1, x
        while e:
            if e & 1:
                r = mul[r][b]
            b = mul[b][b]
            e >>= 1
        return r

    char = []
    for x in range(size):
        total, cur = x, x
        for _ in range(k - 1):
            cur = power(cur, p)
            total = add[total][cur]
        digs = _digits(total, p, k)
        assert not any(digs[1:])
        char.append(digs[0])
    return names, add, mul, p, char, 1


def _ref_mat(n, inner):
    s = inner["size"]
    m = s ** n
    size = m ** n
    entries = [_digits(v, s, n * n) for v in range(size)]
    names = ["[" + ";".join(inner["element_names"][e] for e in ent) + "]" for ent in entries]
    vadd = reduce(_kron, [inner["add_table"]] * n)
    add = reduce(_kron, [vadd] * n)
    scaled = [reduce(_kron_vec, [row] * n) for row in inner["mul_table"]]
    rowprod = []
    for v in range(m):
        coeffs = _digits(v, s, n)
        acc = scaled[coeffs[n - 1]]
        for t in range(n - 2, -1, -1):
            acc = [vadd[hi][lo] for hi in acc for lo in scaled[coeffs[t]]]
        rowprod.append(acc)
    mul = [[w * m ** (n - 1) for w in prods] for prods in rowprod]
    for r in range(n - 2, -1, -1):
        weight = m ** r
        mul = [[hi + lo * weight for hi, lo in zip(hrow, prods)] for hrow in mul for prods in rowprod]
    char = []
    for a in entries:
        tr = 0
        for r in range(n):
            tr = inner["add_table"][tr][a[r * n + r]]
        char.append(inner["char_exp"][tr])
    one = sum(s ** (r * n + r) for r in range(n))
    return names, add, mul, inner["add_exponent"], char, one


def _ref_prod(left, right):
    bs = right["size"]
    pairs = [(i // bs, i % bs) for i in range(left["size"] * bs)]
    names = [f"{left['element_names'][a]}|{right['element_names'][b]}" for a, b in pairs]
    add = _kron(left["add_table"], right["add_table"])
    mul = _kron(left["mul_table"], right["mul_table"])
    n_left, n_right = left["add_exponent"], right["add_exponent"]
    n = lcm(n_left, n_right)
    char = [
        ((n // n_left) * left["char_exp"][a] + (n // n_right) * right["char_exp"][b]) % n
        for a, b in pairs
    ]
    return names, add, mul, n, char, bs + 1


def _ref_chain(q, fld):
    pairs = [(i % q, i // q) for i in range(q * q)]
    names = [f"{fld['element_names'][a]}+{fld['element_names'][b]}u" for a, b in pairs]
    fadd, fmul = fld["add_table"], fld["mul_table"]
    add = _kron(fadd, fadd)
    mul = [
        [fmul[a][c] + q * fadd[fmul[a][d]][fmul[b][c]] for c, d in pairs]
        for a, b in pairs
    ]
    char = [fld["char_exp"][fadd[a][b]] for a, b in pairs]
    return names, add, mul, fld["add_exponent"], char, 1


def _relabel_identity(one, names, add, mul, char):
    if one == 1:
        return names, add, mul, char
    perm = list(range(len(names)))
    perm[1], perm[one] = one, 1

    def swap(seq):
        seq[1], seq[one] = seq[one], seq[1]
        return seq

    add = swap([swap([perm[x] for x in row]) for row in add])
    mul = swap([swap([perm[x] for x in row]) for row in mul])
    return swap(list(names)), add, mul, swap(list(char))


# ---------------------------------------------------------------------------
# Reference ring facts: the generic scan and walk over the tables, and the
# weight oracle with one Fraction addition per member.  The package takes
# every constructor's facts from its structure, M_n(S)'s from the row
# modules of its matrices, and sums each ideal with one product per
# distinct weight.
# ---------------------------------------------------------------------------

def reference_units(r) -> frozenset:
    """x is a unit iff 1 is in its row: one-sided inverses are two-sided."""
    return frozenset(u for u, row in enumerate(r.mul_table) if 1 in row)


def reference_principal_left_ideals(r) -> dict:
    """Rx once per left unit orbit {ux}, keyed by members, generators sorted."""
    mul, units = r.mul_table, reference_units(r)
    ideals, seen = {}, set()
    for x in range(1, r.size):
        if x not in seen:
            orbit = {mul[u][x] for u in units}
            seen |= orbit
            ideals.setdefault(frozenset(row[x] for row in mul), []).extend(orbit)
    return {members: tuple(sorted(gens)) for members, gens in ideals.items()}


def reference_solve_weight_axioms(r) -> tuple:
    """The triangular system solved by increasing ideal size, summing the
    weights of the members of each ideal one by one."""
    solution = [Fraction(0)] * r.size
    ideals = reference_principal_left_ideals(r)
    for members, gens in sorted(ideals.items(), key=lambda item: len(item[0])):
        # the generators of Rx are still 0 here, so this sums the non-generators
        rest = sum(solution[y] for y in members)
        value = (len(members) - rest) / len(gens)
        for x in gens:
            solution[x] = value
    return tuple(solution)


# ---------------------------------------------------------------------------
# |Rc| as the size of a right ideal.  Rc is R / ann_l(c) as a left module,
# and rc = 0 exactly when r kills the right ideal J = c_1R + ... + c_nR, so
# ann_l(c) = ann_l(J).  Over a Frobenius ring |J| |ann_l(J)| = |R| for every
# right ideal J (J. A. Wood, Amer. J. Math. 121, 1999; T. Honold, "Characterization
# of finite Frobenius rings", Arch. Math. 76, 2001), so |Rc| = |J|: a count
# of the ideal that the entries generate, with no multiple of the word taken.
# ---------------------------------------------------------------------------

def generated_ideal_size(r, entries, side: str = "right") -> int:
    """|c_1R + ... + c_nR| for the ``entries`` c_i, or with ``side`` "left"
    |Rc_1 + ... + Rc_n|, which is not |Rc| over a non-commutative ring."""
    add, mul = r.add_table, r.mul_table
    ideal = {0}
    for x in set(entries):
        if x not in ideal:  # an ideal of that side holding x holds xR (Rx)
            principal = set(mul[x]) if side == "right" else {row[x] for row in mul}
            ideal = {add[a][b] for a in ideal for b in principal}
    return len(ideal)


# ---------------------------------------------------------------------------
# Reference residual-chain certificate: the checks recomputed from a chain's
# stages in separate passes over them, each stage read by index.
# ---------------------------------------------------------------------------

def reference_chain_certificate(code, stages) -> tuple:
    """(r, hypothesis_holds, checks, inequality_lhs, inequality_rhs) of the
    residual chain of ``code`` with the given stages."""
    r = len(stages) - 1

    d0 = code.min_hom_norm
    hypothesis = d0 is not None and code.n <= d0

    size_recursion = all(
        stages[i].code.size * stages[i - 1].cyclic_size == stages[i - 1].code.size
        for i in range(1, len(stages))
    )
    weight_growth = True
    for i in range(1, len(stages)):
        prev, cur = stages[i - 1], stages[i]
        drop = prev.code.min_hom_norm - fc.ell(prev.word)
        if drop <= 0:
            weight_growth = False
        elif cur.code.min_hom_norm is not None and cur.code.min_hom_norm < drop:
            weight_growth = False
    size_product = code.size == prod(
        s.cyclic_size for s in stages[:-1]
    ) * stages[-1].code.size
    final_code = stages[-1].code
    final_constant = all(h == final_code.n for h in final_code.hamming_weights if h)
    final_small = final_code.size <= code.ring.size

    ineq_lhs = ineq_rhs = None
    chain_ineq = None
    if r >= 1 and d0 is not None:
        c0_size = stages[0].cyclic_size
        ineq_lhs = code.n
        ineq_rhs = Fraction(c0_size - 1, c0_size) * d0 + r
        chain_ineq = ineq_lhs >= ineq_rhs

    checks = (
        ("stage sizes divide out the removed cyclic submodule", size_recursion),
        ("stage minimum weights drop by at most the removed support", weight_growth),
        ("code size factors through the chain", size_product),
        ("final code has constant Hamming weight on nonzero words", final_constant),
        ("final code size is at most the ring size", final_small),
        ("support chain inequality", chain_ineq),
    )
    return r, hypothesis, checks, ineq_lhs, ineq_rhs


# ---------------------------------------------------------------------------
# MacWilliams duality (J. A. Wood, "Duality for modules over finite rings and
# applications to coding theory", Amer. J. Math. 121, 1999).  For a left code
# C with right dual C' = {y : sum_j c_j y_j = 0 for every c in C} and a
# generating character chi, |C| |C'| = |R|^n, and summing chi(c . y) over C
# picks out C', so
#
#   |C| W_C'(X) = sum over c in C of prod_j sum_{Ub} K[c_j][Ub] X_Ub,
#   K[a][Ub] = sum over y in Ub of chi(a y),
#
# where W_C' counts the words of C' by how many coordinates lie in each left
# unit orbit Ub.  K[a] depends only on the right unit orbit aU of a, so the
# right side reads C through its own orbit compositions.  K is computed here
# from the ring's tables and character, and C' by sweeping R^n, apart from
# the enumeration that made C.
# ---------------------------------------------------------------------------

def unit_orbit_index(ring, side: str) -> list[int]:
    """Each element's left (Ub) or right (aU) unit orbit, numbered in index
    order of the orbits' smallest members."""
    mul, index, orbits = ring.mul_table, {}, 0
    for x in range(ring.size):
        if x not in index:
            index.update(dict.fromkeys(
                {mul[u][x] if side == "left" else mul[x][u] for u in ring.units}, orbits))
            orbits += 1
    return [index[x] for x in range(ring.size)]


def _bump(composition: tuple, k: int) -> tuple:
    return composition[:k] + (composition[k] + 1,) + composition[k + 1:]


def right_dual_enumerator(ring, rows) -> Counter:
    """W_C' of the right dual of the left code generated by ``rows``, as
    {composition over left unit orbits: number of words}.

    A sweep of R^n column by column: each prefix y_1..y_j carries the sums
    sum_l g_l y_l of every row g and its composition so far, and prefixes
    that agree on both are merged.  The words with every sum 0 are C'.
    """
    add, mul = ring.add_table, ring.mul_table
    left = unit_orbit_index(ring, "left")
    states = Counter({((0,) * len(rows), (0,) * (max(left) + 1)): 1})
    for column in zip(*rows):
        extended = Counter()
        for (sums, composition), count in states.items():
            for y in range(ring.size):
                sums_y = tuple(add[s][mul[g][y]] for s, g in zip(sums, column))
                extended[sums_y, _bump(composition, left[y])] += count
        states = extended
    return Counter({comp: count for (sums, comp), count in states.items() if not any(sums)})


def krawtchouk(ring, char_exp, order) -> list[tuple[int, ...]]:
    """K[a][Ub] = sum over y in Ub of chi(a y) for each element a, where
    chi(x) is the ``order``-th root of unity to the power ``char_exp[x]``.

    Each entry is an integer: for k prime to the order, k1 is a central unit,
    so zeta -> zeta^k maps the sum over Ub to itself.  Asserts that K[a] is
    the same for every a in one right unit orbit aU.
    """
    mul, left = ring.mul_table, unit_orbit_index(ring, "left")
    orbits = [[y for y in range(ring.size) if left[y] == k] for k in range(max(left) + 1)]
    K = []
    for a in range(ring.size):
        row = mul[a]
        sums = [CyclotomicSum.from_exponents(order, [char_exp[row[y]] for y in ub]) for ub in orbits]
        K.append(tuple(int(cyclotomic_reduce(s)) for s in sums))
    assert all(K[mul[a][u]] == K[a] for a in range(ring.size) for u in ring.units)
    return K


def macwilliams_transform(code, K) -> Counter:
    """sum over c in C of prod_j sum_{Ub} K[c_j][Ub] X_Ub, as {composition
    over left unit orbits: coefficient}, read from C's compositions over
    right unit orbits, one smallest member standing for each orbit."""
    ring = code.ring
    right = unit_orbit_index(ring, "right")
    rep = [right.index(k) for k in right]
    total = Counter()
    for members, count in Counter(tuple(sorted(rep[x] for x in c)) for c in code).items():
        poly = {(0,) * len(K[0]): count}
        for a in members:
            product_ = Counter()
            for mono, coef in poly.items():
                for k, entry in enumerate(K[a]):
                    product_[_bump(mono, k)] += coef * entry
            poly = product_
        total.update(poly)
    return Counter({mono: coef for mono, coef in total.items() if coef})


# ---------------------------------------------------------------------------
# Column multisets (T. Honold and I. Landjev, "Linear codes over finite chain
# rings", Electron. J. Combin. 7, 2000).  Coordinate j of the word x.G is
# x.g_j for the column g_j, and x.(g u) = (x.g) u for a unit u.  A
# hom_weight_table weight, and being zero, are constant on right unit orbits
# aU, so all columns of one right unit orbit {g u} give a message x the same
# weight: G's columns grouped by orbit, with multiplicities, weigh every word
# without the word set.
# ---------------------------------------------------------------------------

def column_multiset_parameters(code, side: str = "right") -> tuple:
    """(M, d/gamma, least nonzero Hamming weight) of ``code``, read from its
    generator columns grouped by right unit orbit {g u}, or with ``side``
    "left" by {u g}, which is not valid over a non-commutative ring.

    Each message x of R^k is weighed as the sum over orbit columns g of
    their multiplicity times the weight numerator of x.g, and its Hamming
    weight likewise; M is |R|^k over the number of messages of Hamming
    weight 0.  The messages are swept once per orbit column, so the cost is
    |R|^k times their number.  That does not help simplex GF(2), m = 12
    (4095 orbit columns, as GF(2) has one unit), nor the 64-entry files at
    the sweep cap (512^2 messages), and no second kernel is kept for them.
    """
    ring, num = code.ring, code.table.numerators
    add, mul = ring.add_table, ring.mul_table
    orbits = Counter(
        min(tuple(mul[g][u] if side == "right" else mul[u][g] for g in column) for u in ring.units)
        for column in zip(*code.generators))
    messages = ring.size ** len(code.generators)
    weights, hamming = [0] * messages, [0] * messages
    for column, count in orbits.items():
        values = [0]  # x.g for each message x of the sweep so far, in index order
        for g in column:
            scaled = [row[g] for row in mul]
            values = [add[v][t] for v in values for t in scaled]
        weights = [w + count * num[v] for w, v in zip(weights, values)]
        hamming = [h + count * (v != 0) for h, v in zip(hamming, values)]
    least = min((w for w, h in zip(weights, hamming) if h), default=None)
    return (messages // hamming.count(0),
            None if least is None else Fraction(least, code.table.denominator),
            min(filter(None, hamming), default=None))
