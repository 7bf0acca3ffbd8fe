"""Reference checks behind the benchmark's failure count.

None of these reads a verdict the program computed about itself.  Ring
facts come from closed forms in the ring's structure; weight tables are
re-checked against the two homogeneity axioms with an independent model
of the principal left ideals; bound verdicts are recomputed from their
printed sides; chain certificates are recomputed from their stage sizes.

Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from plan import ring_size, spec_text
from spans import BOUND_NAMES

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def unit_count(ring) -> int:
    kind = ring[0]
    if kind == "Z":
        return sum(1 for a in range(1, ring[1] + 1) if gcd(a, ring[1]) == 1)
    if kind == "GF":
        return ring[1] ** ring[2] - 1
    if kind == "M":
        n, inner = ring[1], ring[2]
        if inner[0] != "GF":
            raise ValueError("unit count is known for matrices over fields only")
        q = inner[1] ** inner[2]
        return prod(q**n - q**i for i in range(n))
    if kind == "CHAIN":
        q = ring[1] ** ring[2]
        return q * q - q
    return unit_count(ring[1]) * unit_count(ring[2])


def additive_exponent(ring) -> int:
    kind = ring[0]
    if kind == "Z":
        return ring[1]
    if kind in ("GF", "CHAIN"):
        return ring[1]
    if kind == "M":
        return additive_exponent(ring[2])
    return lcm(additive_exponent(ring[1]), additive_exponent(ring[2]))


# ---------------------------------------------------------------------------
# Principal left ideals, from element literals
#
# key(x) identifies the ideal Rx, ideal_size(key) is |Rx| and
# contains(a, b) tells whether Rb lies in Ra.
# ---------------------------------------------------------------------------


class _Field:
    """GF(p^k) on little-endian digit tuples, modulo the first monic irreducible."""

    def __init__(self, p: int, k: int):
        self.p, self.k = p, k
        self.elements = [self._digits(v) for v in range(p**k)]
        self.zero, one = self.elements[0], self._digits(1)
        candidates = (self._digits(v) + (1,) for v in range(p**k))
        self.modulus = next(m for m in candidates if self._irreducible(m))
        self.inverse = {
            a: next(b for b in self.elements if self.mul(a, b) == one) for a in self.elements[1:]
        }

    def _digits(self, v: int) -> tuple[int, ...]:
        return tuple((v // self.p**i) % self.p for i in range(self.k))

    def _irreducible(self, poly) -> bool:
        deg = len(poly) - 1
        for d in range(1, deg // 2 + 1):
            for v in range(self.p**d):
                divisor = tuple((v // self.p**i) % self.p for i in range(d)) + (1,)
                if not any(self._polymod(poly, divisor)):
                    return False
        return True

    def _polymod(self, a, mod) -> list[int]:
        r = list(a)
        while len(r) >= len(mod):
            coef = r[-1] % self.p
            shift = len(r) - len(mod)
            for i, c in enumerate(mod):
                r[shift + i] = (r[shift + i] - coef * c) % self.p
            r.pop()
        return r

    def parse(self, name: str) -> tuple[int, ...]:
        digits = (int(name),) if self.k == 1 else tuple(int(c) for c in name)
        if len(digits) != self.k or not all(0 <= d < self.p for d in digits):
            raise ValueError(f"{name!r} is not an element of GF({self.p}^{self.k})")
        return digits

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        r = [c % self.p for c in self._polymod(out, self.modulus)] + [0] * self.k
        return tuple(r[: self.k])


_FIELDS: dict[tuple[int, int], _Field] = {}


def _field(p: int, k: int) -> _Field:
    if (p, k) not in _FIELDS:
        _FIELDS[p, k] = _Field(p, k)
    return _FIELDS[p, k]


def _row_space(field: _Field, rows) -> tuple:
    """Reduced row echelon form of ``rows`` (nonzero rows only)."""
    rows = [list(r) for r in rows]
    out = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in rows if r[col] != field.zero), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = field.inverse[pivot[col]]
        pivot = [field.mul(inv, c) for c in pivot]
        rows = [[field.sub(c, field.mul(r[col], pc)) for c, pc in zip(r, pivot)] for r in rows]
        out = [[field.sub(c, field.mul(r[col], pc)) for c, pc in zip(r, pivot)] for r in out]
        out.append(pivot)
    return tuple(tuple(r) for r in out)


def _split_product(name: str) -> tuple[str, str]:
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        ch = name[i]
        if ch == "]":
            depth += 1
        elif ch == "[":
            depth -= 1
        elif ch == "|" and depth == 0:
            return name[:i], name[i + 1:]
    raise ValueError(f"{name!r} is not a product element")


def ideal_key(ring, name: str):
    kind = ring[0]
    if kind == "Z":
        a = int(name)
        if not 0 <= a < ring[1]:
            raise ValueError(f"{name!r} is not an element of Z{ring[1]}")
        return gcd(a, ring[1])
    if kind == "GF":
        return any(_field(ring[1], ring[2]).parse(name))
    if kind == "CHAIN":
        field = _field(ring[1], ring[2])
        if not name.endswith("u") or "+" not in name:
            raise ValueError(f"{name!r} is not a chain-ring element")
        a, b = name[:-1].split("+")
        a, b = field.parse(a), field.parse(b)
        return 2 if any(a) else 1 if any(b) else 0
    if kind == "M":
        n, inner = ring[1], ring[2]
        if inner[0] != "GF" or not (name.startswith("[") and name.endswith("]")):
            raise ValueError(f"{name!r} is not a matrix over a field")
        field = _field(inner[1], inner[2])
        entries = [field.parse(e) for e in name[1:-1].split(";")]
        if len(entries) != n * n:
            raise ValueError(f"{name!r} has {len(entries)} entries, not {n * n}")
        # Rx is every matrix whose rows lie in the row space of x
        return _row_space(field, [entries[i * n:(i + 1) * n] for i in range(n)])
    left, right = _split_product(name)
    return (ideal_key(ring[1], left), ideal_key(ring[2], right))


def ideal_size(ring, key) -> int:
    kind = ring[0]
    if kind == "Z":
        return ring[1] // key
    if kind == "GF":
        return ring[1] ** ring[2] if key else 1
    if kind == "CHAIN":
        return (ring[1] ** ring[2]) ** key
    if kind == "M":
        q = ring[2][1] ** ring[2][2]
        return q ** (ring[1] * len(key))
    return ideal_size(ring[1], key[0]) * ideal_size(ring[2], key[1])


def contains(ring, big, small) -> bool:
    """True iff R*small lies inside R*big."""
    kind = ring[0]
    if kind == "Z":
        return small % big == 0
    if kind == "GF":
        return big or not small
    if kind == "CHAIN":
        return small <= big
    if kind == "M":
        field = _field(ring[2][1], ring[2][2])
        if not small:
            return True
        if not big:
            return False
        return len(_row_space(field, list(big) + list(small))) == len(big)
    return contains(ring[1], big[0], small[0]) and contains(ring[2], big[1], small[1])


def weight_table_problems(ring, pairs) -> list[str]:
    """Check (name, normalised weight) pairs against w(0)=0 and both axioms.

    Axiom 1: elements generating the same principal left ideal share a
    weight.  Axiom 2: the weights over every nonzero Rx sum to |Rx|.
    Together with w(0)=0 they fix the table uniquely.
    """
    size = ring_size(ring)
    if len(pairs) != size:
        return [f"{len(pairs)} weights for a ring of {size} elements"]
    if len({name for name, _ in pairs}) != size:
        return ["element names repeat"]
    weight_of: dict = {}
    count: dict = {}
    for name, w in pairs:
        try:
            key = ideal_key(ring, name)
        except ValueError as exc:
            return [str(exc)]
        if weight_of.setdefault(key, w) != w:
            return [f"{name} and another generator of the same ideal have different weights"]
        count[key] = count.get(key, 0) + 1
    problems = []
    for key, w in weight_of.items():
        members = [k for k in weight_of if contains(ring, key, k)]
        expected = ideal_size(ring, key)
        if sum(count[k] for k in members) != expected:
            problems.append(f"ideal model counts {sum(count[k] for k in members)} members, not {expected}")
        elif expected == 1:
            if w != 0:
                problems.append(f"w(0) = {w}")
        elif sum(count[k] * weight_of[k] for k in members) != expected:
            problems.append(f"weights over an ideal of size {expected} do not sum to {expected}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def ring_info_problems(ring, out: str) -> list[str]:
    expected = [
        f"ring: {spec_text(ring)}",
        f"size: {ring_size(ring)}",
        f"units: {unit_count(ring)}",
        f"additive exponent: {additive_exponent(ring)}",
    ]
    return [] if out.splitlines() == expected else [f"ring info printed {out!r}, expected {expected!r}"]


def weight_problems(ring, out: str) -> list[str]:
    pairs = []
    for line in out.splitlines():
        name, sep, value = line.rpartition(": ")
        if not sep:
            return [f"unparsable weight line {line!r}"]
        pairs.append((name, Fraction(value)))
    return weight_table_problems(ring, pairs)


def _fraction(text) -> Fraction | int | None:
    return Fraction(text) if isinstance(text, str) else text


def bound_problems(reports: list[dict], rc: int) -> list[str]:
    """Recompute each applicable verdict from its printed sides."""
    problems, violated = [], []
    names = tuple(r["bound"] for r in reports)
    if names != BOUND_NAMES:
        problems.append(f"unexpected bound list {names}")
    for r in reports:
        applicable = all(p["holds"] for p in r["preconditions"])
        if applicable != r["applicable"]:
            problems.append(f"{r['bound']}: applicable flag disagrees with its preconditions")
        if not applicable:
            continue
        lhs, rhs = _fraction(r["lhs"]), _fraction(r["rhs"])
        holds = lhs <= rhs if r["direction"] == "le" else lhs >= rhs
        if holds != r["satisfied"] or (lhs == rhs) != r["sharp"]:
            problems.append(f"{r['bound']}: verdict disagrees with {lhs} {r['direction']} {rhs}")
        if not holds:
            violated.append(r["bound"])
    if set(violated) - {"singleton-weak"}:
        problems.append(f"violated bounds {violated}: only singleton-weak is known to fail")
    expected_rc = 2 if violated else 0
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    return problems


def family_problems(check: dict, rc: int, out: str, gen_text: str | None) -> tuple[list[str], dict | None]:
    """Check a `family ... --json --emit-gen` job; returns problems and the code block."""
    try:
        data = json.loads(out)
    except ValueError:
        return [f"exit code {rc}, output is not JSON"], None
    ring, m = check["ring"], check["m"]
    s = ring_size(ring)
    code = data["code"]
    if m is None:  # Hjelmslev line over CHAIN(q) or Z(q^2)
        q = isqrt(s)
        k, n, size, d = 2, q * q + q, q**4, Fraction(q * q + q)
    else:
        k, n, size, d = m, s**m - 1, s**m, Fraction(s**m)
    problems = bound_problems(data["bounds"], rc)
    got = (code["n"], code["M"], code["ell_C"], Fraction(code["d_over_gamma"]))
    if got != (n, size, n, d):
        problems.append(f"code parameters {got}, expected {(n, size, n, d)}")
    if data["ring"] != spec_text(ring):
        problems.append(f"ring {data['ring']!r}")
    rows = [line.split() for line in (gen_text or "").splitlines() if line.split("#", 1)[0].strip()]
    if len(rows) != k or any(len(r) != n for r in rows):
        problems.append(f"emitted generator file is not {k} rows of {n} entries")
    return problems, code


def chain_problems(rc: int, out: str, ring, family_code: dict | None) -> list[str]:
    """Recompute the residual-chain certificate from its stage sizes."""
    if rc != 0:
        return [f"chain exit code {rc}"]
    try:
        data = json.loads(out)
    except ValueError:
        return ["chain output is not JSON"]
    problems = []
    if family_code is not None and data["code"] != family_code:
        problems.append("chain reports other code parameters than the family that emitted it")
    stages = data["stages"]
    if data["r"] != len(stages) - 1 or stages[-1]["word"] is not None:
        problems.append("chain length does not match its stages")
    for prev, cur in zip(stages, stages[1:]):
        if cur["n"] != prev["n"] - prev["hamming_weight"]:
            problems.append(f"stage {cur['index']}: length does not drop by the removed support")
    code = data["code"]
    d = None if code["d_over_gamma"] is None else Fraction(code["d_over_gamma"])
    hypothesis = d is not None and code["n"] <= d
    if hypothesis:
        # under n <= d/gamma every removed word is short, so each residual
        # divides out exactly its cyclic submodule
        sizes = [(s["M"], s["cyclic_size"]) for s in stages]
        problems += _chain_size_problems(sizes, code["M"], ring_size(ring))
    ineq = data["support_inequality"]
    if data["r"] >= 1 and d is not None:
        c0 = stages[0]["cyclic_size"]
        rhs = Fraction(c0 - 1, c0) * d + data["r"]
        if Fraction(ineq["rhs"]) != rhs or ineq["lhs"] != code["n"]:
            problems.append("support inequality sides are wrong")
        elif hypothesis and ineq["lhs"] < rhs:
            problems.append("support inequality fails under its hypothesis")
    return problems


# ---------------------------------------------------------------------------
# Library jobs (inputs are the program's own objects)
# ---------------------------------------------------------------------------


def oracle_problems(ring, names, solution, character_table) -> list[str]:
    problems = weight_table_problems(ring, list(zip(names, solution)))
    if tuple(solution) != tuple(character_table):
        problems.append("oracle table differs from the character-route table")
    return problems


def sweep_problems(job: dict, result: dict, ring_obj, table) -> list[str]:
    """Identities of one sweep job; ``result`` holds the program's objects."""
    code, c, sho, res = result["code"], result["c"], result["shorten"], result["residual"]
    problems = []
    mul = ring_obj.mul_table
    rc = {tuple(mul[r][x] for x in c) for r in range(ring_obj.size)}
    d = code.min_hom_norm
    if any(c) and d is not None and sum(1 for x in c if x) < d:
        if set(sho.words) != rc:
            problems.append("shorten(C, c) differs from Rc for a short word c")
        if code.size != res.size * len(rc):
            problems.append("|C| != |residual(C, c)| * |Rc| for a short word c")
    if code.size != res.size * sho.size:
        problems.append("|C| != |residual(C, c)| * |shorten(C, c)|")
    w = table.norm_weight
    expected = code.ell_C + sum((w[xi] for i, xi in enumerate(job["x"]) if i + 1 not in code.support),
                                Fraction(0))
    if result["coset_average"] != expected:
        problems.append(f"coset average {result['coset_average']}, expected {expected}")
    violated = []
    for r in result["reports"]:
        if not r.applicable:
            continue
        holds = r.lhs <= r.rhs if r.direction == "le" else r.lhs >= r.rhs
        if holds != r.satisfied:
            problems.append(f"{r.bound}: verdict disagrees with its sides")
        if not holds:
            violated.append(r.bound)
    if set(violated) - {"singleton-weak"}:
        problems.append(f"violated bounds {violated}: only singleton-weak is known to fail")
    if d is not None and code.n <= d:
        sizes = [(s.code.size, s.cyclic_size) for s in result["chain"].stages]
        problems += _chain_size_problems(sizes, code.size, ring_obj.size)
    return problems


def _chain_size_problems(sizes, code_size: int, ring_size: int) -> list[str]:
    """Stage sizes of a residual chain: (|C_i|, |Rc_i|) per stage."""
    problems = []
    total = sizes[-1][0]
    for (prev_size, cyclic), (cur_size, _) in zip(sizes, sizes[1:]):
        if cur_size * cyclic != prev_size:
            problems.append("chain stage size does not divide out |Rc|")
        total *= cyclic
    if total != code_size:
        problems.append("code size does not factor through the chain")
    if sizes[-1][0] > ring_size:
        problems.append("final code is larger than the ring")
    return problems
