"""Exact evaluation of Plotkin-type and Singleton-type bounds.

Every bound is reported with its recorded preconditions and its exact left
and right hand sides; the report derives its satisfaction verdict and its
sharpness flag (equality) from them.  All comparisons are over the
rationals; ceilings of logarithms are found by integer search, never
floating point.  Division-based bounds require n < d/gamma strictly and
are reported inapplicable on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Sequence

from .lincode import LinearCode, cyclic_span, ell
from .rings import minimal_left_ideals

BOUND_ORDER = (
    "averaging",
    "plotkin-refined",
    "plotkin-minham",
    "plotkin-minimal-ideal",
    "singleton-P",
    "singleton-Q",
    "singleton-weak",
)


@dataclass(frozen=True)
class BoundReport:
    """One bound on one code: its preconditions and its exact sides.

    The verdict is derived from them, so it cannot disagree with them.  A
    report is ``applicable`` when every precondition holds, and only then
    has sides.  It is ``satisfied`` when lhs <= rhs (direction "le", the
    size bounds) or lhs >= rhs ("ge", the Singleton-type bounds), ``sharp``
    when the sides are equal, and ``violated`` when it is applicable and
    not satisfied.  An inapplicable report has ``satisfied`` and ``sharp``
    None, and is not violated.
    """

    bound: str
    preconditions: tuple[tuple[str, bool], ...]
    lhs: Fraction | int | None
    rhs: Fraction | int | None
    direction: str  # "le" (size bounds) or "ge" (Singleton-type bounds)
    details: dict

    @property
    def applicable(self) -> bool:
        return all(holds for _, holds in self.preconditions)

    @property
    def satisfied(self) -> bool | None:
        if not self.applicable:
            return None
        return self.lhs <= self.rhs if self.direction == "le" else self.lhs >= self.rhs

    @property
    def sharp(self) -> bool | None:
        return self.lhs == self.rhs if self.applicable else None

    @property
    def violated(self) -> bool:
        return self.satisfied is False

    def __repr__(self) -> str:
        if not self.applicable:
            return f"BoundReport({self.bound}: inapplicable)"
        verdict = "VIOLATED" if self.violated else "satisfied"
        sharp = ", sharp" if self.sharp else ""
        op = "<=" if self.direction == "le" else ">="
        return f"BoundReport({self.bound}: {verdict}{sharp}, {self.lhs} {op} {self.rhs})"


def _report(
    bound: str,
    pre: list[tuple[str, bool]],
    sides: Callable[[], tuple] | None,
    details: dict,
    direction: str = "le",
) -> BoundReport:
    """``sides()`` gives (lhs, rhs) and runs only when every precondition holds."""
    lhs, rhs = sides() if all(holds for _, holds in pre) else (None, None)
    return BoundReport(bound, tuple(pre), lhs, rhs, direction, details)


def ceil_log(base: int, x: Fraction) -> int:
    """Smallest integer t with base**t >= x, by exact search."""
    if base < 2:
        raise ValueError("logarithm base must be >= 2")
    if x <= 0:
        raise ValueError("logarithm argument must be positive")
    t = 0
    value = Fraction(1)
    if value >= x:
        while value >= x:
            t -= 1
            value /= base
        return t + 1
    while value < x:
        t += 1
        value *= base
    return t


def _plotkin(code: LinearCode, base: int, hamming: int) -> tuple[Fraction, Fraction]:
    """Sides of M <= base * (d/gamma - hamming) / (d/gamma - n)."""
    d = code.min_hom_norm
    return Fraction(code.size), base * (d - hamming) / (d - code.n)


def _singleton(code: LinearCode, base: int, divisor: int) -> tuple[int, int]:
    """Sides of n - ceil((base-1)/base * d/gamma) >= ceil(log_base (M/divisor))."""
    lhs = code.n - ceil(Fraction(base - 1, base) * code.min_hom_norm)
    return lhs, ceil_log(base, Fraction(code.size, divisor))


def max_cyclic_size(code: LinearCode, incomplete_support_only: bool = False) -> int:
    """Largest size of a cyclic submodule Rc over codewords c.

    Each |Rc| comes from ``LinearCode.cyclic_sizes``, which reads it off
    the set of unit-orbit classes that c meets.  With
    ``incomplete_support_only`` the maximum runs over words whose support
    misses at least one coordinate.  The zero word counts among them (with
    R0 of size 1), so the result is 1 when no nonzero word has incomplete
    support.
    """
    sizes = code.cyclic_sizes
    if incomplete_support_only:
        sizes = [s for s, h in zip(sizes, code.hamming_weights) if h != code.n]
    return max(sizes, default=0)


# ---------------------------------------------------------------------------
# The bounds
# ---------------------------------------------------------------------------

def averaging_bound(code: LinearCode) -> BoundReport:
    """Support-averaging bound: (M-1)/M * d/gamma <= n for full-support codes."""
    d = code.min_hom_norm
    pre = [
        ("code has a nonzero word", d is not None),
        ("code support is full (ell(C) = n)", code.ell_C == code.n),
    ]
    return _report("averaging", pre,
                   lambda: (Fraction(code.size - 1, code.size) * d, Fraction(code.n)),
                   {"M": code.size, "support_size": code.ell_C})


def _refined_report(code: LinearCode, c: tuple | None, cyclic: int | None) -> BoundReport:
    """The plotkin-refined report for word c with |Rc| = ``cyclic``.

    Both are None when no word qualifies; the report is then inapplicable.
    """
    d = code.min_hom_norm
    lc = None if c is None else ell(c)
    pre = [
        ("code has a nonzero word", d is not None),
        ("d/gamma > n", d is not None and d > code.n),
        ("ell(c) < d/gamma", d is not None and lc is not None and lc < d),
    ]
    return _report("plotkin-refined", pre, lambda: _plotkin(code, cyclic, lc),
                   {"word": c, "hamming_weight": lc, "cyclic_size": cyclic})


def plotkin_refined(code: LinearCode, c: Sequence[int]) -> BoundReport:
    """Plotkin-type bound scaled by the cyclic submodule of a chosen word:
    M <= |Rc| * (d/gamma - ell(c)) / (d/gamma - n)."""
    c = tuple(c)
    if c not in code:
        raise ValueError("word is not in the code")
    return _refined_report(code, c, len(cyclic_span(code.ring, c)))


def best_plotkin_refined(code: LinearCode) -> BoundReport:
    """Tightest per-word instance: the qualifying word minimising the bound.

    Words are ranked by |Rc| * (d/gamma - ell(c)), with |Rc| from
    ``LinearCode.cyclic_sizes`` (d/gamma - n > 0 is common to all of them), and
    only the winner gets a report.  Ties go to the earliest word in the
    code's deterministic order.  When the bound is inapplicable the
    report carries no chosen word.
    """
    d = code.min_hom_norm
    if d is None or not d > code.n:
        return _refined_report(code, None, None)
    # with d = p/q and q > 0, |Rc| * (p - ell(c) q) ranks as |Rc| * (d - ell(c));
    # the zero word always qualifies when d > n >= 0
    p, q = d.numerator, d.denominator
    ells, sizes = code.hamming_weights, code.cyclic_sizes
    best = min((i for i, h in enumerate(ells) if h * q < p),
               key=lambda i: sizes[i] * (p - ells[i] * q))
    return _refined_report(code, code.word(best), sizes[best])


def plotkin_minham(code: LinearCode) -> BoundReport:
    """Ring-size Plotkin refinement using the minimum Hamming weight:
    M <= |R| * (d/gamma - ell) / (d/gamma - n)."""
    d = code.min_hom_norm
    lo = code.min_hamming
    pre = [
        ("code has a nonzero word", d is not None),
        ("min Hamming weight <= n", lo is not None and lo <= code.n),
        ("n < d/gamma", d is not None and code.n < d),
    ]
    return _report("plotkin-minham", pre, lambda: _plotkin(code, code.ring.size, lo),
                   {"ring_size": code.ring.size, "min_hamming": lo})


def plotkin_minimal_ideal(code: LinearCode) -> BoundReport:
    """Plotkin refinement through the largest minimal left ideal:
    M <= Q * (d/gamma - ell) / (d/gamma - n)."""
    d = code.min_hom_norm
    lo = code.min_hamming
    q = max(len(ideal.members) for ideal in minimal_left_ideals(code.ring))
    pre = [
        ("code has a nonzero word", d is not None),
        ("min Hamming weight < n", lo is not None and lo < code.n),
        ("n < d/gamma", d is not None and code.n < d),
    ]
    return _report("plotkin-minimal-ideal", pre, lambda: _plotkin(code, q, lo),
                   {"Q": q, "min_hamming": lo})


def singleton_P(code: LinearCode) -> BoundReport:
    """Singleton-type bound over incomplete-support cyclic submodules:
    n - ceil((P-1)/P * d/gamma) >= ceil(log_P M - log_P |R|).

    P comes from ``max_cyclic_size(code, incomplete_support_only=True)``,
    whose maximum includes the zero word.  So ``"P": 1`` in the details
    means that no nonzero word has incomplete support; the bound is then
    inapplicable (its minimum Hamming weight precondition fails).
    """
    d = code.min_hom_norm
    lo = code.min_hamming
    pre = [
        ("code has a nonzero word", d is not None),
        ("n <= d/gamma", d is not None and code.n <= d),
        ("min Hamming weight < n", lo is not None and lo < code.n),
    ]
    p = max_cyclic_size(code, incomplete_support_only=True) if code.n > 0 else None
    return _report("singleton-P", pre, lambda: _singleton(code, p, code.ring.size), {"P": p},
                   direction="ge")


def singleton_Q(code: LinearCode) -> BoundReport:
    """Singleton-type bound over all cyclic submodules:
    n - ceil((Q-1)/Q * d/gamma) >= ceil(log_Q M - 1)."""
    d = code.min_hom_norm
    pre = [
        ("code has a nonzero word", d is not None),
        ("n < d/gamma", d is not None and code.n < d),
    ]
    q = max_cyclic_size(code)
    return _report("singleton-Q", pre, lambda: _singleton(code, q, q), {"Q": q}, direction="ge")


def singleton_weak(code: LinearCode) -> BoundReport:
    """Counting Singleton bound in the ring size:
    n - ceil((|R|-1)/|R| * d/gamma) >= ceil(log_|R| M - 1).

    Not a theorem in general: {0, 2} inside Z4^1 gives -1 >= 0, and a
    violation is reported as such.  It is proven when every nonzero
    codeword c has |Rc| = |R| (then for any n), and it is singleton-Q
    when Q = |R| and n < d/gamma, and singleton-P when P = |R| and the
    minimum Hamming weight is below n.  See docs/singleton-weak.md.
    """
    d = code.min_hom_norm
    base = code.ring.size
    pre = [
        ("code has a nonzero word", d is not None),
        ("n <= d/gamma", d is not None and code.n <= d),
    ]
    return _report("singleton-weak", pre, lambda: _singleton(code, base, base), {"base": base},
                   direction="ge")


def check_all(code: LinearCode) -> list[BoundReport]:
    """Evaluate every bound in a fixed order (tightest word for the per-word one)."""
    return [
        averaging_bound(code),
        best_plotkin_refined(code),
        plotkin_minham(code),
        plotkin_minimal_ideal(code),
        singleton_P(code),
        singleton_Q(code),
        singleton_weak(code),
    ]
