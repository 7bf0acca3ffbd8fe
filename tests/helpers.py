"""Shared cached builders for the test suite."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

import frobcode as fc

# every ring exercised by the cross-checking suites
SUITE_SPECS = (
    ["Z%d" % m for m in range(2, 13)]
    + ["GF(%d)" % q for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["M2(GF(2))", "Z2xZ3", "CHAIN(2)", "CHAIN(3)"]
)


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
