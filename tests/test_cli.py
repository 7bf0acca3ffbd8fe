import contextlib
import gc
import io
import json
import tempfile
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import frobcode as fc
from frobcode import cli
from frobcode.cli import build_parser, main
from helpers import ring, ring_specs, table
from test_acceptance import GOLDEN, GOLDEN_CASES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Ring spec grammar
# ---------------------------------------------------------------------------

def test_parse_basic_specs():
    assert fc.parse_ring_spec("Z4") == fc.Zm(4)
    assert fc.parse_ring_spec("M2(GF(2))") == fc.Mat(2, fc.GF(2, 1))
    assert fc.parse_ring_spec("Z2xZ3") == fc.Prod(fc.Zm(2), fc.Zm(3))
    assert fc.parse_ring_spec("CHAIN(4)") == fc.ChainQuad(4)


def test_parse_gf_forms():
    assert fc.parse_ring_spec("GF(9)") == fc.GF(3, 2)
    assert fc.parse_ring_spec("GF(3^2)") == fc.GF(3, 2)
    assert fc.parse_ring_spec("GF(7)") == fc.GF(7, 1)


def test_parse_products_left_associative():
    assert fc.parse_ring_spec("Z2xZ3xZ5") == fc.Prod(fc.Prod(fc.Zm(2), fc.Zm(3)), fc.Zm(5))
    assert fc.parse_ring_spec("M2(GF(2))xZ3") == fc.Prod(fc.Mat(2, fc.GF(2, 1)), fc.Zm(3))
    assert fc.parse_ring_spec("M2(Z2xZ3)") == fc.Mat(2, fc.Prod(fc.Zm(2), fc.Zm(3)))


def test_parse_case_and_whitespace():
    assert fc.parse_ring_spec(" z4 ") == fc.Zm(4)
    assert fc.parse_ring_spec("chain(2)") == fc.ChainQuad(2)
    assert fc.parse_ring_spec("gf(8)") == fc.GF(2, 3)


def test_parse_errors_carry_position():
    with pytest.raises(fc.RingSpecError, match="position"):
        fc.parse_ring_spec("Q8")
    with pytest.raises(fc.RingSpecError, match="position"):
        fc.parse_ring_spec("Z2xQ8")
    with pytest.raises(fc.RingSpecError):
        fc.parse_ring_spec("GF(6)")  # not a prime power
    with pytest.raises(fc.RingSpecError):
        fc.parse_ring_spec("M2(GF(2)")  # unbalanced
    with pytest.raises(fc.RingSpecError):
        fc.parse_ring_spec("")


def test_canonical_names():
    assert fc.canonical_ring_name(fc.parse_ring_spec("gf(3^2)")) == "GF(9)"
    assert fc.canonical_ring_name(fc.parse_ring_spec("m2(z2xz3)")) == "M2(Z2xZ3)"


def _nested(depth, inner):
    return reduce(lambda spec, _: fc.Mat(1, spec), range(depth), inner)


def _product(count, factor=fc.Zm(2)):
    return reduce(fc.Prod, [factor] * count)


_SpecError, _CapError = fc.RingSpecError, fc.CardinalityCapError
_DEEP = "ring spec nests more than 256 levels deep (at position 0)"

# every spec maps to its parsed spec, or to its exception class and message;
# the messages are pinned byte for byte, positions included
SPEC_CORPUS = {
    "": (_SpecError, "empty ring spec"),
    "  ": (_SpecError, "empty ring spec"),
    "Q8": (_SpecError, "unrecognised ring term 'Q8' (at position 0)"),
    "Z2xQ8": (_SpecError, "unrecognised ring term 'Q8' (at position 3)"),
    "Z2x": (_SpecError, "empty ring term (at position 3)"),
    "xZ2": (_SpecError, "empty ring term (at position 0)"),
    "Z2xxZ3": (_SpecError, "empty ring term (at position 3)"),
    "z4x": (_SpecError, "empty ring term (at position 3)"),
    "GF(2^9)x": (_SpecError, "empty ring term (at position 8)"),
    "M2()": (_SpecError, "empty ring term (at position 3)"),
    "M2( )": (_SpecError, "empty ring term (at position 4)"),
    "M2(Z2 x )": (_SpecError, "empty ring term (at position 8)"),
    "M2(Z2": (_SpecError, "unbalanced '(' (at position 4)"),
    "GF(2": (_SpecError, "unbalanced '(' (at position 3)"),
    "M2Z2)": (_SpecError, "unbalanced ')' (at position 4)"),
    "M2(Z2))": (_SpecError, "unbalanced ')' (at position 6)"),
    "Z2)": (_SpecError, "unbalanced ')' (at position 2)"),
    ")(": (_SpecError, "unbalanced ')' (at position 0)"),
    "M2(GF(2)))(": (_SpecError, "unbalanced ')' (at position 9)"),
    "M2(GF(2))x)": (_SpecError, "unbalanced ')' (at position 10)"),
    "M2(Z2)x(": (_SpecError, "unbalanced '(' (at position 7)"),
    "M1(M1(M1(Z2))": (_SpecError, "unbalanced '(' (at position 12)"),
    "CHAIN(2)xM2(GF(2)": (_SpecError, "unbalanced '(' (at position 16)"),
    "(Z2)": (_SpecError, "unrecognised ring term '(Z2)' (at position 0)"),
    "Z2x(Z3)": (_SpecError, "unrecognised ring term '(Z3)' (at position 3)"),
    "M1(M1(Z2)x(Z3))": (_SpecError, "unrecognised ring term '(Z3)' (at position 10)"),
    "M2(Q(8x2))": (_SpecError, "unrecognised ring term 'Q(8x2)' (at position 3)"),
    "GF( 2 )": (_SpecError, "unrecognised ring term 'GF( 2 )' (at position 0)"),
    "Z 4": (_SpecError, "unrecognised ring term 'Z 4' (at position 0)"),
    "Z2 Z3": (_SpecError, "unrecognised ring term 'Z2 Z3' (at position 0)"),
    "M2(Z2 Z3)": (_SpecError, "unrecognised ring term 'Z2 Z3' (at position 3)"),
    "GF(2)^2": (_SpecError, "unrecognised ring term 'GF(2)^2' (at position 0)"),
    "Z-2": (_SpecError, "unrecognised ring term 'Z-2' (at position 0)"),
    # balanced: a matrix term that goes on after its ')' is named whole
    "M2(Z2)(Z3)": (_SpecError, "unrecognised ring term 'M2(Z2)(Z3)' (at position 0)"),
    "M2(Z2)M2(Z2)": (_SpecError, "unrecognised ring term 'M2(Z2)M2(Z2)' (at position 0)"),
    "Z2xM2(Z2)(Z3)": (_SpecError, "unrecognised ring term 'M2(Z2)(Z3)' (at position 3)"),
    "GF(6)": (_SpecError, "6 is not a prime power"),
    "GF(4^1)": (_SpecError, "GF(4^1): 4 is not prime"),
    "GF(2^0)": (_SpecError, "GF(2^0): exponent must be >= 1"),
    "GF(1)": (_SpecError, "1 is not a prime power"),
    "GF(0^3)": (_SpecError, "GF(0^3): 0 is not prime"),
    "gf(11^2)": (_SpecError, "GF(11^2): coefficients above 9 have no literal syntax"),
    "gf(121)": (_SpecError, "GF(11^2): coefficients above 9 have no literal syntax"),
    "CHAIN(6)": (_SpecError, "6 is not a prime power"),
    "CHAIN(1)": (_SpecError, "1 is not a prime power"),
    "Z0": (_SpecError, "Z0: modulus must be >= 2"),
    "Z1": (_SpecError, "Z1: modulus must be >= 2"),
    "M0(Z2)": (_SpecError, "M0: matrix size must be >= 1"),
    "Z600": (_CapError, "Z600: literal 600 is above the size cap 512 (at position 0)"),
    "Z2xZ600": (_CapError, "Z600: literal 600 is above the size cap 512 (at position 3)"),
    "M600(Z2)": (_CapError, "M600(Z2): literal 600 is above the size cap 512 (at position 0)"),
    "M600(Q8)": (_SpecError, "unrecognised ring term 'Q8' (at position 5)"),
    "M2(Z600)": (_CapError, "Z600: literal 600 is above the size cap 512 (at position 3)"),
    "GF(2^100000)": (_CapError, "GF(2^100000): literal 100000 is above the size cap 512 (at position 0)"),
    "CHAIN(1000000007)": (
        _CapError, "CHAIN(1000000007): literal 1000000007 is above the size cap 512 (at position 0)"),
    "Z" + "1" * 5000: (_CapError, "Z" + "1" * 39 + ": literal of 5000 digits is above the size cap 512"
                                  " (at position 0)"),
    "Z02": fc.Zm(2),
    "Z4 ": fc.Zm(4),
    " M2( Z2 x Z3 ) ": fc.Mat(2, fc.Prod(fc.Zm(2), fc.Zm(3))),
    "M2(Z2) x Z3": fc.Prod(fc.Mat(2, fc.Zm(2)), fc.Zm(3)),
    "m2(z2)X z3": fc.Prod(fc.Mat(2, fc.Zm(2)), fc.Zm(3)),
    "Z4\tx\nZ2": fc.Prod(fc.Zm(4), fc.Zm(2)),
    "gf(3^2)": fc.GF(3, 2),
    "M2(m2(z2))": fc.Mat(2, fc.Mat(2, fc.Zm(2))),
    "M2(GF(2))xM2(GF(2))xZ2": fc.Prod(fc.Prod(fc.Mat(2, fc.GF(2)), fc.Mat(2, fc.GF(2))), fc.Zm(2)),
    "M1(" * 2000 + "Z2" + ")" * 2000: (_SpecError, _DEEP),
    "x".join(["Z2"] * 2000): (_SpecError, _DEEP),
    "M1(" * 200 + "x".join(["Z2"] * 100) + ")" * 200: (_SpecError, _DEEP),
    "M1(" * 250 + "Z2x" * 40000 + "Z2" + ")" * 250: (_SpecError, _DEEP),
    "M1(" * 256 + "GF(2)" + ")" * 256: (_SpecError, _DEEP),
    "M1(" * 255 + "GF(2)" + ")" * 255: _nested(255, fc.GF(2)),
    "M1(" * 256 + "Z2" + ")" * 256: _nested(256, fc.Zm(2)),
    "x".join(["Z2"] * 257): _product(257),
    "M1(" * 255 + "Z2xZ2" + ")" * 255: _nested(255, _product(2)),
    "Z2xM1(" * 120 + "Z2" + ")" * 120: reduce(lambda spec, _: fc.Prod(fc.Zm(2), fc.Mat(1, spec)),
                                              range(120), fc.Zm(2)),
    # what follows a matrix's ')' is judged before its inner spec
    "M2(Q8)Z3": (_SpecError, "unrecognised ring term 'M2(Q8)Z3' (at position 0)"),
    "M2(Q8)(Z3)": (_SpecError, "unrecognised ring term 'M2(Q8)(Z3)' (at position 0)"),
    "M2(M2()())": (_SpecError, "unrecognised ring term 'M2()()' (at position 3)"),
    # the nesting of the whole spec is judged before any term
    "Q8x" + "M1(" * 200 + "Z2x" * 100 + "Z2" + ")" * 200: (_SpecError, _DEEP),
    # only ASCII letters fold: a dotless i is not an i
    "CHA\u0131N(2)": (_SpecError, "unrecognised ring term 'CHA\u0131N(2)' (at position 0)"),
    " Z2 x ": (_SpecError, "empty ring term (at position 5)"),
    # leading zeros are dropped before int(), which refuses over 4300 digits
    "Z" + "0" * 5000 + "2": fc.Zm(2),
    "Z" + "0" * 5000 + "1024": (_CapError, "Z" + "0" * 39 + ": literal of 5004 digits is above the"
                                           " size cap 512 (at position 0)"),
}


def test_spec_corpus_parses_or_fails_as_pinned():
    for spec, expected in SPEC_CORPUS.items():
        if isinstance(expected, tuple):
            with pytest.raises(Exception) as info:
                fc.parse_ring_spec(spec)
            assert (type(info.value), str(info.value)) == expected, spec[:40]
        else:
            assert fc.parse_ring_spec(spec) == expected, spec[:40]


# valid specs to mutate: drawn ones, and written ones with whitespace, case,
# GF(p^k) and nesting near the limit
_WRITTEN_SPECS = ["GF(3^2)", " m2( z2 x gf(2^3) ) ", "CHAIN(3)xZ12", "M2(Z4) x Z2", "gf(2^9)",
                  "M1(" * 255 + "Z2xZ2" + ")" * 255, "x".join(["Z2"] * 257)]
_MUTANT_CHARS = "zgfmchainx()^0123456789 \t\n"


@st.composite
def mutated_specs(draw):
    spec = draw(st.sampled_from(_WRITTEN_SPECS) | ring_specs().map(lambda drawn: drawn[0]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(spec)))
        char = draw(st.sampled_from(_MUTANT_CHARS))
        op = draw(st.sampled_from(["insert", "delete", "replace", "repeat"]))
        if op == "insert":
            spec = spec[:i] + char + spec[i:]
        elif op == "delete":
            spec = spec[:i] + spec[i + 1:]
        elif op == "replace":
            spec = spec[:i] + char + spec[i + 1:]
        else:
            j = draw(st.integers(i, min(i + 8, len(spec))))
            spec = spec[:j] + spec[i:j] * draw(st.integers(1, 4)) + spec[j:]
    return spec


@settings(max_examples=200, deadline=None, database=None)
@given(mutated_specs())
def test_mutated_specs_parse_or_fail_cleanly(text):
    # the parse is timed, not a collection of the suite's garbage
    gc.disable()
    start = time.perf_counter()
    try:
        spec = fc.parse_ring_spec(text)
    except fc.RingSpecError:
        spec = None
    finally:
        elapsed = time.perf_counter() - start
        gc.enable()
    assert elapsed < 0.05
    if spec is not None:
        # sizes are build_ring's to cap: GF(3^6) is parsed, and named GF(729)
        name = fc.canonical_ring_name(spec)
        assert fc.parse_ring_spec(name, cap=fc.rings.DEFAULT_CAP ** fc.rings.DEFAULT_CAP) == spec


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def test_ring_info_gf5(capsys):
    code, out, _ = run(capsys, "ring", "info", "--ring", "GF(5)")
    assert code == 0
    assert out.splitlines() == ["ring: GF(5)", "size: 5", "units: 4", "additive exponent: 5"]


def test_weight_z4(capsys):
    code, out, _ = run(capsys, "weight", "--ring", "Z4")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 1", "2: 2", "3: 1"]


def test_weight_gamma_scaling(capsys):
    code, out, _ = run(capsys, "weight", "--ring", "GF(3)", "--gamma", "2/3")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 1", "2: 1"]


def test_code_analyze_octacode(tmp_path, capsys):
    gen = tmp_path / "octa.gen"
    fc.write_generator_file(gen, ring("Z4"), fc.octacode().generators)
    code, out, _ = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", str(gen))
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 8,
        "M": 256,
        "ell_C": 8,
        "min_hamming": 4,
        "d_over_gamma": "6/1",
    }


def test_code_analyze_zero_code(tmp_path, capsys):
    gen = tmp_path / "zero.gen"
    gen.write_text("0 0\n")
    code, out, _ = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", str(gen))
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "M": 1,
        "ell_C": 0,
        "min_hamming": None,
        "d_over_gamma": None,
    }


def test_bounds_check_text_and_exit(tmp_path, capsys):
    gen = tmp_path / "octa.gen"
    fc.write_generator_file(gen, ring("Z4"), fc.octacode().generators)
    code, out, _ = run(capsys, "bounds", "check", "--ring", "Z4", "--gen", str(gen))
    assert code == 0
    assert "averaging: satisfied" in out
    assert "singleton-P: not applicable" in out


def test_bounds_check_json_round_trip(tmp_path, capsys):
    gen = tmp_path / "simplex.gen"
    fc.write_generator_file(gen, ring("Z4"), fc.simplex(ring("Z4"), 1, table("Z4")).generators)
    code, out, _ = run(capsys, "bounds", "check", "--ring", "Z4", "--gen", str(gen), "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["bound"] for r in reports] == list(fc.bounds.BOUND_ORDER)
    sharp = [r["bound"] for r in reports if r["sharp"]]
    assert "plotkin-refined" in sharp and "plotkin-minimal-ideal" in sharp
    # lossless round trip
    assert json.dumps(reports, indent=2) + "\n" == out


def test_family_simplex_emit_and_analyze(tmp_path, capsys):
    gen = tmp_path / "sx.gen"
    code, out, _ = run(
        capsys, "family", "simplex", "--ring", "Z4", "-m", "2", "--emit-gen", str(gen), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "simplex"
    assert report["m"] == 2
    assert report["code"]["n"] == 15 and report["code"]["M"] == 16
    assert "plotkin-refined" in report["verdict"]["sharp"]

    code2, out2, _ = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", str(gen))
    assert code2 == 0
    assert json.loads(out2) == report["code"]


def test_family_hjelmslev_json(capsys):
    code, out, _ = run(capsys, "family", "hjelmslev", "--ring", "Z4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["code"] == {
        "n": 6,
        "M": 16,
        "ell_C": 6,
        "min_hamming": 4,
        "d_over_gamma": "6/1",
    }
    singleton = next(r for r in report["bounds"] if r["bound"] == "singleton-P")
    assert singleton["sharp"] is True
    assert singleton["lhs"] == 1 and singleton["rhs"] == 1


def test_family_octacode_text(capsys):
    code, out, _ = run(capsys, "family", "octacode")
    assert code == 0
    assert "M: 256" in out and "d/gamma: 6" in out


def test_chain_json(tmp_path, capsys):
    gen = tmp_path / "hj.gen"
    hj = fc.hjelmslev_line(ring("Z4"), table("Z4"))
    fc.write_generator_file(gen, ring("Z4"), hj.generators)
    code, out, _ = run(capsys, "chain", "--ring", "Z4", "--gen", str(gen), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 1
    assert data["hypothesis_n_le_d"] is True
    assert all(c["holds"] for c in data["checks"])
    assert data["support_inequality"] == {"lhs": 6, "rhs": "11/2"}
    assert len(data["stages"]) == 2
    assert data["stages"][0]["cyclic_size"] == 4
    # lossless round trip
    assert json.dumps(data, indent=2) + "\n" == out


def test_chain_text(tmp_path, capsys):
    gen = tmp_path / "sx.gen"
    fc.write_generator_file(gen, ring("Z4"), fc.simplex(ring("Z4"), 1, table("Z4")).generators)
    code, out, _ = run(capsys, "chain", "--ring", "Z4", "--gen", str(gen))
    assert code == 0
    assert "r: 1" in out
    assert "removed [2 0 2]" in out


# ---------------------------------------------------------------------------
# Errors and environment
# ---------------------------------------------------------------------------

def test_bad_ring_spec_exits_1(capsys):
    code, _, err = run(capsys, "ring", "info", "--ring", "Q8")
    assert code == 1
    assert "error" in err


def test_large_prime_literal_exits_1(capsys):
    # factoring the literal must not hang before the cap check
    code, _, err = run(capsys, "ring", "info", "--ring", "GF(1000000007)")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("spec", [
    "GF(99999999999973)", "GF(10000000000000061)", "CHAIN(10000000000000061)",
    "GF(2^100000)", "Z" + "1" * 5000,
])
def test_literal_above_cap_exits_1_fast(capsys, spec):
    # checked on the literal's digits: no factoring, no huge integer or string
    start = time.perf_counter()
    code, _, err = run(capsys, "ring", "info", "--ring", spec)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "above the size cap 512" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("spec", [
    "M1(" * 2000 + "Z2" + ")" * 2000,
    "x".join(["Z2"] * 2000),
    # 120 KB nested 250 deep: parsing must stay linear in the spec's length
    pytest.param("M1(" * 250 + "Z2x" * 40000 + "Z2" + ")" * 250, id="nested-long-product"),
])
def test_deep_nesting_exits_1(capsys, spec):
    start = time.perf_counter()
    code, _, err = run(capsys, "ring", "info", "--ring", spec)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "nests more than" in err


def test_oversized_hjelmslev_line_exits_1_fast(capsys):
    # 256^2 messages x 272 columns: over the sweep cap, refused before the
    # line's points are enumerated
    start = time.perf_counter()
    code, _, err = run(capsys, "family", "hjelmslev", "--ring", "CHAIN(16)")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "exceed the enumeration cap" in err


@pytest.mark.parametrize("m", ["99999999999999", "10000000", "4000", "7"])
def test_oversized_simplex_exits_1_fast(capsys, m):
    # |R|^m is compared with the column cap without being built or printed
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "simplex", "--ring", "Z4", "-m", m)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "exceeds the cap of 4096 columns" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("gamma", ["1e-999999999", "1e-99999", "1e4001", "9" * 4001, "1/" + "7" * 4001])
def test_oversized_gamma_exits_1_fast(capsys, gamma):
    # rejected on the literal's digits and exponent, before Fraction() runs
    start = time.perf_counter()
    code, out, err = run(capsys, "weight", "--ring", "Z4", "--gamma", gamma)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "--gamma" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("gamma,weight_of_2", [("2/3", "4/3"), ("0.5", "1"), ("1e-200", "1/5" + "0" * 199)])
def test_gamma_literals_within_the_limit(capsys, gamma, weight_of_2):
    code, out, _ = run(capsys, "weight", "--ring", "Z4", "--gamma", gamma)
    assert code == 0
    assert out.splitlines()[2] == f"2: {weight_of_2}"


def test_parser_built_once_gives_identical_runs(capsys):
    # build_parser is cached per process: a second round of the golden
    # cases, after a usage error, must print the same bytes as the first
    assert build_parser() is build_parser()
    rounds = []
    for _ in range(2):
        outputs = []
        for _fixture, argv in GOLDEN_CASES:
            argv = [a if not a.endswith(".gen") else str(GOLDEN / a) for a in argv]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        rounds.append(outputs)
        code, out, err = run(capsys, "bounds", "check", "--ring", "Z4")  # --gen missing
        assert (code, out) == (1, "")
        assert "--gen" in err
    assert rounds[0] == rounds[1]
    assert rounds[0] == [(GOLDEN / fixture).read_text(encoding="utf-8") for fixture, _ in GOLDEN_CASES]


def test_missing_gen_file_exits_1(capsys):
    code, _, err = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", "/nonexistent.gen")
    assert code == 1
    assert "error" in err


def test_non_utf8_gen_file_exits_1_with_its_path(tmp_path, capsys):
    gen = tmp_path / "binary.gen"
    gen.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", str(gen))
    assert (code, out) == (1, "")
    assert str(gen) in err and "not UTF-8" in err


def test_usage_error_exits_1(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "ring", "info")[0] == 1  # missing --ring
    assert run(capsys)[0] == 1


@pytest.mark.parametrize("argv, choices", [
    ([], "{ring,weight,code,bounds,family,chain}"),
    (["ring"], "{info}"),
    (["code"], "{analyze}"),
    (["bounds"], "{check}"),
    (["family"], "{simplex,octacode,hjelmslev}"),
])
def test_missing_subcommand_is_named_by_its_choices(capsys, argv, choices):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: the following arguments are required: {choices}\n")


def test_unknown_subcommand_is_named_by_its_choices(capsys):
    code, out, err = run(capsys, "nonsense")
    assert (code, out) == (1, "")
    assert "argument {ring,weight,code,bounds,family,chain}: invalid choice: 'nonsense'" in err


def test_bad_gamma_exits_1(capsys):
    code, _, err = run(capsys, "weight", "--ring", "Z4", "--gamma", "zero")
    assert code == 1
    code, _, err = run(capsys, "weight", "--ring", "Z4", "--gamma", "-1/2")
    assert code == 1


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert fc.__version__ in out


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FROBCODE_CAP", "8")
    code, _, err = run(capsys, "ring", "info", "--ring", "Z9")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("FROBCODE_CAP", "not-a-number")
    assert run(capsys, "ring", "info", "--ring", "Z4")[0] == 1
    for cap in ("-5", "0", "1"):
        monkeypatch.setenv("FROBCODE_CAP", cap)
        code, out, err = run(capsys, "ring", "info", "--ring", "Z2")
        assert code == 1 and not out
        assert f"FROBCODE_CAP='{cap}' is below 2" in err


def test_violated_bound_sentinel():
    # exit discipline: a violated applicable report must map to exit 2
    from frobcode.cli import _bounds_exit
    from frobcode.bounds import BoundReport

    good = BoundReport("averaging", (), True, 1, 2, True, False, "le", {})
    bad = BoundReport("averaging", (), True, 3, 2, False, False, "le", {})
    assert _bounds_exit([good]) == 0
    assert _bounds_exit([good, bad]) == 2


# ---------------------------------------------------------------------------
# The CLI boundary, drawn from the command table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("words,options", [(w, o) for w, _, o, _ in cli._COMMANDS])
def test_help_of_every_command_names_its_options(capsys, words, options):
    code, out, err = run(capsys, *words.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: frobcode {words} ")
    for flag in options.split():
        assert f"{flag} " in out and "help" in cli._OPTIONS[flag]


_BAD_SPECS = ["Q8", "Z", "Z1", "Z0", "GF(6)", "M2(GF(2)", "Z2xx", "", " ", "Z4)", "GF(2^0)",
              "CHAIN(6)", "Z99999999999999", "M1(" * 300 + "Z2" + ")" * 300, "Z2xZ2\n"]
_TOKENS = ["0", "1", "2", "3", "7", "-1", "+1", "11", "02", "[1;0;0;1]", "[1;0]", "1|0",
           "0+1u", "1+u", "x", "\u00e9", "1e3", "00"]
_GAMMAS = ["1", "2/3", "0.5", "1e-3", "3", "0", "-1/2", "x", "1/0", "", "1e4001", "1_0"]


@st.composite
def _mostly(draw, good, bad):
    """A draw from ``good`` four times in five, else from ``bad``."""
    return draw(bad if draw(st.integers(0, 4)) == 4 else good)


@st.composite
def gen_files(draw, names):
    """Bytes of a generator file: rows of the ring's elements, or a defect."""
    kind = draw(st.sampled_from(["rows"] * 5 + ["ragged", "unknown", "comments", "empty", "binary"]))
    if kind == "empty":
        return b""
    if kind == "binary":
        return draw(st.sampled_from([b"\xff\xfe", b"0 1\n\x80\n", b"\x00\x01"]))
    tokens = st.sampled_from(names or _TOKENS)
    n = draw(st.integers(1, 4))
    rows = [[draw(tokens) for _ in range(n)] for _ in range(draw(st.integers(1, 2)))]
    if kind == "ragged":
        rows[-1].append(draw(tokens))
    if kind == "unknown":
        rows[0][-1] = draw(st.sampled_from(_TOKENS))
    lines = [" ".join(row) + draw(st.sampled_from(["", "  # a row", "#"])) for row in rows]
    if kind == "comments":
        lines = ["# no rows before this", ""] + lines + ["   # trailing"]
    return "\n".join(lines).encode()


@st.composite
def cli_argvs(draw):
    """argv for one command-table entry, with drawn values, defects and a file."""
    words, _, options, _ = draw(st.sampled_from(cli._COMMANDS))
    spec = draw(_mostly(ring_specs(16).map(lambda drawn: drawn[0]), st.sampled_from(_BAD_SPECS)))
    names = ring(spec).element_names if spec not in _BAD_SPECS else ()
    values = {
        "--ring": st.just(spec),
        "--gen": st.just("GEN"),
        "-m": _mostly(st.integers(0, 2).map(str), st.sampled_from(["-1", "x", "99999999999999"])),
        "--gamma": _mostly(st.sampled_from(["1", "2/3", "3", "0.5"]), st.one_of(
            st.sampled_from(_GAMMAS), st.fractions(0, 9, max_denominator=9).map(str))),
    }
    dropped = draw(st.sampled_from([None] * 8 + options.split()))
    argv = words.split()
    for flag in options.split():
        if flag in ("--json", "--emit-gen"):
            if draw(st.booleans()):
                argv += [flag] if flag == "--json" else [flag, "EMIT"]
        elif flag != dropped:
            argv += [flag, draw(values[flag])]
    return argv + draw(st.sampled_from([[]] * 8 + [["--bogus"], ["extra"]])), draw(gen_files(names))


@settings(max_examples=150, deadline=None, database=None)
@given(cli_argvs())
def test_drawn_argv_exits_cleanly(drawn):
    # every run ends in 0, 1 or 2, prints no traceback, and prints nothing
    # on stdout when it fails
    argv, gen_bytes = drawn
    with tempfile.TemporaryDirectory() as tmp:
        gen, emit = Path(tmp, "drawn.gen"), Path(tmp, "emitted.gen")
        gen.write_bytes(gen_bytes)
        argv = [str(gen) if a == "GEN" else str(emit) if a == "EMIT" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and err.getvalue(), argv


# ---------------------------------------------------------------------------
# JSON that round-trips: read back, it equals the library's objects
# ---------------------------------------------------------------------------

@st.composite
def small_codes(draw):
    """A ring spec, --gamma, and k <= 2 generator rows of length n <= 4."""
    spec = draw(ring_specs(16))[0]
    size = ring(spec).size
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    return spec, draw(st.sampled_from(["1", "2/3", "3", "5/2"])), draw(st.lists(row, min_size=1, max_size=2))


def _json_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _same(value, expected):
    # "p/q" strings are the rationals; ints, bools and None come back as they were
    value = Fraction(value) if isinstance(value, str) else value
    assert (type(value), value) == (type(expected), expected)


def _indices(r, names):
    return None if names is None else tuple(fc.parse_element(r, name) for name in names)


def check_code_json(data, code):
    assert set(data) == {"n", "M", "ell_C", "min_hamming", "d_over_gamma"}
    assert (data["n"], data["M"], data["ell_C"]) == (code.n, code.size, code.ell_C)
    _same(data["min_hamming"], code.min_hamming)
    _same(data["d_over_gamma"], code.min_hom_norm)


def check_reports_json(data, code, reports):
    assert len(data) == len(reports)
    for item, report in zip(data, reports):
        assert set(item) == {"bound", "preconditions", "applicable", "direction", "lhs", "rhs",
                             "satisfied", "sharp", "details"}
        assert (item["bound"], item["applicable"], item["direction"], item["satisfied"], item["sharp"]) == (
            report.bound, report.applicable, report.direction, report.satisfied, report.sharp)
        assert [(p["description"], p["holds"]) for p in item["preconditions"]] == list(report.preconditions)
        _same(item["lhs"], report.lhs)
        _same(item["rhs"], report.rhs)
        details = dict(item["details"])
        if "word" in details:
            details["word"] = _indices(code.ring, details["word"])
        assert details == report.details


def check_chain_json(data, code, chain):
    assert set(data) == {"version", "ring", "code", "r", "hypothesis_n_le_d", "stages", "checks",
                         "support_inequality"}
    assert (data["version"], data["ring"]) == (fc.__version__, code.ring.name)
    check_code_json(data["code"], code)
    assert (data["r"], data["hypothesis_n_le_d"]) == (chain.r, chain.hypothesis_holds)
    assert [s["index"] for s in data["stages"]] == list(range(len(chain.stages)))
    for item, stage in zip(data["stages"], chain.stages):
        assert (item["n"], item["M"], item["cyclic_size"]) == (stage.code.n, stage.code.size, stage.cyclic_size)
        _same(item["d_over_gamma"], stage.code.min_hom_norm)
        assert _indices(code.ring, item["word"]) == stage.word
        assert item["hamming_weight"] == (None if stage.word is None else fc.ell(stage.word))
    assert [(c["description"], c["holds"]) for c in data["checks"]] == list(chain.checks)
    _same(data["support_inequality"]["lhs"], chain.inequality_lhs)
    _same(data["support_inequality"]["rhs"], chain.inequality_rhs)


@settings(max_examples=40, deadline=None, database=None)
@given(small_codes())
def test_json_round_trips_to_the_library_objects(drawn):
    spec, gamma, rows = drawn
    r = ring(spec)
    code = fc.build_code(r, rows, table(spec, Fraction(gamma)))
    with tempfile.TemporaryDirectory() as tmp:
        gen = Path(tmp, "drawn.gen")
        gen.write_text("".join(" ".join(r.element_names[x] for x in row) + "\n" for row in rows))
        given_code = ["--ring", spec, "--gen", str(gen), "--gamma", gamma]
        exit_code, data = _json_run(["code", "analyze", *given_code])
        assert exit_code == 0
        check_code_json(data, code)
        reports = fc.check_all(code)
        exit_code, data = _json_run(["bounds", "check", *given_code, "--json"])
        assert exit_code == cli._bounds_exit(reports)
        check_reports_json(data, code, reports)
        exit_code, data = _json_run(["chain", *given_code, "--json"])
        assert exit_code in (0, 2)
        check_chain_json(data, code, fc.residual_chain(code))
