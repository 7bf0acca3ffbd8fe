import json
import time

import pytest

import frobcode as fc
from frobcode.cli import main
from helpers import ring, table


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


def test_missing_gen_file_exits_1(capsys):
    code, _, err = run(capsys, "code", "analyze", "--ring", "Z4", "--gen", "/nonexistent.gen")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_1(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "ring", "info")[0] == 1  # missing --ring
    assert run(capsys)[0] == 1


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


def test_violated_bound_sentinel():
    # exit discipline: a violated applicable report must map to exit 2
    from frobcode.cli import _bounds_exit
    from frobcode.bounds import BoundReport

    good = BoundReport("averaging", (), True, 1, 2, True, False, "le", {})
    bad = BoundReport("averaging", (), True, 3, 2, False, False, "le", {})
    assert _bounds_exit([good]) == 0
    assert _bounds_exit([good, bad]) == 2
