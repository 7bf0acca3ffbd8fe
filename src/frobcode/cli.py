"""Command-line front-end.

Subcommands: ring info, weight, code analyze, bounds check,
family {simplex,octacode,hjelmslev}, chain.  Each subcommand is one entry
of ``_COMMANDS`` (its words, help line, options and handler), each option
is declared once, in ``_OPTIONS``, and ``build_parser`` makes the parser
from the two.  ``--json`` switches the report-producing commands to
machine-readable output with rationals serialised as "p/q" strings.  Exit
codes: 0 success, 1 usage or input errors, 2 when an applicable bound
report comes back violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bounds import BoundReport, check_all
from .families import (
    ResidualChain,
    hjelmslev_line,
    octacode,
    residual_chain,
    simplex,
)
from .homweight import HomWeightTable, hom_weight_table
from .lincode import LinearCode, build_code, ell, read_generator_rows, write_generator_file
from .rings import DEFAULT_CAP, Ring, build_ring, parse_ring_spec


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is the violated-bound sentinel)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _side(value) -> object:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _ring_cap() -> int:
    raw = os.environ.get("FROBCODE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FROBCODE_CAP={raw!r} is not an integer") from None
    if cap < 2:
        raise ValueError(f"FROBCODE_CAP={raw!r} is below 2, the size of the smallest ring")
    return cap


def _ring(text: str) -> Ring:
    cap = _ring_cap()
    return build_ring(parse_ring_spec(text, cap=cap), cap=cap)


# Fraction() builds 10**exponent, and str() of a result above 4300 digits
# fails: a --gamma literal's digit count plus its exponent stays below this.
_GAMMA_DIGITS = 4000


def _gamma(text: str) -> Fraction:
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    size = sum(map(str.isdigit, mantissa))
    if exponent.isdigit():
        # a long exponent is over the limit without being converted
        long = len(exponent) > len(str(_GAMMA_DIGITS))
        size += _GAMMA_DIGITS + 1 if long else int(exponent)
    if size > _GAMMA_DIGITS:
        raise ValueError(f"--gamma literal's digits plus exponent exceed {_GAMMA_DIGITS}")
    try:
        gamma = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--gamma {text!r} is not a rational p/q") from None
    if gamma <= 0:
        raise ValueError("--gamma must be positive")
    return gamma


def _table(args) -> HomWeightTable:
    # the ring, then --gamma: an error names the first of the two that fails
    ring = _ring(args.ring)
    return hom_weight_table(ring, _gamma(args.gamma))


def _load_code(args) -> LinearCode:
    table = _table(args)
    return build_code(table.ring, read_generator_rows(args.gen, table.ring), table)


# ---------------------------------------------------------------------------
# JSON shapes
# ---------------------------------------------------------------------------

def code_params_json(code: LinearCode) -> dict:
    return {
        "n": code.n,
        "M": code.size,
        "ell_C": code.ell_C,
        "min_hamming": code.min_hamming,
        "d_over_gamma": _side(code.min_hom_norm),
    }


def bound_report_json(code: LinearCode, report: BoundReport) -> dict:
    details = dict(report.details)
    if "word" in details and details["word"] is not None:
        details["word"] = [code.ring.element_names[c] for c in details["word"]]
    return {
        "bound": report.bound,
        "preconditions": [
            {"description": text, "holds": holds}
            for text, holds in report.preconditions
        ],
        "applicable": report.applicable,
        "direction": report.direction,
        "lhs": _side(report.lhs),
        "rhs": _side(report.rhs),
        "satisfied": report.satisfied,
        "sharp": report.sharp,
        "details": details,
    }


def _verdict_json(reports: list[BoundReport]) -> dict:
    return {
        "applicable": sum(1 for r in reports if r.applicable),
        "violated": sum(1 for r in reports if r.applicable and not r.satisfied),
        "sharp": [r.bound for r in reports if r.applicable and r.sharp],
    }


def chain_json(code: LinearCode, chain: ResidualChain) -> dict:
    stages = []
    for index, stage in enumerate(chain.stages):
        stages.append(
            {
                "index": index,
                "n": stage.code.n,
                "M": stage.code.size,
                "d_over_gamma": _side(stage.code.min_hom_norm),
                "word": (
                    [code.ring.element_names[c] for c in stage.word]
                    if stage.word is not None
                    else None
                ),
                "hamming_weight": ell(stage.word) if stage.word is not None else None,
                "cyclic_size": stage.cyclic_size,
            }
        )
    return {
        "version": __version__,
        "ring": code.ring.name,
        "code": code_params_json(code),
        "r": chain.r,
        "hypothesis_n_le_d": chain.hypothesis_holds,
        "stages": stages,
        "checks": [{"description": text, "holds": holds} for text, holds in chain.checks],
        "support_inequality": {
            "lhs": chain.inequality_lhs,
            "rhs": _side(chain.inequality_rhs),
        },
    }


def family_report_json(family: str, code: LinearCode, reports, extra: dict) -> dict:
    out = {
        "version": __version__,
        "ring": code.ring.name,
        "family": family,
    }
    out.update(extra)
    out["code"] = code_params_json(code)
    out["bounds"] = [bound_report_json(code, r) for r in reports]
    out["verdict"] = _verdict_json(reports)
    return out


# ---------------------------------------------------------------------------
# Text shapes
# ---------------------------------------------------------------------------

def _print_params(code: LinearCode) -> None:
    d = code.min_hom_norm
    print(f"n: {code.n}")
    print(f"M: {code.size}")
    print(f"ell_C: {code.ell_C}")
    print(f"min_hamming: {code.min_hamming if code.min_hamming is not None else '-'}")
    print(f"d/gamma: {d if d is not None else '-'}")


def _print_bounds(reports) -> None:
    for r in reports:
        if not r.applicable:
            failed = next(text for text, holds in r.preconditions if not holds)
            print(f"{r.bound}: not applicable ({failed})")
        else:
            verdict = "VIOLATED" if not r.satisfied else "satisfied (sharp)" if r.sharp else "satisfied"
            op = "<=" if r.direction == "le" else ">="
            print(f"{r.bound}: {verdict} [{r.lhs} {op} {r.rhs}]")


def _print_chain(code: LinearCode, chain: ResidualChain) -> None:
    print(f"r: {chain.r}")
    print(f"hypothesis n <= d/gamma: {'holds' if chain.hypothesis_holds else 'fails'}")
    for index, stage in enumerate(chain.stages):
        c = stage.code
        d = c.min_hom_norm if c.min_hom_norm is not None else "-"
        line = f"stage {index}: n={c.n} M={c.size} d/gamma={d}"
        if stage.word is not None:
            word = " ".join(code.ring.element_names[x] for x in stage.word)
            line += f" | removed [{word}] ell={ell(stage.word)} |Rc|={stage.cyclic_size}"
        else:
            line += " | final"
        print(line)
    for text, holds in chain.checks:
        state = "skipped" if holds is None else ("ok" if holds else "FAILED")
        print(f"check: {text}: {state}")
    if chain.inequality_lhs is not None:
        print(f"support inequality: {chain.inequality_lhs} >= {chain.inequality_rhs}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_ring_info(args) -> int:
    ring = _ring(args.ring)
    print(f"ring: {ring.name}")
    print(f"size: {ring.size}")
    print(f"units: {len(ring.units)}")
    print(f"additive exponent: {ring.add_exponent}")
    return 0


def _cmd_weight(args) -> int:
    table = _table(args)
    for x, name in enumerate(table.ring.element_names):
        print(f"{name}: {table.weight(x)}")
    return 0


def _cmd_code_analyze(args) -> int:
    code = _load_code(args)
    sys.stdout.write(_dump(code_params_json(code)))
    return 0


def _bounds_exit(reports) -> int:
    return 2 if any(r.applicable and not r.satisfied for r in reports) else 0


def _cmd_bounds_check(args) -> int:
    code = _load_code(args)
    reports = check_all(code)
    if args.json:
        sys.stdout.write(_dump([bound_report_json(code, r) for r in reports]))
    else:
        _print_bounds(reports)
    return _bounds_exit(reports)


def _cmd_family(args) -> int:
    family, extra = args.command.split()[1], {}
    if family == "octacode":
        code = octacode()
    else:
        table = _table(args)
        if family == "simplex":
            code, extra = simplex(table.ring, args.m, table), {"m": args.m}
        else:
            code = hjelmslev_line(table.ring, table)
    if args.emit_gen:
        write_generator_file(args.emit_gen, code.ring, code.generators)
    reports = check_all(code)
    if args.json:
        sys.stdout.write(_dump(family_report_json(family, code, reports, extra)))
    else:
        print(f"family: {family}")
        print(f"ring: {code.ring.name}")
        _print_params(code)
        _print_bounds(reports)
    return _bounds_exit(reports)


def _cmd_chain(args) -> int:
    code = _load_code(args)
    chain = residual_chain(code)
    if args.json:
        sys.stdout.write(_dump(chain_json(code, chain)))
    else:
        _print_chain(code, chain)
    failed = chain.hypothesis_holds and any(holds is False for _, holds in chain.checks)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

_OPTIONS = {
    "--ring": dict(required=True, help="ring spec, e.g. Z4, GF(9), M2(GF(2)), Z2xZ3, CHAIN(2)"),
    "--gen": dict(required=True, help="generator matrix file"),
    "-m": dict(type=int, required=True, help="number of generator rows"),
    "--gamma": dict(default="1", help="average weight value as p/q (default 1)"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--emit-gen": dict(help="write the generator matrix to a file"),
}

# the help line of each first word that groups subcommands
_GROUPS = {
    "ring": "ring-level queries",
    "code": "code-level queries",
    "bounds": "bound evaluation",
    "family": "built-in code families",
}

# (words, help line, options in help order, handler), in help order
_COMMANDS = (
    ("ring info", "size, units and additive exponent", "--ring", _cmd_ring_info),
    ("weight", "print the exact homogeneous weight table", "--ring --gamma", _cmd_weight),
    ("code analyze", "parameters of a generated code as JSON", "--ring --gen --gamma", _cmd_code_analyze),
    ("bounds check", "evaluate every bound on a code", "--ring --gen --gamma --json", _cmd_bounds_check),
    ("family simplex", "simplex code over a ring", "--ring -m --gamma --json --emit-gen", _cmd_family),
    ("family octacode", "the quaternary Octacode", "--json --emit-gen", _cmd_family),
    ("family hjelmslev", "projective Hjelmslev line code", "--ring --gamma --json --emit-gen", _cmd_family),
    ("chain", "residual-chain certificate of a code", "--ring --gen --gamma --json", _cmd_chain),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobcode", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"frobcode {__version__}")
    # no dest: a missing or unknown subcommand is then named by its choices
    subparsers = {"": parser.add_subparsers(required=True)}
    for words, summary, options, handler in _COMMANDS:
        group, _, name = words.rpartition(" ")
        if group not in subparsers:
            parent = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = parent.add_subparsers(required=True)
        command = subparsers[group].add_parser(name, help=summary)
        for flag in options.split():
            command.add_argument(flag, **_OPTIONS[flag])
        command.set_defaults(func=handler, command=words)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"frobcode: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
