"""README examples run as written: the CLI tour and the library sketch."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import frobcode as fc
from frobcode.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


TOUR = [shlex.split(line, comments=True) for line in _block("CLI tour", "sh").splitlines()
        if line.startswith("frobcode ")]


def test_cli_tour_has_every_command():
    assert len(TOUR) == 9
    assert {argv[1] for argv in TOUR} == {"ring", "weight", "family", "code", "bounds", "chain"}


def test_cli_tour_runs(tmp_path, monkeypatch, capsys):
    # in order, in one directory: later lines read the file an earlier one emits
    monkeypatch.chdir(tmp_path)
    for argv in TOUR:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == ""


def test_library_sketch_runs_as_commented():
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_block("Library sketch", "python"), scope)
    code, c, sho, res, image = (scope[k] for k in ("code", "c", "sho", "res", "image"))
    assert (code.n, code.size, code.min_hom_norm) == (8, 256, 6)
    assert code.cyclic_size(c) == 2
    assert sho.words == fc.cyclic_span(code.ring, c)
    assert (res.n, res.size, res.min_hom_norm) == (4, 128, 2)
    assert {len(w) for w in image} == {8}
    assert (len(image), fc.min_hamming_distance(image)) == (128, 2)
    chain = scope["chain"]
    assert out.getvalue().splitlines()[-1] == f"{chain.r} {chain.inequality_lhs} {chain.inequality_rhs}"
