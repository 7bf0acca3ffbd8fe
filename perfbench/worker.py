"""One workload in one fresh interpreter: set-up, then whole rounds of jobs.

Run from the root of a checkout; ``src/`` is put first on the path so
the checkout's own frobcode is measured.

    python3 perfbench/worker.py --workload W --seed N --out DIR
            (--seconds S | --rounds R) [--trace]
        run rounds until S seconds of job time have passed (or exactly R
        rounds), writing DIR/jobs.jsonl as it goes and DIR/summary.json
        at the end; with --trace also DIR/spans.jsonl.

Jobs run one at a time in a closed loop.  Generating a round, checking
outputs and writing records are excluded from the timed wall clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import plan  # noqa: E402


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:16]


class Runner:
    """Runs jobs against the imported package ``fc`` and checks their outputs."""

    def __init__(self, fc, workload: str):
        self.fc = fc
        self.family_codes: dict[str, dict | None] = {}
        self.rings = {}
        self.tables = {}
        for ring in plan.setup_rings(workload):
            text = plan.spec_text(ring)
            obj = fc.rings.build_ring(fc.rings.parse_ring_spec(text))
            self.rings[text] = obj
            self.tables[text] = fc.homweight.hom_weight_table(obj)

    # -- jobs (timed) -------------------------------------------------------

    def run(self, job):
        kind = job["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.fc.cli.main(list(job["argv"]))
            return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
        if kind == "oracle":
            ring = self.fc.rings.build_ring(self.fc.rings.parse_ring_spec(plan.spec_text(job["ring"])))
            return {"ring": ring, "solution": self.fc.homweight.solve_weight_axioms(ring)}
        text = plan.spec_text(job["ring"])
        ring, table = self.rings[text], self.tables[text]
        lc, bd, fm = self.fc.lincode, self.fc.bounds, self.fc.families
        code = lc.build_code(ring, job["rows"], table)
        reports = bd.check_all(code)
        chain = fm.residual_chain(code)
        nonzero = [w for w in code.word_order if any(w)]
        d = code.min_hom_norm
        pool = [w for w in nonzero if lc.ell(w) < d] or nonzero or list(code.word_order)
        c = pool[int(job["pick"] * len(pool))]
        return {
            "code": code, "reports": reports, "chain": chain, "c": c,
            "shorten": lc.shorten(code, c), "residual": lc.residual(code, c),
            "coset_average": lc.coset_average(code, job["x"]),
        }

    # -- outputs and checks (untimed) ----------------------------------------

    def output_digest(self, job, result) -> str:
        kind = job["kind"]
        if kind == "cli":
            gen = job["check"].get("gen")
            gen_bytes = Path(gen).read_bytes() if gen and os.path.exists(gen) else b""
            return digest(str(result["rc"]), result["out"], result["err"], gen_bytes)
        if kind == "oracle":
            return digest(";".join(map(str, result["solution"])))
        code, chain = result["code"], result["chain"]
        parts = [
            repr((code.n, code.size, code.ell_C, code.min_hamming, code.min_hom_norm, code.word_order)),
            repr([(r.bound, r.applicable, r.lhs, r.rhs, r.satisfied, r.sharp, r.details)
                  for r in result["reports"]]),
            repr([(s.code.size, s.code.n, s.word, s.cyclic_size) for s in chain.stages]),
            repr((chain.r, chain.checks, chain.inequality_lhs, chain.inequality_rhs)),
            repr((result["c"], sorted(result["shorten"].words), sorted(result["residual"].words),
                  result["coset_average"])),
        ]
        return digest(*parts)

    def problems(self, job, result) -> list[str]:
        kind = job["kind"]
        if kind == "oracle":
            ring = result["ring"]
            reference = self.fc.homweight.hom_weight_table(ring).norm_weight
            return checks.oracle_problems(job["ring"], ring.element_names, result["solution"], reference)
        if kind == "sweep":
            text = plan.spec_text(job["ring"])
            return checks.sweep_problems(job, result, self.rings[text], self.tables[text])
        check, rc, out = job["check"], result["rc"], result["out"]
        problems = [f"stderr: {result['err'].strip()}"] if result["err"] else []
        kind = check["type"]
        if kind == "golden":
            expected = Path(check["expected"]).read_text(encoding="utf-8")
            if rc != 0 or out != expected:
                problems.append(f"golden {check['expected']}: exit code {rc} or output differs")
        elif kind == "ring-info":
            problems += checks.ring_info_problems(check["ring"], out) if rc == 0 else [f"exit code {rc}"]
        elif kind == "weight":
            problems += checks.weight_problems(check["ring"], out) if rc == 0 else [f"exit code {rc}"]
        elif kind == "family":
            gen = Path(check["gen"])
            text = gen.read_text(encoding="utf-8") if gen.exists() else None
            found, code = checks.family_problems(check, rc, out, text)
            self.family_codes[check["gen"]] = code
            problems += found
        elif kind == "chain":
            family = self.family_codes.get(check["family"]["gen"])
            problems += checks.chain_problems(rc, out, check["ring"], family)
        return problems


def run_rounds(runner: Runner, workload: str, seed: int, gen_dir: str, records,
               seconds: float | None = None, rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` of timed wall clock, or exactly ``rounds``.

    Each job is announced in ``records`` before it starts and recorded
    after it is checked, so a job that hangs or crashes the process can
    be told from the records.  A job fails when it raises or any check
    finds a problem.
    """
    latencies, failed, done, untimed = [], 0, 0, 0.0
    loop_start = time.perf_counter()
    while True:
        mark = time.perf_counter()
        jobs = plan.round_jobs(workload, seed, done, gen_dir)
        untimed += time.perf_counter() - mark
        for job in jobs:
            mark = time.perf_counter()
            records.write(json.dumps({"start": job["id"]}) + "\n")
            records.flush()
            if tracer is not None:
                tracer.job_id = len(latencies)
            t0 = time.perf_counter()
            error = None
            try:
                result = runner.run(job)
            except Exception as exc:  # a failing job is recorded, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    problems = runner.problems(job, result)
                    out_digest = runner.output_digest(job, result)
                except Exception as exc:  # a malformed output fails its check
                    problems, out_digest = [f"check raised {type(exc).__name__}: {exc}"], None
            else:
                problems, out_digest = [error], None
            if tracer is not None:
                if job["kind"] == "cli" and result is not None:
                    tracer.counts["cli.main.stdout_bytes"] += len(result["out"].encode())
                tracer.enabled = True
            latencies.append(t1 - t0)
            failed += bool(problems)
            record = {"id": job["id"], "slot": job["slot"], "s": t1 - t0,
                      "digest": out_digest, "problems": problems[:3]}
            records.write(json.dumps(record) + "\n")
            records.flush()
            untimed += time.perf_counter() - t1 + (t0 - mark)
        done += 1
        timed = time.perf_counter() - loop_start - untimed
        if (done >= rounds) if rounds is not None else (timed >= seconds):
            break
    return {"rounds": done, "jobs": len(latencies), "failed": failed, "loop_wall_s": timed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gen_dir = os.path.relpath(out / "gen")
    os.makedirs(gen_dir, exist_ok=True)

    tracer = None
    t_start = time.perf_counter()
    import frobcode
    import frobcode.cli

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(frobcode)
    runner = Runner(frobcode, args.workload)
    setup_wall = time.perf_counter() - t_start

    with open(out / "jobs.jsonl", "w", encoding="utf-8") as records:
        loop = run_rounds(runner, args.workload, args.seed, gen_dir, records,
                          seconds=args.seconds, rounds=args.rounds, tracer=tracer)

    summary = dict(loop)
    summary.update({
        "setup_wall_s": setup_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frobcode_cap": os.environ.get("FROBCODE_CAP"),
        "python": sys.version.split()[0],
    })
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
        summary["spans"] = len(tracer.start)
        summary["span_root_s"] = tracer.root_time()
        summary["layers"] = tracer.layer_metrics()
        tracer.write_jsonl(out / "spans.jsonl")
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
