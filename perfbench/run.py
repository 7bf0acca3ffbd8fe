"""frobcode benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-tables --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # all three workloads, end-to-end metrics

Each workload runs in fresh child interpreters (see worker.py) under a
wall-clock watchdog.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the same rounds run untraced,
then traced, and the result carries the per-layer metrics.  The run
length defaults to ``run_seconds`` in BENCHMARK.json.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Full results go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_PROBES = 21
UNTRACED_LIMIT_S = 150.0
TRACE_PASS_LIMIT_S = 80.0  # each of the two passes of a --trace 1 run
SETUP_LIMIT_S = 30.0
TAIL_BEYOND = 10
ROTATE_S = 0.02


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(round_size: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest ladder percentile that leaves ``beyond`` jobs above it in one round.

    Every run completes at least one round, so the percentile always has
    that many jobs beyond it, and it stays the same however many rounds a
    run completes.
    """
    fitting = [p for p in PERCENTILE_LADDER if round_size * (100.0 - p) / 100.0 >= beyond]
    if not fitting:
        raise ValueError(f"a round of {round_size} jobs has no percentile with {beyond} beyond")
    return fitting[-1]


def percentile(latencies: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile; returns the value and the number of samples above its rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FROBCODE_CAP", None)  # results are for the default ring-size cap
    return env


@contextlib.contextmanager
def rotating_cpus(proc: subprocess.Popen):
    """Move ``proc`` to the next allowed CPU every ``ROTATE_S`` seconds.

    On a shared host one vCPU can run the same code a third slower than
    the other, and which one is slow changes from minute to minute.  A
    child left on one vCPU takes that vCPU's speed, so whole runs come
    out fast or slow.  Rotating it spreads every run evenly over all the
    CPUs this process may use; with one CPU it does nothing.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    stop = threading.Event()

    def rotate():
        i = 0
        while not stop.wait(ROTATE_S):
            i += 1
            try:
                os.sched_setaffinity(proc.pid, {cpus[i % len(cpus)]})
            except OSError:  # the child has exited
                return

    rotator = threading.Thread(target=rotate, daemon=True)
    if len(cpus) > 1:
        rotator.start()
    try:
        yield
    finally:
        stop.set()
        if rotator.is_alive():
            rotator.join()


def setup_time(root: Path, workload: str) -> float:
    """Seconds from starting a fresh interpreter to the workload being set up."""
    specs = [plan.spec_text(ring) for ring in plan.setup_rings(workload)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *specs], cwd=root,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(SETUP_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        with rotating_cpus(proc):
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait()
    finally:
        watchdog.cancel()
    if line.strip() != "ready":
        raise RuntimeError(f"{workload} set-up did not complete")
    return elapsed


def run_worker(root: Path, out: Path, workload: str, seed: int, limit_s: float,
               seconds: float | None = None, rounds: int | None = None, trace: bool = False) -> dict:
    """Run one worker pass; a hang or crash turns into failed jobs."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    args = ["--workload", workload, "--seed", str(seed), "--out", os.path.relpath(out, root)]
    args += ["--seconds", str(seconds)] if rounds is None else ["--rounds", str(rounds)]
    if trace:
        args.append("--trace")
    with open(out / "worker.err", "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            with rotating_cpus(proc):
                returncode = proc.wait(timeout=limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            returncode = None
        except BaseException:
            proc.kill()
            proc.wait()
            raise

    records, started = [], None
    jobs_file = out / "jobs.jsonl"
    if jobs_file.exists():
        for line in jobs_file.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "start" in record:
                started = record["start"]
            else:
                records.append(record)
                started = None
    summary_file = out / "summary.json"
    summary = json.loads(summary_file.read_text(encoding="utf-8")) if summary_file.exists() else None
    if started is not None or summary is None or returncode != 0:
        reason = "killed by the watchdog" if returncode is None else f"worker exit code {returncode}"
        records.append({"id": started or "?", "slot": "?", "s": None, "digest": None,
                        "problems": [f"job did not finish: {reason}"]})
    return {"records": records, "summary": summary}


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def environment(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "frobcode").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "FROBCODE_CAP": None,
    }


def recorded_digest_problems(workload: str, seed: int, records: list[dict]) -> int:
    """Mark round-0 jobs whose output digest differs from the one recorded."""
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {}) \
        if path.exists() else {}
    mismatches = 0
    for record in records:
        expected = recorded.get(record["id"])
        if expected is not None and record["digest"] != expected:
            record["problems"].append(f"output digest {record['digest']} differs from recorded {expected}")
            mismatches += 1
    return mismatches


def _failed(records: list[dict]) -> int:
    return sum(1 for r in records if r["problems"])


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> dict:
    try:
        setups = [setup_time(root, workload) for _ in range(SETUP_PROBES)]
    except RuntimeError:
        setups = [math.nan]
    out = root / ".bench_out" / f"{workload}-{seed}"
    run = run_worker(root, out, workload, seed, UNTRACED_LIMIT_S, seconds=seconds)
    records, summary = run["records"], run["summary"]
    if math.isnan(setups[0]):
        records.append({"id": "setup", "slot": "setup", "s": None, "digest": None,
                        "problems": ["set-up did not complete"]})
    recorded_digest_problems(workload, seed, records)
    latencies = [r["s"] for r in records if r["s"] is not None] or [math.nan]
    pct = tail_percentile(len(plan.round_jobs(workload, seed, 0)))
    tail_s, beyond = percentile(latencies, pct)
    wall = summary["loop_wall_s"] if summary else sum(latencies)
    metrics = {
        "jobs_per_s": len(latencies) / wall,
        "job_ms_p50": 1000 * statistics.median(latencies),
        "job_ms_tail": 1000 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": summary["peak_rss_mb"] if summary else math.nan,
    }
    return {
        "records": records,
        "metrics": metrics,
        "detail": {
            "rounds": summary["rounds"] if summary else None,
            "jobs": len(records),
            "fail_ratio": _failed(records) / max(len(records), 1),
            "tail_percentile": pct,
            "tail_jobs_beyond": beyond,
            "setup_probes_s": setups,
            "loop_wall_s": wall,
        },
    }


def traced(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """An untraced pass, then a traced pass over the same rounds.

    The traced outputs must equal the untraced ones, so the wrappers
    change no result.  ``trace.overhead_s`` is the difference of the two
    walls; both walls are reported, since machine noise between the two
    passes can be as large as the overhead itself.
    """
    base = root / ".bench_out" / f"{workload}-{seed}"
    first = run_worker(root, base, workload, seed, TRACE_PASS_LIMIT_S, seconds=seconds)
    rounds = first["summary"]["rounds"] if first["summary"] else 1
    spanned = run_worker(root, base.with_name(base.name + "-traced"), workload, seed,
                         TRACE_PASS_LIMIT_S, rounds=rounds, trace=True)
    recorded_digest_problems(workload, seed, first["records"])
    digests = {r["id"]: r["digest"] for r in first["records"]}
    for record in spanned["records"]:
        if record["digest"] != digests.get(record["id"]):
            record["problems"].append("traced output differs from the untraced output")
    records = first["records"] + spanned["records"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if first["summary"] and spanned["summary"]:
        layers = spanned["summary"]["layers"]
        metrics.update((name, layers[name]) for name in PER_LAYER if name in layers)

        def ratio(a, b):
            return a / b if b else 0.0

        metrics["rings.build_ring.ns_per_entry"] = 1e9 * ratio(
            layers["rings.build_ring.self_s"], layers.get("rings.build_ring.entries", 0))
        metrics["lincode.build_code.dedup_ratio"] = ratio(
            layers.get("lincode.build_code.words", 0), layers.get("lincode.build_code.messages", 0))
        metrics["lincode.cyclic_span.repeat_ratio"] = ratio(
            layers["lincode.cyclic_span.calls"], layers["lincode.cyclic_span.distinct"])
        untraced_wall, traced_wall = (s["summary"]["setup_wall_s"] + s["summary"]["loop_wall_s"]
                                      for s in (first, spanned))
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.outside_spans_s"] = traced_wall - spanned["summary"]["span_root_s"]
    return {
        "records": records,
        "metrics": metrics,
        "detail": {"rounds": rounds, "jobs": len(first["records"]),
                   "spans": spanned["summary"]["spans"] if spanned["summary"] else None},
    }


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = (traced if trace else end_to_end)(root, workload, seed, seconds)
    records = result.pop("records")
    failed = _failed(records)
    result.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        correct=failed == 0, attempted=len(records), failed=failed,
        environment=environment(root),
        problems=[f"{r['id']} {r['slot']}: {p}" for r in records for p in r["problems"]][:20],
    )
    results = root / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


def report_line(result: dict) -> str:
    units = PER_LAYER if result["trace"] else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_human(result: dict) -> None:
    d = result["detail"]
    print(f"workload {result['workload']} seed {result['seed']}: {result['attempted']} jobs, "
          f"{d['rounds']} rounds, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    units = PER_LAYER if result["trace"] else END_TO_END
    for name, value in result["metrics"].items():
        note = ""
        if name == "job_ms_tail":
            note = f"  (p{d['tail_percentile']:.1f}, {d['tail_jobs_beyond']} of {d['jobs']} jobs beyond)"
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    if not result["trace"]:
        print(f"  {'fail_ratio':42s} {d['fail_ratio']:14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS,
                        help="one workload (default: all three, end-to-end only)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frobcode" / "__init__.py").is_file() or not (root / plan.GOLDEN_DIR).is_dir():
        print(f"frobcode benchmark: {root} is not a frobcode checkout (no src/frobcode or "
              f"{plan.GOLDEN_DIR})", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(plan.WORKLOADS)
    results = [run_one(root, w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for result in results:
        print_human(result)
    if args.workload:
        print(report_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(report_line(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
