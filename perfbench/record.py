"""Record benchmark results into the committed history.

Run from the repository root:

    python3 perfbench/record.py rows
        time the ROADMAP baseline rows, each job alone, and print the table
    python3 perfbench/record.py history --label baseline
        run every workload once per seed 1..10 (end-to-end), five more
        times on seed 1 and once traced, time the rows, print the spread of every end-to-end metric, write
        perfbench/history/<label>.json, and add round-0 output digests of
        seeds not yet in perfbench/digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The rows of the ROADMAP baseline table: (label, kind, argument).
ROWS = (
    ("ring info --ring GF(512)", "cli", ["ring", "info", "--ring", "GF(512)"]),
    ("build_ring M3(GF(2))", "build_ring", "M3(GF(2))"),
    ("weight --ring Z512", "cli", ["weight", "--ring", "Z512"]),
    ("family hjelmslev --ring CHAIN(9) --json", "cli", ["family", "hjelmslev", "--ring", "CHAIN(9)", "--json"]),
    ("family simplex --ring GF(2) -m 10 --json", "cli", ["family", "simplex", "--ring", "GF(2)", "-m", "10", "--json"]),
)
ROW_REPEATS = 5
# The seeds of every history entry, and of the digests in digests.json.
SEEDS = tuple(range(1, 11))
# Runs of the first seed alone: their spread is machine noise, with no
# part from the draw of inputs.
SAME_SEED_RUNS = 5


def time_rows(repeats: int = ROW_REPEATS) -> list[dict]:
    """Per-job latencies of the ROADMAP rows, in this process, one row at a time."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    import frobcode
    import frobcode.cli

    out = []
    for label, kind, arg in ROWS:
        samples = []
        for _ in range(repeats):
            sink = io.StringIO()
            t0 = time.perf_counter()
            if kind == "cli":
                with contextlib.redirect_stdout(sink):
                    rc = frobcode.cli.main(list(arg))
                if rc != 0:
                    raise RuntimeError(f"{label}: exit code {rc}")
            else:
                frobcode.rings.build_ring(frobcode.rings.parse_ring_spec(arg))
            samples.append(time.perf_counter() - t0)
        out.append({"row": label, "median_s": statistics.median(samples), "samples_s": samples})
    return out


def print_rows(rows: list[dict]) -> None:
    print("| row | median s | samples s |")
    print("| --- | --- | --- |")
    for row in rows:
        samples = ", ".join(f"{s:.2f}" for s in row["samples_s"])
        print(f"| `{row['row']}` | {row['median_s']:.2f} | {samples} |")


def _run(workload: str, seed: int, trace: int) -> dict:
    """One run of ``run.py`` at BENCHMARK.json's run length."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads((Path(".bench_out") / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    if not line["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['problems']}")
    return result


def _round0_digests(workload: str, seed: int) -> dict:
    records = (Path(".bench_out") / f"{workload}-{seed}" / "jobs.jsonl").read_text(encoding="utf-8")
    out = {}
    for line in records.splitlines():
        record = json.loads(line)
        if record.get("id", "").startswith("0."):
            out[record["id"]] = record["digest"]
    return out


def history(label: str) -> dict:
    sys.path.insert(0, str(HERE))
    import plan
    from run import spread

    digests_path = HERE / "digests.json"
    digests = json.loads(digests_path.read_text(encoding="utf-8")) if digests_path.exists() else {}
    entry = {"label": label, "seeds": list(SEEDS), "workloads": {}}
    for workload in plan.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result = _run(workload, seed, 0)
            runs.append(result)
            digests.setdefault(workload, {}).setdefault(str(seed), _round0_digests(workload, seed))
            print(workload, seed, {k: round(v, 4) for k, v in result["metrics"].items()}, flush=True)
        repeats = [_run(workload, SEEDS[0], 0) for _ in range(SAME_SEED_RUNS)]
        metrics, same_seed = {}, {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread(values), "values": values}
            again = [r["metrics"][name] for r in repeats]
            same_seed[name] = {"median": statistics.median(again), "spread": spread(again), "values": again}
            print(f"{workload:14s} {name:12s} median {q2:10.4f} spread {spread(values):.3f} "
                  f"same-seed spread {spread(again):.3f}", flush=True)
        traced = _run(workload, SEEDS[0], 1)
        entry["workloads"][workload] = {
            "end_to_end": metrics,
            "same_seed": {"seed": SEEDS[0], "metrics": same_seed},
            "tail_percentile": runs[0]["detail"]["tail_percentile"],
            "jobs_per_run": [r["attempted"] for r in runs],
            "per_layer": {"seed": SEEDS[0], "metrics": traced["metrics"], "detail": traced["detail"]},
        }
        entry["environment"] = runs[0]["environment"]
        entry["seconds"] = runs[0]["seconds"]
    digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    entry["rows"] = time_rows()
    print_rows(entry["rows"])
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rows", help="time the ROADMAP baseline rows")
    hist = sub.add_parser("history", help="write a history entry")
    hist.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.command == "rows":
        print_rows(time_rows())
        return 0
    entry = history(args.label)
    out = HERE / "history" / f"{args.label}.json"
    os.makedirs(out.parent, exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
