"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import frobcode  # noqa: E402
import frobcode.cli  # noqa: E402


def _dump(jobs):
    return json.dumps(jobs, sort_keys=True)


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_same_jobs(workload):
    for r in (0, 1):
        assert _dump(plan.round_jobs(workload, 7, r)) == _dump(plan.round_jobs(workload, 7, r))


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_seeds_and_rounds_draw_different_inputs(workload):
    first = _dump(plan.round_jobs(workload, 1, 0))
    assert first != _dump(plan.round_jobs(workload, 2, 0))
    assert first != _dump(plan.round_jobs(workload, 1, 1))


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_round_size_is_the_same_for_every_seed(workload):
    sizes = {len(plan.round_jobs(workload, seed, r)) for seed in range(5) for r in range(3)}
    assert len(sizes) == 1


def test_ring_tables_bands():
    for seed in range(20):
        jobs = plan.round_jobs("ring-tables", seed, 0)
        cli = [j for j in jobs if j["kind"] == "cli"]
        caps = sorted(j["argv"][-1] for j in cli if j["slot"] == "cap")
        assert caps == ["GF(512)", "M3(GF(2))", "Z2xGF(256)", "Z512"]
        kinds = set()
        for job in cli:
            assert 64 <= plan.ring_size(job["check"]["ring"]) <= 512
            assert job["argv"][:-2] in (["ring", "info"], ["weight"])
            kinds.add(job["check"]["ring"][0])
        assert kinds == {"Z", "GF", "M", "CHAIN", "X"}
        oracles = [j for j in jobs if j["kind"] == "oracle"]
        assert oracles and len(oracles) < len(cli)
        assert all(plan.ring_size(j["ring"]) <= 81 for j in oracles)


def test_code_families_bands():
    shapes = set()
    for seed in range(20):
        jobs = plan.round_jobs("code-families", seed, 0, gen_dir="g")
        argvs = [j["argv"] for j in jobs]
        assert sum(1 for j in jobs if j["check"]["type"] == "golden") == 8
        assert ["family", "hjelmslev", "--ring", "CHAIN(9)", "--json", "--emit-gen", "g/r0-0.gen"] in argvs
        assert ["family", "simplex", "--ring", "GF(2)", "-m", "10", "--json", "--emit-gen", "g/r0-1.gen"] in argvs
        families = [i for i, j in enumerate(jobs) if j["check"]["type"] == "family"]
        assert len(families) == 2 + sum(len(classes) * draws for _, classes, draws in plan.CODE_SLOTS)
        for i in families:
            family, chain = jobs[i], jobs[i + 1]
            assert chain["check"]["type"] == "chain"
            assert chain["argv"][chain["argv"].index("--gen") + 1] == family["check"]["gen"]
            ring, m = family["check"]["ring"], family["check"]["m"]
            assert plan.ring_size(ring) <= 81
            if m is not None:
                assert plan.ring_size(ring) ** m - 1 <= 4096
        # every seed draws the same code sizes, from other rings
        shapes.add(tuple(sorted((plan.ring_size(jobs[i]["check"]["ring"]), jobs[i]["check"]["m"] or 0)
                                for i in families)))
    assert len(shapes) == 1


def test_deal_uses_every_candidate_evenly():
    rng = random.Random(0)
    for k in range(1, 12):
        picks = plan._deal(rng, ["a", "b", "c"], k)
        counts = [picks.count(c) for c in "abc"]
        assert len(picks) == k and max(counts) - min(counts) <= 1


def test_sweep_bands():
    rings, shapes = set(), set()
    for seed in range(5):
        jobs = plan.round_jobs("sweep", seed, 0)
        for job in jobs:
            size = plan.ring_size(job["ring"])
            k, n = len(job["rows"]), len(job["rows"][0])
            assert 1 <= k <= 3 and 1 <= n <= 6 and size**k <= 1024
            assert all(0 <= c < size for row in job["rows"] for c in row)
            assert len(job["x"]) == n and 0 <= job["pick"] < 1
            rings.add(plan.spec_text(job["ring"]))
        shapes.add(tuple((job["slot"], len(job["rows"]), len(job["rows"][0])) for job in jobs))
    assert rings == {"Z4", "GF(4)", "CHAIN(2)", "M2(GF(2))", "Z6", "Z2xZ3", "Z8", "Z9"}
    assert len(shapes) == 1  # the seed draws the entries, not the shapes


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_times_of_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_self_times_add_up_to_root_time():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        return leaf() + leaf()

    middle = tracer.wrap("middle", middle)
    top = tracer.wrap("top", lambda: middle() + leaf())
    top()
    top()
    metrics = tracer.layer_metrics()
    assert (metrics["top.calls"], metrics["middle.calls"], metrics["leaf.calls"]) == (2, 2, 6)
    total = metrics["top.self_s"] + metrics["middle.self_s"] + metrics["leaf.self_s"]
    assert total == pytest.approx(tracer.root_time(), rel=1e-9)
    assert all(metrics[f"{n}.self_s"] > 0 for n in ("top", "middle", "leaf"))


def test_tracer_install_wraps_every_binding_and_uninstalls():
    original = frobcode.lincode.cyclic_span
    tracer = spans.Tracer()
    tracer.install(frobcode)
    try:
        wrapped = frobcode.lincode.cyclic_span
        assert wrapped is not original
        assert frobcode.bounds.cyclic_span is wrapped and frobcode.families.cyclic_span is wrapped
        assert frobcode.cyclic_span is wrapped
        code = frobcode.octacode()
        frobcode.check_all(code)
    finally:
        tracer.uninstall()
    assert frobcode.lincode.cyclic_span is original and frobcode.bounds.cyclic_span is original
    metrics = tracer.layer_metrics()
    assert metrics["bounds.check_all.calls"] == 1
    assert metrics["bounds.max_cyclic_size.calls"] == 2
    assert metrics["lincode.cyclic_span.calls"] > 0


# ---------------------------------------------------------------------------
# Tail rule
# ---------------------------------------------------------------------------


def test_benchmark_json_names_the_workloads_plan_draws():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(plan.WORKLOADS)


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(320) == 95.0
    assert run.tail_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90.0) == (90.0, 10)
    assert run.percentile(values, 75.0) == (75.0, 25)
    assert run.percentile(values[:40], 75.0) == (30.0, 10)


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def runner():
    return worker.Runner(frobcode, "sweep")


def _cli_job(argv, check):
    return {"kind": "cli", "slot": "test", "argv": argv, "check": check}


def test_ring_info_and_weight_checks_pass_and_catch_corruption(runner):
    for spec in (("Z", 12), ("GF", 2, 3), ("M", 2, ("GF", 2, 1)), ("CHAIN", 3, 1),
                 ("X", ("Z", 4), ("M", 2, ("GF", 2, 1))), ("M", 2, ("GF", 2, 2))):
        text = plan.spec_text(spec)
        info = _cli_job(["ring", "info", "--ring", text], {"type": "ring-info", "ring": spec})
        weight = _cli_job(["weight", "--ring", text], {"type": "weight", "ring": spec})
        for job in (info, weight):
            result = runner.run(job)
            assert runner.problems(job, result) == [], text
        corrupted = dict(result, out=result["out"].replace(": 0\n", ": 1\n", 1))
        assert runner.problems(weight, corrupted)
        lines = result["out"].splitlines()
        swapped = dict(result, out="\n".join(lines[:1] + lines[2:] + lines[1:2]) + "\n")
        assert runner.problems(weight, swapped) == []  # order is not part of the table
        bumped = lines[-1].rsplit(": ", 1)
        bumped = dict(result, out="\n".join(lines[:-1] + [f"{bumped[0]}: {Fraction(bumped[1]) + 1}"]) + "\n")
        assert runner.problems(weight, bumped)
    info = _cli_job(["ring", "info", "--ring", "Z12"], {"type": "ring-info", "ring": ("Z", 12)})
    result = runner.run(info)
    assert runner.problems(info, dict(result, out=result["out"].replace("units: 4", "units: 5")))


def test_golden_family_and_chain_checks_catch_corruption(runner, tmp_path):
    root = HERE.parent
    fixture, argv = plan.GOLDEN_CASES[0]
    argv = [str(root / plan.GOLDEN_DIR / a) if a.endswith(".gen") else a for a in argv]
    golden = _cli_job(argv, {"type": "golden", "expected": str(root / plan.GOLDEN_DIR / fixture)})
    result = runner.run(golden)
    assert runner.problems(golden, result) == []
    assert runner.problems(golden, dict(result, out=result["out"].replace("true", "false", 1)))

    gen = str(tmp_path / "z4.gen")
    family = {"type": "family", "ring": ("Z", 4), "m": 2, "gen": gen}
    fjob = _cli_job(["family", "simplex", "--ring", "Z4", "-m", "2", "--json", "--emit-gen", gen], family)
    cjob = _cli_job(["chain", "--ring", "Z4", "--gen", gen, "--json"],
                    {"type": "chain", "ring": ("Z", 4), "family": family})
    fresult = runner.run(fjob)
    assert runner.problems(fjob, fresult) == []
    cresult = runner.run(cjob)
    assert runner.problems(cjob, cresult) == []
    data = json.loads(fresult["out"])
    data["bounds"][0]["satisfied"] = not data["bounds"][0]["satisfied"]
    assert runner.problems(fjob, dict(fresult, out=json.dumps(data)))
    assert runner.problems(fjob, dict(fresult, rc=2))
    chain = json.loads(cresult["out"])
    chain["stages"][0]["cyclic_size"] += 1
    assert runner.problems(cjob, dict(cresult, out=json.dumps(chain)))


def test_oracle_and_sweep_checks_catch_corruption(runner):
    job = {"kind": "oracle", "slot": "test", "ring": ("Z", 8)}
    result = runner.run(job)
    assert runner.problems(job, result) == []
    bad = list(result["solution"])
    bad[1], bad[4] = bad[4], bad[1]  # Z8 weighs 1 at 1 and 2 at 4
    assert runner.problems(job, dict(result, solution=tuple(bad)))

    job = plan.round_jobs("sweep", 3, 0)[1]
    result = runner.run(job)
    assert runner.problems(job, result) == []
    assert runner.problems(job, dict(result, coset_average=result["coset_average"] + 1))


def test_corrupted_output_counts_as_a_failed_job(tmp_path):
    class Corrupting(worker.Runner):
        def run(self, job):
            result = super().run(job)
            if job["id"] in ("0.5", "0.7"):
                result["coset_average"] += 1
            return result

    records_path = tmp_path / "jobs.jsonl"
    with open(records_path, "w", encoding="utf-8") as records:
        loop = worker.run_rounds(Corrupting(frobcode, "sweep"), "sweep", 4, str(tmp_path), records,
                                 rounds=1)
    assert (loop["rounds"], loop["jobs"], loop["failed"]) == (1, len(plan.round_jobs("sweep", 4, 0)), 2)
    finished = [json.loads(line) for line in records_path.read_text().splitlines()]
    finished = [r for r in finished if "start" not in r]
    assert [r["id"] for r in finished if r["problems"]] == ["0.5", "0.7"]
    assert run._failed(finished) == 2


def test_watchdog_turns_an_overrun_into_a_failed_job(tmp_path):
    out = tmp_path / "overrun"
    run_ = run.run_worker(HERE.parent, out, "sweep", 1, limit_s=2.0, seconds=60.0)
    assert run_["summary"] is None
    failed = [r for r in run_["records"] if r["problems"]]
    assert len(failed) == 1 and "killed by the watchdog" in failed[0]["problems"][0]
    assert len(run_["records"]) > 1  # the jobs finished before the kill are kept


def test_rotating_cpus_pins_the_child_to_one_cpu_at_a_time():
    allowed = os.sched_getaffinity(0)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.5)"])
    try:
        with run.rotating_cpus(child):
            time.sleep(0.2)
            seen = os.sched_getaffinity(child.pid)
    finally:
        child.wait()
    assert seen <= allowed
    assert len(seen) == (1 if len(allowed) > 1 else len(allowed))


def test_setup_probe_builds_the_sweep_rings():
    assert 0 < run.setup_time(HERE.parent, "sweep") < run.SETUP_LIMIT_S


def test_recorded_digest_mismatch_fails_the_job():
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workload = next(iter(recorded))
    seed = next(iter(recorded[workload]))
    job_id, good = next(iter(recorded[workload][seed].items()))
    records = [{"id": job_id, "digest": good, "problems": []},
               {"id": job_id, "digest": "0" * 16, "problems": []}]
    assert run.recorded_digest_problems(workload, int(seed), records) == 1
    assert records[0]["problems"] == [] and records[1]["problems"]
