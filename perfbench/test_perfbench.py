"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They use small inputs, so they run in well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads
from workloads import CheckError, Job, Workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_workload() -> Workload:
    """One job per traced layer family, each well under a second."""
    return Workload(
        "small",
        inputs=(
            ("g63.json", ("gen", "--n", "6", "--k", "3", "--seed", "3")),
            ("g42.json", ("gen", "--n", "4", "--k", "2", "--seed", "3")),
        ),
        jobs=(
            Job(("dependent-construct", "--s", "2", "--t", "0", "--seed", "3"),
                workloads.arrangement_check(6, 3), save_as="dep63.json"),
            Job(("relations", "--input", "dep63.json"), workloads.relations_check(6, 3, 3)),
            Job(("census", "--input", "g63.json"), workloads.census_check(6, 3)),
            Job(("monodromy", "--input", "g42.json", "--seed", "3"),
                workloads.monodromy_check(4, 2, "g42.json")),
            Job(("presentation", "--input", "g42.json", "--seed", "3"),
                workloads.presentation_check("g42.json", reduce=False)),
            Job(("planar-verify", "--n", "5", "--cap", "2", "--trials", "2", "--seed", "3"),
                workloads.planar_check(5, 2)),
        ),
    )


@pytest.fixture
def runner(tmp_path):
    r = run.Runner(small_workload(), 3, tmp_path, time.perf_counter(), None)
    r.setup()
    return r


def counters(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


def test_traced_counters_repeat_and_stdout_is_unchanged(runner):
    first, second = runner.run_pass(trace=True), runner.run_pass(trace=True)
    assert first.failed == second.failed == 0
    for a, b in zip(first.jobs, second.jobs):
        assert a.traced and a.summary["cli.calls"] == 1
        assert counters(a.summary) == counters(b.summary), a.job.key
    # every job's stdout matches the same command run without the benchmark
    ctx: dict = {}
    for job in runner.workload.jobs:
        runner.run_job(job, ctx, traced=True)
        traced_out = (runner.work / (job.save_as or "stdout.txt")).read_bytes()
        direct = subprocess.run(
            [sys.executable, "-m", "discarr.cli", *job.args],
            cwd=runner.work, env=runner.env, capture_output=True, check=True,
        )
        assert direct.stdout == traced_out, job.key


def test_paused_job_keeps_its_output(runner):
    samples: list[float] = []
    code = "import time\nend = time.time() + 2.5\nwhile time.time() < end: pass\nprint('done')"
    result = runner._spawn([sys.executable, "-c", code], runner.work / "out.txt", samples)
    assert result[0] == 0 and (runner.work / "out.txt").read_text() == "done\n"
    assert len(samples) >= 2  # paused about once a second
    assert 2.0 < result[1] < 2.6  # wall time without the pauses


def test_per_layer_metrics_cover_the_spec(runner):
    untraced, traced = runner.run_pass(trace=False), runner.run_pass(trace=True)
    values = run.per_layer(untraced, traced, startup_s=0.1)
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["discriminantal.construct_dependent.attempts"] >= 1
    assert 0 < values["discriminantal.construct_dependent.useful_frac"] <= 1
    assert values["monodromy.random_section.draws"] >= 2  # monodromy + presentation
    assert values["discriminantal.census.pairs"] > 0
    assert values["planar.memo_entries"] > 0


def test_end_to_end_metrics_cover_the_spec(runner):
    values = run.end_to_end([runner.run_pass(trace=False)], setup_s=0.1)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())


def test_summarize_self_time():
    doc = {
        "names": ["outer", "inner"],
        "counters": [[], ["items"]],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 30, 4], [1, 0, 40, 50, 6]],
        "gauges": {"memo": 3},
    }
    out = tracer.summarize(doc)
    assert out["outer.calls"] == 1 and out["inner.calls"] == 2
    assert out["outer.self_s"] == pytest.approx(70e-9)
    assert out["inner.self_s"] == pytest.approx(30e-9)
    assert out["inner.items"] == 10 and out["memo"] == 3


def test_checks_reject_broken_output(runner):
    ctx: dict = {}
    out = (runner.work / "g63.json").read_bytes()
    assert workloads.arrangement_check(6, 3)(out, ctx) == 105
    with pytest.raises(CheckError):
        workloads.arrangement_check(7, 3)(out, ctx)
    records = [{"members": [[1, 2, 3, 4]] * 2, "multiplicity": 2, "kind": "OTHER"}]
    with pytest.raises(CheckError):
        workloads.census_check(6, 3)(json.dumps(records).encode(), ctx)
    ctx["x.json"] = (3, [2, 2, 2])
    with pytest.raises(CheckError):
        workloads.presentation_check("x.json", reduce=False)(b"generators: d1 d2 d3\nd1\n", ctx)
    with pytest.raises(CheckError):
        workloads.accept_check(b"PASS  a\nFAIL  b\n", ctx)


def test_digests_cover_every_job_at_the_default_seed():
    pinned = json.loads((run.HERE / "digests.json").read_text())
    assert set(pinned) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name, make in workloads.WORKLOADS.items():
        assert set(pinned[name]) == {job.key for job in make(run.DEFAULT_SEED).jobs}


def bench(cwd, *extra, env=None):
    return subprocess.run(
        [sys.executable, *extra, "perfbench/run.py", "--workload", "planar",
         "--seconds", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_refuses_to_run_optimized():
    for extra, env in ((("-O",), None), ((), dict(os.environ, PYTHONOPTIMIZE="1"))):
        proc = bench(run.ROOT, *extra, env=env)
        assert proc.returncode != 0 and proc.stdout == ""
        assert "refusing" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
