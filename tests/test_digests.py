"""Stdout of every benchmark job matches the pinned digests.

perfbench/digests.json pins the sha256 of every job's stdout at seed 0.
This test builds each workload's inputs and runs its jobs, in order, with
the in-process CLI in a temporary directory, and compares the digests.  It
only reads perfbench/: the job list comes from workloads.py and the
digests from digests.json.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from discarr.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run(args) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    assert code == 0, " ".join(args)
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", ["census", "monodromy", "planar", "accept"])
def test_seed0_stdout_matches_pinned_digests(name, tmp_path, monkeypatch):
    workload = load_workloads().WORKLOADS[name](0)
    pinned = json.loads((PERFBENCH / "digests.json").read_text())[name]
    monkeypatch.chdir(tmp_path)
    for path, command in workload.inputs:
        (tmp_path / path).write_bytes(run(command))
    for job in workload.jobs:
        out = run(job.args)
        if job.save_as:
            (tmp_path / job.save_as).write_bytes(out)
        assert job.digest(out) == pinned[job.key], job.key
    assert sorted(job.key for job in workload.jobs) == sorted(pinned)
