"""Acceptance suite: every criterion at its stated budget, one line each."""

import pytest

from discarr import acceptance


@pytest.mark.parametrize(
    "name,budget,fn", acceptance.CHECKS, ids=[c[0] for c in acceptance.CHECKS]
)
def test_criterion(name, budget, fn):
    result = acceptance.run_check(name, budget, fn)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}  ({result.elapsed:.2f}s / {result.budget:.0f}s)  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_failing_check_still_fails_under_optimize():
    # `python -O` strips assert statements; the acceptance checks must not
    # depend on them, so a broken check has to FAIL in an optimized run too
    import os
    import subprocess
    import sys
    from pathlib import Path

    import discarr

    src = str(Path(discarr.__file__).resolve().parent.parent)
    code = (
        "from discarr.acceptance import _require, run_check\n"
        "result = run_check('broken', 60.0, lambda: _require(1 == 2, 'one is not two'))\n"
        "print(__debug__, result.passed, result.detail)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False one is not two\n"


def test_spent_budget_is_a_failed_row(capsys, monkeypatch):
    # a construction that runs out of resamples fails its own checks and no
    # other: all ten rows are printed and `accept` exits 2, not 1
    from discarr import discriminantal
    from discarr.cli import main

    monkeypatch.setattr(discriminantal, "CONSTRUCT_BUDGET", 0)
    code = main(["accept"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 2
    assert [row.split()[1] for row in rows] == [c[0] for c in acceptance.CHECKS]
    failed = [row for row in rows if row.startswith("FAIL")]
    assert len(failed) == 5
    assert all(row.endswith("; try another seed") for row in failed)
    assert sum(row.startswith("PASS") for row in rows) == 5
