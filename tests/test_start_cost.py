"""What a command's interpreter loads before it does any work.

Every `discarr` command runs in a fresh interpreter, so each module that
`import discarr.cli` pulls in is paid per command.  No command needs
`dataclasses` (the records are named tuples), and only `accept` needs the
acceptance suite, which `cli` imports inside that command; `planar-verify
--jobs` forks its children directly, without `multiprocessing`.  The benchmark
tracer wraps the functions of the modules loaded by then; the suite's
`from .x import f` bindings, made later, still pick the wrappers up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run(*argv):
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_neither_dataclasses_nor_the_acceptance_suite():
    # -S: no site module, so nothing outside discarr and the stdlib it uses
    out = run(
        "-S", "-c",
        "import sys, discarr.cli;"
        "print(sorted({'dataclasses', 'discarr.acceptance'} & set(sys.modules)))",
    )
    assert out == "[]\n"


def test_acceptance_imported_after_tracer_install_is_wrapped():
    tracer = ROOT / "perfbench" / "tracer.py"
    out = run(
        "-c",
        "import importlib.util, sys;"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(tracer)!r});"
        "tracer = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracer);"
        "tracer.install();"
        "assert 'discarr.acceptance' not in sys.modules;"
        "import discarr.acceptance as acceptance;"
        "print(hasattr(acceptance.codim2_census, '__wrapped__'))",
    )
    assert out == "True\n"


def test_planar_verify_with_jobs_never_imports_multiprocessing(tmp_path):
    # two CPUs in the affinity mask, so the command forks a share on any machine
    report = tmp_path / "report.json"
    out = run(
        "-S", "-c",
        "import os, sys, discarr.cli;"
        "os.sched_getaffinity = lambda pid: {0, 1};"
        "code = discarr.cli.main(['planar-verify', '--n', '5', '--cap', '2', '--trials', '2',"
        f" '--jobs', '2', '--output', {str(report)!r}]);"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'))",
    )
    assert out == "0 []\n"
    assert json.loads(report.read_text())["discrepancies"] == []
