"""The benchmark tracer finds every name it wraps.

perfbench/tracer.py looks each traced function up by module and attribute,
and reads the planar memo's size when a command ends; a rename in discarr
would break the traced benchmark runs, so the names are pinned here.  Its
counters read the traced functions' results, so a traced run of the
monodromy path pins their return shapes too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for span, module, attr, _, _ in load_tracer().TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span


def test_planar_memo_is_a_module_dict():
    planar = importlib.import_module("discarr.planar")
    assert isinstance(planar._memo, dict)


def test_tracer_counts_the_monodromy_path(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def discarr(*argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
        )

    arr = str(tmp_path / "dep63.json")
    made = discarr(
        "-m", "discarr.cli", "dependent-construct",
        "--s", "2", "--t", "0", "--seed", "11", "--output", arr,
    )
    assert made.returncode == 0, made.stderr
    summaries = {}
    for command in ("monodromy", "presentation"):
        plain = discarr("-m", "discarr.cli", command, "--input", arr)
        spans = tmp_path / f"{command}.json"
        traced = discarr(str(TRACER), str(spans), command, "--input", arr)
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        summaries[command] = load_tracer().summarize(json.loads(spans.read_text()))
    assert summaries["monodromy"]["monodromy.braid_monodromy.letters"] > 0
    assert summaries["presentation"]["monodromy.presentation.relators"] > 0
