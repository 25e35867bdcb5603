"""The benchmark tracer finds every name it wraps.

perfbench/tracer.py looks each traced function up by module and attribute,
and reads the planar memo's size when a command ends; a rename in discarr
would break the traced benchmark runs, so the names are pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
