"""Run one discarr command with timing wrappers around its public functions.

    python3 perfbench/tracer.py SPANS.json <discarr arguments...>

The wrappers are installed from outside the package, so no code under
`src/` changes.  Every module-level binding of a traced function is replaced
(`from .linalg import int_rank` copies the name into `discriminantal` and
`planar`), and `QMatrix` methods are replaced on the class.  Each call
records a span [name index, parent span, start ns, end ns, *counters] in
memory; the spans are written to SPANS.json when the command ends.  The
command's stdout and exit code are those of `discarr` itself.

`summarize` turns one spans document into per-name call counts, total and
self time (a span's time minus the time of its child spans), and counters.
It imports nothing from discarr, so the benchmark runner can use it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps
from math import comb


def _forms(args, kwargs, result):
    return (len(result),)


def _census(args, kwargs, result):
    arr = args[0]
    return (comb(comb(arr.n, arr.k + 1), 2), len(result))


def _braid_letters(args, kwargs, result):
    return (sum(len(braid.letters) for _, braid in result),)


def _relators(args, kwargs, result):
    return (len(result.relators),)


def _word_letters(args, kwargs, result):
    return (len(args[0]),)


_nullspace_inputs: set = set()


def _nullspace_input(args, kwargs, result):
    _nullspace_inputs.add(args[0].entries)
    return ()


# (span name, module, attribute, counters recorded per call, counter function)
TRACED = (
    ("linalg.rref", "discarr.linalg", "QMatrix.rref", (), None),
    ("linalg.nullspace", "discarr.linalg", "QMatrix.nullspace_basis", (), _nullspace_input),
    ("linalg.rank", "discarr.linalg", "QMatrix.rank", (), None),
    ("linalg.det", "discarr.linalg", "QMatrix.det", (), None),
    ("linalg.int_rank", "discarr.linalg", "int_rank", (), None),
    ("arrangement.is_trace_generic", "discarr.arrangement", "is_trace_generic", (), None),
    ("discriminantal.build_all", "discarr.discriminantal", "build_all", ("forms",), _forms),
    ("discriminantal.census", "discarr.discriminantal", "codim2_census", ("pairs", "flats"), _census),
    ("discriminantal.dependent_triples", "discarr.discriminantal", "dependent_triples", (), None),
    ("discriminantal.construct_dependent", "discarr.discriminantal", "construct_dependent", (), None),
    ("monodromy.random_section", "discarr.monodromy", "random_section", (), None),
    ("monodromy.section_lines", "discarr.monodromy", "section_lines", (), None),
    ("monodromy.singular_points", "discarr.monodromy", "singular_points", (), None),
    ("monodromy.braid_monodromy", "discarr.monodromy", "braid_monodromy", ("letters",), _braid_letters),
    ("monodromy.presentation", "discarr.monodromy", "presentation", ("relators",), _relators),
    ("monodromy.nilpotent_relations", "discarr.monodromy", "nilpotent_relations", (), None),
    ("braid.artin_images", "discarr.braid", "artin_images", ("letters",), _word_letters),
    ("braid.reduce_free", "discarr.braid", "reduce_free", (), None),
    ("planar.verify_independence", "discarr.planar", "verify_independence", (), None),
    ("planar.dim_combinatorial", "discarr.planar", "dim_combinatorial", (), None),
    ("gale.essential_normals", "discarr.gale", "essential_normals_via_gale", (), None),
    ("gale.partition_search", "discarr.gale", "concurrent_partition_exists", (), None),
    ("gale.partition_search", "discarr.gale", "pencil_partition_exists", (), None),
    ("cli", "discarr.cli", "main", (), None),
)

# Counters a span derives from its children: (name, child span, parent span).
CHILD_COUNTS = (
    # each resampled section plane is validated by one section_lines call
    ("monodromy.random_section.draws", "monodromy.section_lines", "monodromy.random_section"),
    # each candidate arrangement the construction loop builds is tested once
    (
        "discriminantal.construct_dependent.attempts",
        "arrangement.is_trace_generic",
        "discriminantal.construct_dependent",
    ),
)

_spans: list = []
_stack: list[int] = [-1]


def _wrap(index: int, fn, counter):
    @wraps(fn)
    def traced(*args, **kwargs):
        record = [index, _stack[-1], 0, 0]
        _stack.append(len(_spans))
        _spans.append(record)
        record[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            _stack.pop()
        if counter is not None:
            record.extend(counter(args, kwargs, result))
        return result

    return traced


def install() -> None:
    """Replace every binding of each traced function with its wrapper."""
    importlib.import_module("discarr.cli")  # imports every discarr module
    modules = [
        mod for name, mod in sys.modules.items()
        if name == "discarr" or name.startswith("discarr.")
    ]
    for index, (_, module, attr, _, counter) in enumerate(TRACED):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, _wrap(index, cls.__dict__[method], counter))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(index, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _write(path: str) -> None:
    planar = sys.modules["discarr.planar"]
    doc = {
        "names": [row[0] for row in TRACED],
        "counters": [list(row[3]) for row in TRACED],
        "spans": _spans,
        "gauges": {
            "linalg.nullspace.distinct": len(_nullspace_inputs),
            "planar.memo_entries": len(planar._memo),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def summarize(doc: dict) -> dict[str, float]:
    """Flat totals of one spans document.

    Keys are `<span>.calls`, `<span>.self_s`, `<span>.<counter>` (summed),
    every `CHILD_COUNTS` name, and the gauges.
    """
    names = doc["names"]
    counters = doc["counters"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for _, parent, start, end, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    self_ns: dict[str, int] = {}

    def add(key: str, value: int) -> None:
        out[key] = out.get(key, 0) + value

    for sid, (index, parent, start, end, *counts) in enumerate(spans):
        name = names[index]
        add(f"{name}.calls", 1)
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[sid]
        for counter, value in zip(counters[index], counts):
            add(f"{name}.{counter}", value)
    for name, ns in self_ns.items():
        out[f"{name}.self_s"] = ns / 1e9
    for key, child, parent in CHILD_COUNTS:
        out[key] = sum(
            1 for index, parent_sid, *_ in spans
            if names[index] == child
            and parent_sid >= 0
            and names[spans[parent_sid][0]] == parent
        )
    for key, value in doc["gauges"].items():
        add(key, value)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    install()
    try:
        return sys.modules["discarr.cli"].main(cli_args)
    finally:
        _write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
