"""Command-line surface: JSON in, JSON/text out, fully seed-deterministic.

Exit codes: 0 success, 1 precondition or input failure, 2 a mathematical
discrepancy (an unclassified stratum, an oracle mismatch, a failed
cross-check).  Code 2 is not a crash: a falsifier of the classification is
the most valuable output the tool can produce, so it is printed in full and
flagged, never swallowed.

Same command, same seed: byte-identical output, on any machine (all
randomness flows from the splitmix64-v1 generator in rng.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii

from . import acceptance
from .arrangement import arrangement_from_json, arrangement_to_json, random_generic
from .discriminantal import (
    DEPENDENT,
    OTHER,
    codim2_census,
    construct_dependent,
)
from .gale import essential_normals_via_gale, gale_disagreements
from .monodromy import (
    braid_monodromy,
    nilpotent_relations,
    presentation,
    presentation_to_text,
    random_section,
)
from .planar import verify_independence

OK, PRECONDITION, DISCREPANCY = 0, 1, 2


class _Fields(tuple):
    """(key, value) pairs in key order, written as a JSON object."""


_SCALARS = (str, int, float, type(None))  # bool is an int


def _pairs(value):
    """An object's (key, value) pairs in output order, or None for an array."""
    if isinstance(value, dict):
        return sorted(value.items())
    if isinstance(value, _Fields):
        return value
    return None


class _JsonWriter:
    """Writes `json.dumps(value, sort_keys=True, indent=2) + "\\n"` in chunks.

    Takes what that call takes here (dicts with str keys, lists, tuples,
    str, int, bool, None, float) and two lazy forms, so that large outputs
    are formatted straight from their records and never held whole: any
    other iterable is an array, and `_Fields` an object.  The top-level
    value and every lazy array go out item by item; each item is formatted
    whole.  Strings are escaped by the stdlib's own `encode_basestring_ascii`.
    """

    CHUNK = 1024  # pieces buffered per write

    def __init__(self, fh):
        self._fh = fh
        self._parts: list[str] = []
        # (level, integer tuple) -> text: a census repeats each (k+1)-subset
        # in hundreds of records
        self._rows: dict[tuple, str] = {}

    def document(self, value) -> None:
        self._stream(value, 0)
        self._parts.append("\n")
        self._fh.write("".join(self._parts))
        self._parts.clear()

    def _put(self, text: str) -> None:
        self._parts.append(text)
        if len(self._parts) >= self.CHUNK:
            self._fh.write("".join(self._parts))
            self._parts.clear()

    def _stream(self, value, level: int) -> None:
        concrete = isinstance(value, (dict, list, tuple))
        if isinstance(value, _SCALARS) or (level > 0 and concrete):
            self._put(self._text(value, level))
            return
        outer = "\n" + "  " * level
        inner = outer + "  "
        pairs = _pairs(value)
        if pairs is not None:
            brackets, sep = "{}", "{" + inner
            for key, item in pairs:
                self._put(sep + encode_basestring_ascii(key) + ": ")
                self._stream(item, level + 1)
                sep = "," + inner
        else:
            brackets, sep = "[]", "[" + inner
            for item in value:
                self._put(sep)
                self._stream(item, level + 1)
                sep = "," + inner
        self._put(outer + brackets[1] if sep[0] == "," else brackets)

    def _text(self, value, level: int) -> str:
        """`value` formatted whole, laid out for nesting depth `level`."""
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if isinstance(value, _SCALARS):
            return json.dumps(value)
        outer = "\n" + "  " * level
        inner = outer + "  "
        if kind is tuple and value and all(type(x) is int for x in value):
            text = self._rows.get((level, value))
            if text is None:
                text = "[" + inner + ("," + inner).join(map(str, value)) + outer + "]"
                self._rows[level, value] = text
            return text
        pairs = _pairs(value)
        if pairs is not None:
            if not pairs:
                return "{}"
            body = [
                encode_basestring_ascii(key) + ": " + self._text(item, level + 1)
                for key, item in pairs
            ]
            return "{" + inner + ("," + inner).join(body) + outer + "}"
        body = [self._text(item, level + 1) for item in value]
        if not body:
            return "[]"
        return "[" + inner + ("," + inner).join(body) + outer + "]"


def _emit(payload, output: str | None) -> None:
    """Write text as is, or anything else through _JsonWriter."""
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            _JsonWriter(fh).document(payload)


def _load_arrangement(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    try:
        return arrangement_from_json(doc)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def _cmd_gen(args) -> int:
    bound = max(args.n, 10) if args.bound is None else args.bound
    arr = random_generic(args.n, args.k, seed=args.seed, bound=bound)
    _emit(arrangement_to_json(arr), args.output)
    return OK


def _cmd_census(args) -> int:
    arr = _load_arrangement(args.input)
    records = codim2_census(arr)
    _emit((_census_fields(rec, arr.k) for rec in records), args.output)
    if any(r.kind == OTHER for r in records):
        bad = [r for r in records if r.kind == OTHER]
        print(f"UNCLASSIFIED codimension-2 strata found: {bad}", file=sys.stderr)
        return DISCREPANCY
    return OK


def _census_fields(rec, k: int) -> _Fields:
    """One census record; dependent ones also carry t and s = (k+1-t)/2."""
    fields = (("kind", rec.kind), ("members", rec.members), ("multiplicity", rec.multiplicity))
    if rec.kind == DEPENDENT:
        t = len(set(rec.members[0]).intersection(*rec.members[1:]))
        fields += (("s", (k + 1 - t) // 2), ("t", t))
    return _Fields(fields)


def _cmd_dependent_construct(args) -> int:
    arr = construct_dependent(args.s, args.t, seed=args.seed)
    _emit(arrangement_to_json(arr), args.output)
    return OK


def _cmd_gale(args) -> int:
    arr = _load_arrangement(args.input)
    try:
        normals = essential_normals_via_gale(arr)
    except AssertionError as exc:
        print(f"gale cross-check failed: {exc}", file=sys.stderr)
        return DISCREPANCY
    _emit(
        {
            "n": arr.n,
            "k": arr.k,
            "verified_proportional": True,
            "normals": [{"K": list(subset), "normal": list(vec)} for subset, vec in normals],
        },
        args.output,
    )
    return OK


def _cmd_gale_invariance(args) -> int:
    disagreements = gale_disagreements(args.seed, args.trials)
    _emit(
        {
            "trials_each": args.trials,
            "disagreements": disagreements,
        },
        args.output,
    )
    return DISCREPANCY if disagreements else OK


def _cmd_planar_verify(args) -> int:
    report = verify_independence(
        args.n, args.cap, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    _emit(report, args.output)
    return DISCREPANCY if report["discrepancies"] else OK


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cmd_section(args) -> int:
    arr = _load_arrangement(args.input)
    plane, lines, points = random_section(arr, seed=args.seed)
    _emit(
        {
            "plane": {
                "t_coeffs": [_frac(x) for x in plane.t_coeffs],
                "s_coeffs": [_frac(x) for x in plane.s_coeffs],
                "consts": [_frac(x) for x in plane.consts],
            },
            "lines": [
                {"K": list(l.subset), "u": _frac(l.u), "v": _frac(l.v), "w": _frac(l.w)}
                for l in lines
            ],
            "singular_points": [
                {"s": _frac(p.s), "t": _frac(p.t), "lines": list(p.block)}
                for p in points
            ],
        },
        args.output,
    )
    return OK


def _section(args):
    """The lines and singular points of the input's generic section."""
    _, lines, points = random_section(_load_arrangement(args.input), seed=args.seed)
    return lines, points


def _cmd_monodromy(args) -> int:
    lines, points = _section(args)
    records = braid_monodromy(lines, points)
    # words go out as lists: the writer keeps the text of every int tuple
    braids = (
        _Fields((("block", list(pt.block)), ("s", _frac(pt.s)), ("word", list(braid.letters))))
        for pt, braid in records
    )
    _emit({"N": len(lines), "braids": braids}, args.output)
    return OK


def _cmd_presentation(args) -> int:
    pres = presentation(*_section(args), reduce_relators=args.reduce)
    _emit(presentation_to_text(pres), args.output)
    return OK


def _objects(keys, rows):
    """Each row as a JSON object with the given (sorted) keys, lazily."""
    return (_Fields(zip(keys, row)) for row in rows)


def _cmd_relations(args) -> int:
    arr = _load_arrangement(args.input)
    try:
        families = nilpotent_relations(arr)
    except AssertionError as exc:
        print(f"census cross-check failed: {exc}", file=sys.stderr)
        return DISCREPANCY
    _emit(
        {
            "full_sets": _objects(("J", "K"), families.full_sets),
            "dependents": _objects(("J", "triple"), families.dependents),
            "commuting": _objects(("J", "K"), families.commuting),
            "counts": {
                "full_sets": len(families.full_sets),
                "dependents": len(families.dependents),
                "commuting": len(families.commuting),
            },
        },
        args.output,
    )
    return OK


def _cmd_accept(args) -> int:
    results = acceptance.run_all()
    rows = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:22s} {res.elapsed:7.2f}s / {res.budget:5.0f}s  {res.detail}")
        rows.append(
            {
                "name": res.name,
                "passed": res.passed,
                "elapsed_s": round(res.elapsed, 3),
                "budget_s": res.budget,
                "detail": res.detail,
            }
        )
    if args.output:
        _emit({"results": rows}, args.output)
    return OK if all(r.passed for r in results) else DISCREPANCY


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: code 2 is reserved for discrepancies."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(PRECONDITION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discarr",
        description="Exact toolkit for discriminantal arrangements of generic traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", metavar="FILE")
        return p

    def seeded(name, fn, **kwargs):
        p = add(name, fn, **kwargs)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = seeded("gen", _cmd_gen, help="sample a trace-generic arrangement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int)

    p = add("census", _cmd_census, help="codimension-2 stratum census")
    p.add_argument("--input", required=True, metavar="FILE")

    p = seeded("dependent-construct", _cmd_dependent_construct,
               help="build an arrangement with a dependent triple")
    p.add_argument("--s", type=int, required=True, help="group size (>= 2)")
    p.add_argument("--t", type=int, default=0, help="shared hyperplane count (>= 0)")

    p = add("gale", _cmd_gale, help="essential normals via the Gale transform")
    p.add_argument("--input", required=True, metavar="FILE")

    p = seeded("gale-invariance", _cmd_gale_invariance,
               help="concurrent-partition invariance under Gale transform")
    p.add_argument("--trials", type=int, default=20)

    p = seeded("planar-verify", _cmd_planar_verify,
               help="k=2 rank oracle vs combinatorial dimension formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)

    p = seeded("section", _cmd_section, help="generic plane section: lines and singular points")
    p.add_argument("--input", required=True, metavar="FILE")

    p = seeded("monodromy", _cmd_monodromy, help="braid monodromy of a generic section")
    p.add_argument("--input", required=True, metavar="FILE")

    p = seeded("presentation", _cmd_presentation, help="fundamental group presentation")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--reduce", action="store_true",
                   help="drop the dependent relator of each singular point")

    p = add("relations", _cmd_relations, help="nilpotent completion relation families")
    p.add_argument("--input", required=True, metavar="FILE")

    add("accept", _cmd_accept, help="run the acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION
    except AssertionError as exc:
        print(f"discrepancy: {exc}", file=sys.stderr)
        return DISCREPANCY


if __name__ == "__main__":
    sys.exit(main())
