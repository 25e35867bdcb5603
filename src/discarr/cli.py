"""Command-line surface: JSON in, JSON/text out, fully seed-deterministic.

Exit codes: 0 success, 1 precondition or input failure, 2 a mathematical
discrepancy: an OTHER flat in the census of `census` or `relations`
(trace-generic inputs can carry one; see `discarr.discriminantal`), an
oracle mismatch in `planar-verify` or `gale-invariance`, a failed
cross-check in `gale` or the monodromy sweep, or a failed `accept` check
(a wrong value, or a seeded search that spent its budget).  A discrepancy
raised inside a command is an AssertionError, and `main` alone reports it,
as `discrepancy: <what failed>` on stderr.  Code 2 is not a crash: a flat
outside the classification is the most valuable output the tool can
produce, so it is printed in full and flagged, never swallowed.

Same command, same seed: byte-identical output, on any machine (all
randomness flows from the splitmix64-v1 generator in rng.py).

Every JSON document is `json.dumps(value, sort_keys=True, indent=2) + "\n"`
byte for byte.  Small ones are made by that call.  The large ones (census,
relations, monodromy) are formatted per record from fixed templates, with
each integer row's text memoised, and written about every CHUNK characters,
so the whole document is never held in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, starmap

from .arrangement import arrangement_from_json, arrangement_to_json, random_generic
from .discriminantal import (
    DEPENDENT,
    OTHER,
    SIMPLE,
    codim2_census,
    construct_dependent,
    simple_pairs,
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


CHUNK = 1 << 16  # characters buffered per write


def _opened(output: str | None):
    """The --output file opened for writing, or stdout."""
    if not output:
        return nullcontext(sys.stdout)
    try:
        return open(output, "w")
    except OSError as exc:
        raise ValueError(f"{output}: {exc.strerror}") from None


def _emit(payload, output: str | None) -> None:
    """Write text as is, or a small document as sorted, indented JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with _opened(output) as fh:
        fh.write(payload)


def _write_array(fh, texts, level: int) -> int:
    """The JSON array of the items' texts at nesting depth `level`, written
    about every CHUNK characters, so that a document of large records (a
    braid word is tens of kB at N = 70) is never held whole; returns the count."""
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    head, parts, size, count = "[" + inner, [], 0, 0
    for count, text in enumerate(texts, 1):
        parts.append(text)
        size += len(text)
        if size >= CHUNK:
            fh.write(head + sep.join(parts))
            head, parts, size = sep, [], 0
    if parts:
        fh.write(head + sep.join(parts))
    fh.write(inner[:-2] + "]" if count else "[]")
    return count


def _array(texts, level: int) -> str:
    """The JSON array of the items' texts at nesting depth `level`, whole."""
    inner = "\n" + "  " * (level + 1)
    body = ("," + inner).join(texts)
    return "[" + inner + body + inner[:-2] + "]" if body else "[]"


class _Memo(dict):
    """fn(key) for each key looked up, computed once: a census repeats each
    (k+1)-subset in hundreds of records, and a braid word each letter."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _int_rows(level: int):
    """The memoised text of integer tuples as arrays at depth `level`."""
    return _Memo(lambda row: _array(map(str, row), level)).__getitem__


def _load_arrangement(path: str):
    """The --input arrangement; any failure is a ValueError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return arrangement_from_json(doc)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an over-long integer literal, bad UTF-8, deep nesting, bad content
        raise ValueError(f"{path}: {exc}") from None


def _cmd_gen(args) -> int:
    bound = max(args.n, 10) if args.bound is None else args.bound
    arr = random_generic(args.n, args.k, seed=args.seed, bound=bound)
    _emit(arrangement_to_json(arr), args.output)
    return OK


def _cmd_census(args) -> int:
    arr = _load_arrangement(args.input)
    census = codim2_census(arr)
    simple = ((SIMPLE, pair) for pair in simple_pairs(arr, census))
    with _opened(args.output) as fh:
        _write_census(fh, chain(((r.kind, r.members) for r in census), simple), arr.k)
    if any(r.kind == OTHER for r in census):
        bad = [r for r in census if r.kind == OTHER]
        print(f"UNCLASSIFIED codimension-2 strata found: {bad}", file=sys.stderr)
        return DISCREPANCY
    return OK


def _write_census(fh, records, k: int) -> None:
    """The census from (kind, members) records, one object each: the flats,
    then the SIMPLE pairs; dependent ones also carry t and s = (k+1-t)/2."""
    rows = _int_rows(3)

    def text(kind, members):
        extra = ""
        if kind == DEPENDENT:
            t = len(set(members[0]).intersection(*members[1:]))
            extra = f',\n    "s": {(k + 1 - t) // 2},\n    "t": {t}'
        body = ",\n      ".join(map(rows, members))  # _array, never empty
        return (
            f'{{\n    "kind": "{kind}",\n    "members": [\n      {body}\n    ],'
            f'\n    "multiplicity": {len(members)}{extra}\n  }}'
        )

    _write_array(fh, starmap(text, records), 0)
    fh.write("\n")


def _cmd_dependent_construct(args) -> int:
    arr = construct_dependent(args.s, args.t, seed=args.seed)
    _emit(arrangement_to_json(arr), args.output)
    return OK


def _cmd_gale(args) -> int:
    arr = _load_arrangement(args.input)
    normals = essential_normals_via_gale(arr)
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
    braids = (
        (pt.block, pt.s, braid.letters) for pt, braid in braid_monodromy(lines, points)
    )
    with _opened(args.output) as fh:
        _write_monodromy(fh, len(lines), braids)
    return OK


def _write_monodromy(fh, n: int, braids) -> None:
    """{"N": n, "braids": [...]}, one object per (block, s, word)."""
    letters = _Memo(str).__getitem__

    def text(braid):
        block, s, word = braid
        return (
            f'{{\n      "block": {_array(map(str, block), 3)},\n      "s": "{_frac(s)}",'
            f'\n      "word": {_array(map(letters, word), 3)}\n    }}'
        )

    fh.write(f'{{\n  "N": {n},\n  "braids": ')
    _write_array(fh, map(text, braids), 1)
    fh.write("\n}\n")


def _cmd_presentation(args) -> int:
    pres = presentation(*_section(args), reduce_relators=args.reduce)
    _emit(presentation_to_text(pres), args.output)
    return OK


def _cmd_relations(args) -> int:
    arr = _load_arrangement(args.input)
    families = nilpotent_relations(arr)
    with _opened(args.output) as fh:
        _write_relations(fh, families)
    return OK


def _write_relations(fh, families) -> None:
    """The three families as arrays of {"J": ..., "K" or "triple": ...}, and
    their sizes; the commuting family is counted as it is written."""
    rows, subsets = _int_rows(3), _int_rows(4)
    triples = _Memo(lambda members: _array(map(subsets, members), 3)).__getitem__

    def pairs(family, key, value):
        for j, x in family:
            yield f'{{\n      "J": {rows(j)},\n      "{key}": {value(x)}\n    }}'

    fh.write('{\n  "commuting": ')
    commuting = _write_array(fh, pairs(families.commuting, "K", rows), 1)
    fh.write(
        f',\n  "counts": {{\n    "commuting": {commuting},'
        f'\n    "dependents": {len(families.dependents)},'
        f'\n    "full_sets": {len(families.full_sets)}\n  }},\n  "dependents": '
    )
    _write_array(fh, pairs(families.dependents, "triple", triples), 1)
    fh.write(',\n  "full_sets": ')
    _write_array(fh, pairs(families.full_sets, "K", rows), 1)
    fh.write("\n}\n")


def _cmd_accept(args) -> int:
    from . import acceptance  # only this command loads the suite

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
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PRECONDITION
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION
    except AssertionError as exc:
        print(f"discrepancy: {exc}", file=sys.stderr)
        return DISCREPANCY


if __name__ == "__main__":
    sys.exit(main())
