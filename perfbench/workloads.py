"""The benchmark's workloads: inputs made from the seed, jobs, and their checks.

A workload is a list of `discarr` commands (jobs) run one at a time, each in
a fresh interpreter, plus the `gen`-style commands that make its input files
in set-up.  Every job has a check that parses its stdout, raises `CheckError`
when an invariant fails, and returns the job's work count in the workload's
unit.  Work counts depend only on inputs and outputs, so they do not change
when the program prunes work internally.

Why each workload exists, and what it leaves out on purpose, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from math import comb
from typing import Callable


class CheckError(Exception):
    """A job's output broke one of its invariants."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# A check gets the job's stdout and a dict shared by the jobs of one pass,
# and returns the job's work count.
Check = Callable[[bytes, dict], int]


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    check: Check
    save_as: str | None = None  # stdout becomes this input file for later jobs
    # maps stdout to the bytes whose digest is pinned (masks measured times)
    stable: Callable[[bytes], bytes] | None = None

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def digest(self, out: bytes) -> str:
        """sha256 of the job's stdout, as pinned in digests.json."""
        return hashlib.sha256(self.stable(out) if self.stable else out).hexdigest()

    @property
    def parallel(self) -> bool:
        """Runs worker processes, which the tracer's wrappers cannot reach."""
        args = list(self.args)
        return "--jobs" in args and int(args[args.index("--jobs") + 1]) > 1


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[tuple[str, tuple[str, ...]], ...]  # (file, command writing it)
    jobs: tuple[Job, ...]


def _pairs(n: int, k: int) -> int:
    """C(N, 2) for the N = C(n, k+1) forms of an (n, k) arrangement."""
    return comb(comb(n, k + 1), 2)


def arrangement_check(n: int, k: int) -> Check:
    def check(out: bytes, ctx: dict) -> int:
        doc = json.loads(out)
        require((doc["n"], doc["k"]) == (n, k), f"expected (n,k)=({n},{k})")
        require(
            len(doc["normals"]) == n and all(len(row) == k for row in doc["normals"]),
            "normals matrix has the wrong shape",
        )
        return _pairs(n, k)

    return check


def census_check(n: int, k: int) -> Check:
    def check(out: bytes, ctx: dict) -> int:
        records = json.loads(out)
        kinds = [r["kind"] for r in records]
        require("OTHER" not in kinds, "census has an OTHER stratum")
        good = kinds.count("GOOD")
        require(good == comb(n, k + 2), f"GOOD count {good} != C({n},{k + 2})")
        require(
            all(r["multiplicity"] == len(r["members"]) for r in records),
            "a multiplicity differs from its member count",
        )
        pairs = sum(comb(r["multiplicity"], 2) for r in records)
        require(pairs == _pairs(n, k), f"flats cover {pairs} pairs, not {_pairs(n, k)}")
        return _pairs(n, k)

    return check


def relations_check(n: int, k: int, dependents: int | None) -> Check:
    """Relation families of the census: every pair of forms lies in one flat."""

    def check(out: bytes, ctx: dict) -> int:
        doc = json.loads(out)
        counts = doc["counts"]
        for family in ("full_sets", "dependents", "commuting"):
            require(counts[family] == len(doc[family]), f"{family} count mismatch")
        require(
            counts["full_sets"] == (k + 2) * comb(n, k + 2),
            f"full_sets {counts['full_sets']} != {k + 2} * C({n},{k + 2})",
        )
        if dependents is not None:
            require(counts["dependents"] == dependents, f"expected {dependents} dependents")
        pairs = (
            comb(n, k + 2) * comb(k + 2, 2)
            + counts["dependents"]  # three entries per triple, three pairs each
            + counts["commuting"] // 2  # two ordered entries per crossing
        )
        require(pairs == _pairs(n, k), f"families cover {pairs} pairs, not {_pairs(n, k)}")
        return _pairs(n, k)

    return check


def section_check(n: int, k: int) -> Check:
    def check(out: bytes, ctx: dict) -> int:
        doc = json.loads(out)
        lines = len(doc["lines"])
        require(lines == comb(n, k + 1), f"{lines} section lines, not C({n},{k + 1})")
        pairs = sum(comb(len(p["lines"]), 2) for p in doc["singular_points"])
        require(pairs == comb(lines, 2), "sum C(|P|,2) != C(N,2) over singular points")
        return 0

    return check


def monodromy_check(n: int, k: int, source: str) -> Check:
    def check(out: bytes, ctx: dict) -> int:
        doc = json.loads(out)
        lines = doc["N"]
        require(lines == comb(n, k + 1), f"N={lines}, not C({n},{k + 1})")
        blocks = [len(b["block"]) for b in doc["braids"]]
        require(sum(comb(b, 2) for b in blocks) == comb(lines, 2), "sum C(|P|,2) != C(N,2)")
        ctx[source] = (lines, blocks)
        return 0

    return check


def presentation_check(source: str, reduce: bool) -> Check:
    """Relator count from the blocks the preceding monodromy job reported."""

    def check(out: bytes, ctx: dict) -> int:
        require(source in ctx, f"no monodromy output for {source} earlier in the pass")
        lines, blocks = ctx[source]
        text = out.decode().splitlines()
        gens = " ".join(f"d{j}" for j in range(1, lines + 1))
        require(text[0] == f"generators: {gens}", "generator line mismatch")
        expected = sum(b - 1 if reduce else b for b in blocks)
        relators = len(text) - 1
        require(relators == expected, f"{relators} relators, expected {expected}")
        return relators

    return check


def planar_check(n: int, cap: int) -> Check:
    def check(out: bytes, ctx: dict) -> int:
        doc = json.loads(out)
        expected = sum(comb(comb(n, 3), size) for size in range(1, cap + 1))
        require(doc["n"] == n, f"report for n={doc['n']}")
        require(doc["discrepancies"] == [], f"{len(doc['discrepancies'])} discrepancies")
        require(doc["collections_checked"] == expected, f"expected {expected} collections")
        # the serial and the pooled run of one command must print the same bytes
        require(ctx.setdefault(("planar", n, cap), out) == out, "--jobs changed the report")
        return expected

    return check


ACCEPT_CHECKS = 10
_ELAPSED = re.compile(rb" *\d+\.\d\ds / ")


def _mask_elapsed(out: bytes) -> bytes:
    """`accept` stdout with the measured seconds column masked."""
    return _ELAPSED.sub(b" _s / ", out)


def accept_check(out: bytes, ctx: dict) -> int:
    lines = out.decode().splitlines()
    require(len(lines) == ACCEPT_CHECKS, f"{len(lines)} result lines, not {ACCEPT_CHECKS}")
    failed = [line for line in lines if not line.startswith("PASS ")]
    require(not failed, f"not passed: {failed}")
    return ACCEPT_CHECKS


def census(seed: int) -> Workload:
    """Work: pairs of forms, C(N,2) summed over the jobs' arrangements."""
    s = str(seed)
    return Workload(
        "census",
        inputs=(
            ("g104.json", ("gen", "--n", "10", "--k", "4", "--seed", s)),
            ("g94.json", ("gen", "--n", "9", "--k", "4", "--seed", s)),
        ),
        jobs=(
            Job(("dependent-construct", "--s", "3", "--t", "0", "--seed", s),
                arrangement_check(9, 5), save_as="dep95.json"),
            Job(("relations", "--input", "dep95.json"), relations_check(9, 5, dependents=3)),
            Job(("census", "--input", "g104.json"), census_check(10, 4)),
            Job(("relations", "--input", "g94.json"), relations_check(9, 4, dependents=None)),
        ),
    )


def monodromy(seed: int) -> Workload:
    """Work: relators emitted."""
    s = str(seed)
    jobs = []
    for source, n, k in (("g62.json", 6, 2), ("dep63.json", 6, 3)):
        jobs += [
            Job(("section", "--input", source, "--seed", s), section_check(n, k)),
            Job(("monodromy", "--input", source, "--seed", s), monodromy_check(n, k, source)),
            Job(("presentation", "--input", source, "--seed", s),
                presentation_check(source, reduce=False)),
            Job(("presentation", "--reduce", "--input", source, "--seed", s),
                presentation_check(source, reduce=True)),
        ]
    return Workload(
        "monodromy",
        inputs=(
            ("g62.json", ("gen", "--n", "6", "--k", "2", "--seed", s)),
            ("dep63.json", ("dependent-construct", "--s", "2", "--t", "0", "--seed", s)),
        ),
        jobs=tuple(jobs),
    )


def planar(seed: int) -> Workload:
    """Work: collections checked."""
    s = str(seed)
    return Workload(
        "planar",
        inputs=(),
        jobs=(
            Job(("planar-verify", "--n", "7", "--cap", "4", "--trials", "5", "--seed", s,
                 "--jobs", "1"), planar_check(7, 4)),
            Job(("planar-verify", "--n", "7", "--cap", "4", "--trials", "5", "--seed", s,
                 "--jobs", "2"), planar_check(7, 4)),
            Job(("planar-verify", "--n", "6", "--cap", "5", "--trials", "5", "--seed", s),
                planar_check(6, 5)),
        ),
    )


def accept(seed: int) -> Workload:
    """Work: acceptance checks passed.

    acceptance.py pins its own seeds, so the benchmark seed does not vary it.
    """
    return Workload("accept", inputs=(), jobs=(Job(("accept",), accept_check, stable=_mask_elapsed),))


WORKLOADS = {w.__name__: w for w in (census, monodromy, planar, accept)}
