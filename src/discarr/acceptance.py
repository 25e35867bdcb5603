"""Acceptance suite: exact, seeded, reproducible end-to-end checks.

Each check pins its seeds, asserts exact values (no tolerances anywhere:
every quantity is an integer or a rational), and carries a wall-clock
budget.  The table is printable from the CLI (`discarr accept`) and the same
checks run under pytest in tests/test_acceptance.py.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import chain
from math import comb
from typing import NamedTuple

from .arrangement import GenericArrangement, is_trace_generic, random_generic
from .braid import braids_equal, full_twist, reduce_free
from .discriminantal import (
    DEPENDENT,
    GOOD,
    codim2_census,
    codim_intersection,
    construct_dependent,
    dependent_triples,
)
from .gale import essential_normals_via_gale, gale_disagreements
from .linalg import int_rank
from .monodromy import braid_monodromy, nilpotent_relations, presentation, random_section
from .planar import codim_combinatorial, verify_independence
from .rng import SplitMix64

DEP63_SEED = 11
LIFTED_SEED = 5
CENSUS_SEED = 20260808
SECTION_SEED = 101
GALE_SEED = 747
INVARIANCE_SEED = 100
PLANAR_SEED = 99

DEP63_TRIPLE = ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6))
LIFTED_TRIPLE = ((1, 2, 3, 4, 7, 8), (1, 2, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8))


def _require(cond: bool, msg="") -> None:
    """Fail the running check with `msg`; unlike `assert`, `python -O` keeps it."""
    if not cond:
        raise AssertionError(msg)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str


def _dep63() -> GenericArrangement:
    return construct_dependent(2, 0, seed=DEP63_SEED)


def _sample_nondependent(n: int, k: int, seed: int) -> GenericArrangement:
    for attempt in range(50):
        arr = random_generic(n, k, seed=seed + 1000 * attempt, bound=max(n, 12))
        if not dependent_triples(arr):
            return arr
    raise RuntimeError(f"no dependency-free sample for n={n}, k={k}, seed={seed}")


def _require_codim_two(arr: GenericArrangement, flats) -> None:
    """Each flat's forms meet in codimension 2, by the rank of their rows."""
    for rec in flats:
        codim = codim_intersection(arr, rec.members)
        _require(codim == 2, f"flat {rec.members} has codimension {codim} != 2")


def check_dep63_reproduction() -> str:
    arr = _dep63()
    census = codim2_census(arr)
    dependent = [r for r in census if len(r.members) == 3]
    _require(len(dependent) == 1, f"expected one multiplicity-3 stratum, got {len(dependent)}")
    _require(dependent[0].members == DEP63_TRIPLE, dependent[0].members)
    big = [r for r in census if len(r.members) == 5]
    _require(len(big) == comb(6, 5) == 6, f"expected 6 multiplicity-5 strata, got {len(big)}")
    _require_codim_two(arr, dependent + big)
    return "one multiplicity-3 stratum {1234,1256,3456}, six of multiplicity 5, codim 2"


def check_perturbation() -> str:
    arr = _dep63()
    rng = SplitMix64(DEP63_SEED + 1)
    bound = 14
    for _ in range(200):
        row = [rng.randint(-bound, bound) for _ in range(arr.k)]
        cand = GenericArrangement(arr.n, arr.k, (row,) + arr.normals[1:])
        if not is_trace_generic(cand):
            continue
        if dependent_triples(cand):
            continue
        codim = codim_intersection(cand, DEP63_TRIPLE)
        _require(codim == 3, f"perturbed triple codimension {codim} != 3")
        return "row replacement breaks collinearity: triple codim 2 -> 3"
    raise AssertionError("no non-dependent perturbation found in budget")


def check_generic_census() -> str:
    lines = []
    for n, k in ((6, 3), (7, 3), (7, 4), (8, 4)):
        for i in range(5):
            arr = _sample_nondependent(n, k, CENSUS_SEED + 97 * i)
            census = codim2_census(arr)
            kinds = Counter(r.kind for r in census)
            _require(kinds == {GOOD: comb(n, k + 2)}, f"(n={n},k={k}) seed {i}: {kinds}")
            _require_codim_two(arr, census)
        lines.append(f"({n},{k}): 5 seeds, multiplicity-{k+2} count {comb(n, k+2)}")
    return "; ".join(lines)


def check_lifted_dependency() -> str:
    arr = construct_dependent(2, 2, seed=LIFTED_SEED)
    _require((arr.n, arr.k) == (8, 5))
    census = codim2_census(arr)
    dependent = [r for r in census if r.kind == DEPENDENT]
    _require(len(dependent) == 1 and dependent[0].members == LIFTED_TRIPLE)
    _require(dependent_triples(arr) == [LIFTED_TRIPLE])
    codim = codim_intersection(arr, LIFTED_TRIPLE)
    _require(codim == 2 and arr.n - codim == 6, f"intersection dim {arr.n - codim} != 6")
    return "(8,5) stratum with t=2, s=2; intersection dimension 6"


def check_planar_rigidity() -> str:
    lines = []
    for n, cap in ((5, 5), (6, 5), (7, 4)):
        report = verify_independence(n, cap, trials=5, seed=PLANAR_SEED)
        _require(report["discrepancies"] == [], report["discrepancies"][:3])
        lines.append(f"n={n} cap={cap}: {report['collections_checked']} collections clean")
    return "; ".join(lines)


def check_worked_examples() -> str:
    four_sets = ((1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 8, 9))
    c = codim_combinatorial(four_sets, 9)
    _require(c == 4, f"four-set example codim {c} != 4")
    for n in (5, 8):
        c2 = codim_combinatorial(((1, 2, 3), (1, 4, 5)), n)
        _require(c2 == 2, f"two-set example codim {c2} != 2 at n={n}")
    return "four-set example codim 4; two-set example codim 2"


def check_gale_normals() -> str:
    counts = []
    for n, k in ((6, 3), (7, 3)):
        arr = _sample_nondependent(n, k, GALE_SEED)
        normals = essential_normals_via_gale(arr)  # proportionality asserted inside
        _require(len(normals) == comb(n, k + 1))
        counts.append(f"({n},{k}): {len(normals)} normals proportional")
    return "; ".join(counts)


def check_gale_invariance() -> str:
    wrong = gale_disagreements(INVARIANCE_SEED, 20)
    _require(not wrong, f"disagree with their Gale transform: {wrong}")
    return "40/40 instances agree with their Gale transform"


def check_monodromy_invariants() -> str:
    cases = [
        ("B(4,2)", random_generic(4, 2, seed=21, bound=9)),
        ("B(5,2)", random_generic(5, 2, seed=22, bound=9)),
        ("B(6,3) dependent", _dep63()),
    ]
    lines = []
    for label, arr in cases:
        _, section, points = random_section(arr, seed=SECTION_SEED)
        n_lines = len(section)
        records = braid_monodromy(section, points)
        pair_total = sum(comb(len(p.block), 2) for p, _ in records)
        _require(pair_total == comb(n_lines, 2))
        product = reduce_free(chain.from_iterable(braid.letters for _, braid in records))
        _require(braids_equal(product, full_twist(n_lines), n_lines), label)
        pres = presentation(section, points)
        rank = n_lines - int_rank(pres.exponent_matrix())
        _require(rank == n_lines, f"{label}: abelianization rank {rank} != {n_lines}")
        # with the pair total, the flats fix the number of 2-blocks
        census_mults = Counter(len(r.members) for r in codim2_census(arr))
        block_mults = Counter(len(p.block) for p, _ in records if len(p.block) > 2)
        _require(block_mults == census_mults, f"{label}: {block_mults} vs {census_mults}")
        lines.append(f"{label}: N={n_lines}, {len(records)} points")
    return "; ".join(lines)


def check_nilpotent_relations() -> str:
    instances = [
        ("dep63", _dep63(), True),
        ("lifted", construct_dependent(2, 2, seed=LIFTED_SEED), True),
        ("generic63", _sample_nondependent(6, 3, CENSUS_SEED), False),
        ("generic84", _sample_nondependent(8, 4, CENSUS_SEED), False),
    ]
    lines = []
    for label, arr, has_dependency in instances:
        families = nilpotent_relations(arr)
        census = codim2_census(arr)
        good = sum(len(r.members) for r in census if r.kind == GOOD)
        dep = sum(len(r.members) for r in census if r.kind == DEPENDENT)
        simple = comb(comb(arr.n, arr.k + 1), 2) - sum(comb(len(r.members), 2) for r in census)
        _require(len(families.full_sets) == good)
        _require(len(families.dependents) == dep)
        _require(sum(1 for _ in families.commuting) == 2 * simple)
        _require(bool(families.dependents) == has_dependency, label)
        lines.append(f"{label}: (i)={good} (ii)={dep} (iii)={2 * simple}")
    return "; ".join(lines)


CHECKS = (
    ("dependent-reproduction", 5.0, check_dep63_reproduction),
    ("perturbation", 5.0, check_perturbation),
    ("generic-census", 120.0, check_generic_census),
    ("lifted-dependency", 30.0, check_lifted_dependency),
    ("planar-rigidity", 120.0, check_planar_rigidity),
    ("worked-examples", 1.0, check_worked_examples),
    ("gale-normals", 10.0, check_gale_normals),
    ("gale-invariance", 10.0, check_gale_invariance),
    ("monodromy-invariants", 120.0, check_monodromy_invariants),
    ("nilpotent-relations", 10.0, check_nilpotent_relations),
)


def run_check(name: str, budget: float, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        elapsed = time.perf_counter() - start
        passed = elapsed <= budget
        if not passed:
            detail = f"over budget ({elapsed:.1f}s > {budget:.0f}s): {detail}"
    except (AssertionError, RuntimeError) as exc:
        # a failed check, or a budgeted search that ran out of draws
        elapsed = time.perf_counter() - start
        passed = False
        detail = str(exc) or "assertion failed"
    return CheckResult(name, passed, elapsed, budget, detail)


def run_all() -> list[CheckResult]:
    return [run_check(name, budget, fn) for name, budget, fn in CHECKS]
