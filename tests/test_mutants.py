"""Mutant table: each fast path, replaced by a named wrong variant, must fail
the oracle comparison that guards it.

A row names the attribute of `discarr.discriminantal` it patches, the wrong
variant (made from the real function), a fixed small input and the oracle
the census is compared with.  Each row first checks that the comparison
holds on the real code, so that no row passes vacuously.
"""

import pytest

import discarr.discriminantal as disc
from discarr.discriminantal import GOOD, SIMPLE, build_all, construct_dependent

from _oracles import (
    census_by_minors,
    census_by_pairs,
    census_by_plucker_keys,
    multiplicity_four,
    small_entry_generic,
)


def census_summary(arr):
    """Every flat as (members, multiplicity, kind), as the oracles give them,
    read through the module so that a patched `codim2_census` is compared."""
    census = disc.codim2_census(arr)
    simple = [(pair, 2, SIMPLE) for pair in disc.simple_pairs(arr, census)]
    return [(r.members, len(r.members), r.kind) for r in census] + simple


def drop_first_triple(real):
    return lambda arr: real(arr)[1:]


def merge_nothing(real):
    return lambda triples: (d.members for d in triples)


def omit_good_flat(real):
    def census(arr):
        records = real(arr)
        records.remove(next(r for r in records if r.kind == GOOD))
        return records

    return census


def first_cofactor_row(real):
    return lambda *args: real(*args)[:1]


def dep63():
    return construct_dependent(2, 0, seed=11)


def meet_coincidence():
    # a (9,5) trace with a candidate triple (s = 3, t = 0) whose meet pairs
    # to zero with the first cofactor row of its third group, not the second
    return small_entry_generic(9, 5, seed=0)


MUTANTS = [
    # id, patched attribute, wrong variant, input, oracle
    ("dependent-triples-drops-one", "dependent_triples", drop_first_triple, dep63, census_by_pairs),
    ("census-merges-no-triples", "_merged_triples", merge_nothing, multiplicity_four,
     census_by_plucker_keys),
    ("census-omits-a-good-flat", "codim2_census", omit_good_flat, dep63, census_by_minors),
    ("meet-identity-tests-one-row", "_cofactor_rows", first_cofactor_row, meet_coincidence,
     census_by_pairs),
]


@pytest.mark.parametrize(
    "attr, mutant, make, oracle", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_oracle_kills_mutant(attr, mutant, make, oracle, monkeypatch):
    arr = make()
    forms = [(f.subset, f.coeffs) for f in build_all(arr)]
    expected = oracle(forms, arr.k)
    assert census_summary(arr) == expected
    monkeypatch.setattr(disc, attr, mutant(getattr(disc, attr)))
    assert census_summary(arr) != expected
