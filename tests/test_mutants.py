"""Mutant table: each fast path, replaced by a named wrong variant, must fail
the oracle comparison that guards it.

A row names the module and attribute it patches, the wrong variant (made
from the real function, or written beside it where the real one's result
no longer holds what the mutant drops) and the comparison, which holds
exactly when the code agrees with its oracle on a fixed small input.  Each
row first checks that the comparison holds on the real code, so that no row
passes vacuously.
"""

from functools import cache
from itertools import chain, combinations
from math import gcd

import pytest

import discarr.braid as braid
import discarr.discriminantal as disc
import discarr.planar as planar
from discarr.discriminantal import GOOD, SIMPLE, build_all, construct_dependent

from _oracles import (
    census_by_minors,
    census_by_pairs,
    census_by_plucker_keys,
    dim_by_tuple_formula,
    dims_by_rank,
    multiplicity_four,
    small_entry_generic,
)


def census_summary(arr):
    """Every flat as (members, multiplicity, kind), as the oracles give them,
    read through the module so that a patched `codim2_census` is compared."""
    census = disc.codim2_census(arr)
    simple = [(pair, 2, SIMPLE) for pair in disc.simple_pairs(arr, census)]
    return [(r.members, len(r.members), r.kind) for r in census] + simple


def census_agrees(make, oracle):
    """The census of `make()` equals the oracle's, from the same forms; the
    input is made once, before any patch (`construct_dependent` runs the
    search that a mutant may break)."""
    make = cache(make)

    def agrees():
        arr = make()
        forms = [(f.subset, f.coeffs) for f in build_all(arr)]
        return census_summary(arr) == oracle(forms, arr.k)

    return agrees


def walk_agrees(slopes, n, cap):
    """The rank walk's dims equal `dims_by_rank`, collection by collection."""

    def agrees():
        triples = list(combinations(range(1, n + 1), 3))
        sizes = range(1, cap + 1)
        by_size = chain.from_iterable(combinations(triples, size) for size in sizes)
        oracle = dict(zip(by_size, dims_by_rank(slopes, n, cap)))
        walked = planar._check_trace((slopes, n, cap))
        return walked == [oracle[coll] for coll in planar._preorder(triples, cap)]

    return agrees


def formula_walk_agrees(n, cap):
    """The formula walk's dims equal `dim_combinatorial`, collection by collection."""

    def agrees():
        triples = list(combinations(range(1, n + 1), 3))
        walked = planar._formula_dims(n, cap)
        return walked == [planar.dim_combinatorial(c, n) for c in planar._preorder(triples, cap)]

    return agrees


def formula_agrees(family, n):
    """`dim_combinatorial` equals the tuple formula on one family."""
    return lambda: planar.dim_combinatorial(family, n) == dim_by_tuple_formula(family, n)


def drop_first_triple(real):
    return lambda arr: real(arr)[1:]


def merge_nothing(real):
    return lambda triples: iter(triples)


def omit_good_flat(real):
    def census(arr):
        records = real(arr)
        records.remove(next(r for r in records if r.kind == GOOD))
        return records

    return census


def first_cofactor_row(real):
    return lambda *args: real(*args)[:1]


def unsigned_keys(real):
    # the key of a column without its sign fixed: two opposite parallel
    # columns get two keys, so the pair of forms seems to add two ranks
    def keys(pairs, basis):
        if len(basis) == 1:
            return real(pairs, basis)
        cols = ([w[a] * x + w[b] * y + w[c] * z for w in basis] for a, x, b, y, c, z in pairs)
        return [tuple(v // gcd(*col) for v in col) if any(col) else None for col in cols]

    return keys


def codim_off_by_one(real):
    # one too many on a non-closed family of two or more classes
    def codim(family):
        covered = shared = 0
        for c in family:
            shared |= covered & c
            covered |= c
        return real(family) + (len(family) >= 2 and covered != shared)

    return codim


def row_without_offset(real):
    # a node reads its class family's last-level row from the row's first
    # entry, not from its own start: the right length, shifted values
    def last_row(triples, start, classes, n, rows):
        suffix = real(triples, start, classes, n, rows)
        return rows.get(classes, (start, suffix))[1][: len(suffix)]

    return last_row


def no_free_cancellation(real):
    return lambda word, images: tuple(y for x in word for y in images.get(x, (x,)))


def dep63():
    return construct_dependent(2, 0, seed=11)


def meet_coincidence():
    # a (9,5) trace with a candidate triple (s = 3, t = 0) whose meet pairs
    # to zero with the first cofactor row of its third group, not the second
    return small_entry_generic(9, 5, seed=0)


MUTANTS = [
    # id, patched module, attribute, wrong variant, comparison
    ("dependent-triples-drops-one", disc, "dependent_triples", drop_first_triple,
     census_agrees(dep63, census_by_pairs)),
    ("census-merges-no-triples", disc, "_merged_triples", merge_nothing,
     census_agrees(multiplicity_four, census_by_plucker_keys)),
    ("census-omits-a-good-flat", disc, "codim2_census", omit_good_flat,
     census_agrees(dep63, census_by_minors)),
    ("meet-identity-tests-one-row", disc, "_cofactor_rows", first_cofactor_row,
     census_agrees(meet_coincidence, census_by_pairs)),
    # a node with two forms left and |D| = 2 has two opposite parallel columns
    ("planar-keys-unsigned", planar, "_keys", unsigned_keys, walk_agrees([0, 1, 3, 2, 4], 5, 3)),
    # two classes sharing index 3, with indices 1, 2, 4, 5 in one class each
    ("planar-codim-off-by-one", planar, "_codim", codim_off_by_one,
     formula_agrees([(1, 2, 3), (3, 4, 5)], 6)),
    # at n = 5, cap 3, the prefixes (1,2,3),(1,2,4) and (1,2,3),(1,3,4) both
    # merge to {1,2,3,4}; the second starts two triples later in that row
    ("planar-last-row-unshifted", planar, "_last_row", row_without_offset,
     formula_walk_agrees(5, 3)),
    # the braid relation holds only up to free cancellation of the images
    ("artin-action-uncancelled", braid, "apply_images", no_free_cancellation,
     lambda: braid.braids_equal((1, 2, 1), (2, 1, 2), 3)),
]


@pytest.mark.parametrize(
    "module, attr, mutant, agrees", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_oracle_kills_mutant(module, attr, mutant, agrees, monkeypatch):
    assert agrees()
    # a warm planar memo answers a family without recursing into a mutant,
    # and a mutant's wrong codimensions must not stay there for later tests
    monkeypatch.setattr(planar, "_memo", {})
    monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
    assert not agrees()
