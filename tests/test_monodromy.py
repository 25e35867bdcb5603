from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from discarr.arrangement import random_generic
from discarr.braid import (
    artin_images,
    braids_equal,
    full_twist,
    permutation,
    reduce_free,
    smith_invariants,
)
from discarr.discriminantal import codim2_census, construct_dependent
from discarr.monodromy import (
    NonGenericSection,
    Presentation,
    SectionLine,
    SectionPlane,
    braid_monodromy,
    nilpotent_relations,
    presentation,
    presentation_to_text,
    random_section,
    section_lines,
    singular_points,
)


def section_for(arr, seed=101):
    _, lines, _ = random_section(arr, seed=seed)
    return lines


def test_section_lines_counts_and_validation():
    arr = random_generic(4, 2, seed=21, bound=9)
    _, lines, points = random_section(arr, seed=101)
    assert len(lines) == comb(4, 3) == 4
    # all four concur: the essential part has rank 2, so one point carries
    # every pair
    assert points == singular_points(lines)
    assert len(points) == 1 and len(points[0].block) == 4


def test_degenerate_section_rejected():
    arr = random_generic(4, 2, seed=21, bound=9)
    n = arr.n
    zero = (Fraction(0),) * n
    plane = SectionPlane(zero, zero, zero)
    with pytest.raises(NonGenericSection):
        section_lines(arr, plane)


def test_two_lines_cross_once():
    lines = [
        SectionLine((1, 2, 3), Fraction(1), Fraction(0), Fraction(0)),
        SectionLine((1, 2, 4), Fraction(1), Fraction(1), Fraction(-1)),
    ]
    [point] = singular_points(lines)
    assert point.block == (1, 2)
    assert (point.s, point.t) == (Fraction(1), Fraction(0))


def test_singular_points_pair_count_identity():
    for arr in (random_generic(5, 2, seed=22, bound=9), construct_dependent(2, 0, seed=11)):
        lines = section_for(arr)
        points = singular_points(lines)
        assert sum(comb(len(p.block), 2) for p in points) == comb(len(lines), 2)


def test_dep63_section_block_structure():
    dep63 = construct_dependent(2, 0, seed=11)
    lines = section_for(dep63)
    assert len(lines) == 15
    sizes = Counter(len(p.block) for p in singular_points(lines))
    assert sizes == {5: 6, 3: 1, 2: 42}


def test_single_simple_crossing_braid_is_sigma_squared():
    lines = [
        SectionLine((1, 2, 3), Fraction(1), Fraction(0), Fraction(0)),
        SectionLine((1, 2, 4), Fraction(1), Fraction(1), Fraction(-1)),
    ]
    [(point, braid)] = braid_monodromy(lines)
    assert point.block == (1, 2)
    assert braid.letters == (1, 1)


def test_monodromy_braids_are_pure_conjugated_full_twists():
    arr = random_generic(5, 2, seed=22, bound=9)
    lines = section_for(arr)
    records = braid_monodromy(lines)
    n = len(lines)
    for point, braid in records:
        assert permutation(braid.letters, n) == tuple(range(1, n + 1))
        m = len(point.block)
        # conjugate of the local full twist: same exponent sum
        assert sum(1 for _ in braid.letters if _ > 0) - sum(
            1 for _ in braid.letters if _ < 0
        ) == m * (m - 1)


def test_total_monodromy_is_full_twist():
    for arr in (
        random_generic(4, 2, seed=21, bound=9),
        random_generic(5, 2, seed=22, bound=9),
        construct_dependent(2, 0, seed=11),
    ):
        lines = section_for(arr)
        records = braid_monodromy(lines)
        n = len(lines)
        product = reduce_free(sum((braid.letters for _, braid in records), ()))
        assert braids_equal(product, full_twist(n), n)


def test_blocks_match_census_multiplicities():
    for arr in (random_generic(5, 2, seed=22, bound=9), construct_dependent(2, 0, seed=11)):
        lines = section_for(arr)
        records = braid_monodromy(lines)
        blocks = Counter(len(p.block) for p, _ in records)
        mults = Counter(r.multiplicity for r in codim2_census(arr))
        assert blocks == mults


def test_presentation_of_one_simple_crossing_is_commutation():
    lines = [
        SectionLine((1, 2, 3), Fraction(1), Fraction(0), Fraction(0)),
        SectionLine((1, 2, 4), Fraction(1), Fraction(1), Fraction(-1)),
    ]
    records = braid_monodromy(lines)
    pres = presentation(records, 2)
    # sigma_1^2 relators: both say x1 and x2 commute
    assert pres.relators == ((1, 2, 1, -2, -1, -1), (1, 2, -1, -2))
    reduced = presentation(records, 2, reduce_relators=True)
    assert len(reduced.relators) == 1


def test_presentation_counts_and_abelianization():
    arr = construct_dependent(2, 0, seed=11)
    lines = section_for(arr)
    records = braid_monodromy(lines)
    n = len(lines)
    pres = presentation(records, n)
    assert len(pres.relators) == sum(len(p.block) for p, _ in records)
    reduced = presentation(records, n, reduce_relators=True)
    assert len(reduced.relators) == sum(len(p.block) - 1 for p, _ in records)
    invariants = smith_invariants(pres.exponent_matrix())
    assert n - sum(1 for d in invariants if d) == n  # free abelian of rank N


def test_full_twist_acts_by_boundary_conjugation():
    n = 4
    images = artin_images(full_twist(n), n)
    boundary = tuple(range(1, n + 1))
    for j in range(1, n + 1):
        expected = reduce_free(boundary + (j,) + tuple(-x for x in reversed(boundary)))
        assert images[j - 1] == expected


def test_presentation_text_format():
    pres = Presentation(3, ((1, 2, -1, -2),))
    text = presentation_to_text(pres)
    assert text == "generators: d1 d2 d3\nd1 d2 D1 D2\n"


def test_nilpotent_relations_families():
    a42 = random_generic(4, 2, seed=21, bound=9)
    fam = nilpotent_relations(a42)
    assert len(fam.full_sets) == 4  # one (k+2)-set, each of its 4 subsets
    assert fam.dependents == ()
    assert fam.commuting == ()

    dep63 = construct_dependent(2, 0, seed=11)
    fam = nilpotent_relations(dep63)
    census = codim2_census(dep63)
    assert len(fam.full_sets) == comb(6, 5) * 5
    assert len(fam.dependents) == 3
    simple = sum(1 for r in census if r.kind == "SIMPLE")
    assert len(fam.commuting) == 2 * simple
    # family sizes agree with the census multiplicity accounting
    total = len(fam.full_sets) + len(fam.dependents) + len(fam.commuting)
    assert total == sum(
        r.multiplicity if r.kind in ("GOOD", "DEPENDENT") else 2 for r in census
    )


def test_large_section_sweep_and_total_monodromy():
    # N = 28 strands, 216 singular values: the sweep stays consistent and
    # the telescoped product is still the full twist
    arr = construct_dependent(2, 2, seed=5)
    _, lines, _ = random_section(arr, seed=303)
    records = braid_monodromy(lines)
    n = len(lines)
    assert n == comb(8, 6) == 28
    assert sum(comb(len(p.block), 2) for p, _ in records) == comb(n, 2)
    blocks = Counter(len(p.block) for p, _ in records)
    assert blocks == Counter(r.multiplicity for r in codim2_census(arr))
    product = reduce_free(sum((braid.letters for _, braid in records), ()))
    assert braids_equal(product, full_twist(n), n)


def test_section_without_s_dependence_rejected():
    # dropping the s-coefficients makes every pair of section lines parallel
    arr = random_generic(4, 2, seed=21, bound=9)
    rng_vals = [Fraction(v) for v in (3, -1, 2, 5)]
    plane = SectionPlane(
        tuple(rng_vals),
        (Fraction(0),) * 4,
        (Fraction(1), Fraction(2), Fraction(-3), Fraction(7)),
    )
    with pytest.raises(NonGenericSection) as exc:
        section_lines(arr, plane)
    assert any("parallel" in f for f in exc.value.failures)
