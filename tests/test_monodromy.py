from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discarr.arrangement import random_generic
from discarr.braid import (
    artin_images,
    braids_equal,
    full_twist,
    reduce_free,
)
from discarr.discriminantal import construct_dependent
from discarr.linalg import int_rank
from discarr.monodromy import (
    SECTION_BOUND,
    NonGenericSection,
    Presentation,
    SectionLine,
    SectionPlane,
    SweepError,
    _sweep,
    braid_monodromy,
    nilpotent_relations,
    presentation,
    presentation_to_text,
    random_section,
    section_lines,
    singular_points,
)
from discarr.rng import SplitMix64

from _oracles import (
    braid_monodromy_by_reinversion,
    full_census,
    magnus_degree2,
    permutation,
    presentation_by_expansion,
    section_by_two_passes,
    singular_points_by_fractions,
    small_entry_generic,
    sweep_by_sorting,
)


def section_for(arr, seed=101):
    """The section lines and their singular points."""
    _, lines, points = random_section(arr, seed=seed)
    return lines, points


def records_for(arr, seed=101):
    """The section lines and their monodromy records."""
    lines, points = section_for(arr, seed=seed)
    return lines, braid_monodromy(lines, points)


TWO_LINES = [SectionLine((1, 2, 3), 1, 0, 0), SectionLine((1, 2, 4), 1, 1, -1)]


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
    zero = (0,) * arr.n
    plane = SectionPlane(zero, zero, zero)
    with pytest.raises(NonGenericSection):
        section_lines(arr, plane)


def test_rational_plane_rejected():
    arr = random_generic(4, 2, seed=21, bound=9)
    plane = SectionPlane((3, -1, 2, 5), (1, 1, 2, 3), (1, 2, Fraction(-3, 2), 7))
    with pytest.raises(ValueError, match="plane coefficients must be ints"):
        section_lines(arr, plane)


def test_two_lines_cross_once():
    [point] = singular_points(TWO_LINES)
    assert point.block == (1, 2)
    assert (point.s, point.t) == (Fraction(1), Fraction(0))


def test_singular_points_pair_count_identity():
    for arr in (random_generic(5, 2, seed=22, bound=9), construct_dependent(2, 0, seed=11)):
        lines, points = section_for(arr)
        assert sum(comb(len(p.block), 2) for p in points) == comb(len(lines), 2)


def test_dep63_section_block_structure():
    dep63 = construct_dependent(2, 0, seed=11)
    lines, points = section_for(dep63)
    assert len(lines) == 15
    sizes = Counter(len(p.block) for p in points)
    assert sizes == {5: 6, 3: 1, 2: 42}


def test_single_simple_crossing_braid_is_sigma_squared():
    [(point, braid)] = braid_monodromy(TWO_LINES, singular_points(TWO_LINES))
    assert point.block == (1, 2)
    assert braid.letters == (1, 1)


def test_monodromy_braids_are_pure_conjugated_full_twists():
    arr = random_generic(5, 2, seed=22, bound=9)
    lines, records = records_for(arr)
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
        lines, records = records_for(arr)
        n = len(lines)
        product = reduce_free(chain.from_iterable(braid.letters for _, braid in records))
        assert braids_equal(product, full_twist(n), n)


def test_blocks_match_census_multiplicities():
    for arr in (random_generic(5, 2, seed=22, bound=9), construct_dependent(2, 0, seed=11)):
        _, records = records_for(arr)
        blocks = Counter(len(p.block) for p, _ in records)
        mults = Counter(len(r.members) for r in full_census(arr))
        assert blocks == mults


def test_presentation_of_one_simple_crossing_is_commutation():
    points = singular_points(TWO_LINES)
    pres = presentation(TWO_LINES, points)
    # sigma_1^2 relators: both say x1 and x2 commute
    assert pres.relators == ((1, 2, 1, -2, -1, -1), (1, 2, -1, -2))
    reduced = presentation(TWO_LINES, points, reduce_relators=True)
    assert len(reduced.relators) == 1


def test_presentation_counts_and_abelianization():
    arr = construct_dependent(2, 0, seed=11)
    lines, points = section_for(arr)
    pres = presentation(lines, points)
    assert len(pres.relators) == sum(len(p.block) for p in points)
    reduced = presentation(lines, points, reduce_relators=True)
    assert len(reduced.relators) == sum(len(p.block) - 1 for p in points)
    # every relator has exponent sum 0 in each generator: H1 is free abelian of rank N
    assert not any(any(row) for row in pres.exponent_matrix())


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
    assert list(fam.commuting) == []

    dep63 = construct_dependent(2, 0, seed=11)
    fam = nilpotent_relations(dep63)
    census = full_census(dep63)
    assert len(fam.full_sets) == comb(6, 5) * 5
    assert len(fam.dependents) == 3
    simple = sum(1 for r in census if r.kind == "SIMPLE")
    commuting = list(fam.commuting)
    assert len(commuting) == 2 * simple
    assert list(fam.commuting) == []  # one pass: read whole above
    # family sizes agree with the census multiplicity accounting
    total = len(fam.full_sets) + len(fam.dependents) + len(commuting)
    assert total == sum(
        len(r.members) if r.kind in ("GOOD", "DEPENDENT") else 2 for r in census
    )


def test_large_section_sweep_and_total_monodromy():
    # N = 28 strands, 216 singular values: the sweep stays consistent and
    # the telescoped product is still the full twist
    arr = construct_dependent(2, 2, seed=5)
    lines, records = records_for(arr, seed=303)
    n = len(lines)
    assert n == comb(8, 6) == 28
    assert sum(comb(len(p.block), 2) for p, _ in records) == comb(n, 2)
    blocks = Counter(len(p.block) for p, _ in records)
    assert blocks == Counter(len(r.members) for r in full_census(arr))
    product = reduce_free(chain.from_iterable(braid.letters for _, braid in records))
    assert braids_equal(product, full_twist(n), n)


def test_section_without_s_dependence_rejected():
    # dropping the s-coefficients makes every pair of section lines parallel
    arr = random_generic(4, 2, seed=21, bound=9)
    plane = SectionPlane((3, -1, 2, 5), (0,) * 4, (1, 2, -3, 7))
    with pytest.raises(NonGenericSection) as exc:
        section_lines(arr, plane)
    assert any("parallel" in f for f in exc.value.failures)


# The image-table presentation against the expanded braids, byte for byte.
# Derandomized, so the tier-1 suite runs the same examples every time.
ORACLE_SETTINGS = settings(deadline=None, derandomize=True, database=None)

# (n, k) of a generic arrangement, "dep" for construct_dependent(2, 0), or
# ("small", n, k) for a trace-generic one with entries in [-2, 2], whose
# small forms make coincident lines and shared s-values common;
# (4, 3) has N = 1 line and no singular point
SECTION_SHAPES = [
    (4, 3), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), "dep",
    ("small", 5, 2), ("small", 6, 2), ("small", 6, 3),
]


@st.composite
def sectioned_arrangements(draw):
    shape = draw(st.sampled_from(SECTION_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    if shape == "dep":
        return construct_dependent(2, 0, seed=seed)
    if shape[0] == "small":
        return small_entry_generic(*shape[1:], seed=seed)
    n, k = shape
    return random_generic(n, k, seed=seed, bound=max(n, 10))


@st.composite
def sectioned_planes(draw):
    """An arrangement and an integer plane drawn as random_section draws
    them; entries in [-1, 1] give parallel lines, vanishing t-coefficients
    and shared s-values."""
    arr = draw(sectioned_arrangements())
    bound = draw(st.sampled_from([1, SECTION_BOUND]))
    rng = SplitMix64(draw(st.integers(0, 2**32 - 1)))
    rows = [tuple(rng.randint(-bound, bound) for _ in range(arr.n)) for _ in range(3)]
    return arr, SectionPlane(*rows)


# The single-pass integer section against the two-pass Fraction oracle: the
# same lines and points (s, t, block) for a generic plane, the same failures
# for a rejected one.
B42 = random_generic(4, 2, seed=21, bound=9)
B52 = random_generic(5, 2, seed=22, bound=9)


@settings(ORACLE_SETTINGS, max_examples=60)
@given(case=sectioned_planes())
# all four lines coincide
@example(case=(B42, SectionPlane((1, -1, 0, 0), (-1, -1, 1, -1), (-1, -1, 1, -1))))
# a quadruple point and a double point share s = -140/89
@example(case=(B52, SectionPlane((1, 0, -1, 1, -2), (2, -1, 1, 1, -1), (2, 0, 1, -2, -2))))
def test_section_matches_fraction_oracle(case):
    arr, plane = case
    try:
        expected = section_by_two_passes(arr, plane)
    except NonGenericSection as exc:
        with pytest.raises(NonGenericSection) as got:
            section_lines(arr, plane)
        assert got.value.failures == exc.failures
    else:
        assert section_lines(arr, plane) == expected


def test_fraction_lines_match_fraction_oracle():
    assert singular_points(TWO_LINES) == singular_points_by_fractions(TWO_LINES)
    half = SectionLine((1, 3, 4), 3, 2, -6)
    [point] = singular_points([TWO_LINES[1], half])
    assert [point] == singular_points_by_fractions([TWO_LINES[1], half])
    assert (point.s, point.t) == (Fraction(-3), Fraction(4))
    parallel = SectionLine((2, 3, 4), 4, 4, 1)
    with pytest.raises(NonGenericSection) as exc:
        singular_points([*TWO_LINES, parallel])
    assert exc.value.failures == ["lines (1, 2, 4) and (2, 3, 4) are parallel"]


# The integer sweep and the shared-prefix braids against the Fraction sort
# and the re-inverting expansion.
@settings(ORACLE_SETTINGS, max_examples=12)
@given(arr=sectioned_arrangements(), section_seed=st.integers(0, 2**32 - 1))
@example(arr=construct_dependent(2, 0, seed=11), section_seed=101)
def test_sweep_and_braids_match_sorting_oracle(arr, section_seed):
    lines, points = section_for(arr, seed=section_seed)
    assert list(_sweep(lines, points)) == list(sweep_by_sorting(lines, points))
    assert braid_monodromy(lines, points) == braid_monodromy_by_reinversion(lines, points)


def test_sweep_rejects_a_missing_point():
    # without an interior point its block is never reversed, so the next
    # midpoint finds an adjacent pair out of t-order
    lines, points = section_for(construct_dependent(2, 0, seed=11))
    for i in (1, len(points) // 2, len(points) - 2):
        missing = points[:i] + points[i + 1 :]
        for sweep in (_sweep, sweep_by_sorting):
            with pytest.raises(SweepError, match="diverged"):
                list(sweep(lines, missing))


@settings(ORACLE_SETTINGS, max_examples=12)
@given(
    arr=sectioned_arrangements(),
    section_seed=st.integers(0, 2**32 - 1),
    reduce_relators=st.booleans(),
)
@example(arr=construct_dependent(2, 0, seed=11), section_seed=101, reduce_relators=False)
@example(arr=random_generic(5, 3, seed=4, bound=10), section_seed=7, reduce_relators=True)
def test_presentation_matches_expansion_oracle(arr, section_seed, reduce_relators):
    lines, points = section_for(arr, seed=section_seed)
    n = len(lines)
    fast = presentation_to_text(presentation(lines, points, reduce_relators))
    records = braid_monodromy(lines, points)
    slow = presentation_to_text(presentation_by_expansion(records, n, reduce_relators))
    assert fast == slow


@pytest.mark.parametrize("reduce_relators", [False, True])
def test_presentation_matches_expansion_oracle_small_cases(reduce_relators):
    points = singular_points(TWO_LINES)
    records = braid_monodromy(TWO_LINES, points)
    for lines, pts, recs in ((TWO_LINES, points, records), (TWO_LINES[:1], [], [])):
        fast = presentation(lines, pts, reduce_relators)
        assert fast == presentation_by_expansion(recs, len(lines), reduce_relators)
    assert presentation(TWO_LINES[:1], [], reduce_relators) == Presentation(1, ())


def test_presentation_at_35_strands():
    # `gen --n 7 --k 2 --seed 0`, then `presentation --seed 0`: expanding
    # the 420 conjugated braids takes about 40 s here, the tables well
    # under one second
    arr = random_generic(7, 2, seed=0, bound=10)
    lines, points = section_for(arr, seed=0)
    assert len(lines) == 35
    pres = presentation(lines, points)
    assert len(pres.relators) == sum(len(p.block) for p in points)
    assert not any(any(row) for row in pres.exponent_matrix())


# Cross-layer checks: the section's blocks against the census, and the
# presentation's degree-2 Magnus part against the census holonomy relations.
def subset_of_strand(lines):
    """Strand number -> (k+1)-subset, from the t-order below every point:
    as s falls, t = -(v s + w) / u orders the lines by slope v / u."""
    order = sorted(lines, key=lambda line: Fraction(line.v, line.u))
    return {strand: line.subset for strand, line in enumerate(order, 1)}


def census_blocks(lines, records):
    """Check 1's left side: each point's block as sorted (k+1)-subsets."""
    subset = subset_of_strand(lines)
    return sorted(tuple(sorted(subset[j] for j in p.block)) for p, _ in records)


def holonomy_ranks(lines, points, census):
    """Check 2: int_rank of the relators' degree-2 Magnus vectors, of the
    holonomy relations [X_j, sum_{i in P} X_i] over the census flats P (in
    strand numbers), and of both stacked."""
    n = len(lines)
    strand = {s: j for j, s in subset_of_strand(lines).items()}
    pair_index = {pair: i for i, pair in enumerate(combinations(range(1, n + 1), 2))}
    holonomy = []
    for rec in census:
        flat = [strand[m] for m in rec.members]
        for j in flat:
            row = [0] * len(pair_index)
            for i in flat:
                if i != j:
                    row[pair_index[(min(i, j), max(i, j))]] = 1 if j < i else -1
            holonomy.append(row)
    magnus = [magnus_degree2(rel, n) for rel in presentation(lines, points).relators]
    return int_rank(magnus), int_rank(holonomy), int_rank(magnus + holonomy)


def check_section_against_census(arr, section_seed):
    """Both checks; returns the three ranks of check 2."""
    lines, points = section_for(arr, seed=section_seed)
    records = braid_monodromy(lines, points)
    census = full_census(arr)
    assert census_blocks(lines, records) == sorted(r.members for r in census)
    return holonomy_ranks(lines, points, census)


@pytest.mark.parametrize(
    "arr, ranks",
    [
        (random_generic(5, 2, seed=22, bound=9), 30),
        (construct_dependent(2, 0, seed=11), 68),
        (random_generic(6, 2, seed=0, bound=10), 145),
    ],
    ids=["B52", "dep63", "B62"],
)
def test_presentation_holonomy_matches_census(arr, ranks):
    assert check_section_against_census(arr, section_seed=101) == (ranks, ranks, ranks)


@settings(ORACLE_SETTINGS, max_examples=20)
@given(arr=sectioned_arrangements(), section_seed=st.integers(0, 2**32 - 1))
def test_presentation_holonomy_matches_census_drawn(arr, section_seed):
    if arr.n == 4 and arr.k == 3:
        return  # one line: no point, no relation
    census = full_census(arr)
    expected = sum(len(r.members) - 1 for r in census)
    assert check_section_against_census(arr, section_seed) == (expected,) * 3
