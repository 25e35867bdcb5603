from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discarr.arrangement import (
    GenericArrangement,
    arrangement_from_json,
    is_trace_generic,
    random_generic,
)
from discarr.discriminantal import (
    DEPENDENT,
    GOOD,
    OTHER,
    SIMPLE,
    _cofactor_rows,
    build_all,
    build_form,
    codim2_census,
    codim_intersection,
    construct_dependent,
    dependent_triples,
    group_triples,
    simple_pairs,
)
from discarr.linalg import QMatrix, _bareiss_det, int_nullspace, int_rank
from discarr.rng import SplitMix64

import _oracles
from _oracles import (
    build_form_by_fractions,
    census_by_minors,
    census_by_pairs,
    census_by_plucker_keys,
    dependency_by_rank,
    det_by_permutations,
    disjoint_group_triples,
    full_census,
    multiplicity_four,
    rank_by_minors,
    restrict,
    shuffle,
    small_entry_generic,
)

DEP63_TRIPLE = ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6))


def dep63():
    return construct_dependent(2, 0, seed=11)


def triple_shape(triple):
    """(t, s) of a dependent triple, read off its members: the t indices
    common to all three, and the s more that each pair of members shares."""
    a, b, c = map(set, triple)
    t = len(a & b & c)
    return t, len(a & b) - t


def test_build_form_two_points_on_a_line():
    # k=1: concurrency of translated points i, j means equal positions
    arr = GenericArrangement(3, 1, [[2], [3], [5]])
    form = build_form(arr, (1, 2))
    # coefficients proportional to (alpha_2, -alpha_1) at positions 1, 2
    assert form.coeffs == (3, -2, 0)


def test_build_form_support_and_normalization():
    arr = dep63()
    for subset in combinations(range(1, 7), 4):
        form = build_form(arr, subset)
        assert all((c != 0) == (j + 1 in subset) for j, c in enumerate(form.coeffs))
        nonzero = [c for c in form.coeffs if c]
        assert nonzero[0] > 0  # first nonzero entry positive
        from math import gcd

        assert gcd(*[abs(c) for c in nonzero]) == 1  # primitive


def test_build_form_vanishes_on_forced_concurrency():
    rng = SplitMix64(17)
    arr = random_generic(6, 3, seed=23, bound=10)
    for _ in range(5):
        subset = (1, 3, 4, 6)
        point = [Fraction(rng.randint(-9, 9)) for _ in range(arr.k)]
        translates = [Fraction(rng.randint(-9, 9)) for _ in range(arr.n)]
        for j in subset:  # force the subset's hyperplanes through the point
            translates[j - 1] = sum(
                arr.normals[j - 1][i] * point[i] for i in range(arr.k)
            )
        form = build_form(arr, subset)
        assert sum(c * t for c, t in zip(form.coeffs, translates)) == 0


def test_concurrency_determinant_vanishes_on_common_point():
    # the (k+1) x (k+1) determinant with translate column from a common point
    arr = dep63()
    point = [Fraction(1), Fraction(-2), Fraction(3)]
    subset = (1, 2, 3, 4)
    col = [
        [sum(arr.normals[j - 1][i] * point[i] for i in range(arr.k))]
        for j in subset
    ]
    aug = QMatrix.from_rows([arr.normals[j - 1] + tuple(c) for j, c in zip(subset, col)])
    assert aug.det() == 0


def test_build_form_rejects_bad_subset():
    arr = random_generic(5, 2, seed=2, bound=10)
    with pytest.raises(ValueError):
        build_form(arr, (1, 2))
    with pytest.raises(ValueError):
        build_form(arr, (1, 2, 9))


def test_build_all_counts_and_rank():
    a42 = random_generic(4, 2, seed=3, bound=10)
    assert len(build_all(a42)) == 4
    a63 = random_generic(6, 3, seed=3, bound=10)
    forms = build_all(a63)
    assert len(forms) == comb(6, 4) == 15
    assert int_rank([f.coeffs for f in forms]) == 6 - 3
    # pairwise non-proportional: distinct supports already force this
    for f, g in combinations(forms, 2):
        assert int_rank([f.coeffs, g.coeffs]) == 2


def test_dep63_triple_rank_matches_minor_oracle():
    arr = dep63()
    rows = [build_form(arr, s).coeffs for s in DEP63_TRIPLE]
    assert rank_by_minors(rows) == 2
    assert int_rank(rows) == 2


def test_codim_full_subset_is_two():
    arr = random_generic(7, 3, seed=5, bound=12)
    subset5 = (1, 2, 4, 5, 7)
    parts = list(combinations(subset5, 4))
    assert codim_intersection(arr, parts) == 2


def test_codim_dep63_and_perturbed():
    arr = dep63()
    assert codim_intersection(arr, DEP63_TRIPLE) == 2
    rng = SplitMix64(301)
    while True:
        rows = [list(r) for r in arr.normals]
        rows[2] = [rng.randint(-12, 12) for _ in range(3)]
        from discarr.arrangement import is_trace_generic

        cand = GenericArrangement(6, 3, rows)
        if is_trace_generic(cand) and not dependent_triples(cand):
            break
    assert codim_intersection(cand, DEP63_TRIPLE) == 3


def test_census_generic_63():
    arr = random_generic(6, 3, seed=31, bound=12)
    if dependent_triples(arr):
        pytest.skip("sampled a dependent trace; seeds elsewhere cover this")
    census = full_census(arr)
    mults = Counter(len(r.members) for r in census)
    assert mults[5] == comb(6, 5) == 6
    assert set(mults) == {5, 2}
    assert all(r.kind in (GOOD, SIMPLE) for r in census)


def test_census_pair_completeness():
    arr = dep63()
    census = full_census(arr)
    n_forms = comb(6, 4)
    assert sum(comb(len(r.members), 2) for r in census) == comb(n_forms, 2)
    # every record's forms really span a rank-2 flat
    for record in census[:10]:
        assert int_rank([build_form(arr, m).coeffs for m in record.members]) == 2


def test_census_dep63_dependent_record():
    census = codim2_census(dep63())
    dependent = [r for r in census if r.kind == DEPENDENT]
    assert len(dependent) == 1
    assert dependent[0].members == DEP63_TRIPLE
    assert len(dependent[0].members) == 3


@pytest.mark.parametrize(
    "arr",
    [
        random_generic(4, 2, seed=5, bound=9),
        random_generic(4, 1, seed=2, bound=9),
        random_generic(6, 3, seed=31, bound=12),
        construct_dependent(2, 0, seed=11),
        construct_dependent(2, 1, seed=0),
    ],
    ids=["B42", "B41", "B63", "dep63", "dep74"],
)
def test_simple_pairs_are_the_pairs_in_no_flat(arr):
    census = codim2_census(arr)
    assert all(len(r.members) >= 3 for r in census)
    simple = list(simple_pairs(arr, census))
    # combinations order: the subsets are sorted, so the pairs are too
    assert simple == sorted(set(simple))
    assert all(a < b for a, b in simple)
    covered = [pair for r in census for pair in combinations(r.members, 2)]
    everything = set(combinations(combinations(range(1, arr.n + 1), arr.k + 1), 2))
    assert set(simple) == everything - set(covered)
    n_forms = comb(arr.n, arr.k + 1)
    assert len(covered) + len(simple) == comb(n_forms, 2) == len(everything)


def test_census_sampled_k4_has_no_multiplicity_four():
    # multiplicity 4 does occur at k = 5 (`multiplicity_four`), not on these
    for n, k, seed in ((7, 4, 41), (8, 4, 43)):
        arr = random_generic(n, k, seed=seed, bound=12)
        census = codim2_census(arr)
        assert all(len(r.members) != 4 for r in census)
        assert not any(r.kind == OTHER for r in census)


def test_dependent_triples_dep63_and_lifted():
    triples = dependent_triples(dep63())
    assert len(triples) == 1
    assert triples[0] == DEP63_TRIPLE
    assert triple_shape(triples[0]) == (0, 2)

    lifted = construct_dependent(2, 2, seed=5)
    [triple] = dependent_triples(lifted)
    assert triple == (
        (1, 2, 3, 4, 7, 8),
        (1, 2, 5, 6, 7, 8),
        (3, 4, 5, 6, 7, 8),
    )
    assert triple_shape(triple) == (2, 2)
    assert codim_intersection(lifted, triple) == 2


def test_dependent_triples_empty_on_rejected_random():
    for seed in (51, 52, 53):
        arr = random_generic(6, 3, seed=seed, bound=12)
        triples = dependent_triples(arr)
        census_dep = [r for r in codim2_census(arr) if r.kind == DEPENDENT]
        # equivalence: geometric test agrees with the census on every sample
        assert set(triples) == {r.members for r in census_dep}


def test_dependency_equivalence_with_codim():
    # for every combinatorially admissible triple: span test <=> codim 2
    arr = dep63()
    found = set(dependent_triples(arr))
    for groups in combinations(combinations(range(1, 7), 2), 3):
        flat = [x for g in groups for x in g]
        if len(set(flat)) != 6:
            continue
        g1, g2, g3 = groups
        members = tuple(
            sorted(
                (
                    tuple(sorted(g1 + g2)),
                    tuple(sorted(g2 + g3)),
                    tuple(sorted(g1 + g3)),
                )
            )
        )
        expected = 2 if members in found else 3
        assert codim_intersection(arr, members) == expected


def test_triple_not_in_union_rule():
    # if some subset escapes the union of the other two, codim is 3
    arr = random_generic(7, 3, seed=61, bound=12)
    triple = ((1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 7))  # 7 escapes the union
    assert codim_intersection(arr, triple) == 3


def test_construct_dependent_3_0():
    arr = construct_dependent(3, 0, seed=3)
    assert (arr.n, arr.k) == (9, 5)
    census = codim2_census(arr)
    dependent = [r for r in census if r.kind == DEPENDENT]
    assert len(dependent) == 1
    [triple] = dependent_triples(arr)
    assert triple_shape(triple) == (0, 3)


def test_construct_dependent_restriction_recovers_planar_dependency():
    lifted = construct_dependent(2, 2, seed=5)
    small, _ = restrict(lifted, (7, 8))
    assert (small.n, small.k) == (6, 3)
    [triple] = dependent_triples(small)
    assert triple_shape(triple) == (0, 2)


def test_construct_dependent_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_dependent(1, 0, seed=1)
    with pytest.raises(ValueError):
        construct_dependent(2, -1, seed=1)


def test_census_k1_matches_braid_arrangement_structure():
    # k=1: concurrency sets are pairs-of-points; triangles {ij, ik, jk} give
    # the C(n,3) full-set strata, partner-disjoint pairs stay simple
    arr = random_generic(4, 1, seed=2, bound=9)
    census = full_census(arr)
    kinds = Counter((r.kind, len(r.members)) for r in census)
    assert kinds == {(GOOD, 3): comb(4, 3), (SIMPLE, 2): 3}


def test_dependency_equivalence_scan_with_common_hyperplane():
    # every admissible candidate triple at t=1: span test <=> codim 2
    arr = construct_dependent(2, 1, seed=77)
    dependent_found = 0
    for common in combinations(range(1, 8), 1):
        pool = tuple(j for j in range(1, 8) if j not in common)
        for groups in disjoint_group_triples(pool, 2):
            g1, g2, g3 = groups
            members = tuple(
                sorted(
                    (
                        tuple(sorted(common + g1 + g2)),
                        tuple(sorted(common + g2 + g3)),
                        tuple(sorted(common + g1 + g3)),
                    )
                )
            )
            geometric = dependency_by_rank(arr, common, groups)
            assert geometric == (codim_intersection(arr, members) == 2), members
            dependent_found += geometric
    assert dependent_found == 1


def flat_group_triples(pool, size):
    return [(g1, g2, g3) for g1, g2, thirds in group_triples(pool, size) for g3 in thirds]


def test_group_triples_cover_every_disjoint_triple_once():
    # the oracle list is sorted, so equality checks order and uniqueness;
    # size 4 is left out, its oracle filters about 4e8 combinations
    for size in (1, 2, 3):
        for n in range(3 * size, 3 * size + 3):
            pool = tuple(range(1, n + 1))
            assert flat_group_triples(pool, size) == disjoint_group_triples(pool, size)
    pool = (2, 3, 5, 7, 8, 9, 11, 12)
    assert flat_group_triples(pool, 2) == disjoint_group_triples(pool, 2)


def test_classifier_reserves_other_for_falsifiers():
    # each kind comes from how the flat was built: the full (k+2)-subsets are
    # GOOD, a dependent triple sharing no pair DEPENDENT, and dependent
    # triples merged into four or more forms OTHER
    census = codim2_census(dep63())
    assert Counter(r.kind for r in census) == {GOOD: comb(6, 5), DEPENDENT: 1}
    census = codim2_census(multiplicity_four())
    kinds = Counter((r.kind, len(r.members)) for r in census)
    assert kinds == {(GOOD, 7): comb(8, 7), (DEPENDENT, 3): 2, (OTHER, 4): 1}
    for rec in census:
        union = sorted(set().union(*rec.members))
        assert (rec.members == tuple(combinations(union, 6))) == (rec.kind == GOOD)


def test_multiplicity_four_flat():
    arr = multiplicity_four()
    census = codim2_census(arr)
    [other] = [r for r in census if r.kind == OTHER]
    assert other.members == (
        (1, 2, 3, 4, 7, 8), (1, 2, 4, 5, 6, 8), (1, 3, 4, 5, 6, 7), (2, 3, 5, 6, 7, 8)
    )
    assert codim_intersection(arr, other.members) == 2
    # any three of its members are a dependent triple
    triples = set(dependent_triples(arr))
    assert set(combinations(other.members, 3)) <= triples
    assert len(triples) == 4 + 2
    summary = census_summary(arr)
    kinds = Counter(kind for _, _, kind in summary)
    assert (kinds[OTHER], kinds[DEPENDENT]) == (1, 2)
    forms = [(f.subset, f.coeffs) for f in build_all(arr)]
    for oracle in (census_by_minors, census_by_pairs, census_by_plucker_keys):
        assert oracle(forms, arr.k) == summary, oracle.__name__


# Property tests: the fast census and dependency search against brute force.
# Derandomized, so the tier-1 suite runs the same examples every time.
ORACLE_SETTINGS = settings(deadline=None, derandomize=True, database=None)


GENERIC_SHAPES = [(n, k) for n in range(3, 8) for k in range(1, n - 1)]


@st.composite
def generic_arrangements(draw):
    n, k = draw(st.sampled_from(GENERIC_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    bound = draw(st.integers(n, 12))
    return random_generic(n, k, seed=seed, bound=bound)


def census_summary(arr):
    return [(r.members, len(r.members), r.kind) for r in full_census(arr)]


def oracle_census(arr):
    return census_by_minors([(f.subset, f.coeffs) for f in build_all(arr)], arr.k)


def triples_call_by_call(arr, sizes=None):
    """Members of every candidate passing `dependency_by_rank`, one call each.

    `sizes` limits the group sizes s searched; all of them by default.
    """
    found = []
    for s in sizes or range(2, (arr.k + 1) // 2 + 1):
        t = arr.k + 1 - 2 * s
        for common in combinations(range(1, arr.n + 1), t):
            pool = tuple(j for j in range(1, arr.n + 1) if j not in common)
            for groups in disjoint_group_triples(pool, s):
                if dependency_by_rank(arr, common, groups):
                    g1, g2, g3 = groups
                    pairs = ((g1, g2), (g2, g3), (g1, g3))
                    found.append(tuple(sorted(tuple(sorted(common + x + y)) for x, y in pairs)))
    return sorted(found)


@settings(ORACLE_SETTINGS, max_examples=50)
@given(generic_arrangements())
def test_census_matches_minor_oracle_generic(arr):
    assert census_summary(arr) == oracle_census(arr)
    assert dependent_triples(arr) == triples_call_by_call(arr)


DEPENDENT_SHAPES = pytest.mark.parametrize(
    "shape", [(2, 0), (2, 1), (3, 0)], ids=["s2t0", "s2t1", "s3t0"]
)


@DEPENDENT_SHAPES
@settings(ORACLE_SETTINGS, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_census_matches_minor_oracle_dependent(shape, seed):
    arr = construct_dependent(*shape, seed=seed)
    census = census_summary(arr)
    assert census == oracle_census(arr)
    dependent = [members for members, _, kind in census if kind == DEPENDENT]
    assert dependent_triples(arr) == dependent


@DEPENDENT_SHAPES
@settings(ORACLE_SETTINGS, max_examples=1)
@given(seed=st.integers(0, 2**32 - 1))
def test_dependent_triples_memo_matches_call_by_call(shape, seed):
    arr = construct_dependent(*shape, seed=seed)
    assert dependent_triples(arr) == triples_call_by_call(arr)


# The candidate census against both brute-force censuses, and the meet
# identity against the rank test for s = 2, 3 and 4, candidate by candidate
# (for s = 2 the identity is the bracket identity of six plane points).
CENSUS_SHAPES = {
    k: [(n, k) for n in range(k + 2, k + 5) if comb(n, k + 1) <= 56] for k in range(1, 7)
}


def oracle_censuses(arr):
    forms = [(f.subset, f.coeffs) for f in build_all(arr)]
    return census_by_minors(forms, arr.k), census_by_plucker_keys(forms, arr.k)


@pytest.mark.parametrize("k", range(1, 7))
@settings(ORACLE_SETTINGS, max_examples=3)
@given(data=st.data())
def test_census_matches_both_oracles_generic(k, data):
    n, _ = data.draw(st.sampled_from(CENSUS_SHAPES[k]))
    arr = random_generic(n, k, seed=data.draw(st.integers(0, 2**32 - 1)), bound=max(n, 10))
    by_minors, by_keys = oracle_censuses(arr)
    assert census_summary(arr) == by_minors == by_keys


@pytest.mark.parametrize(
    "shape", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0)], ids=["s2t0", "s2t1", "s2t2", "s2t3", "s3t0"]
)
@settings(ORACLE_SETTINGS, max_examples=1)
@given(seed=st.integers(0, 2**32 - 1))
def test_census_matches_both_oracles_dependent(shape, seed):
    arr = construct_dependent(*shape, seed=seed)
    by_minors, by_keys = oracle_censuses(arr)
    assert census_summary(arr) == by_minors == by_keys


# Entries in [-2, 2] make coincidences such as `multiplicity_four`'s flat
# likely (about 1 draw in 190 at (8,5)); draws with bound >= n never met one.
SMALL_ENTRY_SHAPES = [(6, 3), (7, 3), (7, 4), (8, 4), (8, 5), (9, 4), (9, 5)]


@st.composite
def small_entry_arrangements(draw, shapes=SMALL_ENTRY_SHAPES):
    n, k = draw(st.sampled_from(shapes))
    return small_entry_generic(n, k, seed=draw(st.integers(0, 2**32 - 1)))


@settings(ORACLE_SETTINGS, max_examples=25)
@given(arr=small_entry_arrangements())
@example(arr=multiplicity_four())
def test_census_matches_oracles_small_entries(arr):
    forms = [(f.subset, f.coeffs) for f in build_all(arr)]
    summary = census_summary(arr)
    assert census_by_pairs(forms, arr.k) == summary
    assert census_by_plucker_keys(forms, arr.k) == summary


# the rank oracle takes about 0.6 s per (9,5) draw, so the search is
# compared up to n = 8, where 18 of 30 seeded draws carry a triple
@settings(ORACLE_SETTINGS, max_examples=20)
@given(arr=small_entry_arrangements([s for s in SMALL_ENTRY_SHAPES if s[0] <= 8]))
@example(arr=multiplicity_four())  # four triples inside its OTHER flat, two DEPENDENT
def test_dependent_triples_match_rank_oracle_small_entries(arr):
    assert dependent_triples(arr) == triples_call_by_call(arr)


def test_census_inconsistent_membership_raises(monkeypatch):
    arr = random_generic(6, 3, seed=31, bound=12)
    assert not dependent_triples(arr)
    forms = [(f.subset, f.coeffs) for f in build_all(arr)]
    coeffs = dict(forms)
    real = _oracles._in_span

    # a form dropped from one span: a later pair of its GOOD flat finds a
    # member set that the flat's first pair never emitted
    first = coeffs[1, 2, 3, 4]
    monkeypatch.setattr(_oracles, "_in_span", lambda h, *rest: h != first and real(h, *rest))
    with pytest.raises(AssertionError, match="inconsistent flat"):
        census_by_pairs(forms, arr.k)

    # a form added to one span: the false triple and the true simple
    # crossings of its other pairs both cover those pairs
    f, g, h = coeffs[1, 2, 3, 4], coeffs[1, 2, 5, 6], coeffs[3, 4, 5, 6]
    monkeypatch.setattr(
        _oracles, "_in_span", lambda *args: args[:3] == (h, f, g) or real(*args)
    )
    with pytest.raises(AssertionError, match="inconsistent flat"):
        census_by_pairs(forms, arr.k)


def hexagon():
    """Six points of an affinely regular hexagon as k = 3 normals (x, y, 1).

    No three are collinear, but the three main diagonals meet at the centre
    and each of the three classes of parallel sides and diagonal meets at
    infinity, so the trace is generic with four dependent triples.
    """
    rows = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
    return GenericArrangement(6, 3, rows)


def test_hexagon_has_four_dependent_triples():
    arr = hexagon()
    assert is_trace_generic(arr)
    triples = dependent_triples(arr)
    assert len(triples) == 4
    assert triples == triples_call_by_call(arr)
    assert triples == [m for m, _, kind in census_summary(arr) if kind == DEPENDENT]


def test_hexagon_behind_a_seventh_point():
    # the pool 1..7 is larger than 3s = 6, and the hexagon's four triples,
    # which share groups, all miss the pool's first index; the seventh
    # point (2, 7) adds three triples through it
    rows = [(2, 7, 1)] + list(hexagon().normals)
    arr = GenericArrangement(7, 3, rows)
    assert is_trace_generic(arr)
    triples = dependent_triples(arr)
    shifted = {
        tuple(tuple(x + 1 for x in member) for member in triple)
        for triple in dependent_triples(hexagon())
    }
    assert len(triples) == 7 and shifted <= set(triples)
    assert all(1 not in member for members in shifted for member in members)
    assert triples == triples_call_by_call(arr)
    assert triples == [m for m, _, kind in census_summary(arr) if kind == DEPENDENT]


@st.composite
def two_group_arrangements(draw):
    """Arrangements with k >= 3, generic or carrying one s = 2 triple."""
    t = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return construct_dependent(2, t, seed=seed)
    k = t + 3
    n = draw(st.integers(k + 3, k + 4))
    return random_generic(n, k, seed=seed, bound=max(n, 10))


@settings(ORACLE_SETTINGS, max_examples=16)
@given(two_group_arrangements())
def test_bracket_identity_matches_span_test(arr):
    found = [d for d in dependent_triples(arr) if triple_shape(d)[1] == 2]
    assert found == triples_call_by_call(arr, sizes=(2,))


@st.composite
def three_group_arrangements(draw):
    """Arrangements with k = 5, generic or carrying one s = 3 triple.

    (With a common hyperplane the rank test takes about 1.5 s per
    arrangement; the cofactor rows are checked with one separately.)
    """
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return construct_dependent(3, 0, seed=seed)
    n = draw(st.integers(9, 10))
    return random_generic(n, 5, seed=seed, bound=n)


@settings(ORACLE_SETTINGS, max_examples=6)
@given(three_group_arrangements())
def test_meet_identity_matches_span_test_for_three_groups(arr):
    found = [d for d in dependent_triples(arr) if triple_shape(d)[1] == 3]
    assert found == triples_call_by_call(arr, sizes=(3,))


# construct_dependent(4, 0, seed=0), pinned because constructing it takes
# seconds: twelve hyperplanes in 7-space whose groups 1-4, 5-8 and 9-12
# carry its one dependent triple
DEP127_NORMALS = (
    (93267, 34347, 43176, 39672, 44080, -6612, -11020),
    (20313, 21121, -37016, -22040, 41876, 33060, 4408),
    (9189, -2151, 26880, 6612, -28652, -33060, -6612),
    (47799, 28755, -4816, -33060, -8816, -28652, 33060),
    (5406, 15932, -41791, 9086, -14868, -4956, -9086),
    (38398, 13748, -190727, -14042, -8260, -14868, 10738),
    (3386, 2492, -25031, -3304, -2478, -826, -14868),
    (1542, 1308, -6703, 826, -944, -944, -2124),
    (39257, -4644, 15811, -63965, -5815, 40705, 34890),
    (89777, 78286, -21344, -46520, -98855, -104670, -17445),
    (18284, 4808, -19070, 2326, 6978, -13956, 10467),
    (202203, 27084, -197226, 0, 104670, -98855, 75595),
)


def test_four_groups_match_the_span_test():
    arr = GenericArrangement(12, 7, DEP127_NORMALS)
    assert is_trace_generic(arr)
    [triple] = dependent_triples(arr)
    assert triple == (
        (1, 2, 3, 4, 5, 6, 7, 8),
        (1, 2, 3, 4, 9, 10, 11, 12),
        (5, 6, 7, 8, 9, 10, 11, 12),
    )
    assert triple_shape(triple) == (0, 4)
    assert codim_intersection(arr, triple) == 2
    # the constructed partition and a seeded sample of the other 5 774
    partitions = flat_group_triples(tuple(range(1, 13)), 4)
    shuffle(SplitMix64(0), partitions)
    sample = [((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))] + partitions[:60]
    for groups in sample:
        dependent = groups == ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
        assert dependency_by_rank(arr, (), groups) == dependent, groups


@settings(ORACLE_SETTINGS, max_examples=12)
@given(s=st.integers(2, 4), data=st.data())
def test_cofactor_rows_are_signed_determinants(s, data):
    t = data.draw(st.integers(0, 4 - s))
    k = 2 * s - 1 + t
    n = 3 * s + t
    arr = random_generic(n, k, seed=data.draw(st.integers(0, 2**32 - 1)), bound=n)
    pool = list(range(1, n + 1))
    shuffle(SplitMix64(data.draw(st.integers(0, 2**32 - 1))), pool)
    common = tuple(sorted(pool[:t]))
    group = tuple(sorted(pool[t : t + s]))
    rest = tuple(j for j in range(1, n + 1) if j not in common)
    rows = _cofactor_rows(arr, common, group, rest)
    assert len(rows) == s - 1
    assert int_rank(rows) == s - 1  # a basis of the group's direction space
    for row in rows:
        # row r vanishes exactly on its k - 1 rows T, which hold common | group
        zeros = tuple(x for x in range(1, n + 1) if row[x] == 0)
        assert len(zeros) == k - 1 and set(common + group) <= set(zeros)
        [v] = int_nullspace([arr.normals[y - 1] for y in zeros], k)
        pairing = [sum(a * b for a, b in zip(arr.normals[x - 1], v)) for x in range(1, n + 1)]
        x0 = next(x for x in range(1, n + 1) if row[x])
        for x in range(1, n + 1):
            if x not in zeros:
                assert row[x] == _bareiss_det([list(arr.normals[y - 1]) for y in (x,) + zeros])
            # proportional to the pairings with the nullspace vector of T
            assert row[x] * pairing[x0 - 1] == row[x0] * pairing[x - 1]


@st.composite
def rational_arrangements(draw):
    """(normals, arrangement) pairs: the `Fraction` rows of "p/q" strings,
    and the arrangement that reading them as JSON gives.

    Each row gets its own denominators, so clearing them row by row would
    scale the minors by different factors.
    """
    n, k = draw(st.sampled_from([(n, k) for n in range(3, 7) for k in range(1, n - 1)]))
    entry = st.tuples(st.integers(-9, 9), st.integers(1, 7)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    normals = [[Fraction(x) for x in row] for row in rows]
    return normals, arrangement_from_json({"n": n, "k": k, "normals": rows})


@settings(ORACLE_SETTINGS, max_examples=150)
@given(rational_arrangements())
def test_forms_match_the_fraction_minor_oracle(case):
    normals, arr = case
    generic = all(
        det_by_permutations([normals[i] for i in rows]) != 0
        for rows in combinations(range(arr.n), arr.k)
    )
    assert is_trace_generic(arr) == generic
    if not generic:
        return
    expected = [
        build_form_by_fractions(normals, subset)
        for subset in combinations(range(1, arr.n + 1), arr.k + 1)
    ]
    assert [(f.subset, f.coeffs) for f in build_all(arr)] == expected
    subset, coeffs = expected[-1]
    assert build_form(arr, reversed(subset)).coeffs == coeffs
