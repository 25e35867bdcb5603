import json
import os
import subprocess
import sys
from itertools import chain, combinations
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discarr.linalg import int_rank, reduce_row
from discarr import planar
from discarr.planar import (
    _bits,
    _check_trace,
    _fold,
    _formula_dims,
    _generic_rank,
    _keys,
    _preorder,
    _set_masks,
    codim_combinatorial,
    dim_combinatorial,
    merge_classes,
    verify_independence,
)
from discarr.rng import SplitMix64

from _oracles import (
    dim_by_tuple_formula,
    dims_by_rank,
    merge_by_restart,
    rank_by_minors,
    shuffle,
)


def test_merge_trivials():
    assert merge_classes([(1, 2, 3), (2, 3, 4)]) == ((1, 2, 3, 4),)
    assert merge_classes([(1, 2, 3), (4, 5, 6)]) == ((1, 2, 3), (4, 5, 6))
    assert merge_classes([(1, 2, 3), (3, 4, 5), (1, 4, 6)]) == (
        (1, 2, 3),
        (1, 4, 6),
        (3, 4, 5),
    )


def test_merge_chains_transitively():
    out = merge_classes([(1, 2, 3), (3, 4, 5), (4, 5, 6), (6, 7, 8)])
    # {345} and {456} merge, pulling in {123}? no: {123} n {345} = {3} stays
    assert out == ((1, 2, 3), (3, 4, 5, 6), (6, 7, 8))


def test_merge_confluent_under_shuffle():
    rng = SplitMix64(12)
    sets = [(1, 2, 3), (2, 3, 4), (5, 6, 7), (6, 7, 8), (1, 5, 9)]
    reference = merge_classes(sets)
    for _ in range(10):
        shuffled = list(sets)
        shuffle(rng, shuffled)
        assert merge_classes(shuffled) == reference


def test_merge_idempotent():
    sets = [(1, 2, 3), (2, 3, 4), (5, 6, 7)]
    once = merge_classes(sets)
    assert merge_classes(once) == once


def test_merge_classes_names_a_negative_index():
    with pytest.raises(ValueError, match="set index -2 is negative"):
        merge_classes([(1, 2, 3), (-2, 4, 5)])


@pytest.mark.parametrize("bad", [3.0, True, "3"])
def test_set_indices_must_be_ints(bad):
    # a float is no bit position, and a bool would count as index 0 or 1
    for call in (lambda sets: dim_combinatorial(sets, 5), merge_classes):
        with pytest.raises(TypeError, match=f"must be an integer, got {bad!r}"):
            call([[1, 2, 4], [bad, 2, 5]])


def test_dim_combinatorial_rejects_sets_below_three():
    with pytest.raises(ValueError):
        dim_combinatorial([(1, 2)], 4)


def test_worked_examples():
    # four sets, the first meeting the rest in three distinct indices
    assert codim_combinatorial([(1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 8, 9)], 9) == 4
    # two triples sharing one index
    for n in (5, 6, 8):
        assert codim_combinatorial([(1, 2, 3), (1, 4, 5)], n) == 2
    # single set of size a: codim a - 2
    for a, n in ((3, 4), (4, 6), (5, 7), (6, 9)):
        assert codim_combinatorial([tuple(range(1, a + 1))], n) == a - 2
    # merged pair
    assert codim_combinatorial([(1, 2, 3), (2, 3, 4)], 5) == 2
    # single hyperplane
    assert codim_combinatorial([(2, 4, 6)], 7) == 1
    # disjoint sets are independent conditions
    assert codim_combinatorial([(1, 2, 3), (4, 5, 6)], 6) == 2
    assert codim_combinatorial([(1, 2, 3), (4, 5, 6), (7, 8, 9)], 10) == 3


def test_closed_quadrangle_family_generic_codim():
    # four triples in complete-quadrangle incidence: generically independent
    fam = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
    assert _generic_rank(fam, 6) == 4
    assert codim_combinatorial(fam, 6) == 4


def test_quadrangle_degenerates_on_involution_traces():
    # the generic value differs from special traces whose opposite slope
    # pairs lie in a projective involution (e.g. any arithmetic progression)
    fam = [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]

    def rank_at(slopes):
        rows = []
        for a, b, c in fam:
            vec = [0] * 6
            vec[a - 1] = slopes[c - 1] - slopes[b - 1]
            vec[b - 1] = slopes[a - 1] - slopes[c - 1]
            vec[c - 1] = slopes[b - 1] - slopes[a - 1]
            rows.append(vec)
        return int_rank(rows)

    assert rank_at([1, 2, 3, 4, 5, 6]) == 3  # involution x -> 7 - x
    assert rank_at([1, 2, 4, 8, 16, 32]) == 3  # involution x -> 32 / x
    assert rank_at([0, 1, 3, 7, 12, 20]) == 4  # generic


def test_formula_matches_oracle_exhaustively_small():
    # independent check of dim_combinatorial against a random-trace rank
    # oracle over every collection of up to 3 triples at n = 5
    rng = SplitMix64(77)
    slopes = []
    while len(set(slopes)) != 5:
        slopes = [rng.randint(-40, 40) for _ in range(5)]
    triples = list(combinations(range(1, 6), 3))
    vectors = {}
    for a, b, c in triples:
        vec = [0] * 5
        vec[a - 1] = slopes[c - 1] - slopes[b - 1]
        vec[b - 1] = slopes[a - 1] - slopes[c - 1]
        vec[c - 1] = slopes[b - 1] - slopes[a - 1]
        vectors[(a, b, c)] = vec
    for size in (1, 2, 3):
        for coll in combinations(triples, size):
            oracle = 5 - int_rank([vectors[t] for t in coll])
            assert dim_combinatorial(coll, 5) == oracle, coll


def test_verify_independence_smoke():
    report = verify_independence(5, 3, trials=3, seed=5)
    assert report["n"] == 5
    assert report["collections_checked"] == sum(
        1 for size in (1, 2, 3) for _ in combinations(range(10), size)
    )
    assert report["discrepancies"] == []


def test_verify_independence_cap_one_trivial():
    report = verify_independence(6, 1, trials=2, seed=6)
    assert report["discrepancies"] == []


def test_verify_independence_rejects_small_n():
    with pytest.raises(ValueError):
        verify_independence(3, 2, trials=1, seed=1)


def test_out_of_range_index_is_rejected_on_a_warm_memo():
    # (1, 2, 10) relabels to the memo key of (1, 2, 3): the range check must
    # come before the lookup
    assert dim_combinatorial(((1, 2, 3),), 5) == 4
    for family in (((1, 2, 10),), ((0, 1, 2),), ((1, 2, 3), (3, 4, 6))):
        with pytest.raises(ValueError, match="out of range"):
            dim_combinatorial(family, 5)


def test_triangle_family_boundary_case_against_oracle():
    # all sets keep exactly two shared indices: the recursion is empty, the
    # shared indices alone carry the image dimension
    fam = ((1, 2, 3), (3, 4, 5), (1, 5, 6))
    assert codim_combinatorial(fam, 6) == 3
    rng = SplitMix64(123)
    for _ in range(8):
        slopes = []
        while len(set(slopes)) != 6:
            slopes = [rng.randint(-50, 50) for _ in range(6)]
        rows = []
        for a, b, c in fam:
            vec = [0] * 6
            vec[a - 1] = slopes[c - 1] - slopes[b - 1]
            vec[b - 1] = slopes[a - 1] - slopes[c - 1]
            vec[c - 1] = slopes[b - 1] - slopes[a - 1]
            rows.append(vec)
        assert int_rank(rows) == 3


def test_generic_rank_matches_random_trace_maximum():
    # symbolic base case vs numeric evaluations on random families
    rng = SplitMix64(321)
    for _ in range(20):
        n = 6
        fam = set()
        while len(fam) < 4:
            fam.add(tuple(sorted({rng.randint(1, n) for _ in range(3)})))
            fam = {s for s in fam if len(s) == 3}
        fam = tuple(sorted(fam))
        symbolic = _generic_rank(fam, n)
        best = 0
        for _ in range(12):
            slopes = []
            while len(set(slopes)) != n:
                slopes = [rng.randint(-99, 99) for _ in range(n)]
            rows = []
            for s in fam:
                j1, j2 = s[0], s[1]
                for x in s[2:]:
                    vec = [0] * n
                    vec[j1 - 1] = slopes[x - 1] - slopes[j2 - 1]
                    vec[j2 - 1] = slopes[j1 - 1] - slopes[x - 1]
                    vec[x - 1] = slopes[j2 - 1] - slopes[j1 - 1]
                    rows.append(vec)
            best = max(best, int_rank(rows))
        assert symbolic == best, fam


def test_verify_independence_jobs_deterministic():
    serial = verify_independence(5, 3, trials=2, seed=44, jobs=1)
    parallel = verify_independence(5, 3, trials=2, seed=44, jobs=2)
    assert serial == parallel
    # cap 4 reaches collections that span every form at n = 5
    serial = verify_independence(5, 4, trials=2, seed=44, jobs=1)
    parallel = verify_independence(5, 4, trials=2, seed=44, jobs=2)
    assert serial == parallel


class InProcessShare:
    """A stand-in for `planar._Share` that walks its traces in the calling
    process, so no process is started."""

    def __init__(self, tasks):
        self.dims = [planar._check_trace(*task) for task in tasks]

    def collect(self, length):
        return self.dims


def record_shares(monkeypatch, base):
    """Patch `planar._Share` with `base`, recording each share's trace count."""
    shares = []

    class Recorded(base):
        def __init__(self, tasks):
            shares.append(len(tasks))
            super().__init__(tasks)

    monkeypatch.setattr(planar, "_Share", Recorded)
    return shares


@pytest.mark.parametrize(
    "jobs, trials, cpus, processes, fork",
    [
        pytest.param(5000, 3, 2, 2, False, id="5000-3-2-2"),
        pytest.param(5000, 3, 8, 3, False, id="5000-3-8-3"),
        pytest.param(2, 3, 8, 2, True, id="2-3-8-2"),
        pytest.param(3, 3, 8, 3, True, id="3-3-8-3"),
        pytest.param(4, 3, None, 1, True, id="4-3-None-1"),
    ],
)
def test_pool_has_at_most_one_worker_per_cpu_and_trace(
    jobs, trials, cpus, processes, fork, monkeypatch
):
    # min(jobs, trials, CPUs) processes walk the traces, this one included;
    # cpus=None is an OS with no affinity mask that cannot count its CPUs
    if cpus is None:
        monkeypatch.delattr(planar.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(planar.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(planar.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    shares = record_shares(monkeypatch, planar._Share if fork else InProcessShare)
    report = verify_independence(5, 3, trials=trials, seed=44, jobs=jobs)
    assert 1 + len(shares) == processes
    # this process's share is the smallest
    assert trials - sum(shares) <= min(shares, default=trials)
    assert report == verify_independence(5, 3, trials=trials, seed=44, jobs=1)


def test_cpus_are_the_affinity_mask_where_there_is_one(monkeypatch):
    # as under `taskset -c 3` on an eight-CPU machine
    monkeypatch.setattr(planar.os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(planar.os, "cpu_count", lambda: 8)
    assert planar._cpus() == 1
    shares = record_shares(monkeypatch, InProcessShare)
    report = verify_independence(5, 3, trials=3, seed=44, jobs=2)
    assert shares == []
    monkeypatch.delattr(planar.os, "sched_getaffinity")
    assert planar._cpus() == 8
    assert report == verify_independence(5, 3, trials=3, seed=44, jobs=1)


def test_without_fork_the_traces_run_in_this_process(monkeypatch):
    monkeypatch.setattr(planar.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.delattr(planar.os, "fork", raising=False)
    shares = record_shares(monkeypatch, InProcessShare)
    report = verify_independence(5, 3, trials=3, seed=44, jobs=3)
    assert shares == []
    assert report == verify_independence(5, 3, trials=3, seed=44, jobs=1)


def walk_failing_in(side):
    """`_check_trace` that raises in this process (side "parent") or only in
    the processes forked from it (side "child")."""
    parent, real = os.getpid(), planar._check_trace

    def check(u, n, cap):
        if (os.getpid() == parent) == (side == "parent"):
            raise ValueError(f"walk failed in the {side}")
        return real(u, n, cap)

    return check


@pytest.mark.parametrize("side, error", [("child", RuntimeError), ("parent", ValueError)])
def test_a_failed_share_raises_and_every_child_is_reaped(side, error, monkeypatch):
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(planar.os, "fork", fork)
    monkeypatch.setattr(planar.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(planar, "_check_trace", walk_failing_in(side))
    with pytest.raises(error, match="planar worker|walk failed in the parent"):
        verify_independence(5, 3, trials=3, seed=44, jobs=3)
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


FAILING_WALK = """
import os, sys
import discarr.cli, discarr.planar as planar
parent, real = os.getpid(), planar._check_trace
side = sys.argv.pop(1)
def check(u, n, cap):
    if (os.getpid() == parent) == (side == "parent"):
        raise ValueError(f"walk failed in the {side}")
    return real(u, n, cap)
planar._check_trace = check
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(discarr.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("side", ["child", "parent"])
def test_planar_verify_exits_one_when_a_share_fails(side):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_WALK, side, "planar-verify", "--n", "5", "--cap", "3",
         "--trials", "3", "--jobs", "2"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines()[-1].startswith("error: ")


def test_check_trace_rejects_repeated_slopes():
    # the walk's root basis e_3..e_n complements span(1, u) only for
    # distinct slopes; with u_1 = u_2 it would return wrong ranks
    with pytest.raises(ValueError, match="distinct slopes"):
        _check_trace([1, 1, 2, 3], 4, 2)


ORACLE_SETTINGS = settings(deadline=None, derandomize=True, database=None)


@st.composite
def traces(draw):
    """(distinct integer slopes, n, cap); a small range makes special traces likely."""
    n = draw(st.integers(4, 7))
    cap = draw(st.integers(1, 4))
    slopes = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n, unique=True))
    return slopes, n, cap


@settings(ORACLE_SETTINGS, max_examples=40)
@given(traces())
@example(([1, 2, 3, 4, 5, 6], 6, 4))  # arithmetic progression: quadrangles degenerate
@example(([0, 1, 3, 7, 12, 20, 30], 7, 4))
@example(([5, -3, 8, 0, 11], 5, 1))  # cap 1: every node is a leaf
@example(([1, 2, 3, 4, 5, 6], 6, 1))
@example(([2, -9, 4, 7, -1, 12, 0], 7, 2))  # cap 2: one level of pushes
@example(([1, 2, 4, 8, 16, 32], 6, 2))
@example(([0, 3, -5, 7], 4, 4))  # two pushes empty D: keys below an empty basis
@example(([1, 2, 3, 4], 4, 4))
@example(([4, -7, 0, 9, 2], 5, 5))
@example(([1, 2, 3, 4, 5], 5, 5))
@example(([3, -7, 11, 2, 5, -1], 6, 5))
# a node with two forms left and |D| = 2 keys two nonzero parallel columns of
# opposite sign: one class, so adding both lowers the dimension once
@example(([0, 1, 3, 2, 4], 5, 3))
# (1,3,4) pushed onto (1,2,3), (1,2,4) has a zero column and leaves |D| = 2;
# the columns after it are nonzero
@example(([0, 2, -3, 5, 1, -4], 6, 5))
# the five traces of `planar-verify --n 7 --cap 4 --seed 10`; on the fourth,
# two quadrangles lie on the involution locus and their rank drops
@example(([-51, 52, -19, -6, 9, 27, 17], 7, 4))
@example(([13, 48, -21, 0, -5, -28, 30], 7, 4))
@example(([9, -49, 3, 6, -20, -24, 46], 7, 4))
@example(([-15, 8, -16, -39, -3, -44, 26], 7, 4))
@example(([51, 21, -23, 27, 7, -40, -49], 7, 4))
def test_depth_first_dims_match_per_collection_rank(trace):
    # the walk appends in visit order, the oracle goes size by size
    slopes, n, cap = trace
    triples = list(combinations(range(1, n + 1), 3))
    oracle = dict(zip(all_collections(triples, cap), dims_by_rank(slopes, n, cap)))
    assert _check_trace(slopes, n, cap) == [oracle[coll] for coll in _preorder(triples, cap)]


def test_keys_are_the_parallel_classes_of_the_pairing_columns():
    # each form reads entry 0, 1 or 2 of every row: columns (2, -4), (-1, 2), (0, 0)
    pairs = [(j, 1, 3, 0, 4, 0) for j in range(3)]
    assert _keys(pairs, [[2, -1, 0, 5, 6], [-4, 2, 0, 5, 6]]) == [(1, -2), (1, -2), None]
    # one row: every nonzero pairing is in the one class
    assert _keys(pairs, [[3, -5, 0, 5, 6]]) == [1, 1, None]


@settings(ORACLE_SETTINGS, max_examples=100)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_reduce_keeps_primitive_echelon_of_full_rank(vectors):
    echelon = []
    for i, vec in enumerate(vectors):
        reduced = reduce_row(vec, echelon)
        if reduced is not None:
            pivot, row = reduced
            assert row[pivot] and gcd(*row) == 1
            assert all(row[p] == 0 for p, _ in echelon)
            echelon.append(reduced)
        assert len(echelon) == rank_by_minors(vectors[: i + 1])


families = st.lists(
    st.lists(st.integers(1, 10), min_size=3, max_size=5, unique=True), max_size=8
)


@settings(ORACLE_SETTINGS, max_examples=300)
@given(families, st.randoms(use_true_random=False))
def test_merge_matches_restart_oracle(family, rnd):
    merged = merge_classes(family)
    assert merged == merge_by_restart(family)
    assert merge_classes(merged) == merged
    shuffled = [rnd.sample(s, len(s)) for s in family]
    rnd.shuffle(shuffled)
    assert merge_classes(shuffled) == merged


def all_collections(items, cap):
    return chain.from_iterable(combinations(items, size) for size in range(1, cap + 1))


@settings(ORACLE_SETTINGS, max_examples=12)
@given(st.integers(4, 7), st.integers(1, 4))
@example(7, 4)
@example(4, 4)
def test_carried_classes_give_dim_combinatorial_slot_by_slot(n, cap):
    triples = list(combinations(range(1, n + 1), 3))
    expected = [dim_combinatorial(coll, n) for coll in _preorder(triples, cap)]
    assert _formula_dims(n, cap) == expected


QUADRANGLE = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
FANO_SIX = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7))


def relabel(family, labels):
    return [[labels[i - 1] for i in s] for s in family]


@settings(ORACLE_SETTINGS, max_examples=300)
@given(families, st.sampled_from((0, 1, 3)))
@example(relabel(QUADRANGLE, (4, 6, 1, 2, 5, 3)), 0)  # closed, no outside index
@example(relabel(QUADRANGLE, (4, 6, 1, 2, 5, 3)), 3)
@example(relabel(QUADRANGLE, (9, 2, 7, 10, 4, 5)), 0)  # closed, outside indices 1, 3, 6, 8
@example([*relabel(QUADRANGLE, (9, 2, 7, 10, 4, 5)), [1, 2, 3]], 1)  # one set slides
@example(list(FANO_SIX), 2)  # n = 9: the formula gives 4, the count 9 - 6 = 3
def test_dim_combinatorial_matches_tuple_formula(family, extra):
    # the memo stays warm across examples, so a family met at one n is
    # looked up again at another
    n = max((i for s in family for i in s), default=3) + extra
    assert dim_combinatorial(family, n) == dim_by_tuple_formula(family, n)


@pytest.mark.parametrize("n, cap, families", [(7, 4, 6258), (6, 5, 352)])
def test_formula_walk_keys_each_class_family_once(n, cap, families):
    # one memo entry per labelled class family, whatever n reached it, and
    # one generic rank per relabelled closed family: the 210 labelled
    # quadrangle families at n = 7 relabel to two keys, which are one shape
    # (swapping 4 and 5 maps one onto the other), since relabelling by first
    # appearance is not canonical
    planar._memo.clear()
    planar._closed.clear()
    _formula_dims(n, cap)
    assert len(planar._memo) == families
    assert len(planar._closed) == 2
    _formula_dims(n - 1, cap)  # every family on 1..n-1 was met at n
    assert len(planar._memo) == families


triple_of_ten = st.lists(st.integers(1, 10), min_size=3, max_size=3, unique=True).map(
    lambda s: tuple(sorted(s))
)


@settings(ORACLE_SETTINGS, max_examples=300)
@given(families, triple_of_ten)
@example([[1, 2, 3], [3, 4, 5], [5, 6, 1]], (1, 3, 5))  # one triple joins three classes
@example([[1, 2, 3, 4]], (2, 3, 4))  # absorbed into a class that contains it
def test_folding_a_triple_into_merged_classes_matches_a_fresh_merge(prefix, triple):
    whole = [*prefix, triple]
    (mask,) = _set_masks([triple])
    masks = _fold(tuple(sorted(_set_masks(merge_classes(prefix)))), mask)
    assert list(masks) == sorted(masks)  # the memo's key form
    folded = tuple(sorted(map(_bits, masks)))
    assert folded == merge_classes(whole)
    assert folded == merge_by_restart(whole)


@pytest.mark.parametrize("count, cap", [(9, 4), (9, 1), (5, 5), (3, 6), (1, 2)])
def test_preorder_yields_every_collection_once(count, cap):
    items = list(range(count))
    visited = list(_preorder(items, cap))
    assert len(visited) == len(set(visited))
    assert sorted(visited, key=lambda coll: (len(coll), coll)) == list(
        all_collections(items, cap)
    )


def test_discrepancies_on_degenerate_traces_match_per_collection_report(monkeypatch):
    # arithmetic and geometric progressions degenerate every quadrangle, so
    # the report is non-empty; it must list exactly the collections, with
    # the formula and every trace's dimension, that the per-collection
    # comparison finds
    n, cap = 6, 4
    traces = [[3, -7, 11, 2, 5, -1], [1, 2, 3, 4, 5, 6], [1, 2, 4, 8, 16, 32]]
    drawn = iter(traces)
    monkeypatch.setattr(planar, "_sample_slopes", lambda rng, n, seed: next(drawn))
    report = verify_independence(n, cap, trials=len(traces), seed=0)

    per_trace = [dims_by_rank(slopes, n, cap) for slopes in traces]
    expected = []
    triples = list(combinations(range(1, n + 1), 3))
    for pos, coll in enumerate(all_collections(triples, cap)):
        oracle_dims = [dims[pos] for dims in per_trace]
        formula = dim_combinatorial(coll, n)
        if any(d != formula for d in oracle_dims):
            collection = [list(t) for t in coll]
            expected.append(
                {"collection": collection, "formula": formula, "oracle_dims": oracle_dims}
            )
    assert expected  # the degenerate traces do show
    assert report["collections_checked"] == pos + 1
    assert report["discrepancies"] == expected


def test_report_lists_discrepancies_size_first_then_lex(monkeypatch):
    # the walks visit a size-5 collection right after its size-4 prefix, so
    # only the report's sort puts every size-4 entry first
    n, cap = 7, 5
    slopes = [1, 2, 3, 4, 5, 6, 7]
    monkeypatch.setattr(planar, "_sample_slopes", lambda rng, n, seed: slopes)
    report = verify_independence(n, cap, trials=1, seed=0)
    entries = report["discrepancies"]
    collections = [tuple(map(tuple, e["collection"])) for e in entries]
    assert [len(coll) for coll in collections].count(4) == 6
    assert [len(coll) for coll in collections].count(5) == 168
    keys = [(len(coll), coll) for coll in collections]
    assert keys == sorted(keys)
    for coll, entry in zip(collections, entries):
        assert entry["formula"] == dim_combinatorial(coll, n)
        forms = []
        for a, b, c in coll:
            vec = [0] * n
            vec[a - 1] = slopes[c - 1] - slopes[b - 1]
            vec[b - 1] = slopes[a - 1] - slopes[c - 1]
            vec[c - 1] = slopes[b - 1] - slopes[a - 1]
            forms.append(vec)
        assert entry["oracle_dims"] == [n - int_rank(forms)]


def test_planar_verify_cli_prints_the_same_bytes_for_any_jobs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "discarr.cli", "planar-verify", "--n", "6", "--cap", "3",
             "--trials", "3", "--seed", "0", "--jobs", jobs],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["discrepancies"] == []
    assert report["collections_checked"] == comb(20, 1) + comb(20, 2) + comb(20, 3)
    # the tracer's planar.memo_entries gauge reads this dict after a command
    planar._memo.clear()
    verify_independence(6, 3, trials=1, seed=0)
    assert planar._memo
