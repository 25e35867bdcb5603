import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from discarr.arrangement import GenericArrangement, is_trace_generic, random_generic
from discarr.cli import main
from discarr.discriminantal import construct_dependent, dependent_triples
from discarr.gale import (
    concurrent_partition_exists,
    essential_normals_via_gale,
    gale_transform,
    pencil_partition_exists,
    random_concurrent_sextuple,
    random_generic_sextuple,
)
from discarr.linalg import QMatrix, common_int_rows, int_rank
from discarr.rng import SplitMix64

from _oracles import concurrent_pairs_by_cross, shuffle


def random_config(rng, dim, n, bound=7):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(dim)]
        if int_rank(rows) == dim:
            return rows


def annihilates(dual, points):
    """Q P^t = 0: every dual row is orthogonal to every point row."""
    return all(sum(a * b for a, b in zip(q, p)) == 0 for q in dual for p in points)


def columns(rows):
    return list(zip(*rows))


def test_gale_block_identity():
    points = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    dual = gale_transform(points)
    assert len(dual) == 3 and all(len(row) == 6 for row in dual)
    assert annihilates(dual, points)
    assert int_rank(dual) == 3


def test_gale_twice_is_linearly_equivalent():
    rng = SplitMix64(21)
    for _ in range(5):
        points = random_config(rng, 3, 6)
        twice = gale_transform(gale_transform(points))
        assert QMatrix.from_rows(twice).rref() == QMatrix.from_rows(points).rref()


def test_gale_contract_random():
    rng = SplitMix64(22)
    points = random_config(rng, 3, 6)
    dual = gale_transform(points)
    assert len(dual) == 3 and all(len(row) == 6 for row in dual)
    assert annihilates(dual, points)


def test_gale_rejects_degenerate():
    with pytest.raises(ValueError):
        gale_transform([[1, 2, 3], [2, 4, 6]])  # two points spanning a line
    with pytest.raises(ValueError):
        gale_transform([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # no more points than dimensions


@pytest.mark.parametrize("points", [[[1, 2, 3], [4, 5, 6, 7]], [[1, 2, 3, 4], [4, 5, 6]]])
def test_gale_rejects_ragged_rows(points):
    # a longer later row used to be cut to the first row's length, and a
    # shorter one to raise IndexError
    with pytest.raises(ValueError, match="equal length"):
        gale_transform(points)


@st.composite
def point_rows(draw):
    """d x n integer rows, n > d, full rank or not."""
    d, n = draw(st.sampled_from([(1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (5, 9)]))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=d, max_size=d))


@settings(deadline=None, derandomize=True, database=None, max_examples=120)
@given(point_rows())
# negative pivots, and primitive basis vectors whose last entry is negative,
# where the common factor divides with a sign
@example([[-2, 3, 1, -5], [4, -1, -3, 2]])
@example([[-3, -1, 2, 7, -4], [5, 2, -6, -1, 3], [-1, 4, 4, -2, -2]])
@example([[-1, 0, 2]])
def test_gale_transform_matches_fraction_nullspace(points):
    # the integer kernel against the `Fraction` one: the canonical basis of
    # `QMatrix.nullspace_basis`, cleared of denominators by one factor
    d, n = len(points), len(points[0])
    if int_rank(points) != d:
        with pytest.raises(ValueError):
            gale_transform(points)
        return
    dual = gale_transform(points)
    assert dual == common_int_rows(QMatrix.from_rows(points).nullspace_basis().entries)
    assert annihilates(dual, points)
    assert int_rank(dual) == len(dual) == n - d


def test_essential_normals_6_3_and_rejections():
    arr = random_generic(6, 3, seed=5, bound=12)
    normals = essential_normals_via_gale(arr)
    assert len(normals) == 15
    for subset, vec in normals:
        assert len(vec) == 3  # dim n-k
    with pytest.raises(ValueError):
        essential_normals_via_gale(random_generic(4, 3, seed=1, bound=8))


def test_essential_part_of_smallest_case_is_distinct_lines():
    arr = random_generic(5, 3, seed=9, bound=12)
    normals = essential_normals_via_gale(arr)
    assert len(normals) == 5
    for (_, u), (_, v) in combinations(normals, 2):
        assert int_rank([u, v]) == 2


def test_concurrent_partition_positive_and_negative():
    pos = random_concurrent_sextuple(seed=31)
    found, witness = concurrent_partition_exists(pos)
    assert found and len(witness) == 3
    neg = random_generic_sextuple(seed=31)
    found_neg, witness_neg = concurrent_partition_exists(neg)
    assert not found_neg and witness_neg is None


def test_concurrent_partition_rejects_repeated_points():
    points = [[1, 2, 1, 0, 0, 2], [0, 1, 0, 1, 2, 2], [0, 0, 0, 1, 1, 0]]
    with pytest.raises(ValueError):  # columns 1 and 3 coincide
        concurrent_partition_exists(points)


def test_gale_invariance_sampled():
    for seed in range(200, 212):
        pos = random_concurrent_sextuple(seed=seed)
        a, _ = concurrent_partition_exists(pos)
        b, _ = concurrent_partition_exists(gale_transform(pos))
        assert a and b
        neg = random_generic_sextuple(seed=seed)
        a, _ = concurrent_partition_exists(neg)
        b, _ = concurrent_partition_exists(gale_transform(neg))
        assert not a and not b


def test_pencil_agrees_with_concurrent_for_s2():
    for seed in (61, 62):
        pos = random_concurrent_sextuple(seed=seed)
        assert pencil_partition_exists(pos)[0] == concurrent_partition_exists(pos)[0]
        neg = random_generic_sextuple(seed=seed)
        assert pencil_partition_exists(neg)[0] == concurrent_partition_exists(neg)[0]


@pytest.mark.parametrize(
    "points",
    [[], [[]], [[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5], [0, 0, 1, 1, 1, 1]]],
    ids=["no-rows", "no-points", "unequal-rows"],
)
def test_pencil_partition_rejects_malformed_points(points):
    with pytest.raises(ValueError, match="rows of equal length"):
        pencil_partition_exists(points)


def quadrilateral_vertices(seed):
    """The six meets of four random lines, shuffled: six concurrent pairings.

    Two sides of the quadrilateral and the diagonal through their meet
    concur, so the first pairing found depends on the point order.
    """
    rng = SplitMix64(seed)
    while True:
        lines = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        if any(int_rank(three) < 3 for three in combinations(lines, 3)):
            continue  # three concurrent lines would merge vertices
        points = [
            QMatrix.from_rows([a, b]).nullspace_basis().entries[0] for a, b in combinations(lines, 2)
        ]
        shuffle(rng, points)
        return columns(common_int_rows(points))


SAMPLERS = {
    "concurrent": random_concurrent_sextuple,
    "generic": random_generic_sextuple,
    "quadrilateral": quadrilateral_vertices,
}


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), seed=st.integers(0, 2**32 - 1))
def test_concurrent_partition_matches_cross_product_oracle(sampler, seed):
    points = SAMPLERS[sampler](seed=seed)
    for side in (points, gale_transform(points)):
        assert concurrent_partition_exists(side) == concurrent_pairs_by_cross(columns(side))


def test_dual_points_reflect_dependency():
    # hyperplanes of a dependent trace, read as projective points, admit a
    # concurrent partition; a dependency-free trace's points do not
    dep63 = construct_dependent(2, 0, seed=11)
    found, witness = concurrent_partition_exists(columns(dep63.normals))
    assert found and witness == ((1, 2), (3, 4), (5, 6))
    for seed in (71, 72):
        arr = random_generic(6, 3, seed=seed, bound=12)
        if dependent_triples(arr):
            continue
        found, _ = concurrent_partition_exists(columns(arr.normals))
        assert not found


def test_pencil_invariance_for_three_groups_of_three():
    # s = 3 evidence: a (9,5) trace carries a dependent triple exactly when
    # the Gale transform of its normals (9 points in dimension 4) admits a
    # partition into three triples spanning hyperplanes of a pencil
    dependent = construct_dependent(3, 0, seed=3)
    dual = gale_transform(columns(dependent.normals))
    assert len(dual) == 4 and all(len(row) == 9 for row in dual)
    found, witness = pencil_partition_exists(dual)
    assert found and witness == ((1, 2, 3), (4, 5, 6), (7, 8, 9))

    generic = random_generic(9, 5, seed=81, bound=14)
    assert not dependent_triples(generic)
    gale_side = gale_transform(columns(generic.normals))
    assert not pencil_partition_exists(gale_side)[0]


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    st.sampled_from([random_concurrent_sextuple, random_generic_sextuple]),
    st.integers(0, 10**6),
)
def test_gale_dual_triples_answer_the_concurrent_partition_search(sampler, seed):
    # s = 2: six plane points P admit three pairs spanning concurrent lines
    # exactly when the (6,3) arrangement whose normals are the Gale points of
    # P has a dependent triple, and then the pairs are such a triple's groups
    points = sampler(seed)
    dual = GenericArrangement(6, 3, columns(gale_transform(points)))
    # three collinear points of P make a 3 x 3 minor of the dual vanish
    assume(is_trace_generic(dual))
    found, witness = concurrent_partition_exists(points)
    triples = dependent_triples(dual)
    assert found == bool(triples)
    groups = [
        tuple(sorted(tuple(sorted(set(x) & set(y))) for x, y in combinations(t, 2)))
        for t in triples
    ]
    assert witness in groups if found else witness is None


def triple_groups(triple):
    """The three groups of a t = 0 dependent triple: its pairwise overlaps."""
    pairs = combinations(triple, 2)
    return tuple(sorted(tuple(sorted(set(x) & set(y))) for x, y in pairs))


@settings(deadline=None, derandomize=True, database=None, max_examples=20)
@given(st.booleans(), st.integers(0, 10**6))
def test_gale_points_answer_the_dependent_triple_search_for_groups_of_three(dependent, seed):
    # s = 3, t = 0: a (9,5) trace has a dependent triple exactly when the
    # Gale transform of its normals, nine points in dimension 4, splits into
    # three triples spanning hyperplanes of a pencil, and then the triples
    # are the dependent triple's groups; t > 0 is not tested here
    arr = construct_dependent(3, 0, seed) if dependent else random_generic(9, 5, seed, bound=14)
    points = gale_transform(columns(arr.normals))
    # a vanishing 4 x 4 minor of the points would make a group degenerate
    assume(is_trace_generic(GenericArrangement(9, 4, columns(points))))
    found, witness = pencil_partition_exists(points)
    triples = dependent_triples(arr)
    assert found == bool(triples)
    assert witness in [triple_groups(t) for t in triples] if found else witness is None


def test_concurrent_sampler_redraws_collinear_points():
    # seed 1055 first draws six points on one line; the configuration would
    # not span the plane and its Gale transform would be undefined
    points = random_concurrent_sextuple(seed=1055)
    assert int_rank(points) == 3
    assert concurrent_partition_exists(points)[0]
    assert concurrent_partition_exists(gale_transform(points))[0]


def test_nonzero_int_rejects_an_empty_range():
    rng = SplitMix64(0)
    for bound in (0, -2):
        with pytest.raises(ValueError, match="no nonzero integer"):
            rng.nonzero_int(bound)
    assert {rng.nonzero_int(1) for _ in range(20)} == {-1, 1}


def test_concurrent_sampler_with_zero_bound_exits_one(capsys, monkeypatch):
    # every apex drawn from [0, 0] is zero, so the sampler spends its budget
    # and the CLI reports that instead of hanging
    import discarr.cli as cli
    import discarr.gale as gale

    monkeypatch.setattr(
        gale, "random_concurrent_sextuple", lambda seed: random_concurrent_sextuple(seed, bound=0)
    )
    code = cli.main(["gale-invariance", "--trials", "1", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    message = "no concurrent sextuple after 100 draws (seed=7); try another seed"
    assert captured.err == f"error: {message}\n"


# sha256 of the `gale` and `gale-invariance` stdout.  The printed normals
# and the sampled sextuples come from `nullspace_basis`, which no benchmark
# digest covers.  The inputs: a generic (6,3), a lifted dependent one, and
# normals given as "p/q" strings, so rational entries reach the kernels too.
FRACTION_NORMALS = {
    "n": 6,
    "k": 3,
    "normals": [
        ["1/2", 3, -1], [2, "-5/3", 4], [1, 1, "7/4"],
        [-3, "2/5", 1], [5, -2, "1/3"], ["9/7", 4, -6],
    ],
}
GALE_DIGESTS = [
    (
        ["gen", "--n", "6", "--k", "3", "--seed", "4"],
        "4de56ba61cb7c10bb33fc57cfc74dd957473c2fda2488718c79b3bc0e78f1344",
    ),
    (
        ["dependent-construct", "--s", "2", "--t", "1", "--seed", "3"],
        "07715436b335f87d160bb748031bd2742581f4ce083172df211a5dc7dd0bc8f5",
    ),
    (FRACTION_NORMALS, "111e9db25df71fe7414703be702f7c77b8ac251a0d77425fcab9b4cd29bf239a"),
]


def cli_stdout(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0, " ".join(argv)
    return buf.getvalue().encode()


@pytest.mark.parametrize("source, digest", GALE_DIGESTS, ids=["generic", "dependent", "fractions"])
def test_gale_stdout_matches_pinned_digest(tmp_path, source, digest):
    path = tmp_path / "arr.json"
    if isinstance(source, dict):
        path.write_text(json.dumps(source))
    else:
        path.write_bytes(cli_stdout(source))
    out = cli_stdout(["gale", "--input", str(path)])
    assert hashlib.sha256(out).hexdigest() == digest


def test_gale_invariance_stdout_matches_pinned_digest():
    out = cli_stdout(["gale-invariance", "--trials", "20", "--seed", "0"])
    expected = "ea3f879f13057961da7cd538a25c578eb07365d4d4eb439cb16ff02c328d208c"
    assert hashlib.sha256(out).hexdigest() == expected
