import json
import time
from fractions import Fraction
from itertools import combinations

import pytest

from discarr.arrangement import (
    GenericArrangement,
    arrangement_from_json,
    arrangement_to_json,
    is_trace_generic,
    random_generic,
)
from discarr.linalg import QMatrix, int_rank

from _oracles import restrict


def test_trace_generic_trivials():
    ident = GenericArrangement(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_trace_generic(ident)
    good = GenericArrangement(3, 2, [[1, 0], [0, 1], [1, 1]])
    assert is_trace_generic(good)
    repeated = GenericArrangement(3, 2, [[1, 0], [0, 1], [1, 0]])
    assert not is_trace_generic(repeated)


def test_trace_generic_rejects_too_few_hyperplanes():
    arr = GenericArrangement(2, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        is_trace_generic(arr)


def test_random_generic_contract():
    arr = random_generic(4, 2, seed=1, bound=10)
    assert is_trace_generic(arr)
    assert all(type(x) is int and abs(x) <= 10 for row in arr.normals for x in row)
    again = random_generic(4, 2, seed=1, bound=10)
    assert arr.normals == again.normals
    other = random_generic(4, 2, seed=2, bound=10)
    assert arr.normals != other.normals


def test_normals_must_be_integer_rows():
    # `_bareiss_det` divides exactly only on integers, so Fractions and
    # bools are refused; lists are stored as tuples
    arr = GenericArrangement(2, 1, [[2], [3]])
    assert arr.normals == ((2,), (3,))
    for bad in ([[Fraction(1, 2)], [3]], [[True], [3]], [[2.0], [3]]):
        with pytest.raises(TypeError):
            GenericArrangement(2, 1, bad)
    for bad in ([[2], [3], [5]], [[2, 1], [3]]):
        with pytest.raises(ValueError, match="n x k"):
            GenericArrangement(2, 1, bad)


def test_random_generic_preconditions():
    with pytest.raises(ValueError):
        random_generic(3, 3, seed=1, bound=10)
    with pytest.raises(ValueError):
        random_generic(5, 2, seed=1, bound=3)


def test_normals_transpose_nullspace_dimension():
    for n, k, seed in ((5, 2, 11), (6, 3, 12), (7, 4, 13)):
        arr = random_generic(n, k, seed=seed, bound=12)
        assert QMatrix.from_rows(arr.normals).transpose().nullspace_basis().rows == n - k


def test_restrict_empty_is_identity():
    arr = random_generic(5, 3, seed=3, bound=10)
    out, offsets = restrict(arr, ())
    assert out is arr and offsets == (0,) * 5


def test_restrict_seven_planes_to_one():
    arr = random_generic(7, 3, seed=4, bound=12)
    out, _ = restrict(arr, (7,))
    assert (out.n, out.k) == (6, 2)
    assert is_trace_generic(out)


def test_restrict_rejects_too_large():
    arr = random_generic(6, 3, seed=5, bound=10)
    with pytest.raises(ValueError):
        restrict(arr, (1, 2, 3))


def test_restrict_composition_agrees_up_to_coordinates():
    arr = random_generic(8, 4, seed=6, bound=12)
    once, _ = restrict(restrict(arr, (7,))[0], (7,))  # second (7,) is index 8 originally
    both, _ = restrict(arr, (7, 8))
    assert (once.n, once.k) == (both.n, both.k)
    # invertible coordinate change preserves ranks of all row subsets
    for size in range(1, once.k + 1):
        for rows in combinations(range(once.n), size):
            assert (
                int_rank([once.normals[i] for i in rows])
                == int_rank([both.normals[i] for i in rows])
            )


def test_json_round_trip():
    # the normals round-trip; offsets are validated and dropped, since no
    # computation reads translates, so a document with them loads the same
    arr = random_generic(5, 2, seed=7, bound=10)
    doc = json.loads(json.dumps(arrangement_to_json(arr)))
    assert sorted(doc) == ["k", "n", "normals"]
    assert arrangement_from_json(doc) == arr
    assert arrangement_from_json(dict(doc, offsets=[3, -7, 0, 10, "-2/3"])) == arr


def test_json_rationals_as_strings():
    # the normals are cleared by one common denominator, 12 here
    rows = [["1/2", "-2/3"], [3, "+5"], ["1/4", 1]]
    arr = arrangement_from_json({"n": 3, "k": 2, "normals": rows, "offsets": ["-2/3", 0, 1]})
    assert arr.normals == ((6, -8), (36, 60), (3, 12))


def test_json_malformed_rejected():
    for doc in (
        {"n": 2, "k": 1, "normals": [[1], [1], [1]]},
        {"n": 2, "k": 1},
        {"n": 2, "k": 1, "normals": [["1/0"], [1]]},
        {"n": 2, "k": 1, "normals": [[1], [2]], "offsets": ["1/0", 0]},
        {"n": 2, "k": 1, "normals": [[1], [2]], "offsets": [0]},
        {"n": 2, "k": 1, "normals": [[1], [2]], "offsets": [0, 1.5]},
        {"n": 2, "k": 1, "normals": [[" 1/2"], [1]]},
        {"n": 2, "k": 1, "normals": [[1], [2]], "offsets": ["1e3", 0]},
    ):
        with pytest.raises(ValueError, match="malformed arrangement document"):
            arrangement_from_json(doc)


@pytest.mark.parametrize("entry", ["1e10000000", "0.5"])
def test_json_rationals_take_only_the_p_q_form(entry):
    # `Fraction` would expand the exponent for seconds, or until memory runs
    # out; the documented form refuses it before any arithmetic
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        arrangement_from_json({"n": 2, "k": 1, "normals": [[entry], [1]]})
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (
        f"malformed arrangement document: cannot interpret {entry!r} as an exact rational"
    )


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2, "k": 1}, "missing field 'normals'"),
        ({"k": 1, "normals": [[1], [2]]}, "missing field 'n'"),
        ([], "document must be a JSON object"),
        ({"n": 2, "k": 1, "normals": [[1], [1], [1]]}, "normals must be an n x k matrix"),
        ({"n": 2, "k": 1, "normals": [[1], [2]], "name": "x"}, "unexpected field 'name'"),
    ],
    ids=["no-normals", "no-n", "top-level-list", "extra-row", "extra-field"],
)
def test_json_malformed_message_names_the_fault(doc, message):
    with pytest.raises(ValueError) as exc:
        arrangement_from_json(doc)
    assert str(exc.value) == f"malformed arrangement document: {message}"


def test_restrict_chart_preserves_incidence_algebra():
    # points on the flat, reconstructed through the chart, give the original
    # equations the values of the restricted ones, up to the one positive
    # factor that cleared the restricted equations' denominators
    from discarr.rng import SplitMix64

    arr = random_generic(6, 3, seed=15, bound=10)
    offsets = tuple(Fraction(x) for x in (4, -9, 2, 7, -1, 5))
    chosen = (2,)
    out, out_offsets = restrict(arr, chosen, offsets)
    aug = QMatrix.from_rows([arr.normals[1] + (offsets[1],)])
    red, pivots = aug.rref()
    free = [c for c in range(arr.k) if c not in set(pivots)]
    rng = SplitMix64(99)
    remaining = [j for j in range(1, arr.n + 1) if j not in chosen]
    values = []
    for _ in range(6):
        free_vals = [Fraction(rng.randint(-9, 9)) for _ in free]
        point = [Fraction(0)] * arr.k
        for f, val in zip(free, free_vals):
            point[f] = val
        for i, p in enumerate(pivots):
            point[p] = red.entries[i][arr.k] - sum(
                red.entries[i][f] * v for f, v in zip(free, free_vals)
            )
        # chosen hyperplane holds at this point
        assert sum(a * y for a, y in zip(arr.normals[1], point)) == offsets[1]
        for pos, j in enumerate(remaining):
            original = sum(a * y for a, y in zip(arr.normals[j - 1], point)) - offsets[j - 1]
            restricted = sum(
                a * v for a, v in zip(out.normals[pos], free_vals)
            ) - out_offsets[pos]
            values.append((original, restricted))
    scale = next(r / o for o, r in values if o)
    assert scale > 0 and all(r == scale * o for o, r in values)
