from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discarr.linalg import (
    QMatrix,
    _bareiss_det,
    common_int_rows,
    int_nullspace,
    int_rank,
    primitive_int_vector,
)
from discarr.rng import SplitMix64

from _oracles import det_by_permutations, rank_by_minors, rref_by_fractions, shuffle


def random_matrix(rng, rows, cols, bound=8):
    return QMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_trivials():
    assert identity(3).rank() == 3
    assert QMatrix.from_rows([[1, 1, 1]]).rank() == 1
    assert QMatrix.from_rows([], cols=0).rank() == 0


def test_det_trivials():
    assert QMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert QMatrix.from_rows([[1, 2], [1, 2]]).det() == 0
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2, 3]]).det()


def test_det_matches_permutation_expansion():
    rng = SplitMix64(1)
    for _ in range(40):
        size = rng.randint(1, 4)
        m = random_matrix(rng, size, size)
        assert m.det() == det_by_permutations(m.entries)


def test_det_multiplicative():
    rng = SplitMix64(2)
    for _ in range(25):
        size = rng.randint(1, 4)
        a = random_matrix(rng, size, size)
        b = random_matrix(rng, size, size)
        assert (a @ b).det() == a.det() * b.det()


def test_rank_matches_minor_oracle():
    rng = SplitMix64(3)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=3)
        assert m.rank() == rank_by_minors(m.entries)


def test_rank_transpose_and_nullity():
    rng = SplitMix64(4)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() == m.transpose().rank()
        assert m.rank() + m.nullspace_basis().rows == m.cols


def test_nullspace_trivials():
    ns = QMatrix.from_rows([[1, 1, 1]]).nullspace_basis()
    assert ns.rows == 2
    for row in ns.entries:
        assert sum(row) == 0
    assert identity(5).nullspace_basis().rows == 0


def test_nullspace_annihilates_and_is_canonical_under_row_permutation():
    rng = SplitMix64(5)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        ns = m.nullspace_basis()
        if ns.rows:
            assert all(x == 0 for row in (m @ ns.transpose()).entries for x in row)
        rows = list(m.entries)
        shuffle(rng, rows)
        assert QMatrix.from_rows(rows).nullspace_basis().entries == ns.entries


def test_rref_is_canonical_for_row_space():
    rng = SplitMix64(6)
    for _ in range(25):
        m = random_matrix(rng, 3, 4)
        red, _ = m.rref()
        # multiply by a random invertible matrix: same row space, same rref
        while True:
            g = random_matrix(rng, 3, 3)
            if g.det() != 0:
                break
        red2, _ = (g @ m).rref()
        assert red.entries == red2.entries


def test_int_rank_agrees_with_fraction_path():
    rng = SplitMix64(7)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(4)]
        assert int_rank(rows) == QMatrix.from_rows(rows).rank()


def test_fraction_entries_round_trip():
    m = QMatrix.from_rows([["1/2", 2], [Fraction(3, 7), -1]])
    assert m.det() == Fraction(-1, 2) - Fraction(6, 7)


def test_det_sign_flips_under_row_swap():
    rng = SplitMix64(9)
    for _ in range(15):
        m = random_matrix(rng, 3, 3)
        swapped = QMatrix.from_rows([m.entries[1], m.entries[0], m.entries[2]])
        assert swapped.det() == -m.det()


def test_rank_of_product_bounded():
    rng = SplitMix64(10)
    for _ in range(15):
        a = random_matrix(rng, 3, 4, bound=4)
        b = random_matrix(rng, 4, 3, bound=4)
        assert (a @ b).rank() <= min(a.rank(), b.rank())


@st.composite
def int_matrices(draw):
    """Small integer matrices, with zero and repeated rows mixed in."""
    cols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    extras = draw(st.lists(st.sampled_from(["zero", "repeat", "multiple"]), max_size=2))
    for kind in extras:
        source = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "zero":
            new = [0] * cols
        elif kind == "repeat":
            new = list(source)
        else:
            new = [draw(st.sampled_from([-3, -1, 2])) * x for x in source]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(int_matrices())
@example([[0, 0, 0]])
@example([[2, -4, 6, 0, 8]])
@example([[1, 2], [1, 2], [0, 0]])
def test_int_rank_matches_minor_oracle(rows):
    snapshot = [list(r) for r in rows]
    assert int_rank(rows) == rank_by_minors(rows)
    assert rows == snapshot


@st.composite
def square_int_matrices(draw):
    """Square integer matrices up to 5 x 5, some with a zero or repeated row."""
    size = draw(st.integers(1, 5))
    row = st.lists(st.integers(-9, 9), min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["plain", "zero", "repeat", "multiple"]))
    if size > 1 and kind != "plain":
        i, j = draw(st.permutations(range(size)))[:2]
        if kind == "zero":
            rows[i] = [0] * size
        else:
            factor = 1 if kind == "repeat" else draw(st.sampled_from([-2, 3]))
            rows[i] = [factor * x for x in rows[j]]
    return rows


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(square_int_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])  # needs a row swap: the sign flips
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
def test_bareiss_det_matches_permutation_expansion(rows):
    assert _bareiss_det([list(r) for r in rows]) == det_by_permutations(rows)


def nullspace_from_rref(rows, cols):
    """The canonical nullspace basis read off the `Fraction` oracle's rref.

    One vector per free column: 1 there, 0 at the other free columns, and
    minus that column of the reduced rows at the pivots.
    """
    red, pivots = rref_by_fractions(rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return tuple(basis)


@st.composite
def rational_matrices(draw):
    """(rows, cols): "p/q" and integer entries, maybe no rows, zero and repeated rows."""
    cols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-6, 6),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 7)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat"]), max_size=2)):
        new = [0] * cols if kind == "zero" or not rows else list(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, cols


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(rational_matrices())
@example(([], 3))
@example(([[0, 0]], 2))
@example(([["1/2", 3], ["1/2", 3], [0, 0]], 2))
@example(([["2/3", "-4/9", 0], [0, 0, "5/7"]], 3))
def test_rref_and_nullspace_match_fraction_oracle(matrix):
    rows, cols = matrix
    m = QMatrix.from_rows(rows, cols=cols)
    red, pivots = m.rref()
    assert (red.entries, pivots) == rref_by_fractions(rows, cols)
    assert red.cols == cols
    basis = m.nullspace_basis()
    assert basis.entries == nullspace_from_rref(rows, cols)
    assert basis.cols == cols


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(int_matrices())
@example([[0, 0, 0]])
@example([[2, -4, 6, 0, 8]])
@example([[1, 2], [1, 2], [0, 0]])
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # full rank: no basis
@example([[0, 3, -6], [0, 3, -6]])
def test_int_nullspace_is_the_primitive_rref_basis(rows):
    cols = len(rows[0])
    snapshot = [list(r) for r in rows]
    expected = [primitive_int_vector(v) for v in nullspace_from_rref(rows, cols)]
    assert int_nullspace(rows, cols) == expected
    assert rows == snapshot
    if rank_by_minors(rows) == cols:
        assert expected == []


def test_int_nullspace_of_no_rows_is_the_standard_basis():
    assert int_nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_common_int_rows_scales_every_minor_alike():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 1], [3, Fraction(-1, 7)]]
    scaled = common_int_rows(rows)
    assert scaled == ((105, 70), (84, 210), (630, -30))  # all times 210
    for i, j in ((0, 1), (0, 2), (1, 2)):
        true = QMatrix.from_rows([rows[i], rows[j]]).det()
        assert _bareiss_det([list(scaled[i]), list(scaled[j])]) == true * 210**2
