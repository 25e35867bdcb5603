"""Exact linear algebra on integer rows.

Every rank, determinant and nullspace computation in the package is exact,
since each geometric predicate downstream is a rank condition and a single
rounding error flips a classification.  Matrices are sequences of integer
rows; `common_int_rows` clears a rational matrix's denominators by one
multiplier, so its minors keep their ratios.

Each linear-algebra question has one fraction-free kernel: `reduce_row`
(one row against an echelon; `int_rank` folds it), `_int_rref`
(Gauss-Jordan; `int_nullspace` and `QMatrix.rref` read it) and
`_bareiss_det`.  `QMatrix`, an immutable grid of `Fraction`s, is a
thin entry point that clears denominators and calls those kernels.  Reduced
row echelon form stays the canonical normal form for subspaces: two
row-equivalent matrices produce identical `rref()` output, so
`nullspace_basis` is canonical too, and `int_nullspace` is its primitive
integer image.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, str, Fraction]


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def to_fraction(x: Scalar) -> Fraction:
    """Coerce an int (not a bool), a Fraction, or a "p" or "p/q" string to Fraction.

    Only a sign, digits and "/digits": `Fraction` alone would also expand
    "1e10000000", for seconds or until memory runs out.
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is int or isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise TypeError(f"cannot interpret {reprlib.repr(x)} as an exact rational")


def common_int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """The rows times one common denominator, as integers.

    Unlike row-by-row clearing, this scales every k x k minor by the same
    factor, so ratios of minors (and the forms built from them) survive.
    """
    mult = lcm(*(f.denominator for row in rows for f in row))
    return tuple(tuple(f.numerator * (mult // f.denominator) for f in row) for row in rows)


def reduce_row(vec: Sequence[int], echelon: list[tuple[int, Sequence[int]]]):
    """`vec` reduced against the echelon rows: (pivot, primitive row) or None.

    Each echelon row is zero at the pivots of the rows before it, so
    eliminating the pivots in order, fraction-free, leaves the earlier ones
    zero, and the result is zero exactly when `vec` lies in the rows' span.
    None then; otherwise the row divided by its content, so the echelon's
    operands stay small.  Mutates nothing.
    """
    row = vec
    for p, e in echelon:
        head = row[p]
        if head:
            piv = e[p]
            row = [x * piv - y * head for x, y in zip(row, e)]
    g = gcd(*row)
    if not g:
        return None
    if g > 1:
        row = [x // g for x in row]
    return next(p for p, x in enumerate(row) if x), row


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix: the echelon `reduce_row` builds row by row."""
    echelon: list[tuple[int, Sequence[int]]] = []
    for row in rows:
        reduced = reduce_row(row, echelon)
        if reduced is not None:
            echelon.append(reduced)
    return len(echelon)


def _bareiss_det(work: list[list[int]]) -> int:
    """Determinant of a square integer matrix, Bareiss fraction-free scheme."""
    n = len(work)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[-1][-1]


def _int_rref(rows: Iterable[Sequence[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: (nonzero rows, pivot columns).

    Row i has its pivot at pivots[i] and zeros at every other pivot column;
    dividing it by that entry gives row i of the reduced row echelon form.
    Each produced row is divided by its content.  Mutates nothing.
    """
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        piv_row = work[rank]
        piv = piv_row[col]
        for i, row in enumerate(work):
            head = row[col]
            if head and i != rank:
                row = [a * piv - b * head for a, b in zip(row, piv_row)]
                g = gcd(*row)
                work[i] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return work[: len(pivots)], pivots


def int_nullspace(rows: Iterable[Sequence[int]], cols: int) -> list[tuple[int, ...]]:
    """Canonical primitive integer basis of the right nullspace.

    One vector per free column, in column order; each equals
    `primitive_int_vector` of the matching row of `QMatrix.nullspace_basis()`
    (coprime entries, first nonzero positive).  A full-rank input gives [].
    Mutates nothing.
    """
    work, pivots = _int_rref(rows, cols)
    basis = []
    pivot_set = set(pivots)
    for free in range(cols):
        if free in pivot_set:
            continue
        # x_free = m, x_pivot = -row[free] * m / row[pivot]
        mult = lcm(*(work[i][p] for i, p in enumerate(pivots) if work[i][free]))
        vec = [0] * cols
        vec[free] = mult
        for i, p in enumerate(pivots):
            if work[i][free]:
                vec[p] = -work[i][free] * (mult // work[i][p])
        basis.append(primitive_int_vector(vec))
    return basis


def primitive_int_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    mult = lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * mult) for f in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


class QMatrix(NamedTuple):
    """Immutable dense matrix of exact rationals.

    Instances are hashable and safe to share between threads; all operations
    are pure functions returning new values.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]], cols: int | None = None) -> "QMatrix":
        data = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = cols if cols is not None else 0
        if cols is not None and data and width != cols:
            raise ValueError(f"expected {cols} columns, got {width}")
        return cls(data, width)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def transpose(self) -> "QMatrix":
        if not self.entries:
            return QMatrix(tuple(() for _ in range(self.cols)), 0)
        return QMatrix(tuple(zip(*self.entries)), self.rows)

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return QMatrix(self.entries + other.entries, self.cols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = other.transpose().entries
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return QMatrix(data, other.cols)

    def rank(self) -> int:
        return int_rank(common_int_rows(self.entries))

    def det(self) -> Fraction:
        """Exact determinant, permutation-parity sign convention."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        mult = lcm(*(f.denominator for row in self.entries for f in row))
        work = [list(row) for row in common_int_rows(self.entries)]
        return Fraction(_bareiss_det(work), mult**self.rows)

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Canonical reduced row echelon form (zero rows dropped).

        Output depends only on the row space, so it serves as a normal form
        for subspace identity tests.  The integer rows of `_int_rref`
        divided by their pivot entries: the reduced form is unique.
        """
        work, pivots = _int_rref(common_int_rows(self.entries), self.cols)
        data = tuple(tuple(Fraction(x, row[p]) for x in row) for row, p in zip(work, pivots))
        return QMatrix(data, self.cols), tuple(pivots)

    def nullspace_basis(self) -> "QMatrix":
        """Canonical basis of the right nullspace, one row per free column.

        Derived from the reduced echelon form, so row-equivalent inputs (in
        particular row permutations) give identical output.  A full-rank
        square input yields a 0-row matrix.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero, one = Fraction(0), Fraction(1)
        rows = []
        for f in free:
            vec = [zero] * self.cols
            vec[f] = one
            for i, p in enumerate(pivots):
                vec[p] = -red.entries[i][f]
            rows.append(tuple(vec))
        return QMatrix(tuple(rows), self.cols)
