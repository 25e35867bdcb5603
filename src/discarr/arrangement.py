"""Generic hyperplane arrangements and their traces at infinity.

An arrangement of n hyperplanes in k-space is stored as the n x k matrix of
normal coefficients (row j holds the linear form of hyperplane j) plus
optional translation offsets.  The discriminantal machinery downstream only
ever reads the normals: the trace at infinity alone determines the space of
parallel translates.  Offsets are carried for membership tests of concrete
translate tuples and for restriction.

Hyperplane indices are 1-based on every public surface, matching the JSON
interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import QMatrix, _bareiss_det, common_int_rows, to_fraction
from .rng import SplitMix64

RESAMPLE_BUDGET = 400


@dataclass(frozen=True)
class GenericArrangement:
    n: int
    k: int
    normals: QMatrix  # n x k
    offsets: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.normals.rows != self.n or self.normals.cols != self.k:
            raise ValueError("normals must be an n x k matrix")
        if self.offsets is not None and len(self.offsets) != self.n:
            raise ValueError("offsets must have length n")

    def normal_rows(self, indices_1based) -> QMatrix:
        return self.normals.submatrix([i - 1 for i in indices_1based])

    @cached_property
    def int_normals(self) -> tuple[tuple[int, ...], ...]:
        """The normals times one common denominator (see `common_int_rows`)."""
        return common_int_rows(self.normals.entries)

    @cached_property
    def minors(self) -> dict[tuple[int, ...], int]:
        """Every k x k minor of `int_normals`, keyed by its sorted 1-based rows.

        Each is the true minor of the normals times the same positive factor,
        so zero tests and ratios of minors read straight off the table.
        """
        rows = self.int_normals
        return {
            subset: _bareiss_det([list(rows[i - 1]) for i in subset])
            for subset in combinations(range(1, self.n + 1), self.k)
        }


def is_trace_generic(arr: GenericArrangement) -> bool:
    """True iff every k x k minor of the normals is nonzero.

    Equivalently: the trace at infinity is a normal crossing divisor.
    Raises on n < k, where the arrangement cannot be essential.
    """
    if arr.n < arr.k:
        raise ValueError(f"need n >= k, got n={arr.n}, k={arr.k}")
    return all(arr.minors.values())


def is_affine_generic(arr: GenericArrangement) -> bool:
    """True iff additionally no k+1 of the translated hyperplanes concur.

    Requires offsets; checks every (k+1) x (k+1) determinant of normals
    augmented by the offset column.
    """
    if arr.offsets is None:
        raise ValueError("affine genericity needs offsets")
    if not is_trace_generic(arr):
        return False
    if arr.n < arr.k + 1:
        return True
    col = QMatrix.from_rows([[x] for x in arr.offsets])
    aug = arr.normals.hstack(col)
    for rows in combinations(range(arr.n), arr.k + 1):
        if aug.submatrix(rows).det() == 0:
            return False
    return True


def random_generic(
    n: int,
    k: int,
    seed: int,
    bound: int,
    with_offsets: bool = False,
) -> GenericArrangement:
    """Deterministically sample a trace-generic arrangement.

    Integer entries in [-bound, bound], rejection-resampled until generic
    (and affine-generic when offsets are requested).  Raises RuntimeError
    with the seed and attempt count if the budget runs out, which signals
    that `bound` is too small.
    """
    if not (n > k >= 1):
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    if bound < n:
        raise ValueError(f"need bound >= n, got bound={bound}, n={n}")
    rng = SplitMix64(seed)
    for attempt in range(RESAMPLE_BUDGET):
        normals = QMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        )
        offsets = (
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            if with_offsets
            else None
        )
        arr = GenericArrangement(n, k, normals, offsets)
        if with_offsets:
            if is_affine_generic(arr):
                return arr
        elif is_trace_generic(arr):
            return arr
    raise RuntimeError(
        f"no generic arrangement after {RESAMPLE_BUDGET} resamples "
        f"(n={n}, k={k}, seed={seed}, bound={bound}); raise the bound"
    )


def restrict(
    arr: GenericArrangement,
    chosen: tuple[int, ...],
    chosen_offsets: tuple[Fraction, ...] | None = None,
) -> GenericArrangement:
    """Restrict to the flat cut out by the chosen hyperplanes.

    `chosen` is a 1-based index subset of size < k; `chosen_offsets` are the
    translate values pinning those hyperplanes (zero when omitted).  The
    remaining hyperplanes are intersected with the flat and expressed in the
    canonical chart obtained by solving the chosen equations for the pivot
    variables of smallest index.  Output trace-genericity is asserted.
    """
    chosen = tuple(sorted(chosen))
    t = len(chosen)
    if t >= arr.k:
        raise ValueError(f"can restrict to at most k-1={arr.k - 1} hyperplanes, got {t}")
    if t == 0:
        return arr
    if chosen_offsets is None:
        chosen_offsets = tuple(Fraction(0) for _ in chosen)
    if len(chosen_offsets) != t:
        raise ValueError("one offset per chosen hyperplane")

    sub = arr.normal_rows(chosen)
    aug = sub.hstack(QMatrix.from_rows([[to_fraction(x)] for x in chosen_offsets]))
    red, pivots = aug.rref()
    if len(pivots) != t or arr.k in pivots:
        raise ValueError("chosen hyperplanes do not cut a flat of codimension |T|")
    pivot_set = set(pivots)
    free = [c for c in range(arr.k) if c not in pivot_set]

    rest = [j for j in range(1, arr.n + 1) if j not in set(chosen)]
    base_offsets = arr.offsets if arr.offsets is not None else (Fraction(0),) * arr.n
    new_rows = []
    new_offsets = []
    for j in rest:
        row = arr.normals.row(j - 1)
        # substitute pivot coordinates: y_p = rhs_i - sum_f red[i][f] * y_f
        new_row = []
        for f in free:
            val = row[f]
            for i, p in enumerate(pivots):
                val -= row[p] * red.entries[i][f]
            new_row.append(val)
        off = base_offsets[j - 1]
        for i, p in enumerate(pivots):
            off -= row[p] * red.entries[i][arr.k]
        new_rows.append(new_row)
        new_offsets.append(off)

    out = GenericArrangement(
        arr.n - t,
        arr.k - t,
        QMatrix.from_rows(new_rows, cols=arr.k - t),
        tuple(new_offsets),
    )
    if not is_trace_generic(out):
        raise AssertionError("restriction of a generic trace must stay generic")
    return out


def _fraction_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def arrangement_to_json(arr: GenericArrangement) -> dict:
    doc = {
        "n": arr.n,
        "k": arr.k,
        "normals": [[_fraction_to_json(x) for x in row] for row in arr.normals.entries],
    }
    if arr.offsets is not None:
        doc["offsets"] = [_fraction_to_json(x) for x in arr.offsets]
    return doc


def json_int(doc: dict, key: str) -> int:
    """The integer `doc[key]`; a float, a string or a bool is a TypeError."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def arrangement_from_json(doc: dict) -> GenericArrangement:
    try:
        n = json_int(doc, "n")
        k = json_int(doc, "k")
        normals = QMatrix.from_rows(doc["normals"], cols=k)
        offsets = None
        if "offsets" in doc and doc["offsets"] is not None:
            offsets = tuple(to_fraction(x) for x in doc["offsets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed arrangement document: {exc}") from exc
    return GenericArrangement(n, k, normals, offsets)
