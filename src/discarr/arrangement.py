"""Generic hyperplane arrangements and their traces at infinity.

An arrangement of n hyperplanes in k-space is stored as the n x k matrix of
normal coefficients (row j holds the linear form of hyperplane j).  The
discriminantal machinery only ever reads the normals: the trace at infinity
alone determines the space of parallel translates, so translation offsets
in a JSON document are validated and dropped.

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

    def __post_init__(self):
        if self.normals.rows != self.n or self.normals.cols != self.k:
            raise ValueError("normals must be an n x k matrix")

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


def check_shape(n: int, k: int) -> None:
    """ValueError unless n > k >= 1, as for every sampled or loaded arrangement."""
    if not (n > k >= 1):
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")


def random_generic(n: int, k: int, seed: int, bound: int) -> GenericArrangement:
    """Deterministically sample a trace-generic arrangement.

    Integer entries in [-bound, bound], rejection-resampled until generic.
    Raises RuntimeError with the seed and attempt count if the budget runs
    out, which signals that `bound` is too small.
    """
    check_shape(n, k)
    if bound < n:
        raise ValueError(f"need bound >= n, got bound={bound}, n={n}")
    rng = SplitMix64(seed)
    for attempt in range(RESAMPLE_BUDGET):
        normals = QMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        )
        arr = GenericArrangement(n, k, normals)
        if is_trace_generic(arr):
            return arr
    raise RuntimeError(
        f"no generic arrangement after {RESAMPLE_BUDGET} resamples "
        f"(n={n}, k={k}, seed={seed}, bound={bound}); raise the bound"
    )


def _fraction_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def arrangement_to_json(arr: GenericArrangement) -> dict:
    return {
        "n": arr.n,
        "k": arr.k,
        "normals": [[_fraction_to_json(x) for x in row] for row in arr.normals.entries],
    }


def json_int(doc: dict, key: str) -> int:
    """The integer `doc[key]`; a float, a string or a bool is a TypeError."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def arrangement_from_json(doc: dict) -> GenericArrangement:
    """The arrangement of a document; an `offsets` list of n rationals is dropped."""
    try:
        if not isinstance(doc, dict):
            raise TypeError("document must be a JSON object")
        for key in ("n", "k", "normals"):
            if key not in doc:
                raise ValueError(f"missing field {key!r}")
        n = json_int(doc, "n")
        k = json_int(doc, "k")
        normals = QMatrix.from_rows(doc["normals"], cols=k)
        if normals.rows != n:
            raise ValueError("normals must be an n x k matrix")
        offsets = doc.get("offsets")
        if offsets is not None and len([to_fraction(x) for x in offsets]) != n:
            raise ValueError("offsets must have length n")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed arrangement document: {exc}") from exc
    check_shape(n, k)
    return GenericArrangement(n, k, normals)
