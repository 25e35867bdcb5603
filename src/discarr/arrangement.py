"""Generic hyperplane arrangements and their traces at infinity.

An arrangement of n hyperplanes in k-space is stored as the n x k integer
matrix of normal coefficients (row j holds the linear form of hyperplane j);
a document's rational normals are cleared of denominators by one common
factor, which changes no hyperplane, no ratio of minors and no form.  The
discriminantal machinery only ever reads the normals: the trace at infinity
alone determines the space of parallel translates, so translation offsets
in a JSON document are validated and dropped.

Hyperplane indices are 1-based on every public surface, matching the JSON
interchange format.
"""

from __future__ import annotations

import reprlib
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .linalg import _bareiss_det, common_int_rows, to_fraction
from .rng import SplitMix64

RESAMPLE_BUDGET = 400


class _ArrangementFields(NamedTuple):
    n: int
    k: int
    normals: tuple[tuple[int, ...], ...]  # n x k integer rows


class GenericArrangement(_ArrangementFields):
    # no __slots__: `minors` caches into the instance __dict__, which
    # __setattr__ keeps closed to everything else

    def __new__(cls, n: int, k: int, normals):
        normals = tuple(map(tuple, normals))
        if len(normals) != n or any(len(row) != k for row in normals):
            raise ValueError("normals must be an n x k matrix")
        # `_bareiss_det` divides exactly only on integers
        if any(type(x) is not int for row in normals for x in row):
            raise TypeError("normals must be integers (see common_int_rows)")
        return super().__new__(cls, n, k, normals)

    @classmethod
    def _make(cls, iterable):
        # the namedtuple one, which `_replace` calls, would skip the checks
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: GenericArrangement is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: GenericArrangement is immutable")

    @cached_property
    def minors(self) -> dict[tuple[int, ...], int]:
        """Every k x k minor of the normals, keyed by its sorted 1-based rows."""
        rows = self.normals
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
        normals = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        arr = GenericArrangement(n, k, normals)
        if is_trace_generic(arr):
            return arr
    raise RuntimeError(
        f"no generic arrangement after {RESAMPLE_BUDGET} resamples "
        f"(n={n}, k={k}, seed={seed}, bound={bound}); raise the bound"
    )


def arrangement_to_json(arr: GenericArrangement) -> dict:
    return {"n": arr.n, "k": arr.k, "normals": [list(row) for row in arr.normals]}


def json_int(doc: dict, key: str) -> int:
    """The integer `doc[key]`; a float, a string or a bool is a TypeError."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {reprlib.repr(value)}")
    return value


def arrangement_from_json(doc: dict) -> GenericArrangement:
    """The arrangement of a document; an `offsets` list of n rationals is dropped."""
    try:
        if not isinstance(doc, dict):
            raise TypeError("document must be a JSON object")
        for key in ("n", "k", "normals"):
            if key not in doc:
                raise ValueError(f"missing field {key!r}")
        extra = set(doc) - {"n", "k", "normals", "offsets"}
        if extra:
            raise ValueError(f"unexpected field {reprlib.repr(min(extra))}")
        n = json_int(doc, "n")
        k = json_int(doc, "k")
        rows = doc["normals"]
        if not (isinstance(rows, list) and len(rows) == n) or any(
            not (isinstance(row, list) and len(row) == k) for row in rows
        ):
            raise ValueError("normals must be an n x k matrix")
        normals = common_int_rows([[to_fraction(x) for x in row] for row in rows])
        offsets = doc.get("offsets")
        if offsets is not None and (
            not isinstance(offsets, list) or len([to_fraction(x) for x in offsets]) != n
        ):
            raise ValueError("offsets must be a list of n rationals")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed arrangement document: {exc}") from exc
    check_shape(n, k)
    return GenericArrangement(n, k, normals)
