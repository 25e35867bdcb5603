"""Gale transforms of point configurations and their discriminantal meaning.

A configuration of n points spanning dimension d is given as the d x n
integer rows whose columns are the points.  Its Gale transform is the
configuration of images of the standard basis vectors in the cokernel of the
evaluation map; concretely, the columns of the canonical nullspace basis of
the input, scaled to integers by one common factor.  Fixing the canonical
basis makes the transform deterministic, and every check downstream is
invariant under the scale/basis ambiguity anyway.

essential_normals_via_gale realizes the essential discriminantal arrangement
inside the cokernel: the hyperplane dual to a (k+1)-subset is spanned by the
Gale points of the complementary n-k-1 indices, and its normal pulls back to
the subset's concurrency coefficient vector.  The function verifies that
proportionality instance by instance.

pencil_partition_exists answers, for 3s points in dimension s+1, whether
some partition into three groups of s spans three hyperplanes in a pencil;
this property is a Gale invariant.  concurrent_partition_exists is its
s = 2 case, six plane points whose pairs span three concurrent lines, with
repeated points rejected.  gale_disagreements checks that invariance on
seeded samples, for the gale-invariance command and the acceptance suite.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from .arrangement import GenericArrangement
from .discriminantal import build_form, group_triples
from .linalg import _bareiss_det, int_nullspace, int_rank
from .rng import SplitMix64

SEXTUPLE_BUDGET = 100
SEXTUPLE_BOUND = 9  # the sextuple samplers draw their integers from [-9, 9]


class GaleMismatch(AssertionError):
    """The Gale-side normal failed to match the concurrency form (a fault)."""


def _scaled_nullspace(rows, cols: int) -> tuple[tuple[int, ...], ...]:
    """The canonical nullspace basis times the least positive integer that
    clears its denominators, one row per free column.

    Canonical row f is 1 at its free column f and vanishes at the later
    columns, since each reduced echelon row vanishes before its pivot; so
    it is v / v_f for the primitive vector v that `int_nullspace` gives,
    with v_f the last nonzero entry of v.
    """
    basis = int_nullspace(rows, cols)
    last = [next(x for x in reversed(v) if x) for v in basis]
    mult = lcm(*last)
    return tuple(tuple(x * (mult // f) for x in v) for v, f in zip(basis, last))


def gale_transform(points):
    """The dual configuration of n points in dimension n - d, as (n - d) x n rows.

    Output Q satisfies Q P^t = 0 and has full rank n - d; the canonical
    nullspace basis pins the result down uniquely.
    """
    d, n = len(points), len(points[0]) if points else 0
    if any(len(row) != n for row in points):
        raise ValueError("expected rows of equal length")
    if n <= d:
        raise ValueError(f"need more points than dimensions, got n={n}, d={d}")
    dual = _scaled_nullspace(points, n)
    if len(dual) != n - d:
        raise ValueError("configuration must span its ambient space")
    return dual


def essential_normals_via_gale(arr: GenericArrangement):
    """Normals of the essential arrangement, from complementary Gale points.

    For each (k+1)-subset, the n-k-1 Gale points of the complement span a
    hyperplane of the cokernel; its normal, pulled back along the quotient
    map, must be proportional to the subset's concurrency form.  A mismatch
    raises GaleMismatch: the agreement is guaranteed, so failure means an
    implementation fault.
    """
    n, k = arr.n, arr.k
    if n < k + 2:
        raise ValueError(f"essential part needs n >= k+2, got n={n}, k={k}")
    g = gale_transform(list(zip(*arr.normals)))  # (n-k) x n, columns are Gale points
    out = []
    for subset in combinations(range(1, n + 1), k + 1):
        complement = [j for j in range(1, n + 1) if j not in set(subset)]
        normal = int_nullspace([[row[j - 1] for row in g] for j in complement], n - k)
        if len(normal) != 1:
            raise GaleMismatch(
                f"Gale points of complement of {subset} do not span a hyperplane"
            )
        # the normal composed with the quotient map
        pulled = [sum(a * row[j] for a, row in zip(normal[0], g)) for j in range(n)]
        form = build_form(arr, subset)
        if int_rank([pulled, form.coeffs]) != 1:
            raise GaleMismatch(
                f"Gale normal for {subset} is not proportional to its form"
            )
        out.append((subset, normal[0]))
    return out


def concurrent_partition_exists(points):
    """Search the 15 pairings of six plane points for concurrent lines.

    The s = 2 case of pencil_partition_exists: returns (True, partition) for
    the lexicographically first partition into pairs whose three lines meet
    in a point, else (False, None).  Repeated points are rejected, so every
    pair spans a line.
    """
    if len(points) != 3 or any(len(row) != 6 for row in points):
        raise ValueError("expected 6 points in the projective plane (3 x 6)")
    repeated = _coincident_pair(list(zip(*points)))
    if repeated:
        a, b = repeated
        raise ValueError(f"points {a + 1} and {b + 1} coincide projectively")
    return pencil_partition_exists(points)


def pencil_partition_exists(points):
    """Generalized search: 3s points in dimension s+1, hyperplanes in a pencil.

    Partitions the points into three groups of s, lexicographically; each
    group spanning a hyperplane contributes its normal, and the first
    partition whose three normals have rank <= 2 is returned as
    (True, partition), else (False, None).
    """
    dim, n = len(points), len(points[0]) if points else 0
    if n == 0 or n % 3 or any(len(row) != n for row in points):
        raise ValueError("expected 3s points, s >= 1, as rows of equal length")
    s = n // 3
    if dim != s + 1:
        raise ValueError(f"expected dimension s+1={s + 1} for n=3s={n}")
    columns = list(zip(*points))
    for g1, g2, thirds in group_triples(tuple(range(1, n + 1)), s):
        for g3 in thirds:
            normals = []
            for group in (g1, g2, g3):
                basis = int_nullspace([columns[i - 1] for i in group], dim)
                if len(basis) != 1:
                    break  # group does not span a hyperplane
                normals.append(basis[0])
            else:
                if int_rank(normals) <= 2:
                    return True, (g1, g2, g3)
    return False, None


def _coincident_pair(pts):
    """The first pair (0-based) of projectively equal points, or None."""
    for a, b in combinations(range(len(pts)), 2):
        if int_rank([pts[a], pts[b]]) < 2:
            return a, b
    return None


def gale_disagreements(seed: int, trials: int) -> list[dict]:
    """Sampled sextuples whose Gale transform answers the partition search wrongly.

    For each i < trials, the Gale transform of the concurrent sextuple of
    seed + i must admit a concurrent partition, and that of the generic
    sextuple of seed + i must admit none.  The sextuples themselves need no
    search: each sampler returns only points whose own answer is the
    expected one, and the transform it hands out is searched.  Returns
    one record {"kind": "positive" or "negative",
    "index": i, "gale": the transform's answer} per failing instance,
    positives first.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    out = []
    for kind, sample, expected in (
        ("positive", random_concurrent_sextuple, True),
        ("negative", random_generic_sextuple, False),
    ):
        for i in range(trials):
            _, dual = sample(seed=seed + i)
            found, _ = concurrent_partition_exists(dual)
            if found != expected:
                out.append({"kind": kind, "index": i, "gale": found})
    return out


def random_concurrent_sextuple(seed: int):
    """Six plane points with pairs 12, 34, 56 spanning concurrent lines, and
    their Gale transform, as (points, gale_transform(points)) of 3 x 6 rows.

    Concurrency has measure zero, so positives are built, not sampled: pick
    a point, three lines through it, two points on each, then apply a random
    projective change of coordinates (which preserves the property).
    """
    rng = SplitMix64(seed)
    for _ in range(SEXTUPLE_BUDGET):
        apex = [rng.randint(-SEXTUPLE_BOUND, SEXTUPLE_BOUND) for _ in range(3)]
        if not any(apex):
            continue
        comp = _scaled_nullspace([apex], 3)  # 2 x 3 covectors
        pts = []
        for _ in range(3):
            c1, c2 = rng.nonzero_int(SEXTUPLE_BOUND), rng.nonzero_int(SEXTUPLE_BOUND)
            line = [c1 * a + c2 * b for a, b in zip(*comp)]
            on_line = _scaled_nullspace([line], 3)  # 2 x 3 points
            for _ in range(2):
                d1, d2 = rng.nonzero_int(SEXTUPLE_BOUND), rng.nonzero_int(SEXTUPLE_BOUND)
                pts.append([d1 * a + d2 * b for a, b in zip(*on_line)])
        if _coincident_pair(pts) or int_rank(pts) < 3:
            continue  # repeated points, or all six on one line
        move = [[rng.randint(-SEXTUPLE_BOUND, SEXTUPLE_BOUND) for _ in range(3)] for _ in range(3)]
        if _bareiss_det([list(row) for row in move]) == 0:
            continue
        points = [[sum(a * b for a, b in zip(row, p)) for p in pts] for row in move]
        found, _ = concurrent_partition_exists(points)
        if not found:
            continue  # extra accidental degeneracy spoiled distinctness; retry
        dual = gale_transform(points)
        if _coincident_pair(list(zip(*dual))):
            continue
        return points, dual
    msg = f"no concurrent sextuple after {SEXTUPLE_BUDGET} draws (seed={seed}); try another seed"
    raise RuntimeError(msg)


def random_generic_sextuple(seed: int):
    """Six plane points with all 15 partition determinants nonzero, and their
    Gale transform, as (points, gale_transform(points)) of 3 x 6 rows."""
    rng = SplitMix64(seed)
    for _ in range(SEXTUPLE_BUDGET):
        points = [
            [rng.randint(-SEXTUPLE_BOUND, SEXTUPLE_BOUND) for _ in range(6)] for _ in range(3)
        ]
        if int_rank(points) != 3:
            continue
        if _coincident_pair(list(zip(*points))):
            continue
        found, _ = concurrent_partition_exists(points)
        if found:
            continue
        dual = gale_transform(points)
        if _coincident_pair(list(zip(*dual))):
            continue
        return points, dual
    msg = f"no generic sextuple after {SEXTUPLE_BUDGET} draws (seed={seed}); try another seed"
    raise RuntimeError(msg)
