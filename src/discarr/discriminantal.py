"""Discriminantal arrangement of a generic trace and its codimension-2 strata.

Given a trace-generic arrangement of n hyperplanes in k-space, the space of
parallel translates is an n-dimensional affine space; the translate tuples
for which some k+1 of the hyperplanes become concurrent form one hyperplane
per (k+1)-subset.  This module builds those hyperplanes as exact coefficient
vectors, enumerates every codimension-2 flat of the resulting arrangement,
classifies each flat by its multiplicity pattern, and detects or constructs
the geometric dependency that produces multiplicity-3 flats:

* GOOD       multiplicity k+2, the flat where a full (k+2)-subset concurs;
             there are exactly C(n, k+2) of these for every generic trace.
* DEPENDENT  multiplicity 3, present only when three groups of hyperplanes
             have their common subspaces at infinity spanning a proper
             subspace (collinear double points in the smallest case).
* SIMPLE     multiplicity 2, a transverse crossing of two hyperplanes.
* OTHER      anything else.  Never produced silently: an OTHER record on a
             trace-generic input falsifies the classification and is the
             most interesting possible output, so callers surface it loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .arrangement import GenericArrangement, is_trace_generic
from .linalg import QMatrix, int_nullspace, int_rank, primitive_int_vector
from .rng import SplitMix64

GOOD = "GOOD"
DEPENDENT = "DEPENDENT"
SIMPLE = "SIMPLE"
OTHER = "OTHER"

CONSTRUCT_BUDGET = 400


@dataclass(frozen=True)
class DiscForm:
    """One hyperplane of the discriminantal arrangement.

    `subset` is the sorted (k+1)-tuple of 1-based hyperplane indices;
    `coeffs` is the length-n primitive integer coefficient vector, zero
    outside the subset, first nonzero entry positive.  A translate tuple x
    satisfies coeffs . x = 0 exactly when the subset's hyperplanes concur.
    """

    subset: tuple[int, ...]
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class StratumRecord:
    """A codimension-2 flat: the forms containing it plus its classification."""

    members: tuple[tuple[int, ...], ...]
    multiplicity: int
    kind: str


@dataclass(frozen=True)
class DependentTriple:
    """Three subsets whose hyperplanes fail transversality for geometric reasons.

    `common_count` is the size t of the three-way intersection, `overlap_size`
    the size s = (k+1-t)/2 of each pairwise overlap outside it.
    """

    members: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    common_count: int
    overlap_size: int


def build_form(arr: GenericArrangement, subset) -> DiscForm:
    """Coefficient vector of the concurrency condition for one (k+1)-subset.

    Entry j of the subset carries (-1)^position times the k x k minor of the
    normals on the other members (Laplace expansion of the concurrency
    determinant along its translate column); genericity makes every such
    minor nonzero.  The minors come from `arr.minors`, which scales them all
    by one factor, so the primitive vector is unchanged.
    """
    subset = tuple(sorted(subset))
    if len(subset) != arr.k + 1:
        raise ValueError(f"subset must have k+1={arr.k + 1} elements, got {len(subset)}")
    if len(set(subset)) != len(subset) or subset[0] < 1 or subset[-1] > arr.n:
        raise ValueError("subset must be distinct indices in [1..n]")
    minors = arr.minors
    coeffs = [0] * arr.n
    for pos, j in enumerate(subset):
        minor = minors[subset[:pos] + subset[pos + 1 :]]
        if minor == 0:
            raise ValueError("trace is not generic: vanishing k x k minor")
        coeffs[j - 1] = minor if pos % 2 == 0 else -minor
    return DiscForm(subset, primitive_int_vector(coeffs))


def build_all(arr: GenericArrangement) -> list[DiscForm]:
    """All C(n, k+1) hyperplanes of the discriminantal arrangement, lex order."""
    return [
        build_form(arr, subset)
        for subset in combinations(range(1, arr.n + 1), arr.k + 1)
    ]


def codim_intersection(arr: GenericArrangement, subsets) -> int:
    """Codimension of the intersection of the given forms' hyperplanes.

    Equals the rank of the stacked coefficient vectors.
    """
    return int_rank([build_form(arr, s).coeffs for s in subsets])


def _plucker_key(f: DiscForm, g: DiscForm, support) -> tuple[tuple[int, int, int], ...]:
    """Primitive Plücker vector of span(f, g): its nonzero 2x2 minors (i, j, m).

    Minors outside the union `support` of the two supports vanish.  Two
    pairs span the same 2-space exactly when their Plücker vectors are
    proportional, so dividing by the gcd and making the first entry positive
    gives a canonical key.
    """
    fc, gc = f.coeffs, g.coeffs
    minors = []
    content = 0
    for i, j in combinations(support, 2):
        m = fc[i] * gc[j] - fc[j] * gc[i]
        if m:
            minors.append((i, j, m))
            content = gcd(content, m)
    if minors[0][2] < 0:
        content = -content
    return tuple((i, j, m // content) for i, j, m in minors)


def _classify(members: tuple[tuple[int, ...], ...], k: int) -> str:
    mult = len(members)
    union = set()
    for m in members:
        union.update(m)
    if (
        mult == k + 2
        and len(union) == k + 2
        and set(members) == set(combinations(tuple(sorted(union)), k + 1))
    ):
        return GOOD
    if mult == 3:
        return DEPENDENT
    if mult == 2:
        return SIMPLE
    return OTHER


def codim2_census(arr: GenericArrangement) -> list[StratumRecord]:
    """Enumerate and classify every codimension-2 flat.

    Groups the unordered pairs of forms by the primitive integer Plücker
    vector of their 2-dimensional span (see `_plucker_key`); the
    multiplicity of a flat is the number of forms lying in the span.

    A pair of forms with supports J, K and 2|J - K| > k+1 spans a SIMPLE
    flat and is recorded without arithmetic: a third form a*f + b*g with
    a, b != 0 is nonzero on the whole symmetric difference of J and K, which
    has 2|J - K| entries, but every form has exactly k+1.  GOOD pairs have
    |J - K| = 1 and pairs in a dependent triple have |J - K| = s <= (k+1)/2,
    so neither is pruned.
    """
    if arr.n < arr.k + 2:
        raise ValueError(f"census needs n >= k+2, got n={arr.n}, k={arr.k}")
    forms = build_all(arr)
    supports = [frozenset(j - 1 for j in f.subset) for f in forms]
    records = []
    groups: dict[tuple, dict] = {}
    for a, b in combinations(range(len(forms)), 2):
        overlap = len(supports[a] & supports[b])
        if 2 * (arr.k + 1 - overlap) > arr.k + 1:
            members = (forms[a].subset, forms[b].subset)
            records.append(StratumRecord(members, 2, _classify(members, arr.k)))
            continue
        key = _plucker_key(forms[a], forms[b], sorted(supports[a] | supports[b]))
        entry = groups.setdefault(key, {"members": set(), "pairs": 0})
        entry["members"].add(forms[a].subset)
        entry["members"].add(forms[b].subset)
        entry["pairs"] += 1
    for entry in groups.values():
        members = tuple(sorted(entry["members"]))
        mult = len(members)
        if entry["pairs"] != mult * (mult - 1) // 2:
            raise AssertionError("span grouping produced an inconsistent flat")
        records.append(StratumRecord(members, mult, _classify(members, arr.k)))
    records.sort(key=lambda r: (-r.multiplicity, r.members))
    return records


def group_partitions(items: tuple[int, ...], size: int):
    """Partitions of `items` into three unordered groups of `size`, lex order.

    `items` has 3 * size elements; each partition is (g1, g2, g3) with every
    group sorted as in `items` and g1 < g2 < g3 by their first elements.
    """
    for rest in combinations(items[1:], size - 1):
        g1 = (items[0],) + rest
        rem1 = tuple(x for x in items if x not in g1)
        for g2rest in combinations(rem1[1:], size - 1):
            g2 = (rem1[0],) + g2rest
            yield g1, g2, tuple(x for x in rem1 if x not in g2)


def _dependency_test(arr: GenericArrangement, common, groups, spans=None) -> bool:
    """Geometric dependency: do the groups' infinity subspaces span properly?

    Restricting the trace to the common hyperplanes, each group of size s
    cuts an (s-1)-dimensional direction subspace; the triple is dependent
    when the union of their spanning vectors has rank at most 2s-2 inside
    the (2s-1)-dimensional restricted trace space.  `spans`, if given, is a
    memo of the integer spanning vectors keyed by (group, common).
    """
    if spans is None:
        spans = {}
    s = len(groups[0])
    rows = []
    for g in groups:
        key = (tuple(g), tuple(common))
        if key not in spans:
            normals = [arr.int_normals[i - 1] for i in key[0] + key[1]]
            basis = int_nullspace(normals, arr.k)
            if len(basis) != s - 1:
                raise AssertionError("generic trace must cut subspaces of dimension s-1")
            spans[key] = basis
        rows.extend(spans[key])
    return int_rank(rows) <= 2 * s - 2


def dependent_triples(arr: GenericArrangement) -> list[DependentTriple]:
    """All triples of forms meeting in codimension 2 for dependency reasons.

    Candidates are pruned combinatorially first: a triple can only fail
    transversality if each subset is covered by its overlaps with the other
    two, the three-way overlap has some size t with k+1-t even, and the
    pairwise overlaps outside it all have equal size s >= 2.  Each surviving
    candidate then takes the geometric span test; a group's direction space
    is computed once per call and shared by every candidate containing it.
    """
    if not is_trace_generic(arr):
        raise ValueError("trace must be generic")
    found = []
    spans: dict = {}
    for s in range(2, (arr.k + 1) // 2 + 1):
        t = arr.k + 1 - 2 * s
        if t + 3 * s > arr.n:
            continue
        for common in combinations(range(1, arr.n + 1), t):
            pool = tuple(j for j in range(1, arr.n + 1) if j not in set(common))
            for union in combinations(pool, 3 * s):
                for g1, g2, g3 in group_partitions(union, s):
                    if not _dependency_test(arr, common, (g1, g2, g3), spans):
                        continue
                    pairs = ((g1, g2), (g2, g3), (g1, g3))
                    members = tuple(sorted(tuple(sorted(common + x + y)) for x, y in pairs))
                    found.append(DependentTriple(members, t, s))
    found.sort(key=lambda d: d.members)
    return found


def construct_dependent(group_size: int, common_count: int, seed: int) -> GenericArrangement:
    """Build a trace-generic arrangement carrying one dependent triple.

    For group size s and t extra shared hyperplanes this produces n = 3s+t
    hyperplanes in dimension k = 2s-1+t.  Three random (s-1)-dimensional
    subspaces inside a fixed hyperplane of the (2s-1)-dimensional trace
    space are realized as the common direction spaces of three groups of s
    hyperplanes; t generic coordinates lift the picture.  Resamples until
    the trace is generic and the census shows exactly the constructed
    dependent stratum and nothing unexpected.
    """
    s, t = group_size, common_count
    if s < 2 or t < 0:
        raise ValueError("need group_size >= 2 and common_count >= 0")
    n = 3 * s + t
    k = 2 * s - 1 + t
    m = 2 * s - 1
    rng = SplitMix64(seed)
    bound = n + 8
    expected = tuple(
        sorted(
            (
                tuple(sorted(tuple(range(1, 2 * s + 1)) + tuple(range(3 * s + 1, n + 1)))),
                tuple(sorted(tuple(range(s + 1, 3 * s + 1)) + tuple(range(3 * s + 1, n + 1)))),
                tuple(
                    sorted(
                        tuple(range(1, s + 1))
                        + tuple(range(2 * s + 1, 3 * s + 1))
                        + tuple(range(3 * s + 1, n + 1))
                    )
                ),
            )
        )
    )

    for _ in range(CONSTRUCT_BUDGET):
        # three (s-1)-dim subspaces inside the hyperplane {last coord = 0}
        subspaces = []
        for _ in range(3):
            rows = [
                [rng.randint(-bound, bound) for _ in range(m - 1)] + [0]
                for _ in range(s - 1)
            ]
            subspaces.append(QMatrix.from_rows(rows, cols=m))
        if any(u.rank() != s - 1 for u in subspaces):
            continue
        if any(
            subspaces[i].vstack(subspaces[j]).rank() != 2 * s - 2
            for i, j in ((0, 1), (0, 2), (1, 2))
        ):
            continue

        block_rows = []
        degenerate = False
        for u in subspaces:
            annihilator = u.nullspace_basis()  # s x m
            mix = QMatrix.from_rows(
                [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(s)]
            )
            if mix.det() == 0:
                degenerate = True
                break
            for row in (mix @ annihilator).entries:
                block_rows.append(list(primitive_int_vector(row)))
        if degenerate:
            continue

        rows = []
        for r in block_rows:
            rows.append(r + [rng.randint(-bound, bound) for _ in range(t)])
        for i in range(t):
            rows.append([0] * m + [1 if j == i else 0 for j in range(t)])
        arr = GenericArrangement(n, k, QMatrix.from_rows(rows, cols=k))

        if not is_trace_generic(arr):
            continue
        triples = dependent_triples(arr)
        if len(triples) != 1 or triples[0].members != expected:
            continue
        census = codim2_census(arr)
        dep = [r for r in census if r.kind == DEPENDENT]
        if any(r.kind == OTHER for r in census):
            continue
        if len(dep) == 1 and dep[0].members == expected:
            return arr
    raise RuntimeError(
        f"dependent construction failed after {CONSTRUCT_BUDGET} resamples "
        f"(group_size={s}, common_count={t}, seed={seed})"
    )
