"""Discriminantal arrangement of a generic trace and its codimension-2 strata.

Given a trace-generic arrangement of n hyperplanes in k-space, the space of
parallel translates is an n-dimensional affine space; the translate tuples
for which some k+1 of the hyperplanes become concurrent form one hyperplane
per (k+1)-subset.  This module builds those hyperplanes as exact coefficient
vectors, detects or constructs the geometric dependency that produces
multiplicity-3 flats, and lists the multiple codimension-2 flats (three or
more forms) from their two sources: the C(n, k+2) full subsets, and the
dependent triples, merged where they share a pair (`codim2_census`).  A
pair of forms in no such flat is a SIMPLE crossing, yielded by
`simple_pairs`.  Dependent triples of groups of every size are found by
one meet identity of the k x k minors (`dependent_triples`) over
`group_triples`, the one enumerator of disjoint group triples, which the
Gale pencil search shares.  The flat kinds, each given by how its flat was
built, are:

* GOOD       multiplicity k+2, the flat where a full (k+2)-subset concurs;
             there are exactly C(n, k+2) of these for every generic trace.
* DEPENDENT  multiplicity 3, a dependent triple sharing no pair with
             another: three groups of hyperplanes whose common subspaces at
             infinity span a proper subspace (collinear double points in
             the smallest case).
* SIMPLE     multiplicity 2, a pair of forms in no flat of the census (`simple_pairs`).
* OTHER      four or more forms, merged from dependent triples that share
             pairs.  Trace-generic inputs can carry one (the README lists an
             (8,5) trace with a flat of four forms); whether the paper's
             hypotheses exclude such traces is open, so an OTHER flat is
             never produced silently: callers surface it loudly.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations, groupby
from typing import NamedTuple

from .arrangement import GenericArrangement, is_trace_generic
from .linalg import QMatrix, int_rank, primitive_int_vector
from .rng import SplitMix64

GOOD = "GOOD"
DEPENDENT = "DEPENDENT"
SIMPLE = "SIMPLE"
OTHER = "OTHER"

CONSTRUCT_BUDGET = 400


class DiscForm(NamedTuple):
    """One hyperplane of the discriminantal arrangement.

    `subset` is the sorted (k+1)-tuple of 1-based hyperplane indices;
    `coeffs` is the length-n primitive integer coefficient vector, zero
    outside the subset, first nonzero entry positive.  A translate tuple x
    satisfies coeffs . x = 0 exactly when the subset's hyperplanes concur.
    """

    subset: tuple[int, ...]
    coeffs: tuple[int, ...]


class StratumRecord(NamedTuple):
    """A codimension-2 flat: the forms containing it plus its classification."""

    members: tuple[tuple[int, ...], ...]
    kind: str


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


def codim2_census(arr: GenericArrangement) -> list[StratumRecord]:
    """The multiple codimension-2 flats, those of three or more forms, classified.

    Two sources give every such flat.  Take a pair of forms with supports
    J, K and d = |J - K|.  If d = 1, every form in their span is supported
    inside J | K, so the pair lies in the GOOD flat of the (k+2)-subset
    J | K, whose members are its k+2 subsets of size k+1.  If d >= 2, a
    third member h = a f + b g has a, b != 0, so it is supported on
    (J ^ K) | C' with C' inside J & K and |C'| = k+1-2d: the triple is a
    candidate of `dependent_triples` with s = d.  So the census is the
    C(n, k+2) GOOD flats plus the dependent triples, those that share a pair
    merged into one flat (`_merged_triples`).  A merged flat of three forms
    is DEPENDENT; one of four or more is OTHER.

    The flats are sorted most members first, then by members;
    `simple_pairs` yields the pairs in no flat, the SIMPLE crossings.
    """
    if arr.n < arr.k + 2:
        raise ValueError(f"census needs n >= k+2, got n={arr.n}, k={arr.k}")
    records = [
        StratumRecord(tuple(combinations(full, arr.k + 1)), GOOD)
        for full in combinations(range(1, arr.n + 1), arr.k + 2)
    ]
    for members in _merged_triples(dependent_triples(arr)):
        records.append(StratumRecord(members, DEPENDENT if len(members) == 3 else OTHER))
    records.sort(key=lambda r: (-len(r.members), r.members))
    return records


def _merged_triples(triples):
    """The flats of sorted dependent triples: the triples sharing a pair, merged.

    Any three members of a flat are a dependent triple, so the triples that
    start with a flat's first two members hold all of it; a later pair of
    a flat already emitted is skipped.
    """
    covered = set()
    for pair, group in groupby(triples, key=lambda m: m[:2]):
        if pair not in covered:
            members = pair + tuple(m[2] for m in group)
            covered.update(combinations(members, 2))
            yield members


def simple_pairs(arr: GenericArrangement, census):
    """The SIMPLE crossings: each pair of (k+1)-subsets inside no flat of
    `census`, in the order `combinations` visits them, which is sorted order."""
    covered = {pair for rec in census for pair in combinations(rec.members, 2)}
    subsets = combinations(range(1, arr.n + 1), arr.k + 1)
    return (pair for pair in combinations(subsets, 2) if pair not in covered)


def group_triples(pool: tuple[int, ...], size: int):
    """Each unordered triple of disjoint `size`-groups of `pool`, exactly once.

    Yields (g1, g2, thirds), `thirds` iterating over the g3: groups sorted as
    in `pool`, ordered by first element, so lexicographic when flattened.  A
    pair comes only where the pool leaves room for a g3 after it.
    """
    for i, a in enumerate(pool[: len(pool) - 3 * size + 1]):
        after = pool[i + 1 :]
        for rest in combinations(after, size - 1):
            g1 = (a,) + rest
            others = [x for x in after if x not in rest]
            for j, b in enumerate(others[: len(others) - 2 * size + 1]):
                tail = others[j + 1 :]
                for rest2 in combinations(tail, size - 1):
                    yield g1, (b,) + rest2, combinations([x for x in tail if x not in rest2], size)


def _triple_members(common, g1, g2, g3) -> tuple[tuple[int, ...], ...]:
    """The forms of a candidate triple: common | gi | gj for each pair of groups."""
    pairs = ((g1, g2), (g2, g3), (g1, g3))
    return tuple(sorted(tuple(sorted(common + x + y)) for x, y in pairs))


def _cofactor_rows(arr: GenericArrangement, common, group, pool) -> list[list[int]]:
    """Pairings of every normal with a basis of the group's direction space.

    The direction space is the (s-1)-dimensional space that the normals of
    group | common annihilate.  Let Q be the first s-1 indices of `pool`
    (the indices outside `common`) that are not in the group.  For each r
    in Q the cofactor vector v_r of the k-1 rows T = common | group |
    (Q - {r}) lies in that space, and <n_x, v_r> = det(n_x, n_T) is a k x k
    minor, signed by sorting x into the rows of T (zero for x in T).  Since
    <n_q, v_r> is nonzero exactly when q = r, the v_r are a basis.  Row r
    holds <n_x, v_r> at index x.
    """
    minors = arr.minors
    others = [j for j in pool if j not in group][: len(group) - 1]
    rows = []
    for r in others:
        rest = tuple(sorted(common + group + tuple(q for q in others if q != r)))
        row = [0] * (arr.n + 1)
        for x in pool:
            if x not in rest:
                i = bisect(rest, x)
                value = minors[rest[:i] + (x,) + rest[i:]]
                row[x] = -value if i % 2 else value
        rows.append(row)
    return rows


def dependent_triples(arr: GenericArrangement) -> list[tuple[tuple[int, ...], ...]]:
    """All triples of forms meeting in codimension 2 for dependency reasons,
    each as its three sorted (k+1)-subsets, in sorted order.

    Candidates are pruned combinatorially first: a triple can only fail
    transversality if each subset is covered by its overlaps with the other
    two, the three-way overlap has some size t with k+1-t even, and the
    pairwise overlaps outside it all have equal size s >= 2.

    Each candidate, groups g1, g2, g3 of s indices besides the t common
    ones, takes one meet identity.  The form F of common | g1 | g2 gives
    the linear relation sum F_x n_x = 0 of those k+1 normals (Laplace
    expansion), so l = sum of F_x n_x over x in g1 spans the meet of
    span(common | g1) and span(common | g2) modulo the common normals; the
    triple is dependent exactly when l annihilates the direction space of
    g3, that is when each of the `_cofactor_rows` of g3 (built once per
    common set and g3) pairs to zero with F on g1: s-1 sums of s products.
    For s = 2 this is the classical test that the meet of the lines ab and
    cd lies on the line ef.
    """
    if not is_trace_generic(arr):
        raise ValueError("trace must be generic")
    # coefficient of hyperplane x at index x, as in the cofactor rows
    forms = {f.subset: (0,) + f.coeffs for f in build_all(arr)}
    found = []
    for s in range(2, (arr.k + 1) // 2 + 1):
        t = arr.k + 1 - 2 * s
        if t + 3 * s > arr.n:
            continue
        for common in combinations(range(1, arr.n + 1), t):
            pool = tuple(j for j in range(1, arr.n + 1) if j not in set(common))
            cofactors: dict[tuple[int, ...], list[list[int]]] = {}
            for g1, g2, thirds in group_triples(pool, s):
                form = forms[tuple(sorted(common + g1 + g2))]
                for g3 in thirds:
                    rows = cofactors.get(g3)
                    if rows is None:
                        rows = cofactors[g3] = _cofactor_rows(arr, common, g3, pool)
                    for row in rows:
                        if sum([form[x] * row[x] for x in g1]):
                            break
                    else:
                        found.append(_triple_members(common, g1, g2, g3))
    found.sort()
    return found


def construct_dependent(group_size: int, common_count: int, seed: int) -> GenericArrangement:
    """Build a trace-generic arrangement carrying one dependent triple.

    For group size s and t extra shared hyperplanes this produces n = 3s+t
    hyperplanes in dimension k = 2s-1+t.  Three random (s-1)-dimensional
    subspaces inside a fixed hyperplane of the (2s-1)-dimensional trace
    space are realized as the common direction spaces of three groups of s
    hyperplanes; t generic coordinates lift the picture.  Resamples until
    the trace is generic and the search finds just the constructed triple.
    A lone triple merges with no other, so the census of the result has
    exactly that one DEPENDENT flat.
    """
    s, t = group_size, common_count
    if s < 2 or t < 0:
        raise ValueError("need group_size >= 2 and common_count >= 0")
    n = 3 * s + t
    k = 2 * s - 1 + t
    m = 2 * s - 1
    rng = SplitMix64(seed)
    bound = n + 8
    groups = [tuple(range(i * s + 1, (i + 1) * s + 1)) for i in range(3)]
    expected = _triple_members(tuple(range(3 * s + 1, n + 1)), *groups)

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
        arr = GenericArrangement(n, k, rows)

        if not is_trace_generic(arr):
            continue
        if dependent_triples(arr) == [expected]:
            return arr
    raise RuntimeError(
        f"dependent construction failed after {CONSTRUCT_BUDGET} resamples "
        f"(group_size={s}, common_count={t}, seed={seed}); try another seed"
    )
