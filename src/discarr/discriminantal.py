"""Discriminantal arrangement of a generic trace and its codimension-2 strata.

Given a trace-generic arrangement of n hyperplanes in k-space, the space of
parallel translates is an n-dimensional affine space; the translate tuples
for which some k+1 of the hyperplanes become concurrent form one hyperplane
per (k+1)-subset.  This module builds those hyperplanes as exact coefficient
vectors, enumerates every codimension-2 flat of the resulting arrangement,
classifies each flat by its multiplicity pattern, and detects or constructs
the geometric dependency that produces multiplicity-3 flats.  The census
tests the few forms that a pair's supports allow for membership in the
pair's span, by one integer identity (`codim2_census`); dependent triples of
groups of two are found by a bracket identity of the k x k minors, larger
groups by a rank test (`dependent_triples`).  The flat kinds are:

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
from math import comb

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


def _in_span(h, f, g, i, j, support) -> bool:
    """Whether the form h lies in span(f, g), by one integer identity.

    f is nonzero and g zero at coordinate i, and the other way round at j,
    so h = a f + b g forces a = h_i / f_i and b = h_j / g_j: h is in the
    span exactly when h f_i g_j = h_i g_j f + h_j f_i g at every coordinate
    of `support`, the union of the supports of f and g (all three vanish
    outside it).
    """
    figj = f[i] * g[j]
    a = h[i] * g[j]
    b = h[j] * f[i]
    for x in support:
        if h[x] * figj != a * f[x] + b * g[x]:
            return False
    return True


def codim2_census(arr: GenericArrangement) -> list[StratumRecord]:
    """Enumerate and classify every codimension-2 flat.

    Each pair of forms f, g spans one flat, whose members are the forms in
    span(f, g).  Let J, K be their supports and d = |J - K|.  A third member
    h = a f + b g has a, b != 0, so it is nonzero on the 2d indices of the
    symmetric difference of J and K and zero outside J | K; as every form
    has exactly k+1 nonzero entries, h has support (J ^ K) | C' for some C'
    inside J & K with |C'| = k+1-2d.  A pair with 2d > k+1 is therefore a
    SIMPLE crossing and needs no arithmetic (GOOD pairs have d = 1, pairs in
    a dependent triple d = s <= (k+1)/2); any other pair tests its
    C(k+1-d, d) candidates with `_in_span`.

    A flat of three or more forms is emitted by its lexicographically first
    pair.  Every later pair of it must find the same members, and the flats
    must cover each pair exactly once, or the census raises AssertionError.
    The multiple flats come first, most members first; the SIMPLE pairs
    follow in the order `combinations` visits them, which is sorted order.
    """
    if arr.n < arr.k + 2:
        raise ValueError(f"census needs n >= k+2, got n={arr.n}, k={arr.k}")
    forms = build_all(arr)
    k1 = arr.k + 1
    subsets = [f.subset for f in forms]
    coeffs = [f.coeffs for f in forms]
    # supports as bitmasks of 0-based coordinates
    masks = [sum(1 << (j - 1) for j in subset) for subset in subsets]
    index = {mask: c for c, mask in enumerate(masks)}
    coords: dict[int, tuple[int, ...]] = {}  # J | K -> its coordinates
    extras: dict[int, list[int]] = {}  # J & K -> the masks of its possible C'
    flats = []  # member indices of each multiple flat, from its first pair
    emitted = set()
    simple = []
    for a, (ma, fa, sa) in enumerate(zip(masks, coeffs, subsets)):
        for b in range(a + 1, len(forms)):
            mb = masks[b]
            common = ma & mb
            d = k1 - common.bit_count()
            if 2 * d <= k1:
                union = ma | mb
                support = coords.get(union)
                if support is None:
                    support = coords[union] = tuple(x for x in range(arr.n) if union >> x & 1)
                candidates = extras.get(common)
                if candidates is None:
                    bits = [1 << x for x in range(arr.n) if common >> x & 1]
                    candidates = extras[common] = [sum(c) for c in combinations(bits, k1 - 2 * d)]
                fb = coeffs[b]
                i = (ma & ~mb).bit_length() - 1
                j = (mb & ~ma).bit_length() - 1
                sym = ma ^ mb
                members = [a, b]
                for extra in candidates:
                    c = index[sym | extra]
                    if _in_span(coeffs[c], fa, fb, i, j, support):
                        members.append(c)
                if len(members) > 2:
                    members.sort()
                    key = tuple(members)
                    if key[:2] == (a, b):
                        emitted.add(key)
                        flats.append(key)
                    elif key not in emitted:
                        raise AssertionError("span membership produced an inconsistent flat")
                    continue
            simple.append(StratumRecord((sa, subsets[b]), 2, SIMPLE))
    if sum(comb(len(key), 2) for key in flats) + len(simple) != comb(len(forms), 2):
        raise AssertionError("span membership produced an inconsistent flat")
    flats.sort(key=lambda key: (-len(key), key))
    records = []
    for key in flats:
        members = tuple(subsets[c] for c in key)
        records.append(StratumRecord(members, len(members), _classify(members, arr.k)))
    records.extend(simple)
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
            normals = [arr.normals[i - 1] for i in key[0] + key[1]]
            basis = int_nullspace(normals, arr.k)
            if len(basis) != s - 1:
                raise AssertionError("generic trace must cut subspaces of dimension s-1")
            spans[key] = basis
        rows.extend(spans[key])
    return int_rank(rows) <= 2 * s - 2


def _brackets(arr: GenericArrangement, common) -> dict[tuple[int, int, int], int]:
    """The bracket [x y z] of every ordered triple of indices outside `common`.

    [x y z] is the determinant of the integer normals in the row order
    (x, y, z, *common), read off `arr.minors` with the sign of sorting that
    order.  Up to one nonzero factor that depends only on `common`, it is
    the 3 x 3 determinant of the normals x, y, z restricted to the common
    hyperplanes' intersection (used when k - |common| = 3).
    """
    minors = arr.minors
    pool = [j for j in range(1, arr.n + 1) if j not in common]
    out = {}
    for x, y, z in combinations(pool, 3):
        # sorting (x, y, z, *common) moves each of x < y < z past the common
        # indices below it
        value = minors[tuple(sorted((x, y, z) + common))]
        if sum(c < u for u in (x, y, z) for c in common) % 2:
            value = -value
        out[x, y, z] = out[y, z, x] = out[z, x, y] = value
        out[y, x, z] = out[x, z, y] = out[z, y, x] = -value
    return out


def dependent_triples(arr: GenericArrangement) -> list[DependentTriple]:
    """All triples of forms meeting in codimension 2 for dependency reasons.

    Candidates are pruned combinatorially first: a triple can only fail
    transversality if each subset is covered by its overlaps with the other
    two, the three-way overlap has some size t with k+1-t even, and the
    pairwise overlaps outside it all have equal size s >= 2.

    For s = 2 the trace restricted to the t common hyperplanes is a
    3-dimensional space, and each group {a, b} cuts a direction line in it.
    Three such lines are coplanar exactly when the lines through the
    normals' points ab, cd, ef concur in the dual projective plane, which
    is the classical bracket identity [a b e][c d f] = [a b f][c d e]; the
    brackets of each common set are built once by `_brackets`.  Larger
    groups take the span test `_dependency_test`, where a group's
    direction space is computed once per call and shared by every candidate
    containing it.
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
            brackets = _brackets(arr, common) if s == 2 else None
            for union in combinations(pool, 3 * s):
                for g1, g2, g3 in group_partitions(union, s):
                    if brackets is not None:
                        (a, b), (c, d), (e, f) = g1, g2, g3
                        left = brackets[a, b, e] * brackets[c, d, f]
                        if left != brackets[a, b, f] * brackets[c, d, e]:
                            continue
                    elif not _dependency_test(arr, common, (g1, g2, g3), spans):
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
        arr = GenericArrangement(n, k, rows)

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
