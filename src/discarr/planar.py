"""Combinatorial rigidity of discriminantal arrangements of lines (k = 2).

For n lines with fixed distinct directions, the dimension of the locus where
prescribed index sets become concurrent is, away from a measure-zero set of
direction choices, determined by the index combinatorics alone.
This module computes that dimension purely combinatorially: families of sets
are first merged along pairwise intersections of size >= 2 (two concurrency
points sharing two lines coincide), then a fiber-counting formula resolves
families whose sets pairwise share at most one index, recursing on the
subfamily of sets with at least three shared indices.

The recursion bottoms out almost always.  The one exception is a "closed"
family in which every index lies in >= 2 sets and every set keeps >= 3 such
indices (smallest case: four triples in complete-quadrangle incidence, e.g.
{123},{145},{246},{356}).  There the projection step makes no progress, and
the dimension is computed as the exact generic rank of the concurrency forms
over the rational function field in the slopes (fraction-free elimination
with polynomial entries).

Caution, established by this module's own oracle: closed families are
exactly where the dimension can depend on the trace.  For the quadrangle
family above, the four concurrency conditions are dependent precisely when
the three pairs of slopes not sharing a set, here (u1,u6),(u2,u5),(u3,u4),
lie in a projective involution; arithmetic and geometric progressions both
satisfy it.  dim_combinatorial therefore returns the dimension for a
Zariski-general trace, and verify_independence reports any sampled trace
that disagrees (for random integer slopes the degeneration locus has
measure zero, so the expected report is empty).

The rank oracle behind verify_independence walks the collections of
concurrency triples depth first: each node keeps the fraction-free echelon
rows of its prefix and reduces only its new triple's slope form against
them with `linalg.reduce_row`, the step `int_rank` folds, so a collection
costs one reduction instead of one rank computation.
Within one size, preorder is the lex order of `combinations`, which is the
order the formula side reads the collections in.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb

from .linalg import reduce_row
from .rng import SplitMix64

SLOPE_BUDGET = 1000


def _normalize_sets(sets) -> tuple[tuple[int, ...], ...]:
    out = []
    for s in sets:
        t = tuple(sorted(set(s)))
        if len(t) < 3:
            raise ValueError(f"every set needs >= 3 indices, got {t}")
        out.append(t)
    return tuple(sorted(set(out)))


def merge_classes(sets) -> tuple[tuple[int, ...], ...]:
    """Union sets chained by pairwise intersections of size >= 2, to fixpoint.

    One pass: each set absorbs every class sharing >= 2 indices with it,
    sweeping again while the union grows, so the classes kept always share
    at most one index pairwise.  Idempotent and independent of input order.
    """
    classes: list[set[int]] = []
    for s in _normalize_sets(sets):
        merged = set(s)
        size = 0
        while size != len(merged):
            size = len(merged)
            rest = []
            for c in classes:
                if len(c & merged) >= 2:
                    merged |= c
                else:
                    rest.append(c)
            classes = rest
        classes.append(merged)
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def _relabel(sets: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Relabel indices by first appearance in the lex-sorted family.

    The relabelled family no longer shows the indices, so this is where
    they are checked against [1..n].
    """
    mapping: dict[int, int] = {}
    for s in sets:
        for idx in s:
            if idx not in mapping:
                if not 0 < idx <= n:
                    raise ValueError("set indices out of range [1..n]")
                mapping[idx] = len(mapping) + 1
    return tuple(tuple(sorted(mapping[i] for i in s)) for s in sets)


def _slope_form(u: list[int], triple: tuple[int, int, int], n: int) -> list[int]:
    a, b, c = triple
    vec = [0] * n
    vec[a - 1] = u[c - 1] - u[b - 1]
    vec[b - 1] = u[a - 1] - u[c - 1]
    vec[c - 1] = u[b - 1] - u[a - 1]
    return vec


# -- generic rank over Q(u_1..u_n) ------------------------------------------
#
# Polynomials are dicts {exponent tuple: int coefficient}; the matrices are
# tiny (one row per set index beyond the first two), so Bareiss elimination
# with exact polynomial division stays fast, and entries remain honest minors
# of the original linear-in-slopes matrix.

_Poly = dict


def _p_sub(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for m, v in b.items():
        nv = out.get(m, 0) - v
        if nv:
            out[m] = nv
        else:
            out.pop(m, None)
    return out


def _p_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            nv = out.get(key, 0) + va * vb
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
    return out


def _p_divexact(a: _Poly, b: _Poly) -> _Poly:
    quotient: _Poly = {}
    rem = dict(a)
    lead_b = max(b)
    coef_b = b[lead_b]
    while rem:
        lead_r = max(rem)
        mono = tuple(x - y for x, y in zip(lead_r, lead_b))
        coef, residue = divmod(rem[lead_r], coef_b)
        if residue or any(m < 0 for m in mono):
            raise ArithmeticError("inexact polynomial division")
        quotient[mono] = coef
        for mb, vb in b.items():
            key = tuple(x + y for x, y in zip(mono, mb))
            nv = rem.get(key, 0) - coef * vb
            if nv:
                rem[key] = nv
            else:
                rem.pop(key, None)
    return quotient


def _symbolic_rows(family, n: int) -> list[list[_Poly]]:
    def var(i: int) -> _Poly:
        return {tuple(1 if j == i - 1 else 0 for j in range(n)): 1}

    rows = []
    for s in family:
        j1, j2 = s[0], s[1]
        # the forms pairing the first two indices with each remaining one
        # span every concurrency form of the set, for every distinct-slope
        # trace (each has a private support position)
        for x in s[2:]:
            row = [dict() for _ in range(n)]
            row[j1 - 1] = _p_sub(var(x), var(j2))
            row[j2 - 1] = _p_sub(var(j1), var(x))
            row[x - 1] = _p_sub(var(j2), var(j1))
            rows.append(row)
    return rows


def _generic_rank(family, n: int) -> int:
    """Rank of the stacked concurrency forms over the slope function field."""
    work = _symbolic_rows(family, n)
    rank = 0
    prev: _Poly | None = None
    for col in range(n):
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
        for i in range(rank + 1, len(work)):
            row = work[i]
            head = row[col]
            for j in range(col, n):
                val = _p_sub(_p_mul(row[j], piv), _p_mul(piv_row[j], head))
                row[j] = _p_divexact(val, prev) if prev and val else val
        prev = piv
        rank += 1
        if rank == len(work):
            break
    return rank


_memo: dict[tuple, int] = {}


def _dim_reduced(family: tuple[tuple[int, ...], ...], n: int) -> int:
    """Dimension of the concurrency locus of a merged family (pairwise |∩| <= 1).

    Writes C1 for the indices lying in >= 2 sets, C2 for the sets disjoint
    from all others, C3 for the indices in no set.  Sets keeping >= 3
    indices of C1 recurse (reduced to those indices, in an ambient counting
    C1 plus one slot per isolated set); sets meeting C1 in exactly one index
    contribute a sliding concurrency point; sets meeting it in exactly two
    contribute nothing, their point being forced.  Isolated sets contribute
    once through the ambient and once through their own sliding point.
    """
    key = (_relabel(family, n), n)
    if key in _memo:
        return _memo[key]

    counts: dict[int, int] = {}
    for s in family:
        for idx in s:
            counts[idx] = counts.get(idx, 0) + 1
    shared = {idx for idx, c in counts.items() if c >= 2}  # C1
    isolated = [s for s in family if not (set(s) & shared)]  # C2
    covered = set()
    for s in family:
        covered.update(s)
    outside = n - len(covered)  # |C3|

    sliding = sum(1 for s in family if len(set(s) & shared) == 1)
    reduced = tuple(
        tuple(sorted(set(s) & shared)) for s in family if len(set(s) & shared) >= 3
    )

    if not reduced:
        dim = len(shared) + 2 * len(isolated) + sliding + outside
    elif reduced == family and not isolated and outside == 0:
        # Closed family: the projection is the identity and the formula
        # carries no information.  These are exactly the families whose
        # dimension can degenerate on special traces, so take the generic
        # value over the slope function field.
        dim = n - _generic_rank(family, n)
    else:
        sub_n = len(shared) + len(isolated)
        relabel = {idx: pos + 1 for pos, idx in enumerate(sorted(shared))}
        sub_family = tuple(
            sorted(tuple(sorted(relabel[i] for i in s)) for s in reduced)
        )
        sub_dim = _dim_combinatorial_cached(sub_family, sub_n)
        dim = sub_dim + sliding + len(isolated) + outside

    _memo[key] = dim
    return dim


def _dim_combinatorial_cached(sets, n: int) -> int:
    return _dim_reduced(merge_classes(sets), n)


def dim_combinatorial(sets, n: int) -> int:
    """Dimension of the intersection of the sets' concurrency loci.

    Pure combinatorics: merge chained sets, then apply the fiber-count
    formula.  Input sets have size >= 3 (smaller sets impose nothing).
    """
    return _dim_combinatorial_cached(sets, n)


def codim_combinatorial(sets, n: int) -> int:
    return n - dim_combinatorial(sets, n)


def _sample_slopes(rng: SplitMix64, n: int, seed: int) -> list[int]:
    bound = 6 * n + 10
    for _ in range(SLOPE_BUDGET):
        u = [rng.randint(-bound, bound) for _ in range(n)]
        if len(set(u)) == n:
            return u
    raise RuntimeError(f"no {n} distinct slopes after {SLOPE_BUDGET} draws (seed={seed})")


def _walk(vectors, start: int, depth: int, echelon, dims: list[int], slots: list[int]) -> None:
    """Record n - rank of the current prefix extended by each form from `start` on.

    The prefix is a collection of `depth` forms and `echelon` holds its
    reduced rows; `slots[d]` is the next free position in `dims` for a
    collection of d + 1 forms.  Each extension recurses while the size cap,
    len(slots), allows.
    """
    n = len(vectors[0])
    deeper = depth + 1 < len(slots)
    slot = slots[depth]
    for i in range(start, len(vectors)):
        reduced = reduce_row(vectors[i], echelon)
        if reduced is not None:
            echelon.append(reduced)
        dims[slot] = n - len(echelon)
        slot += 1
        if deeper:
            _walk(vectors, i + 1, depth + 1, echelon, dims, slots)
        if reduced is not None:
            echelon.pop()
    slots[depth] = slot


def _check_trace(args):
    """Dimension n - rank of every collection of up to `cap` slope forms.

    Walks the collections of triples depth first, keeping the echelon rows of
    the current prefix and reducing only the new triple's form against them.
    Preorder restricted to one size is the lex order of `combinations`, so
    each size fills its own block of the result, smaller sizes first, in the
    order verify_independence reads.
    """
    slopes, n, cap = args
    vectors = [_slope_form(slopes, t, n) for t in combinations(range(1, n + 1), 3)]
    counts = [comb(len(vectors), size) for size in range(1, cap + 1)]
    slots = list(accumulate(counts, initial=0))[:-1]
    dims = [0] * sum(counts)
    if slots:
        _walk(vectors, 0, 0, [], dims, slots)
    return dims


def verify_independence(
    n: int,
    tuple_size_cap: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> dict:
    """Compare the rank oracle across traces and against the formula.

    For `trials` random generic traces (n distinct slopes), computes the
    codimension of every collection of concurrency hyperplanes up to the
    size cap, and reports any collection on which either two traces
    disagree or the oracle disagrees with dim_combinatorial.  The expected
    report has an empty discrepancy list.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    for name, value in (("cap", tuple_size_cap), ("trials", trials), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {value}")
    rng = SplitMix64(seed)
    traces = [_sample_slopes(rng, n, seed) for _ in range(trials)]
    tasks = [(slopes, n, tuple_size_cap) for slopes in traces]
    if jobs > 1 and trials > 1:
        from multiprocessing import Pool

        with Pool(min(jobs, trials)) as pool:
            per_trace = pool.map(_check_trace, tasks)
    else:
        per_trace = [_check_trace(t) for t in tasks]

    triples = list(combinations(range(1, n + 1), 3))
    discrepancies = []
    checked = 0
    pos = 0
    for size in range(1, tuple_size_cap + 1):
        for coll in combinations(triples, size):
            oracle_dims = [dims[pos] for dims in per_trace]
            formula = dim_combinatorial(coll, n)
            checked += 1
            if any(d != oracle_dims[0] for d in oracle_dims) or (
                oracle_dims and formula != oracle_dims[0]
            ):
                discrepancies.append(
                    {
                        "collection": [list(t) for t in coll],
                        "formula": formula,
                        "oracle_dims": oracle_dims,
                    }
                )
            pos += 1
    return {
        "n": n,
        "collections_checked": checked,
        "discrepancies": discrepancies,
    }
