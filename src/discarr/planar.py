"""Combinatorial rigidity of discriminantal arrangements of lines (k = 2).

For n lines with fixed distinct directions, the dimension of the locus where
prescribed index sets become concurrent is, away from a measure-zero set of
direction choices, determined by the index combinatorics alone.
This module computes that dimension purely combinatorially: families of sets
are first merged along pairwise intersections of size >= 2 (two concurrency
points sharing two lines coincide), then a fiber-counting formula resolves
families whose sets pairwise share at most one index, recursing on the
subfamily of sets with at least three shared indices.  Sets are held as
integer bitmasks (index i is bit i), and a merged family as the sorted tuple
of its masks.  The formula gives the codimension, which does not depend on
n (the indices in no set are free coordinates), so one module memo, `_memo`,
maps each merged family to its codimension, whatever n it was met at.

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
that disagrees.  The degeneration locus has measure zero, but sampled
integer slopes do land on it: `planar-verify --n 7 --cap 4 --trials 5
--seed 10` reports 2 discrepancies (and exits 2), and 25 of the seeds
0-399 draw such a trace among their five at n = 7.

verify_independence walks the collections of concurrency triples depth
first, twice, and both walks append one dimension per collection in the
order they visit it (preorder).  The rank oracle's walk, once per trace,
works on the dual side: every slope form vanishes on (1, ..., 1) and on the
slopes u, so the walk carries an integer basis D of the prefix's
annihilator modulo span(1, u), from e_3, ..., e_n at the root, and
n - rank = 2 + |D|.  Pairing with D is linear and its kernel is the
prefix's span, so a form's column of 3-term pairings with the rows of D
decides the last two levels: adding one form lowers the dimension iff its
column is nonzero, and adding two lowers it by the rank of their two
columns.  So a node with at most two forms left to add keys each remaining
form once by its column's parallel class, and writes its whole subtree
from the keys.  Higher up, a push is one fraction-free step per row, and
below an empty D every collection has dimension 2 and is filled without
being walked.  The formula's walk carries the prefix's merge classes and
folds in the new triple's mask, since merging is an order-independent
closure; each distinct class family then goes through `_codim` once, and
its collection gets n - codim.  A node's last level depends only on its
classes and its start, so it is one row per class family, read from the
node's start on.  The two lists are compared entry by entry, and a
collection is spelled out only where they differ.

With jobs > 1, min(jobs, trials, CPUs) processes share the traces, this
one included: it forks a child per further share of the traces, then
walks the formula and the smallest share itself, and reads the children's
dims back in trace order.  The children run only the rank walk, so
`_memo` fills in this process alone.
"""

from __future__ import annotations

import os
import reprlib
from itertools import combinations
from math import comb, gcd

from .rng import SplitMix64

SLOPE_BUDGET = 1000


def _set_masks(sets, n: int | None = None) -> set[int]:
    """The distinct sets as bitmasks, index i as bit i.

    Every set needs >= 3 indices, each an int and not a bool.  Indices must
    be >= 0 to be bit positions, and with `n` they must lie in [1..n]; these
    checks run before any memo lookup, since the memo's keys do not show n.
    """
    masks = set()
    for s in sets:
        s = tuple(s)
        for idx in s:
            if type(idx) is not int:
                raise TypeError(f"set index must be an integer, got {reprlib.repr(idx)}")
        t = sorted(set(s))
        if len(t) < 3:
            raise ValueError(f"every set needs >= 3 indices, got {tuple(t)}")
        if n is not None and not (0 < t[0] and t[-1] <= n):
            bad = t[0] if t[0] < 1 else t[-1]
            raise ValueError(f"set index {bad} out of range [1..{n}]")
        if t[0] < 0:
            raise ValueError(f"set index {t[0]} is negative")
        masks.add(sum(1 << idx for idx in t))
    return masks


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _fold(classes: tuple[int, ...], t: int) -> tuple[int, ...]:
    """The merge classes of the merged mask family `classes` and one more set `t`.

    `t` absorbs every class sharing >= 2 indices with it (`x & (x - 1)` is
    nonzero for x = merged & c), sweeping again while the union grows; the
    classes it leaves share at most one index with it or with each other.
    """
    merged = t
    kept = classes
    grown = 0
    while grown != merged:
        grown = merged
        rest, kept = kept, []
        for c in rest:
            x = merged & c
            if x & (x - 1):
                merged |= c
            else:
                kept.append(c)
    kept.append(merged)
    kept.sort()
    return tuple(kept)


def _merge(masks) -> tuple[int, ...]:
    classes: tuple[int, ...] = ()
    for t in masks:
        classes = _fold(classes, t)
    return classes


def merge_classes(sets) -> tuple[tuple[int, ...], ...]:
    """Union sets chained by pairwise intersections of size >= 2, to fixpoint.

    Folds the sets in one at a time (`_fold`), so the classes kept always
    share at most one index pairwise.  Idempotent and independent of input
    order, which is what lets the formula walk carry a prefix's classes down
    to its extensions.
    """
    return tuple(sorted(map(_bits, _merge(_set_masks(sets)))))


def _relabel(sets: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Relabel indices 1, 2, ... by first appearance in the lex-sorted family."""
    mapping: dict[int, int] = {}
    for s in sets:
        for idx in s:
            if idx not in mapping:
                mapping[idx] = len(mapping) + 1
    return tuple(tuple(sorted(mapping[i] for i in s)) for s in sets)


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


_memo: dict[tuple[int, ...], int] = {}
_closed: dict[tuple[tuple[int, ...], ...], int] = {}


def _codim(family: tuple[int, ...]) -> int:
    """Codimension of the concurrency locus of a merged mask family (pairwise |∩| <= 1).

    Writes C1 for the indices lying in >= 2 sets (`shared`), C2 for the
    sets disjoint from all others.  Sets keeping >= 3 indices of C1 recurse,
    reduced to those indices (they still share <= 1 index pairwise, so they
    are merged already); sets meeting C1 in exactly one index contribute a
    sliding concurrency point; sets meeting it in exactly two contribute
    nothing, their point being forced.  An isolated set contributes its two
    degrees of freedom.  So codim = |covered| - |C1| - 2|C2| - #sliding +
    codim(reduced), and n never enters: `_memo` keys a family by its masks
    alone, whatever n it was reached at.  A closed family (every covered
    index in C1) reduces to itself; its codimension is the generic rank,
    cached in `_closed` under the family relabelled by first appearance,
    since many labelled families share one relabelling.  That relabelling
    is not canonical: the quadrangle families at n = 6 and 7 take two keys,
    one shape (swapping 4 and 5 maps one key onto the other).
    """
    codim = _memo.get(family)
    if codim is not None:
        return codim
    covered = shared = 0
    for c in family:
        shared |= covered & c
        covered |= c
    isolated = sliding = 0
    reduced = []
    for c in family:
        x = c & shared
        if not x:
            isolated += 1
        elif not x & (x - 1):
            sliding += 1
        elif x.bit_count() >= 3:
            reduced.append(x)
    codim = covered.bit_count() - shared.bit_count() - 2 * isolated - sliding
    if covered == shared and family:
        # Closed family: the projection is the identity and the formula
        # carries no information.  These are exactly the families whose
        # dimension can degenerate on special traces, so take the generic
        # value over the slope function field.
        # the family as lex-sorted index tuples; a merged family merges to itself
        key = _relabel(merge_classes(map(_bits, family)))
        rank = _closed.get(key)
        if rank is None:
            rank = _closed[key] = _generic_rank(key, covered.bit_count())
        codim = rank
    elif reduced:
        reduced.sort()
        codim += _codim(tuple(reduced))
    _memo[family] = codim
    return codim


def dim_combinatorial(sets, n: int) -> int:
    """Dimension of the intersection of the sets' concurrency loci.

    Pure combinatorics: merge chained sets, then apply the fiber-count
    formula.  Input sets have size >= 3 (smaller sets impose nothing).
    """
    return n - _codim(_merge(_set_masks(sets, n)))


def codim_combinatorial(sets, n: int) -> int:
    return n - dim_combinatorial(sets, n)


def _sample_slopes(rng: SplitMix64, n: int, seed: int) -> list[int]:
    bound = 6 * n + 10
    for _ in range(SLOPE_BUDGET):
        u = [rng.randint(-bound, bound) for _ in range(n)]
        if len(set(u)) == n:
            return u
    msg = f"no {n} distinct slopes after {SLOPE_BUDGET} draws (seed={seed}); try another seed"
    raise RuntimeError(msg)


def _keys(pairs, basis) -> list:
    """Each form's column of pairings with the rows of `basis`, as a parallel-class key.

    A zero column gives None.  With one row every nonzero column is
    parallel, so the key is 1; otherwise it is the primitive column with its
    first nonzero entry positive, equal for two forms exactly when their
    columns are parallel.
    """
    if len(basis) == 1:
        (w,) = basis
        return [1 if w[a] * x + w[b] * y + w[c] * z else None for a, x, b, y, c, z in pairs]
    keys = []
    for a, x, b, y, c, z in pairs:
        col = [w[a] * x + w[b] * y + w[c] * z for w in basis]
        g = gcd(*col)
        if g:
            for v in col:
                if v:
                    break
            if v < 0:
                g = -g
            keys.append(tuple([v // g for v in col]))
        else:
            keys.append(None)
    return keys


def _walk(pairs, start: int, left: int, basis, dims: list[int]) -> None:
    """Append n - rank of the current prefix extended by each form from `start` on.

    `pairs[i]` is triple i's form as its three entries (a, x, b, y, c, z),
    and `basis` is the prefix's D (module docstring), so the prefix has
    n - rank = 2 + len(basis); `left` forms may still join it.  Pairing with
    D is linear with the prefix's span as kernel, so with `left` <= 2 every
    extension is read off the forms' keys (`_keys`): adding i lowers the
    dimension by one unless i's key is None, and adding j after i lowers it
    once more unless j's key is None or i's.  With `left` >= 3, a push keeps
    the rows before the first row w0 with a nonzero pairing d0 and turns
    each later row w with pairing d != 0 into d0 * w - d * w0, divided by
    its content.  Below an empty basis the extension's whole subtree has
    dimension 2, one run of `dims` in preorder.
    """
    if left <= 2:
        dim = 2 + len(basis)
        keys = _keys(pairs[start:], basis)
        one = dim - 1
        ones = [dim if k is None else one for k in keys]
        if left == 1:
            dims.extend(ones)
            return
        two = dim - 2
        for i, key in enumerate(keys, 1):
            if key is None:
                dims.append(dim)
                dims.extend(ones[i:])
            else:
                dims.append(one)
                dims.extend([two if k != key and k is not None else one for k in keys[i:]])
        return
    for i in range(start, len(pairs)):
        a, x, b, y, c, z = pairs[i]
        child = basis
        for k, w0 in enumerate(basis):
            d0 = w0[a] * x + w0[b] * y + w0[c] * z
            if d0:
                child = basis[:k]
                for w in basis[k + 1:]:
                    d = w[a] * x + w[b] * y + w[c] * z
                    if d:
                        w = [d0 * p - d * q for p, q in zip(w, w0)]
                        g = gcd(*w)
                        if g > 1:
                            w = [v // g for v in w]
                    child.append(w)
                break
        dims.append(2 + len(child))
        if child:
            _walk(pairs, i + 1, left - 1, child, dims)
        else:
            rest = len(pairs) - i - 1
            dims.extend([2] * sum(comb(rest, d) for d in range(1, left)))


def _check_trace(args):
    """Dimension n - rank of every collection of up to `cap` slope forms, in preorder.

    The form of (a, b, c) is (u_c - u_b) e_a + (u_a - u_c) e_b + (u_b - u_a) e_c.
    `_walk` starts from D = e_3, ..., e_n, a complement of span(1, u) for
    distinct slopes; repeated slopes raise ValueError.
    """
    u, n, cap = args
    if len(set(u)) != n:
        raise ValueError(f"need {n} distinct slopes, got {u}")
    pairs = [
        (a, u[c] - u[b], b, u[a] - u[c], c, u[b] - u[a])
        for a, b, c in combinations(range(n), 3)
    ]
    dims: list[int] = []
    _walk(pairs, 0, cap, [[int(i == j) for i in range(n)] for j in range(2, n)], dims)
    return dims


def _last_row(triples, start: int, classes, n: int, rows: dict) -> list[int]:
    """n - codim of `classes` with each triple from `start` on folded in.

    A node's last level depends only on its classes and its start, and many
    nodes share their classes (2 086 families for the 52 360 leaves at n = 7,
    cap 4).  So `rows`, which lives for one `_formula_dims` call, keeps one
    row per class family, from the smallest start seen so far, and each node
    reads its suffix from its own start on.
    """
    first, row = rows.get(classes, (len(triples), []))
    if start < first:
        head = []
        for t in triples[start:first]:
            child = _fold(classes, t)
            codim = _memo.get(child)
            if codim is None:
                codim = _codim(child)
            head.append(n - codim)
        first, row = rows[classes] = start, head + row
    return row[start - first:]


def _formula_walk(triples, start: int, left: int, classes, n: int, dims: list[int],
                  rows: dict) -> None:
    """`_walk`'s twin on the formula side: dim_combinatorial of every extension.

    `triples` are masks and `classes` the prefix's merge classes, a sorted
    tuple of masks; an extension folds its one new triple into them.  Far
    fewer class families than collections occur (6 258 of 59 535 at n = 7,
    cap 4), and a family's codimension does not depend on n, so `_memo`
    sees each family once, whichever walk or call reached it first.  The
    last level comes from `_last_row`.
    """
    if left == 1:
        dims.extend(_last_row(triples, start, classes, n, rows))
        return
    for i in range(start, len(triples)):
        child = _fold(classes, triples[i])
        codim = _memo.get(child)
        if codim is None:
            codim = _codim(child)
        dims.append(n - codim)
        _formula_walk(triples, i + 1, left - 1, child, n, dims, rows)


def _formula_dims(n: int, cap: int) -> list[int]:
    """dim_combinatorial of every collection of up to `cap` triples, in preorder."""
    triples = [1 << a | 1 << b | 1 << c for a, b, c in combinations(range(1, n + 1), 3)]
    dims: list[int] = []
    _formula_walk(triples, 0, cap, (), n, dims, {})
    return dims


def _preorder(items, cap: int, prefix: tuple = ()):
    """Every collection of up to `cap` items, in the order both walks visit them."""
    for i, item in enumerate(items):
        collection = prefix + (item,)
        yield collection
        if cap > 1:
            yield from _preorder(items[i + 1:], cap - 1, collection)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Share:
    """The rank walks of some traces, run in a forked child.

    The child writes the traces' dims, one trace after another, to a pipe
    as native unsigned 16-bit integers (a dim lies in [2, n], and any n
    whose C(n, 3) triples fit in memory is below 2**16).  It leaves by
    `os._exit`, so it neither flushes the stdio buffers it inherited nor
    returns into the caller.  If a walk raises, the child exits 1 without
    a word; the same walk with jobs = 1 raises in the caller's process.
    """

    def __init__(self, tasks):
        self.count = len(tasks)
        self.fd, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(write)
            raise
        if self.pid:
            os.close(write)
            return
        code = 1
        try:
            from array import array

            os.close(self.fd)
            packed = array("H")
            for task in tasks:
                packed.extend(_check_trace(task))
            with open(write, "wb") as pipe:
                pipe.write(packed)
            code = 0
        finally:
            os._exit(code)

    def collect(self, length: int) -> list[list[int]]:
        """Each trace's `length` dims, from the pipe read to EOF, once the child is reaped.

        Raises RuntimeError if the child exited non-zero or wrote a payload
        of the wrong size.
        """
        try:
            with open(self.fd, "rb") as pipe:
                data = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        size = 2 * self.count * length
        if code or len(data) != size:
            raise RuntimeError(
                f"planar worker {self.pid} exited with code {code} after writing "
                f"{len(data)} of {size} bytes; run with --jobs 1 to see its error"
            )
        packed = memoryview(data).cast("H")
        return [packed[i:i + length].tolist() for i in range(0, len(packed), length)]

    def stop(self) -> None:
        """Kill the child, close its pipe and reap it."""
        from signal import SIGKILL

        os.kill(self.pid, SIGKILL)
        os.close(self.fd)
        os.waitpid(self.pid, 0)


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
    disagree or the oracle disagrees with dim_combinatorial.  With at least
    one trace, that is any collection on which some trace disagrees with
    the formula.  A trace on a closed family's degeneration locus (module
    docstring) disagrees with the formula there, and sampled slopes do
    reach that locus, e.g. two discrepancies at n = 7, cap 4, seed 10.

    `jobs` counts processes, this one included, capped at one per trace
    and one per CPU of this process's affinity mask.  This process walks
    the formula and the smallest share of the traces; forked children walk
    the other shares.  The report does not depend on `jobs`, and without
    `os.fork` every trace is walked here.  A failed child makes the call
    raise RuntimeError, and no child outlives the call.  Forking is unsafe
    in a process that runs threads: call it with jobs = 1 there.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    for name, value in (("cap", tuple_size_cap), ("trials", trials), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {value}")
    rng = SplitMix64(seed)
    tasks = [(_sample_slopes(rng, n, seed), n, tuple_size_cap) for _ in range(trials)]
    # `workers` processes, this one included, walk contiguous shares of the
    # traces.  This one takes the first share, the smallest, and walks the
    # formula too, so the codimensions it finds stay in `_memo` for later
    # calls; the children are forked first, while this process is small.
    workers = min(jobs, trials, _cpus()) if hasattr(os, "fork") else 1
    bounds = [trials * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_Share(tasks[lo:hi]))
        formula = _formula_dims(n, tuple_size_cap)
        per_trace = [_check_trace(t) for t in tasks[: bounds[1]]]
        while children:
            per_trace += children.pop(0).collect(len(formula))
    finally:
        for share in children:
            share.stop()

    failing = []
    if any(dims != formula for dims in per_trace):
        triples = list(combinations(range(1, n + 1), 3))
        visits = zip(_preorder(triples, tuple_size_cap), formula, *per_trace)
        failing = sorted(
            (len(collection), collection, f, dims)
            for collection, f, *dims in visits
            if any(d != f for d in dims)
        )
    discrepancies = [
        {
            "collection": [list(t) for t in collection],
            "formula": f,
            "oracle_dims": dims,
        }
        for _, collection, f, dims in failing
    ]
    return {
        "n": n,
        "collections_checked": len(formula),
        "discrepancies": discrepancies,
    }
