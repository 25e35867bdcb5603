"""Independent brute-force oracles used to cross-check the fast paths.

Deliberately naive: determinant by permutation expansion, rank by largest
nonvanishing minor, reduced row echelon form by `Fraction` Gauss-Jordan, the
concurrency forms from `Fraction` minors of the unscaled normals, the
codimension-2 census by testing every form against every pair, by testing
each pair's few candidate third forms for membership in its span with one
integer identity (`census_by_pairs`), and by grouping the pairs under the
primitive Plücker vector of their span, the census JSON through
intermediate dicts, the six-point concurrency search by cross products,
the group triples by filtering all triples of groups, the
dependency of three groups by the rank of their direction spaces' nullspace
bases, the planar rank oracle by one `reduce_row` of each collection's last
form against the echelon of the collection without it, the class merge by
restarting after every merge, the planar dimension formula on classes held
as index tuples with a memo keyed by the relabelled family and n, the plane
section in `Fraction`s with its parallel test and its intersections in two
separate passes, the sweep by sorting every line by its `Fraction` t-value
at every midpoint, the monodromy braids by re-inverting every earlier half
twist for every point, the Artin images by acting with every letter on every
generator's image, and the van Kampen relators by expanding every
conjugated braid and acting with it letter by letter.  Apart from
`dims_by_rank`, which calls `reduce_row` (the step of `int_rank`, itself
checked against `rank_by_minors`), `dependency_by_rank`, which calls
`int_nullspace` and `int_rank`, `dim_by_tuple_formula`, which takes the
generic rank of a closed family from `planar._generic_rank`,
`build_form_by_fractions`, which normalises with `primitive_int_vector`,
`section_by_two_passes`, which substitutes into the forms of `build_all`,
`braid_monodromy_by_reinversion`, which builds half twists with
`braid.halftwist`, and `presentation_by_expansion`, which runs the Artin
action of `braid.py` (its substitution step, `apply_images`, is checked on
explicit words in test_braid.py), nothing here shares code with the
elimination routines, the minors table, the census's merge of dependent triples, the
meet identity, the JSON writer, the group-triple enumerator, the depth-first
planar walk, the bitmask merge and its n-free memo, the single-pass section,
the integer sweep, the shared-prefix braids or the image tables under test.

The last six are not oracles but helpers that only tests read:
`restrict` (an arrangement and its offsets restricted to a flat, through
`QMatrix.rref` and `is_trace_generic`), `full_census` (the census's flats
and then one SIMPLE record per pair of `simple_pairs`, the record list
that `discarr census` prints), `multiplicity_four` (the pinned (8,5) trace
whose census holds an OTHER flat), `small_entry_generic` (a seeded
trace-generic draw with entries in [-2, 2], where coincidences such as
that flat occur), `permutation` (a braid word's strand permutation) and
`shuffle` (a seeded in-place shuffle).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd

from discarr.arrangement import GenericArrangement, is_trace_generic
from discarr.braid import BraidWord, artin_images, halftwist, invert, reduce_free
from discarr.discriminantal import (
    SIMPLE,
    StratumRecord,
    build_all,
    codim2_census,
    simple_pairs,
)
from discarr.linalg import (
    QMatrix,
    common_int_rows,
    int_nullspace,
    int_rank,
    primitive_int_vector,
    reduce_row,
)
from discarr.monodromy import (
    NonGenericSection,
    Presentation,
    SectionLine,
    SingularPoint,
    SweepError,
)
from discarr.planar import _generic_rank
from discarr.rng import SplitMix64


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _signed_permutations(n: int):
    return tuple((perm, perm_sign(perm)) for perm in permutations(range(n)))


def det_by_permutations(rows):
    """Leibniz expansion; exact in the entries' own type (int or Fraction)."""
    n = len(rows)
    total = 0
    for perm, term in _signed_permutations(n):
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def rank_by_minors(rows) -> int:
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    for size in range(min(n_rows, n_cols), 0, -1):
        for ri in combinations(range(n_rows), size):
            for ci in combinations(range(n_cols), size):
                minor = [[rows[i][j] for j in ci] for i in ri]
                if det_by_permutations(minor) != 0:
                    return size
    return 0


def rref_by_fractions(rows, cols: int):
    """(reduced rows, pivot columns) by Gauss-Jordan in `Fraction`s, zero rows dropped."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def build_form_by_fractions(normals, subset):
    """(subset, primitive coefficients) of one concurrency form, from Fractions.

    Entry j carries (-1)^position times the k x k minor of the normals on
    the other members, each minor expanded in the given `Fraction` rows
    with no scaling.
    """
    subset = tuple(sorted(subset))
    coeffs = [0] * len(normals)
    for pos, j in enumerate(subset):
        minor = det_by_permutations([normals[i - 1] for i in subset if i != j])
        coeffs[j - 1] = minor if pos % 2 == 0 else -minor
    return subset, primitive_int_vector(coeffs)


def census_to_json(records, k: int) -> list[dict]:
    """The census as plain dicts, keyed as `discarr census` prints each record."""
    out = []
    for rec in records:
        doc = {
            "members": [list(m) for m in rec.members],
            "multiplicity": len(rec.members),
            "kind": rec.kind,
        }
        if rec.kind == "DEPENDENT":
            common = set(rec.members[0])
            for m in rec.members[1:]:
                common &= set(m)
            t = len(common)
            doc["t"] = t
            doc["s"] = (k + 1 - t) // 2
        out.append(doc)
    return out


def census_by_minors(forms, k: int):
    """Codimension-2 flats of the discriminantal forms, by brute force.

    `forms` is a list of (subset, coefficient row).  The flat of a pair
    (f_a, f_b) is every form f_c with rank [f_a, f_b, f_c] == 2, found by
    minors; the distinct flats are returned as sorted
    (members, multiplicity, kind) triples, most members first.
    """
    flats = set()
    for a, b in combinations(range(len(forms)), 2):
        # a form nonzero outside both supports is outside the span; the other
        # columns are zero in all three rows and cannot change the rank
        union = set(forms[a][0]) | set(forms[b][0])
        cols = [j - 1 for j in sorted(union)]

        def restricted(row):
            return [row[j] for j in cols]

        pair = [restricted(forms[a][1]), restricted(forms[b][1])]
        members = tuple(
            sorted(
                subset
                for c, (subset, row) in enumerate(forms)
                if c in (a, b)
                or (union.issuperset(subset) and rank_by_minors(pair + [restricted(row)]) == 2)
            )
        )
        flats.add(members)
    return _census_records(flats, k)


def census_by_plucker_keys(forms, k: int):
    """Codimension-2 flats of the discriminantal forms, by Plücker vectors.

    `forms` is as for `census_by_minors`.  Every pair of forms is keyed by
    the primitive integer Plücker vector of its span: all of its 2 x 2
    minors, divided by their gcd, signed so the first nonzero one is
    positive.  Two pairs span the same 2-space exactly when the keys agree;
    a flat's members are the forms of the pairs under one key, and a key
    must hold C(m, 2) pairs for its m members.
    """
    groups = {}
    for (sa, fa), (sb, fb) in combinations(forms, 2):
        minors = [fa[i] * fb[j] - fa[j] * fb[i] for i, j in combinations(range(len(fa)), 2)]
        content = gcd(*minors)
        if next(m for m in minors if m) < 0:
            content = -content
        key = tuple(m // content for m in minors)
        members, pairs = groups.get(key, (set(), 0))
        groups[key] = (members | {sa, sb}, pairs + 1)
    flats = set()
    for members, pairs in groups.values():
        assert pairs == comb(len(members), 2), "pairs of one key do not form a flat"
        flats.add(tuple(sorted(members)))
    return _census_records(flats, k)


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


def census_by_pairs(forms, k: int):
    """Codimension-2 flats of the discriminantal forms, pair by pair.

    `forms` is as for `census_by_minors`, in lexicographic order of the
    subsets.  Each pair of forms f, g spans one flat, whose members are the
    forms in span(f, g).  Let J, K be their supports and d = |J - K|.  A
    third member h = a f + b g has a, b != 0, so it is nonzero on the 2d
    indices of the symmetric difference of J and K and zero outside J | K;
    as every form has exactly k+1 nonzero entries, h has support
    (J ^ K) | C' for some C' inside J & K with |C'| = k+1-2d.  A pair with
    2d > k+1 is therefore a SIMPLE crossing and needs no arithmetic; any
    other pair tests its C(k+1-d, d) candidates with `_in_span`.

    A flat of three or more forms is kept from its lexicographically first
    pair.  Every later pair of it must find the same members, and the flats
    and the SIMPLE pairs must cover each pair exactly once, or the census
    raises AssertionError.
    """
    k1 = k + 1
    n = len(forms[0][1])
    subsets = [subset for subset, _ in forms]
    coeffs = [row for _, row in forms]
    # supports as bitmasks of 0-based coordinates
    masks = [sum(1 << (j - 1) for j in subset) for subset in subsets]
    index = {mask: c for c, mask in enumerate(masks)}
    flats = []  # member indices of each multiple flat, from its first pair
    emitted = set()
    simple = []
    for a, (ma, fa) in enumerate(zip(masks, coeffs)):
        for b in range(a + 1, len(forms)):
            mb = masks[b]
            common = ma & mb
            d = k1 - common.bit_count()
            if 2 * d <= k1:
                union = ma | mb
                support = tuple(x for x in range(n) if union >> x & 1)
                bits = [1 << x for x in range(n) if common >> x & 1]
                i = (ma & ~mb).bit_length() - 1
                j = (mb & ~ma).bit_length() - 1
                members = [a, b]
                for extra in combinations(bits, k1 - 2 * d):
                    c = index[(ma ^ mb) | sum(extra)]
                    if _in_span(coeffs[c], fa, coeffs[b], i, j, support):
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
            simple.append((a, b))
    if sum(comb(len(key), 2) for key in flats) + len(simple) != comb(len(forms), 2):
        raise AssertionError("span membership produced an inconsistent flat")
    return _census_records({tuple(subsets[c] for c in key) for key in flats + simple}, k)


def _census_records(flats, k: int):
    """Sorted (members, multiplicity, kind) triples, most members first."""
    out = []
    for members in flats:
        union = sorted(set().union(*members))
        if len(union) == k + 2 and members == tuple(combinations(union, k + 1)):
            kind = "GOOD"
        elif len(members) == 3:
            kind = "DEPENDENT"
        elif len(members) == 2:
            kind = "SIMPLE"
        else:
            kind = "OTHER"
        out.append((members, len(members), kind))
    out.sort(key=lambda rec: (-rec[1], rec[0]))
    return out




def _pair_partitions(items):
    """Partitions into unordered pairs, lexicographic order."""
    if not items:
        yield ()
        return
    first = items[0]
    for partner in items[1:]:
        rest = tuple(x for x in items[1:] if x != partner)
        for tail in _pair_partitions(rest):
            yield ((first, partner),) + tail


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def concurrent_pairs_by_cross(points):
    """Six plane points: the first pairing whose lines concur, by determinants.

    Each pair's line is the cross product of its two points; three lines
    meet in a point exactly when the determinant of their coordinates
    vanishes.  Returns (True, partition) with 1-based indices, or
    (False, None).
    """
    for partition in _pair_partitions(tuple(range(1, 7))):
        lines = [_cross(points[a - 1], points[b - 1]) for a, b in partition]
        if det_by_permutations(lines) == 0:
            return True, partition
    return False, None


def disjoint_group_triples(pool, size: int):
    """Every unordered triple of pairwise disjoint `size`-subsets of `pool`."""
    return [
        groups
        for groups in combinations(combinations(pool, size), 3)
        if len(set().union(*groups)) == 3 * size
    ]


def dependency_by_rank(arr, common, groups) -> bool:
    """Whether three groups' direction spaces at infinity fail to span.

    Each group of size s, with the common hyperplanes, cuts the
    (s-1)-dimensional nullspace of their normals inside the
    (2s-1)-dimensional trace space restricted to the common hyperplanes;
    the triple is dependent when the three bases together have rank at
    most 2s-2.
    """
    s = len(groups[0])
    rows = []
    for g in groups:
        basis = int_nullspace([arr.normals[i - 1] for i in tuple(g) + tuple(common)], arr.k)
        if len(basis) != s - 1:
            raise AssertionError("generic trace must cut subspaces of dimension s-1")
        rows.extend(basis)
    return int_rank(rows) <= 2 * s - 2


def dims_by_rank(slopes, n: int, cap: int):
    """n - rank of every collection of up to `cap` slope forms.

    The form of a triple (a, b, c) has u_c - u_b at a, u_a - u_c at b and
    u_b - u_a at c.  Collections come size by size, each size in the lex
    order of `combinations`.  A collection's echelon is its last form
    reduced (`reduce_row`) against the echelon of the collection without
    it, which the size before kept.
    """
    triples = list(combinations(range(1, n + 1), 3))
    vectors = {}
    for a, b, c in triples:
        vec = [0] * n
        vec[a - 1] = slopes[c - 1] - slopes[b - 1]
        vec[b - 1] = slopes[a - 1] - slopes[c - 1]
        vec[c - 1] = slopes[b - 1] - slopes[a - 1]
        vectors[(a, b, c)] = vec
    dims = []
    echelons = {(): []}
    for size in range(1, cap + 1):
        level = {}
        for coll in combinations(triples, size):
            echelon = echelons[coll[:-1]]
            reduced = reduce_row(vectors[coll[-1]], echelon)
            if reduced is not None:
                echelon = echelon + [reduced]
            if size < cap:
                level[coll] = echelon
            dims.append(n - len(echelon))
        echelons = level
    return dims


def merge_by_restart(sets):
    """Union sets sharing >= 2 indices, rescanning all pairs after each merge."""
    current = sorted({tuple(sorted(set(s))) for s in sets})
    changed = True
    while changed:
        changed = False
        for i, j in combinations(range(len(current)), 2):
            if len(set(current[i]) & set(current[j])) >= 2:
                merged = tuple(sorted(set(current[i]) | set(current[j])))
                current = [s for idx, s in enumerate(current) if idx not in (i, j)]
                current.append(merged)
                changed = True
                break
    return tuple(sorted(set(current)))


def _fold_class(classes, s):
    """The merge classes of the merged `classes` and one more sorted set `s`.

    `s` absorbs every class sharing >= 2 indices with it, sweeping again
    while the union grows.
    """
    merged = set(s)
    rest = classes
    size = 0
    while size != len(merged):
        size = len(merged)
        kept = []
        for c in rest:
            if len(merged.intersection(c)) >= 2:
                merged.update(c)
            else:
                kept.append(c)
        rest = kept
    kept.append(s if size == len(s) else tuple(sorted(merged)))
    kept.sort()
    return tuple(kept)


def _merge_by_folding(sets):
    classes = ()
    for s in sorted({tuple(sorted(set(s))) for s in sets}):
        classes = _fold_class(classes, s)
    return classes


def _relabel(sets, n: int):
    """Relabel indices by first appearance in the lex-sorted family, checking [1..n]."""
    mapping = {}
    for s in sets:
        for idx in s:
            if idx not in mapping:
                if not 0 < idx <= n:
                    raise ValueError("set indices out of range [1..n]")
                mapping[idx] = len(mapping) + 1
    return tuple(tuple(sorted(mapping[i] for i in s)) for s in sets)


def _dim_reduced(family, n: int, memo: dict) -> int:
    """Dimension of a merged family of index tuples at n, by the fiber count.

    C1 is the indices in >= 2 sets, C2 the sets disjoint from all others,
    C3 the indices in no set.  Sets keeping >= 3 indices of C1 recurse in
    an ambient of |C1| + |C2| slots, relabelled; a closed family (the
    recursion would return it unchanged, with no outside index) takes the
    generic rank.  `memo` is keyed by the relabelled family and n.
    """
    key = (_relabel(family, n), n)
    if key in memo:
        return memo[key]
    counts = {}
    for s in family:
        for idx in s:
            counts[idx] = counts.get(idx, 0) + 1
    shared = {idx for idx, c in counts.items() if c >= 2}
    isolated = [s for s in family if not (set(s) & shared)]
    outside = n - len(counts)
    sliding = sum(1 for s in family if len(set(s) & shared) == 1)
    reduced = tuple(
        tuple(sorted(set(s) & shared)) for s in family if len(set(s) & shared) >= 3
    )
    if not reduced:
        dim = len(shared) + 2 * len(isolated) + sliding + outside
    elif reduced == family and not isolated and outside == 0:
        dim = n - _generic_rank(family, n)
    else:
        sub_n = len(shared) + len(isolated)
        relabel = {idx: pos + 1 for pos, idx in enumerate(sorted(shared))}
        sub_family = [sorted(relabel[i] for i in s) for s in reduced]
        sub_dim = _dim_reduced(_merge_by_folding(sub_family), sub_n, memo)
        dim = sub_dim + sliding + len(isolated) + outside
    memo[key] = dim
    return dim


def dim_by_tuple_formula(sets, n: int) -> int:
    """dim_combinatorial on classes held as index tuples, folded set by set."""
    return _dim_reduced(_merge_by_folding(sets), n, {})


def section_by_two_passes(arr, plane):
    """(lines, singular points) of a plane section, all in `Fraction`s.

    A first pass over the pairs of lines tests them for coincidence or
    parallelism; only a plane that passes it (and has no line parallel to
    the t-axis) gets its points, from `singular_points_by_fractions`, and
    the shared-s test.  Raises NonGenericSection with the failures and
    their order of `monodromy.section_lines`.
    """
    lines = []
    failures = []
    for form in build_all(arr):
        u = sum(Fraction(c) * plane.t_coeffs[j] for j, c in enumerate(form.coeffs))
        v = sum(Fraction(c) * plane.s_coeffs[j] for j, c in enumerate(form.coeffs))
        w = sum(Fraction(c) * plane.consts[j] for j, c in enumerate(form.coeffs))
        if u == 0:
            failures.append(f"line {form.subset} parallel to the t-axis")
        lines.append(SectionLine(form.subset, u, v, w))
    for a, b in combinations(lines, 2):
        if a.u * b.v == b.u * a.v:
            if a.u * b.w == b.u * a.w and a.v * b.w == b.v * a.w:
                failures.append(f"lines {a.subset} and {b.subset} coincide")
            else:
                failures.append(f"lines {a.subset} and {b.subset} are parallel")
    if failures:
        raise NonGenericSection(failures)
    points = singular_points_by_fractions(lines)
    by_s = {}
    for pt in points:
        by_s.setdefault(pt.s, set()).add(pt)
    for s_val, pts in by_s.items():
        if len(pts) > 1:
            blocks = sorted(tuple(lines[i - 1].subset for i in p.block) for p in pts)
            failures.append(f"distinct singular points share s={s_val}: {blocks}")
    if failures:
        raise NonGenericSection(failures)
    return lines, points


def singular_points_by_fractions(lines):
    """Pairwise intersections of lines with no parallel pair, sorted by s.

    Each pair's (s, t) is solved by `Fraction` division; blocks are 1-based
    positions grouped by the exact point.
    """
    points = {}
    for i, j in combinations(range(len(lines)), 2):
        a, b = lines[i], lines[j]
        au, av, aw, bu, bv, bw = map(Fraction, (a.u, a.v, a.w, b.u, b.v, b.w))
        denom = au * bv - bu * av
        s = (bu * aw - au * bw) / denom
        t = (av * bw - bv * aw) / denom
        points.setdefault((s, t), set()).update((i + 1, j + 1))
    out = [SingularPoint(s, t, tuple(sorted(block))) for (s, t), block in points.items()]
    out.sort(key=lambda p: p.s)
    return out


def sweep_by_sorting(lines, points):
    """The sweep of `monodromy._sweep`, every t-order found by sorting.

    The basepoint is one below the first singular s.  The lines are sorted
    by their `Fraction` t = -(v s + w) / u there, and again at the midpoint
    before each singular value, where the sort must give the predicted
    positions.  Yields (point, lo, hi) and raises SweepError as `_sweep`
    does.
    """

    def t_at(line, s):
        return -(line.v * s + line.w) / Fraction(line.u)

    basepoint_s = points[0].s - 1 if points else Fraction(0)
    order = sorted(range(len(lines)), key=lambda i: t_at(lines[i], basepoint_s))
    strand_of = {line_idx + 1: pos + 1 for pos, line_idx in enumerate(order)}
    sorted_lines = [lines[i] for i in order]
    strands = range(1, len(lines) + 1)
    positions = list(strands)
    prev_s = basepoint_s
    for point in points:
        block = tuple(sorted(strand_of[i] for i in point.block))
        mid = (prev_s + point.s) / 2
        if sorted(strands, key=lambda j: t_at(sorted_lines[j - 1], mid)) != positions:
            raise SweepError("sweep order diverged from predicted strand positions")
        at = sorted(positions.index(j) + 1 for j in block)
        lo, hi = at[0], at[-1]
        if at != list(range(lo, hi + 1)):
            raise SweepError(f"block {block} occupies non-consecutive positions {at}")
        positions[lo - 1 : hi] = positions[lo - 1 : hi][::-1]
        yield SingularPoint(point.s, point.t, block), lo, hi
        prev_s = point.s


def braid_monodromy_by_reinversion(lines, points):
    """The records of `monodromy.braid_monodromy`, from `sweep_by_sorting`.

    Each Gamma_i is written out letter by letter: every earlier half twist
    inverted, then b_i twice, then the earlier half twists, latest first.
    """
    twists = []
    records = []
    for point, lo, hi in sweep_by_sorting(lines, points):
        beta = halftwist(lo, hi - lo + 1)
        gamma = []
        for earlier in twists:
            gamma.extend(invert(earlier))
        gamma.extend(beta)
        gamma.extend(beta)
        for earlier in reversed(twists):
            gamma.extend(earlier)
        records.append((point, BraidWord(len(lines), tuple(gamma))))
        twists.append(beta)
    return records


def artin_images_by_left_action(word, n: int):
    """The Artin images of x_1..x_n, by acting with each letter of the word,
    leftmost first, on all n images: substitute its short images (restated
    here) and reduce the result."""
    images = [(j,) for j in range(1, n + 1)]
    for letter in word:
        m = abs(letter)
        if letter > 0:
            a, b = (m, m + 1, -m), (m,)
        else:
            a, b = (m + 1,), (-(m + 1), m, m + 1)
        table = {m: a, -m: invert(a), m + 1: b, -(m + 1): invert(b)}
        images = [reduce_free(y for x in w for y in table.get(x, (x,))) for w in images]
    return images


def presentation_by_expansion(braids, n_strands: int, reduce_relators: bool = False):
    """Van Kampen relators Gamma_i(x_j) x_j^-1 from the expanded braid words.

    Runs the Artin action of every letter of each record's word on all
    generators; the relators, their order and the reduce_relators rule are
    those of `monodromy.presentation`.
    """
    relators = []
    for point, braid in braids:
        images = artin_images(reduce_free(braid.letters), n_strands)
        local = [reduce_free(images[j - 1] + (-j,)) for j in point.block]
        local = [rel for rel in local if rel]
        if reduce_relators and local:
            local.pop()
        relators.extend(local)
    return Presentation(n_strands, tuple(relators))


def magnus_degree2(word, n: int):
    """Antisymmetric degree-2 Magnus coefficients of a free group word.

    Under x_a -> 1 + X_a (so x_a^-1 -> 1 - X_a + ...), the coefficient c_ab
    of X_a X_b with a != b is the sum of e_p e_q over letter positions
    p < q on generators a and b, e being the letters' signs.  Returns
    c_ab - c_ba for the pairs a < b in `combinations` order, an integer
    vector in the second exterior power of Z^n.
    """
    prefix = [0] * (n + 1)  # exponent sum of each generator so far
    coeff = [[0] * (n + 1) for _ in range(n + 1)]
    for x in word:
        b, sign = abs(x), (1 if x > 0 else -1)
        for a in range(1, n + 1):
            if prefix[a] and a != b:
                coeff[a][b] += prefix[a] * sign
        prefix[b] += sign
    return [coeff[a][b] - coeff[b][a] for a, b in combinations(range(1, n + 1), 2)]


def restrict(arr, chosen, offsets=None):
    """Restrict to the flat cut out by the chosen hyperplanes.

    Hyperplane j is normal_j . y = offsets[j-1] (zero when `offsets` is
    omitted).  `chosen` is a 1-based index subset of size < k.  The
    remaining hyperplanes are intersected with the flat and expressed in the
    canonical chart obtained by solving the chosen equations for the pivot
    variables of smallest index.  Returns the restricted arrangement and
    the offsets of its hyperplanes, the equations with their offsets
    cleared of denominators by one common factor.  Output trace-genericity
    is asserted.
    """
    chosen = tuple(sorted(chosen))
    t = len(chosen)
    if t >= arr.k:
        raise ValueError(f"can restrict to at most k-1={arr.k - 1} hyperplanes, got {t}")
    if offsets is None:
        offsets = (Fraction(0),) * arr.n
    if len(offsets) != arr.n:
        raise ValueError("one offset per hyperplane")
    if t == 0:
        return arr, tuple(offsets)

    aug = QMatrix.from_rows([arr.normals[j - 1] + (offsets[j - 1],) for j in chosen])
    red, pivots = aug.rref()
    if len(pivots) != t or arr.k in pivots:
        raise ValueError("chosen hyperplanes do not cut a flat of codimension |T|")
    free = [c for c in range(arr.k) if c not in pivots]

    new_rows = []
    for j in range(1, arr.n + 1):
        if j in chosen:
            continue
        row = arr.normals[j - 1]
        # substitute pivot coordinates: y_p = rhs_i - sum_f red[i][f] * y_f
        new_row = []
        for f in free:
            val = row[f]
            for i, p in enumerate(pivots):
                val -= row[p] * red.entries[i][f]
            new_row.append(val)
        off = offsets[j - 1]
        for i, p in enumerate(pivots):
            off -= row[p] * red.entries[i][arr.k]
        new_rows.append(new_row + [off])

    cleared = common_int_rows(new_rows)  # each equation with its offset, one factor
    out = GenericArrangement(arr.n - t, arr.k - t, [row[:-1] for row in cleared])
    if not is_trace_generic(out):
        raise AssertionError("restriction of a generic trace must stay generic")
    return out, tuple(row[-1] for row in cleared)


def full_census(arr) -> list:
    """The flats of `codim2_census(arr)`, then a SIMPLE record for each pair
    that `simple_pairs` yields: every codimension-2 flat, in printed order."""
    census = codim2_census(arr)
    return census + [StratumRecord(pair, SIMPLE) for pair in simple_pairs(arr, census)]


def multiplicity_four() -> GenericArrangement:
    """A trace-generic (8,5) arrangement whose census holds a flat of four
    forms, (1,2,3,4,7,8), (1,2,4,5,6,8), (1,3,4,5,6,7) and (2,3,5,6,7,8),
    next to two DEPENDENT flats.  Each member is {1..8} minus one block of
    the pairing {1,4}, {2,8}, {3,7}, {5,6}, and any three members are a
    dependent triple (s = 2) whose common set is the fourth block."""
    rows = [
        [2, -2, -1, 1, -1], [-2, -1, 1, -1, 1], [2, 0, -2, 2, 2], [1, 2, 1, 1, -1],
        [1, -1, 1, 2, -1], [2, 0, 1, -2, -1], [0, 2, -1, 2, -1], [0, -1, 1, -1, 0],
    ]
    return GenericArrangement(8, 5, rows)


def small_entry_generic(n: int, k: int, seed: int) -> GenericArrangement:
    """The first trace-generic draw of n x k normals with entries in [-2, 2],
    from a SplitMix64 seeded with `seed`.  Only about 1 draw in 3 at (8,5)
    and 1 in 12 at (9,5) is trace-generic, so the draw rejects in its own
    loop rather than through hypothesis."""
    rng = SplitMix64(seed)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        arr = GenericArrangement(n, k, rows)
        if is_trace_generic(arr):
            return arr


def permutation(word, n: int) -> tuple[int, ...]:
    """Strand permutation of a braid word: position i ends at result[i-1]."""
    perm = list(range(1, n + 1))
    for x in word:
        m = abs(x)
        perm[m - 1], perm[m] = perm[m], perm[m - 1]
    return tuple(perm)


def shuffle(rng, items: list) -> None:
    """Fisher-Yates shuffle of `items` in place, drawing from a SplitMix64."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
