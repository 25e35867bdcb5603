"""Generic plane sections, braid monodromy, and fundamental group data.

Substituting a parametrized 2-plane x_i = a_i t + b_i s + c_i with integer
coefficients into the concurrency forms turns the discriminantal arrangement
into N = C(n, k+1) lines u t + v s + w = 0 in the (t, s)-plane with integer
u, v, w.  One integer pass over the pairs of lines finds every parallel pair
and every crossing, keyed by its reduced integer coordinates (s, t, d) for
the point (s/d, t/d); only the distinct points become `Fraction`s, so the
event order is exact, and a plane whose distinct points share an s-value
is rejected by grouping the points in that order.

The sweep (_sweep) runs in increasing s from a basepoint below every
singular value, where the t-order of the lines is their slope order.
Strands are numbered by t-order there; crossing the i-th singular value,
the block of concurrent lines occupies consecutive strand positions and
undergoes a positive half twist b_i.  The monodromy braid of that value is
the square of its half twist conjugated by the earlier half twists:

    Gamma_i = P_i^-1 b_i^2 P_i,   P_i = b_{i-1} ... b_1,

which braid_monodromy emits as an explicit Artin word, for the monodromy
JSON and the full-twist check, growing P_i and P_i^-1 by one half twist
per singular value; it checks the strand range of each half twist, not of
each letter.  The van Kampen presentation of the complement equates
Gamma_i(x_j) with x_j for the strands j of each block, under the Artin
action on the free group with one generator per line (braid.py).
`presentation` reads the same sweep and never expands a braid: it carries
the images of P_i and P_i^-1 as two tables of free words, and updates them
with the short images of b_i and b_i^-1 at each singular value.

nilpotent_relations emits the three commutator relation families of the
holonomy Lie algebra / nilpotent completion, keyed by the codimension-2
census: one per (hyperplane, full (k+2)-set) incidence, one per member of a
dependent triple, and one per ordered pair in a simple crossing.  The
commuting family ranges over the simple-crossing pairs of (k+1)-subsets,
as `simple_pairs` yields them, streamed: it can be read only once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby, pairwise
from math import comb, gcd
from operator import attrgetter
from typing import Iterator, NamedTuple

from .arrangement import GenericArrangement
from .braid import BraidWord, apply_images, artin_images, halftwist, invert, reduce_free
from .discriminantal import (
    DEPENDENT,
    GOOD,
    OTHER,
    codim2_census,
    build_all,
    simple_pairs,
)
from .rng import SplitMix64

SECTION_BUDGET = 400
SECTION_BOUND = 12  # plane coefficients are drawn from [-12, 12]


class NonGenericSection(ValueError):
    """Section plane violates a genericity invariant; resample it."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("non-generic section: " + "; ".join(self.failures))


class SectionPlane(NamedTuple):
    """Parametrization x_i = t_coeffs[i] * t + s_coeffs[i] * s + consts[i].

    The coefficients are ints; section_lines rejects any other entry.
    """

    t_coeffs: tuple[int, ...]
    s_coeffs: tuple[int, ...]
    consts: tuple[int, ...]


class SectionLine(NamedTuple):
    """One section line u*t + v*s + w = 0 with integer u, v, w, labeled by
    its (k+1)-subset."""

    subset: tuple[int, ...]
    u: int
    v: int
    w: int


class SingularPoint(NamedTuple):
    """A multiple point of the section at exact coordinates (s, t).

    `block` lists the concurrent lines by their position in the order the
    lines were handed in (for braid_monodromy: strand numbers at the
    basepoint, 1-based).
    """

    s: Fraction
    t: Fraction
    block: tuple[int, ...]


def section_lines(
    arr: GenericArrangement, plane: SectionPlane
) -> tuple[list[SectionLine], list[SingularPoint]]:
    """Substitute the plane into every form; validate section genericity.

    Returns the lines and their singular points.  Raises NonGenericSection
    naming each violated invariant: a vanishing t-coefficient, coincident
    or parallel lines (as singular_points finds them), singular points
    sharing an s-coordinate (adjacent in singular_points' order by s).
    """
    rows = (plane.t_coeffs, plane.s_coeffs, plane.consts)
    if any(len(row) != arr.n for row in rows):
        raise ValueError("plane vectors must have length n")
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("plane coefficients must be ints")
    lines = []
    failures = []
    for form in build_all(arr):
        u, v, w = (sum(c * x for c, x in zip(form.coeffs, row)) for row in rows)
        if u == 0:
            failures.append(f"line {form.subset} parallel to the t-axis")
        lines.append(SectionLine(form.subset, u, v, w))
    try:
        points = singular_points(lines)
    except NonGenericSection as exc:
        failures.extend(exc.failures)
    if failures:
        raise NonGenericSection(failures)
    for s_val, group in groupby(points, key=attrgetter("s")):
        blocks = sorted(tuple(lines[i - 1].subset for i in p.block) for p in group)
        if len(blocks) > 1:
            failures.append(f"distinct singular points share s={s_val}: {blocks}")
    if failures:
        raise NonGenericSection(failures)
    return lines, points


def random_section(arr: GenericArrangement, seed: int):
    """Sample integer SectionPlane coefficients until all invariants hold.

    Returns (plane, lines, singular points) as section_lines gives them.
    """
    rng = SplitMix64(seed)
    for _ in range(SECTION_BUDGET):
        rows = (
            tuple(rng.randint(-SECTION_BOUND, SECTION_BOUND) for _ in range(arr.n))
            for _ in range(3)
        )
        plane = SectionPlane(*rows)
        try:
            lines, points = section_lines(arr, plane)
        except NonGenericSection:
            continue
        return plane, lines, points
    msg = f"no generic section after {SECTION_BUDGET} draws (seed={seed}); try another seed"
    raise RuntimeError(msg)


def singular_points(lines: list[SectionLine]) -> list[SingularPoint]:
    """All pairwise intersection points, grouped exactly, sorted by s.

    Blocks refer to 1-based positions in the given list.  One integer pass
    over the pairs raises NonGenericSection naming every coincident or
    parallel pair; otherwise every pair of lines meets exactly once, at
    (s/d, t/d) with d > 0 and gcd(s, t, d) = 1, the key of its block, so the
    block sizes satisfy sum C(|P|, 2) = C(N, 2).
    """
    points: dict[tuple[int, int, int], set[int]] = {}
    failures = []
    for i, j in combinations(range(len(lines)), 2):
        a, b = lines[i], lines[j]
        denom = a.u * b.v - b.u * a.v
        s_num = b.u * a.w - a.u * b.w
        t_num = a.v * b.w - b.v * a.w
        if denom == 0:
            kind = "coincide" if s_num == t_num == 0 else "are parallel"
            failures.append(f"lines {a.subset} and {b.subset} {kind}")
        elif not failures:
            g = gcd(s_num, t_num, denom) if denom > 0 else -gcd(s_num, t_num, denom)
            key = (s_num // g, t_num // g, denom // g)
            points.setdefault(key, set()).update((i + 1, j + 1))
    if failures:
        raise NonGenericSection(failures)
    total = sum(comb(len(block), 2) for block in points.values())
    if total != comb(len(lines), 2):
        raise AssertionError("pair count identity violated")
    out = [
        SingularPoint(Fraction(s, d), Fraction(t, d), tuple(sorted(block)))
        for (s, t, d), block in points.items()
    ]
    out.sort(key=attrgetter("s"))
    return out


class SweepError(AssertionError):
    """A concurrency block was not consecutive at its critical value."""


def _sweep(lines: list[SectionLine], points: list[SingularPoint]):
    """The sweep in increasing s: yields (point, lo, hi) per singular value.

    Below every crossing the t-order of the lines (no two are parallel) is
    the same at every s, the order of their slopes v/u.  Lines are renumbered
    as strands 1..N in that order, and each yielded point carries its block
    as strand numbers.  The block occupies positions lo..hi just below its
    value; its half twist reverses them.  Midway from the previous value
    (the first one less 1), at s = p/q, each pair a, b of adjacent
    positions must be in t-order, t_a < t_b, which in integers reads
    ((a.v p + a.w q) b.u - (b.v p + b.w q) a.u) a.u b.u > 0; and the block
    must be consecutive; or SweepError.
    """
    order = sorted(range(len(lines)), key=lambda i: Fraction(lines[i].v, lines[i].u))
    strand_of = {line_idx + 1: pos + 1 for pos, line_idx in enumerate(order)}
    sorted_lines = [lines[i] for i in order]
    positions = list(range(1, len(lines) + 1))  # positions[p-1] = strand at position p
    prev_s = points[0].s - 1 if points else None
    for point in points:
        block = tuple(sorted(strand_of[i] for i in point.block))
        mid = (prev_s + point.s) / 2
        p, q = mid.numerator, mid.denominator
        column = (sorted_lines[j - 1] for j in positions)
        heights = [(line.v * p + line.w * q, line.u) for line in column]
        if any((ha * ub - hb * ua) * ua * ub <= 0 for (ha, ua), (hb, ub) in pairwise(heights)):
            raise SweepError("sweep order diverged from predicted strand positions")
        at = sorted(positions.index(j) + 1 for j in block)
        lo, hi = at[0], at[-1]
        if at != list(range(lo, hi + 1)):
            raise SweepError(f"block {block} occupies non-consecutive positions {at}")
        positions[lo - 1 : hi] = positions[lo - 1 : hi][::-1]
        yield SingularPoint(point.s, point.t, block), lo, hi
        prev_s = point.s


def braid_monodromy(
    lines: list[SectionLine], points: list[SingularPoint]
) -> list[tuple[SingularPoint, BraidWord]]:
    """Monodromy braids of the section, one per singular value of s.

    `points` are the singular points of `lines`, as singular_points (or
    random_section) returns them.  Each returned SingularPoint carries its
    block as strand numbers (see _sweep), and each braid is the conjugated
    full twist on the block, fully expanded in Artin generators.  Each half
    twist's strands need 1 <= lo < hi <= N, or SweepError; no letter is checked.
    """
    inverse: tuple[int, ...] = ()  # P_i^-1
    prefix: tuple[int, ...] = ()  # P_i
    records: list[tuple[SingularPoint, BraidWord]] = []
    for point, lo, hi in _sweep(lines, points):
        if not 1 <= lo < hi <= len(lines):
            raise SweepError(f"half twist on strands {lo}..{hi} out of range 1..{len(lines)}")
        beta = halftwist(lo, hi - lo + 1)
        records.append((point, BraidWord(len(lines), inverse + beta + beta + prefix)))
        inverse += invert(beta)
        prefix = beta + prefix
    return records


class Presentation(NamedTuple):
    """Finite presentation: generators x_1..x_N, relators as signed words."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def exponent_matrix(self) -> list[list[int]]:
        rows = []
        for rel in self.relators:
            row = [0] * self.generator_count
            for x in rel:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)
        return rows


def presentation(
    lines: list[SectionLine],
    points: list[SingularPoint],
    reduce_relators: bool = False,
) -> Presentation:
    """Van Kampen presentation of the section's complement.

    `points` are the singular points of `lines`, as for braid_monodromy.
    Each singular point contributes the relators Gamma_i(x_j) x_j^-1 for the
    strands j through the point; relations for the remaining strands are
    consequences and omitted.  With reduce_relators, the last relator of
    each point (itself a consequence of the others) is dropped too, leaving
    |P_i| - 1 per point.

    The half twists b_i come from the sweep (_sweep), and
    Gamma_i = P_i^-1 b_i^2 P_i with P_i = b_{i-1} ... b_1 is never
    expanded.  Two image tables follow the sweep instead (a word acts
    leftmost letter first, so P_{i+1} = b_i P_i acts as P_i after b_i):

        before: x_g -> P_i^-1(x_g), updated by substituting the images of
                b_i^-1 into every entry that has a letter of the block;
        after:  x_g -> P_i(x_g), updated by substituting the table into the
                images of b_i, which differ from x_g only on the block.

    Then Gamma_i(x_j) = after(b_i^2(before(x_j))).  Reduced free words are
    unique, so each relator is the reduced word that the letter-by-letter
    Artin action of Gamma_i gives.
    """
    n_strands = len(lines)
    before = [(g,) for g in range(1, n_strands + 1)]
    after: dict[int, tuple[int, ...]] = {}  # apply_images fixes unnamed letters
    relators: list[tuple[int, ...]] = []
    for point, lo, hi in _sweep(lines, points):
        beta = halftwist(1, hi - lo + 1)
        square = _block_images(beta + beta, lo)
        local = [
            reduce_free(apply_images(apply_images(before[j - 1], square), after) + (-j,))
            for j in point.block
        ]
        local = [rel for rel in local if rel]
        if reduce_relators and local:
            local.pop()
        relators.extend(local)
        backward = _block_images(invert(beta), lo)  # keyed by signed letters
        before = [
            word if backward.keys().isdisjoint(word) else apply_images(word, backward)
            for word in before
        ]
        forward = _block_images(beta, lo)
        after.update({x: apply_images(image, after) for x, image in forward.items()})
    return Presentation(n_strands, tuple(relators))


def _block_images(word: tuple[int, ...], lo: int) -> dict[int, tuple[int, ...]]:
    """Artin images of a braid on strands 1..m, moved to positions lo..lo+m-1.

    The table maps each signed block letter to its image (x^-1 to the
    inverse word), as apply_images reads it; other letters are fixed.
    """
    size = max(map(abs, word)) + 1
    shift = lo - 1
    table = {}
    for g, image in enumerate(artin_images(word, size), lo):
        image = tuple(x + shift if x > 0 else x - shift for x in image)
        table[g] = image
        table[-g] = invert(image)
    return table


class RelationFamilies(NamedTuple):
    """Symbolic commutator relation families keyed by the census.

    full_sets:   (subset, containing (k+2)-set) pairs, one per incidence.
    dependents:  (subset, dependent triple) pairs, three per triple.
    commuting:   ordered (subset, other) pairs, two per simple crossing,
                 as a one-pass iterator, never held whole.
    """

    full_sets: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    dependents: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]
    commuting: Iterator[tuple[tuple[int, ...], tuple[int, ...]]]


def nilpotent_relations(arr: GenericArrangement) -> RelationFamilies:
    """Relation families of the nilpotent completion, from the census; the
    commuting pairs are streamed from `simple_pairs`, each in both orders.

    An OTHER flat has no family, so it raises AssertionError.
    """
    census = codim2_census(arr)
    if any(rec.kind == OTHER for rec in census):
        raise AssertionError("census produced an unclassified stratum")
    full_sets = []
    dependents = []
    for rec in census:
        if rec.kind == GOOD:
            union = tuple(sorted(set().union(*map(set, rec.members))))
            for member in rec.members:
                full_sets.append((member, union))
        elif rec.kind == DEPENDENT:
            for member in rec.members:
                dependents.append((member, rec.members))
    commuting = (x for a, b in simple_pairs(arr, census) for x in ((a, b), (b, a)))
    return RelationFamilies(tuple(full_sets), tuple(dependents), commuting)


def presentation_to_text(pres: Presentation) -> str:
    """ASCII rendering: lowercase dJ = generator, uppercase DJ = inverse."""
    gens = " ".join(f"d{j}" for j in range(1, pres.generator_count + 1))
    out = [f"generators: {gens}"]
    for rel in pres.relators:
        out.append(" ".join(f"d{x}" if x > 0 else f"D{-x}" for x in rel))
    return "\n".join(out) + "\n"
