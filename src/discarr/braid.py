"""Braid words, the Artin action on free groups, and exact equality testing.

A braid word is a sequence of signed generator indices: +m for the positive
crossing of strands m and m+1, -m for its inverse.  Free group words use the
same encoding over generators 1..N.

Equality of braids is decided through the Artin representation: a braid acts
on the free group F_N by

    sigma_m:  x_m -> x_m x_{m+1} x_m^{-1},   x_{m+1} -> x_m,

all other generators fixed.  The representation is faithful and reduced free
words are unique, so two words are equal in the braid group exactly when the
generator images agree.  The same action, with substitution of image tables
(apply_images), produces the van Kampen relators of the monodromy
presentations, so one small engine serves both needs.

Convention: in a word, the leftmost letter acts first.  The image of x_j is
found by substituting the first letter's images into x_j, then the second
letter's images into the result, and so on; `artin_images` builds the same
automorphism from the last letter, which rewrites fewer words.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

Word = tuple[int, ...]


def reduce_free(word: Iterable[int]) -> Word:
    """Freely reduce a word (cancel adjacent x x^-1 pairs)."""
    out: list[int] = []
    for x in word:
        if x == 0:
            raise ValueError("0 is not a generator letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


class BraidWord(NamedTuple):
    """A word in the Artin generators on `strands` strands; a plain record,
    whose letters are checked where they are read (`braids_equal`)."""

    strands: int
    letters: Word


def halftwist(start: int, size: int) -> Word:
    """Positive half twist on the consecutive strands start..start+size-1.

    The standard word (s_1)(s_2 s_1)...(s_{size-1} ... s_1), shifted; its
    underlying permutation reverses the block.  Length size*(size-1)/2.
    """
    word: list[int] = []
    for stage in range(1, size):
        for j in range(stage, 0, -1):
            word.append(start + j - 1)
    return tuple(word)


def full_twist(n: int) -> Word:
    """The full twist on n strands (square of the global half twist)."""
    half = halftwist(1, n)
    return half + half


def artin_images(word: Sequence[int], n: int) -> list[Word]:
    """Reduced images of the free generators x_1..x_n under the braid word.

    The word is read from its last letter: if `table` holds the action of
    the letters after sigma_m, the whole suffix maps x_m and x_{m+1} to the
    table's images of sigma_m's short images, and every other generator as
    before.  So each letter rewrites two entries, not all n.
    """
    table: dict[int, Word] = {}  # apply_images fixes unnamed letters
    for letter in reversed(word):
        m = abs(letter)
        if letter > 0:
            # x_m -> x_m x_{m+1} x_m^-1, x_{m+1} -> x_m
            a, b = (m, m + 1, -m), (m,)
        else:
            # inverse: x_m -> x_{m+1}, x_{m+1} -> x_{m+1}^-1 x_m x_{m+1}
            a, b = (m + 1,), (-(m + 1), m, m + 1)
        a, b = apply_images(a, table), apply_images(b, table)
        table[m], table[-m], table[m + 1], table[-(m + 1)] = a, invert(a), b, invert(b)
    return [table.get(j, (j,)) for j in range(1, n + 1)]


def apply_images(word: Sequence[int], images: dict[int, Word]) -> Word:
    """Freely reduced image of a free group word under a substitution.

    `images` maps signed letters to words, x^-1 to the inverse of the image
    of x; letters it does not name are fixed.
    """
    out: list[int] = []
    for x in word:
        for y in images.get(x, (x,)):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def braids_equal(w1: Sequence[int], w2: Sequence[int], n: int) -> bool:
    """Exact braid group equality via the faithful Artin representation.

    Every letter must be one of ±1..±(n-1); `artin_images` does not check.
    """
    for letter in (*w1, *w2):
        if not 0 < abs(letter) < n:
            raise ValueError(f"braid letter {letter} out of range ±1..±{n - 1}")
    return artin_images(reduce_free(w1), n) == artin_images(reduce_free(w2), n)

