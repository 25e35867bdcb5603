import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discarr.braid import (
    BraidWord,
    apply_images,
    artin_images,
    braids_equal,
    full_twist,
    halftwist,
    invert,
    reduce_free,
)
from discarr.rng import SplitMix64

from _oracles import artin_images_by_left_action, permutation


def test_free_reduction():
    assert reduce_free((1, -1)) == ()
    assert reduce_free((1, 2, -2, -1, 3)) == (3,)
    assert reduce_free((1, 2, -1)) == (1, 2, -1)
    with pytest.raises(ValueError):
        reduce_free((0,))


def test_invert():
    word = (1, -2, 3)
    assert invert(word) == (-3, 2, -1)
    assert reduce_free(word + invert(word)) == ()


def test_halftwist_reverses_block():
    assert permutation(halftwist(1, 4), 4) == (4, 3, 2, 1)
    assert permutation(halftwist(2, 3), 5) == (1, 4, 3, 2, 5)
    assert len(halftwist(1, 5)) == 10
    assert halftwist(3, 2) == (3,)


def test_full_twist_is_pure_and_central():
    n = 5
    ft = full_twist(n)
    assert permutation(ft, n) == tuple(range(1, n + 1))
    for g in range(1, n):
        assert braids_equal(ft + (g,), (g,) + ft, n)


def test_artin_generator_action():
    assert artin_images((1,), 3) == [(1, 2, -1), (1,), (3,)]
    assert artin_images((-1,), 3) == [(2,), (-2, 1, 2), (3,)]
    # inverse composes to identity
    assert artin_images((1, -1), 3) == [(1,), (2,), (3,)]


@st.composite
def braid_words(draw):
    n = draw(st.integers(2, 7))
    letter = st.integers(1, n - 1).flatmap(lambda m: st.sampled_from((m, -m)))
    return draw(st.lists(letter, max_size=40)), n


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(braid_words())
def test_artin_images_match_left_action_oracle(case):
    word, n = case
    assert artin_images(word, n) == artin_images_by_left_action(word, n)


def test_apply_images_substitutes_and_reduces():
    # the Artin images of sigma_1 on F_3, as a signed-letter table
    table = {1: (1, 2, -1), -1: (1, -2, -1), 2: (1,), -2: (-1,)}
    assert apply_images((1, 3, -2), table) == (1, 2, -1, 3, -1)
    assert apply_images((2, 1), table) == (1, 1, 2, -1)
    assert apply_images((1, -1), table) == ()
    word = (2, -1, 3, 1, 2)
    assert apply_images(word, table) == reduce_free(
        sum((table.get(x, (x,)) for x in word), ())
    )


def test_braid_relations():
    assert braids_equal((1, 2, 1), (2, 1, 2), 3)
    assert braids_equal((1, 3), (3, 1), 4)  # distant generators commute
    assert not braids_equal((1, 2), (2, 1), 3)
    assert not braids_equal((1,), (-1,), 2)


@pytest.mark.parametrize("w1, w2", [((5,), ()), ((), (1, -3)), ((0,), (0,)), ((2, 3), (3, 2))])
def test_braids_equal_rejects_letters_outside_the_group(w1, w2):
    # on three strands only ±1, ±2 are generators; x_3 under sigma_3 would
    # become a word in x_4, and sigma_5 would act as the identity
    with pytest.raises(ValueError, match="out of range"):
        braids_equal(w1, w2, 3)


def test_braid_equality_random_conjugates():
    rng = SplitMix64(8)
    n = 5
    for _ in range(10):
        word = tuple(
            rng.randint(1, n - 1) * (1 if rng.randint(0, 1) else -1) for _ in range(8)
        )
        conj = tuple(rng.randint(1, n - 1) for _ in range(4))
        # w and c w c^-1 are equal iff they are, after conjugating back
        shifted = conj + word + invert(conj)
        assert braids_equal(invert(conj) + shifted + conj, word, n)


def test_braidword_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    w = BraidWord(3, (1, 2))
    product = BraidWord(3, w.letters + invert(w.letters))
    assert product.letters == (1, 2, -2, -1)
    assert braids_equal(product.letters, (), 3)

