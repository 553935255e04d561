import pytest
from hypothesis import given, strategies as st

from necsurf.words import (
    Word,
    cyclic_reduce,
    free_reduce,
    least_rotation,
    reduce_mod_involutions,
    substitute,
)
from reference import cyclically_equal

letters = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([1, -1])),
    max_size=30,
)
words = letters.map(lambda ls: Word(tuple(ls)))


class TestFreeReduce:
    def test_adjacent_inverse_pair(self):
        assert free_reduce(Word.parse("tau1 tau1^-1")) == Word()

    def test_inner_cancellation(self):
        w = Word.parse("x1^-1 tau1^-1 tau1 x2")
        assert free_reduce(w) == Word.parse("x1^-1 x2")

    def test_empty(self):
        assert free_reduce(Word()) == Word()

    @given(words)
    def test_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    @given(words)
    def test_length_non_increasing(self, w):
        assert len(free_reduce(w)) <= len(w)

    @given(words)
    def test_word_times_inverse_dies(self, w):
        assert free_reduce(w * w.inverse()) == Word()


class TestInvolutionReduce:
    def test_inverse_exponents_normalised(self):
        w = Word.parse("e tau1^-1")
        assert reduce_mod_involutions(w, {"tau1"}) == Word.parse("e tau1")

    def test_squares_cancel(self):
        w = Word.parse("x1 tau1 tau1 x1")
        assert reduce_mod_involutions(w, {"tau1", "x1"}) == Word()

    def test_non_involutions_untouched(self):
        w = Word.parse("e e")
        assert reduce_mod_involutions(w, {"tau1"}) == w

    @given(words)
    def test_reduces_at_least_as_much_as_free(self, w):
        inv = frozenset({"a", "b"})
        assert len(reduce_mod_involutions(w, inv)) <= len(free_reduce(w))


class TestParseAndPrint:
    def test_round_trip(self):
        for text in ("tau1*x1", "x1^-1*x2", "1", "e^-1*tau4*e*tau1^-1"):
            w = Word.parse(text)
            assert str(w) == text if text != "1" else str(w) == "1"
            assert Word.parse(str(w)) == w

    def test_powers_expand(self):
        assert Word.parse("a^3") == Word.parse("a a a")
        assert Word.parse("a^-2") == Word.parse("a^-1 a^-1")

    def test_gen_power(self):
        assert Word.gen("c1", 3) == Word.parse("c1 c1 c1")
        assert Word.gen("c1", -1) == Word.parse("c1^-1")

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            Word((("a", 2),))


class TestWordContract:
    @pytest.mark.parametrize("exp", [2, 0])
    def test_bad_exponent_named(self, exp):
        for letters in ((("b", 1), ("a", exp)), [("b", 1), ("a", exp)]):
            with pytest.raises(ValueError, match=rf"got a\^{exp}$"):
                Word(letters)

    @pytest.mark.parametrize("letter", [("a",), ("a", 1, 1), "a", 5, None, (["a"], 1)])
    def test_letter_not_a_pair_rejected(self, letter):
        with pytest.raises(ValueError, match="letter must be a"):
            Word((("b", 1), letter))
        with pytest.raises(ValueError, match="letter must be a"):
            Word([("b", 1), letter])

    def test_lists_are_coerced_to_tuples(self):
        expected = (("a", 1), ("b", -1))
        for letters in ([["a", 1], ["b", -1]], [("a", 1), ("b", -1)], (["a", 1], ("b", -1)),
                        iter(expected)):
            w = Word(letters)
            assert type(w.letters) is tuple
            assert w.letters == expected
            assert all(type(letter) is tuple for letter in w.letters)

    def test_a_tuple_of_pairs_is_kept(self):
        letters = (("a", 1), ("b", -1))
        assert Word(letters).letters is letters

    @given(words)
    def test_every_word_is_hashable(self, w):
        built = [w, Word(list(w.letters)), w * w, w.inverse(), w ** 2, free_reduce(w),
                 cyclic_reduce(w, {"a"}), Word.parse(str(w)) if w.letters else Word()]
        for v in built:
            assert hash(v) == hash(Word(v.letters))


class TestCyclicWords:
    def test_rotation_equality(self):
        a = Word.parse("a b c")
        b = Word.parse("c a b")
        assert cyclically_equal(a, b)

    def test_conjugate_collapses(self):
        w = Word.parse("tau1 a b tau1")
        assert cyclic_reduce(w, {"tau1"}) == Word.parse("a b")

    def test_inverse_not_automatically_equal(self):
        a = Word.parse("a b")
        assert not cyclically_equal(a, a.inverse())

    @given(words, st.integers(min_value=0, max_value=40))
    def test_least_rotation_keys_rotations(self, w, k):
        """Equal keys exactly when ``cyclically_equal`` holds, and the key
        is the least rotation, on each word, a rotation of it and its
        inverse."""
        w = cyclic_reduce(w)
        n = max(len(w), 1)
        rotated = Word(w.letters[k % n:] + w.letters[:k % n])
        assert least_rotation(rotated) == least_rotation(w)
        assert least_rotation(w) == min(
            (w.letters[i:] + w.letters[:i] for i in range(n)), default=()
        )
        inverse = cyclic_reduce(w.inverse())
        assert (least_rotation(inverse) == least_rotation(w)) == cyclically_equal(inverse, w)

    def test_least_rotation_of_periodic_word(self):
        w = Word.parse("b a b a")
        assert least_rotation(w) == Word.parse("a b a b").letters


def test_substitute_passes_unmapped_names_through():
    w = Word.parse("tau1 delta1 tau1")
    out = substitute(w, {"delta1": Word.parse("tau1 x1")})
    assert out == Word.parse("tau1 tau1 x1 tau1")


def test_substitute_inverts_images():
    out = substitute(Word.parse("delta1^-1"), {"delta1": Word.parse("tau1 x1")})
    assert out == Word.parse("x1^-1 tau1^-1")
