import pytest
from hypothesis import given, strategies as st

from necsurf.presentations import connector_closed_form
from necsurf.words import Word
from reference import (
    cyclic_reduce,
    cyclically_equal,
    free_reduce,
    parse_word,
    substitute,
    trimmed_reduction,
)

letters = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([1, -1])),
    max_size=30,
)
words = letters.map(lambda ls: Word(tuple(ls)))


class TestFreeReduce:
    """``cyclic_reduce`` with no involutions: free reduction, then inverse
    pairs trimmed at the ends."""

    def test_adjacent_inverse_pair(self):
        assert cyclic_reduce(parse_word("tau1 tau1^-1")) == Word()

    def test_inner_cancellation(self):
        w = parse_word("x1^-1 tau1^-1 tau1 x2")
        assert cyclic_reduce(w) == parse_word("x1^-1 x2")

    def test_empty(self):
        assert cyclic_reduce(Word()) == Word()

    @given(words)
    def test_idempotent(self, w):
        once = cyclic_reduce(w)
        assert cyclic_reduce(once) == once

    @given(words)
    def test_length_non_increasing(self, w):
        assert len(cyclic_reduce(w)) <= len(w)

    @given(words)
    def test_word_times_inverse_dies(self, w):
        assert cyclic_reduce(w * w.inverse()) == Word()


class TestInvolutionReduce:
    def test_inverse_exponents_normalised(self):
        w = parse_word("e tau1^-1")
        assert cyclic_reduce(w, {"tau1"}) == parse_word("e tau1")

    def test_squares_cancel(self):
        w = parse_word("x1 tau1 tau1 x1")
        assert cyclic_reduce(w, {"tau1", "x1"}) == Word()

    def test_non_involutions_untouched(self):
        w = parse_word("e e")
        assert cyclic_reduce(w, {"tau1"}) == w

    @given(words)
    def test_reduces_at_least_as_much_as_free(self, w):
        inv = frozenset({"a", "b"})
        reduced = cyclic_reduce(w, inv)
        assert len(reduced) <= len(cyclic_reduce(w)) <= len(free_reduce(w))
        assert cyclic_reduce(reduced, inv) == reduced

    @given(words)
    def test_matches_the_oracle(self, w):
        for inv in (frozenset(), frozenset({"a"}), frozenset({"a", "b"})):
            assert cyclic_reduce(w, inv) == trimmed_reduction(w, inv)

    def test_matches_the_oracle_on_battery_relators(self, derived_battery):
        # each relator of each signature-battery Delta-hat, as a word in
        # the derived names and spelled out in K's generators with the
        # connector eliminated, as the trivial claims of
        # ``verify_derived_relators`` read it
        checked = 0
        for _, _, K, _, derived in derived_battery:
            substitution = {g.name: g.word for g in derived.subgroup.generators}
            elimination = connector_closed_form(K)
            involutions = K.involution_names()
            for rel in derived.presentation.relators:
                ambient = substitute(substitute(rel, substitution), elimination)
                assert cyclic_reduce(rel) == trimmed_reduction(rel), str(rel)
                assert cyclic_reduce(ambient, involutions) == trimmed_reduction(
                    ambient, involutions
                ), str(rel)
                checked += 1
        assert len(derived_battery) == 1640 and checked > 1640


class TestParseAndPrint:
    def test_round_trip(self):
        for text in ("tau1*x1", "x1^-1*x2", "1", "e^-1*tau4*e*tau1^-1"):
            w = parse_word(text)
            assert str(w) == text if text != "1" else str(w) == "1"
            assert parse_word(str(w)) == w

    def test_powers_expand(self):
        assert parse_word("a^3") == parse_word("a a a")
        assert parse_word("a^-2") == parse_word("a^-1 a^-1")

    def test_gen_power(self):
        assert Word.gen("c1", 3) == parse_word("c1 c1 c1")
        assert Word.gen("c1", -1) == parse_word("c1^-1")

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
        built = [w, Word(list(w.letters)), w * w, w.inverse(), w ** 2, cyclic_reduce(w),
                 cyclic_reduce(w, {"a"}), parse_word(str(w)) if w.letters else Word()]
        for v in built:
            assert hash(v) == hash(Word(v.letters))


class TestCyclicWords:
    def test_rotation_equality(self):
        a = parse_word("a b c")
        b = parse_word("c a b")
        assert cyclically_equal(a, b)

    def test_conjugate_collapses(self):
        w = parse_word("tau1 a b tau1")
        assert cyclic_reduce(w, {"tau1"}) == parse_word("a b")

    def test_inverse_not_automatically_equal(self):
        a = parse_word("a b")
        assert not cyclically_equal(a, a.inverse())


def test_substitute_passes_unmapped_names_through():
    w = parse_word("tau1 delta1 tau1")
    out = substitute(w, {"delta1": parse_word("tau1 x1")})
    assert out == parse_word("tau1 tau1 x1 tau1")


def test_substitute_inverts_images():
    out = substitute(parse_word("delta1^-1"), {"delta1": parse_word("tau1 x1")})
    assert out == parse_word("x1^-1 tau1^-1")
