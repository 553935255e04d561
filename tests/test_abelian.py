import random

import pytest
from hypothesis import given, strategies as st

from necsurf import (
    abelianization,
    build_theta,
    canonical_presentation,
    derive_delta_hat,
    quotient_disc_signature,
    smith_normal_form,
)
from necsurf import abelian as abelian_module
from matrices import assert_snf_contract, integer_determinant
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR
from necsurf.words import Word


class TestSmithNormalForm:
    def test_single_entry(self):
        d, _ = smith_normal_form([[2]])
        assert d == [[2]]

    def test_already_diagonal(self):
        d, _ = smith_normal_form([[1, 0], [0, 0]])
        assert d == [[1, 0], [0, 0]]

    def test_two_by_two(self):
        diag = assert_snf_contract([[2, 4], [6, 8]])
        assert diag == [2, 4]

    def test_negative_entries(self):
        diag = assert_snf_contract([[-3, 0], [0, 5]])
        assert diag == [1, 15]

    def test_rectangular(self):
        assert_snf_contract([[2, 4, 6]])
        assert_snf_contract([[2], [4], [6]])

    def test_seeded_random_matrices(self):
        rng = random.Random(20240817)
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            assert_snf_contract(m)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_property(self, m):
        assert_snf_contract(m)


def free_presentation(*names, relators=()):
    return Presentation(tuple((n, CONNECTOR) for n in names), tuple(relators))


class TestAbelianization:
    def test_cyclic_of_order_two(self):
        ab = abelianization(free_presentation("a", relators=[Word.gen("a", 2)]))
        assert ab.invariant_factors == (2,)
        assert ab.free_rank == 0

    def test_free_rank_two(self):
        ab = abelianization(free_presentation("a", "b"))
        assert ab.invariant_factors == ()
        assert ab.free_rank == 2

    def test_commutator_dies(self):
        rel = Word.parse("a b a^-1 b^-1")
        ab = abelianization(free_presentation("a", "b", relators=[rel]))
        assert ab.free_rank == 2
        assert all(c == 0 for c in ab.class_of(rel))

    def test_class_arithmetic(self, derived_battery):
        p = free_presentation("a", "b", relators=[Word.gen("a", 4)])
        ab = abelianization(p)
        wa, wb = Word.gen("a"), Word.gen("b")
        assert ab.class_of(wa * wa) == ab.class_of(Word.gen("a", 2))
        assert ab.class_of(wa * wa.inverse()) == ab.class_of(Word())
        assert any(c != 0 for c in ab.class_of(wb))
        assert all(c == 0 for c in ab.class_of(Word.gen("a", 4)))

        # class_of is additive, so the lemma's zero test on
        # rewrite(tau1*g*tau1)*g says that tau1 inverts the class of g
        rng = random.Random(20261018)

        def random_word(names):
            return Word(tuple(
                (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
            ))

        checked = 0
        for _, _, _, _, derived in derived_battery[::16]:
            p = derived.presentation
            ab = abelianization(p)
            for _ in range(20):
                u, v = random_word(p.generator_names()), random_word(p.generator_names())
                expected = tuple(
                    (a + b) % d if d > 0 else a + b
                    for a, b, d in zip(ab.class_of(u), ab.class_of(v), ab.moduli)
                )
                assert ab.class_of(u * v) == expected, (p.signature, str(u), str(v))
                checked += 1
        assert checked >= 2000

    def test_mixed_structure(self):
        p = free_presentation(
            "a", "b", "c",
            relators=[Word.gen("a", 2), Word.parse("b b c c c c")],
        )
        ab = abelianization(p)
        # Z<a,b,c | 2a, 2b+4c> = Z/2 x Z/2 x Z
        assert ab.invariant_factors == (2, 2)
        assert ab.free_rank == 1


def test_determinant_matches_expansion():
    assert integer_determinant([[2, 4], [6, 8]]) == -8
    assert integer_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert integer_determinant([[3]]) == 3
    assert integer_determinant([[0, 1], [1, 0]]) == -1


def dense_abelianization(p):
    """Oracle for ``abelianization``: the Smith form of the full relator
    matrix.  Returns the moduli (one per generator) and the whole column
    transform V."""
    names = p.generator_names()
    matrix = [[rel.exponent_sums().get(g, 0) for g in names] for rel in p.relators]
    d, v = smith_normal_form(matrix)
    moduli = tuple(d[i][i] if i < len(d) else 0 for i in range(len(names)))
    return moduli, v


def dense_classes(p, dense, words):
    """Oracle for ``class_of``: the full exponent vector of each word times
    the whole Smith column transform V, reduced modulo the diagonal."""
    names = p.generator_names()
    moduli, v = dense
    for w in words:
        sums = w.exponent_sums()
        exponents = [sums.get(g, 0) for g in names]
        coords = [sum(x * row[j] for x, row in zip(exponents, v)) for j in range(len(names))]
        yield tuple(c % m if m > 0 else c for c, m in zip(coords, moduli))


def structure(moduli):
    return tuple(d for d in moduli if d > 1), sum(1 for d in moduli if d == 0)


@pytest.fixture(scope="module")
def dense_battery(derived_battery):
    return [dense_abelianization(row[-1].presentation) for row in derived_battery]


@pytest.fixture
def core_shapes(monkeypatch):
    """Record the (rows, columns) of every matrix ``abelianization`` hands
    to ``smith_normal_form``."""
    shapes = []

    def recording(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return smith_normal_form(m)

    monkeypatch.setattr(abelian_module, "smith_normal_form", recording)
    return shapes


def test_sparse_class_matches_dense_product(derived_battery, dense_battery):
    """The coordinates differ from the dense Smith form's, so compare the
    maps up to isomorphism: on each word list both send the same pairs of
    words to equal classes and the same words to zero (as ``is_zero``
    does), and both give the same invariant factors and free rank."""
    checked = 0
    for (gamma, _, _, _, derived), dense in zip(derived_battery, dense_battery):
        if gamma > 3:
            continue
        p = derived.presentation
        ab = abelianization(p)
        assert structure(ab.moduli) == structure(dense[0]), p.signature
        pair = ("e1", "e2") if gamma % 2 == 0 else ("f1", "f2")
        words = [Word.gen(g) for g in p.generator_names()] + list(p.relators)
        words.append(Word.gen(pair[0]) * Word.gen(pair[1]))
        ours = [ab.class_of(w) for w in words]
        theirs = list(dense_classes(p, dense, words))
        # class_of(u) == class_of(v) exactly when the oracle's classes are equal
        assert len(set(zip(ours, theirs))) == len(set(ours)) == len(set(theirs)), p.signature
        for w, a, b in zip(words, ours, theirs):
            assert (not any(a)) == (not any(b)) == ab.is_zero(w), (p.signature, str(w))
        checked += len(words)
    assert checked > 10000


def test_structure_matches_dense_snf_on_battery(derived_battery, dense_battery, core_shapes):
    """Invariant factors and free rank equal the full dense Smith form's on
    every battery shape, and the Smith form runs on the core only: at most
    r+1 columns."""
    for (_, periods, _, _, derived), dense in zip(derived_battery, dense_battery):
        core_shapes.clear()
        ab = abelianization(derived.presentation)
        assert (ab.invariant_factors, ab.free_rank) == structure(dense[0]), periods
        assert len(core_shapes) == 1 and core_shapes[0][1] <= len(periods) + 1, core_shapes
    assert len(derived_battery) == 1640


# the benchmark's scaling-ladder shapes, then long crosscap chains at 2n=4
LADDER_SHAPES = (
    (10, ()), (20, ()), (40, ()),
    (2, (2, 4, 6, 12, 2, 4, 6, 12, 3)), (1, (2, 4, 6, 12, 2, 4, 6, 12, 3, 4)),
    (2, (60, 60)), (1, (60, 20, 12)),
    (80, ()), (160, ()), (320, ()),
)


@pytest.mark.parametrize("gamma, periods", LADDER_SHAPES)
def test_structure_matches_closed_form(gamma, periods, core_shapes):
    """H1 of (gamma; -; [n_1..n_r]) is Z^(gamma-1) + the cokernel of the
    rows n_i*e_i and (1 ... 1 | 2), with the Smith form run on at most
    r+1 columns."""
    K = canonical_presentation(quotient_disc_signature(gamma, periods))
    derived = derive_delta_hat(K, build_theta(K))
    core_shapes.clear()
    ab = abelianization(derived.presentation)
    assert len(core_shapes) == 1 and core_shapes[0][1] <= len(periods) + 1, core_shapes
    r = len(periods)
    closed = [[n * (i == j) for j in range(r + 1)] for i, n in enumerate(periods)]
    closed.append([1] * r + [2])
    d, _ = smith_normal_form(closed)
    factors, free = structure([d[i][i] for i in range(r + 1)])
    assert ab.invariant_factors == factors
    assert ab.free_rank == gamma - 1 + free
