"""Acceptance suite: one test per criterion, each printing a PASS line
with the case count and elapsed time (run with ``pytest -s`` to see all
lines immediately; they also appear in captured output)."""

import random
import time

from necsurf import (
    ActionDatum,
    CyclicGroup,
    DihedralGroup,
    NECSignature,
    build_theta,
    canonical_presentation,
    construct_eta,
    enumerate_smooth_epimorphisms,
    extend_to_dihedral,
    lemma1_check,
    quotient_disc_signature,
    realize,
    reduced_area,
)
from matrices import assert_snf_contract
from reference import (
    identity,
    inverse,
    kernel_signature_index2,
    mul,
    naive_theta,
    named_walk,
    rebuilt_hom,
    rotation,
    theta_hom,
    unpruned_epimorphisms,
)


def report(number, label, detail, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({label}): PASS — {detail} ({elapsed:.2f}s)")


def test_criterion_1_derived_signature_matches(derived_battery):
    # the signature read off each derived subgroup by the general index-2
    # formula, not the one derive_delta_hat claims, which is (gamma; -;
    # [periods]) by construction
    started = time.time()
    assert len(derived_battery) >= 50
    for gamma, periods, _, _, derived in derived_battery:
        expected = NECSignature(False, gamma, tuple(sorted(periods)))
        assert kernel_signature_index2(derived.subgroup).signature == expected
    report(
        1,
        "derived kernel signature equals (gamma;-;[n1..nr])",
        f"{len(derived_battery)} battery cases, exact equality",
        started,
    )


def test_criterion_2_index_two_area_identity(signature_battery):
    started = time.time()
    for gamma, periods in signature_battery:
        disc = quotient_disc_signature(gamma, periods)
        double = NECSignature(False, gamma, periods)
        assert reduced_area(disc) * 2 == reduced_area(double)
    report(
        2,
        "index-2 area identity",
        f"{len(signature_battery)} battery cases, exact rationals",
        started,
    )


def test_criterion_3_lemma_over_battery(derived_battery):
    started = time.time()
    even_cases = 0
    generators_checked = 0
    for gamma, periods, _, _, derived in derived_battery:
        lemma = lemma1_check(derived)
        names = [f"delta{j}" for j in range(1, gamma + 1)]
        names += [f"c{k}" for k in range(1, len(periods) + 1)]
        # the generators whose identity tau1*g*tau1*g the certificate prints
        assert [
            g.name for g in derived.subgroup.generators
            if g.role in ("glide", "corner rotation") and g.name in lemma.inversion_entries
        ] == names
        assert list(lemma.inversion_entries) == [
            g.name for g in derived.subgroup.generators
        ]
        generators_checked += len(lemma.inversion_entries)
        if gamma % 2 == 0:
            even_cases += 1
            assert lemma.connector_product_zero
    report(
        3,
        "connector product dies; conjugation inverts every class",
        f"{len(derived_battery)} cases ({even_cases} even), "
        f"{generators_checked} generator classes",
        started,
    )


def test_criterion_4_dihedral_certificates(action_battery, closure):
    started = time.time()
    assert len(action_battery) >= 20
    for datum in action_battery:
        cert = realize(datum)
        ext = cert.extension
        Theta = rebuilt_hom(cert.shape, datum, ext)
        eta = rebuilt_hom(cert.shape, datum, cert.eta)
        images = [v for _, v in Theta.images]
        assert len(closure(Theta.target, images)) == Theta.target.order
        for gen in cert.derived.subgroup.generators:
            assert Theta.evaluate(gen.word) == rotation(Theta.target, eta.image_of(gen.name))
        assert ext.image_order == 4 * datum.n
        assert ext.kernel_index == 4 * datum.n
        assert cert.conclusion
        K = cert.k_presentation
        naive = named_walk(K, theta_hom(K, naive_theta(K)))
        assert (not naive) == (datum.gamma % 2 == 0)
    report(
        4,
        "dihedral extension exists with kernel index 4n",
        f"{len(action_battery)} valid action data, 2n <= 12",
        started,
    )


def test_criterion_5_genus_two_end_to_end():
    started = time.time()
    datum = ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 2))

    # independent oracle 1: full product-space enumeration of epimorphisms
    oracle_hits = unpruned_epimorphisms(1, (2, 2, 2), 4)
    assert len(oracle_hits) == 2
    assert (datum.d_images, datum.x_images) in oracle_hits

    # independent oracle 2: genus by counting preimages of cells
    chi = 4 * ((2 - 1) - 3) + sum(4 // n for n in (2, 2, 2))
    oracle_genus = (2 - chi) // 2
    assert oracle_genus == 2

    cert = realize(datum)
    assert cert.genus == 2 == oracle_genus
    assert cert.derived.report.signature == NECSignature(False, 1, (2, 2, 2))
    # Theta in D4 on x1, e, tau1..tau4: t*s^-d1, e's closed form x1^-1,
    # then t*s^(x_1 + ... + x_k) for k = 0..3
    assert cert.extension.rotations == (3, 3, 0, 2, 0, 2)
    assert cert.extension.kernel_index == 8
    assert cert.extension.image_order == 8  # K/ker = full D4
    assert cert.conclusion
    report(
        5,
        "genus-2 end-to-end",
        "g = 2, kernel signature (1;-;[2,2,2]), quotient D4 of order 8",
        started,
    )


def test_criterion_6_enumeration_oracle_agreement():
    started = time.time()
    cases = [
        (1, (2, 2, 2), 4),
        (2, (2, 2), 4),
        (3, (), 4),
        (4, (), 4),
        (5, (), 4),
        (1, (2, 2, 2), 8),
        (2, (2,), 8),
        (3, (2,), 8),
        (4, (), 8),
        (1, (2, 2, 3), 12),
        (1, (6, 6), 12),
        (2, (3,), 12),
    ]
    for gamma, periods, order in cases:
        result = enumerate_smooth_epimorphisms(gamma, periods, order)
        assert list(result.tuples) == unpruned_epimorphisms(gamma, periods, order)

    fixed = {
        (1, (2, 2, 2), 4): 2,
        (3, (), 4): 0,
        (4, (), 4): 16,
    }
    for (gamma, periods, order), expected in fixed.items():
        assert enumerate_smooth_epimorphisms(gamma, periods, order).count == expected
    report(
        6,
        "enumeration agrees with unpruned product-space filter",
        f"{len(cases)} cases plus fixed counts 2/0/16",
        started,
    )


def _long_relator(gamma):
    from necsurf.words import Word

    w = Word()
    for j in range(gamma, 0, -1):
        w = w * Word.gen(f"x{j}")
    return w * Word.gen("e")


def test_criterion_7_connector_parity(signature_battery):
    started = time.time()
    even = odd = 0
    for gamma, periods in signature_battery:
        K = canonical_presentation(quotient_disc_signature(gamma, periods))
        naive = named_walk(K, theta_hom(K, naive_theta(K)))
        fixed = named_walk(K, theta_hom(K, build_theta(K)))
        assert not fixed
        if gamma % 2 == 0:
            even += 1
            assert not naive
        else:
            odd += 1
            assert naive
            assert [str(rel) for rel, _ in naive] == [
                str(_long_relator(gamma))
            ]
    report(
        7,
        "connector parity behaviour",
        f"{even} even cases validate naive image, {odd} odd cases fail the"
        " long relator, parity fix always valid",
        started,
    )


def test_criterion_8_algebra_engines():
    started = time.time()

    # exhaustive group laws for C_m and D_m with 2m <= 32
    for m in range(1, 17):
        for group, elements in (
            (CyclicGroup(m), list(range(m))),
            (DihedralGroup(m), [(f, k) for f in (0, 1) for k in range(m)]),
        ):
            one = identity(group)
            for a in elements:
                assert mul(group, a, inverse(group, a)) == one
                assert mul(group, a, one) == a == mul(group, one, a)
            for a in elements:
                for b in elements:
                    for c in elements:
                        assert mul(group, mul(group, a, b), c) == mul(group, a, mul(group, b, c))

    # Smith normal form on 100 seeded random matrices
    rng = random.Random(987654321)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_snf_contract(m)
    report(
        8,
        "algebra engines",
        "group laws exhaustive for C_m/D_m (2m <= 32); 100 seeded Smith forms",
        started,
    )
