"""Theta and eta certified once per frame (gamma, r): each relator of K
folds under a symbolic Theta, and each relator of the derived kernel
under a symbolic eta, to 0, +-R or +-n_k*x_k, R = 2(d_1 + ... + d_gamma)
+ x_1 + ... + x_r.  Per rho, Theta walks only K's relators whose fold is
not 0, the connector relator, and reads each corner's rotation off the
images of its two reflections; eta walks none."""

import ast
import inspect
import json
import math
import random
import re
import sys
import tracemalloc

import pytest

from necsurf import (
    ActionDatum,
    CyclicGroup,
    DihedralGroup,
    PipelineAssertionError,
    admissible_shapes,
    build_theta,
    canonical_presentation,
    construct_eta,
    derive_delta_hat,
    enumerate_smooth_epimorphisms,
    extend_to_dihedral,
    first_smooth_epimorphism,
    presentations,
    quotient_disc_signature,
    realize,
    validate_action,
)
from necsurf import certificate, frames, groups, pipeline
from necsurf.presentations import Presentation
from necsurf.words import Word
from reference import (
    oracle_document,
    rebuilt_hom,
    replace,
    walked_eta,
    walked_theta,
    with_frame,
)

GENUS2 = ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 2))


def derived_for(gamma, periods):
    K = canonical_presentation(quotient_disc_signature(gamma, periods))
    return K, derive_delta_hat(K, build_theta(K))


def frame_shapes():
    """One shape per frame (gamma, r), gamma <= 8, r <= 5."""
    return [(gamma, (4,) * r) for gamma in range(1, 9) for r in range(6)]


def forms(table, words):
    return list(frames._Forms.folds(table, (w.letters for w in words)))


def minus(form):
    return {v: -c for v, c in form.items()}


@pytest.mark.parametrize("shape", frame_shapes(), ids=str)
def test_every_fold_has_its_expected_form(shape):
    # in the variables of the symbolic Theta (j for d_j, -k for
    # x_1 + ... + x_k): x_k, R = 2(d_1 + ... + d_gamma) + x_1 + ... + x_r
    gamma, periods = shape
    r = len(periods)
    K, derived = derived_for(*shape)
    frame = derived.subgroup.frame
    base = frame.presentation
    x = [None] + [{-k: 1, 1 - k: -1} if k > 1 else {-1: 1} for k in range(1, r + 1)]
    R = {j: 2 for j in range(1, gamma + 1)} | ({-r: 1} if r else {})
    sign_R = R if gamma % 2 else minus(R)
    theta = frames._symbolic_theta(base, frame.connector)
    # every relator of K but the corners folds to 1 except the connector
    # relator e^-1*tau_(r+1)*e*tau1^-1, to +-R; each corner unit to x_k
    zero = [(0, {})] * (gamma + r + 1)
    assert forms(theta, base.relators) == [*zero, (0, sign_R), (0, {})]
    taus = base.generators_of_kind("reflection")
    units = [Word(((a, 1), (b, 1))) for a, b in zip(taus, taus[1:])]
    assert forms(theta, units) == [(0, x[k]) for k in range(1, r + 1)]
    assert frame.folds.relators == (base.relators[gamma + r + 1],)
    # as (index, exponent) letters: e = x_1^-1...x_gamma^-1 and
    # e^-1*tau_(r+1)*e*tau1^-1, e after the gamma interior points, then tau1
    assert frame.connector == tuple((j, -1) for j in range(gamma))
    assert frame.walk == (((gamma, -1), (gamma + 1 + r, 1), (gamma, 1), (gamma + 1, -1)),)
    # every Schreier generator folds to a rotation; under eta each head
    # folds as its source under Theta, negated from coset 1, and so does
    # each corner unit's rewrite; the torsion words are exactly x_k
    sub = derived.subgroup
    eta = dict(zip((g.name for g in sub.generators), forms(theta, [g.word for g in sub.generators])))
    assert all(flip == 0 for flip, _ in eta.values())
    for u in (0, 1):
        heads = forms(eta, frame.schreier.heads[u])
        assert heads == [*zero, (0, sign_R if u == 0 else minus(sign_R)), (0, {})]
        rows = forms(eta, [frame.schreier.corners[unit.letters][u] for unit in units])
        assert rows == [(0, x[k] if u == 0 else minus(x[k])) for k in range(1, r + 1)]
    torsion = [word for word, _ in derived.presentation.torsion_words]
    assert forms(eta, torsion) == [(0, x[k]) for k in range(1, r + 1)]
    # the record's builder made the folds and forms from the frame alone
    assert frames._theta_residual(base, theta) == frame.folds
    assert frames._eta_images(base, frame.schreier, frame.folds, theta) == frame.eta


def perturbed(datum):
    """rho with each image moved by one: mostly not an epimorphism."""
    return ActionDatum(datum.gamma, datum.periods, datum.n,
                       tuple(d + 1 for d in datum.d_images), tuple(x + 1 for x in datum.x_images))


def assert_verdicts_agree(K, derived, datum):
    """Relator by relator, the frame's verdict at rho agrees with the walk.
    Under Theta: each relator the frame does not keep maps to 1, and each
    corner to its unit's rotation times n_k, so the relators that fail are
    the walk's.  Under eta = Theta on the generators' words: each relator
    of the derived kernel, a head or a corner row, maps to its source's
    image under Theta, negated from coset 1."""
    residual = derived.subgroup.frame.folds
    taus = K.generators_of_kind("reflection")
    units = [Word(((a, 1), (b, 1))) for a, b in zip(taus, taus[1:])]
    theta, walked = walked_theta(K, datum)  # at any rho, valid or not
    periods = K.signature.period_cycles[0]
    m = len(K.relators) - len(units)
    kept = {rel.letters for rel in residual.relators}
    rotations = [theta.evaluate(unit)[1] for unit in units]
    for rel in K.relators[:m]:
        assert rel.letters in kept or theta.evaluate(rel) == (0, 0), (datum, str(rel))
    for rel, n, rotation in zip(K.relators[m:], periods, rotations, strict=True):
        assert theta.evaluate(rel) == (0, n * rotation % datum.order), (datum, str(rel))
    assert {str(rel) for rel, _ in walked} <= {str(rel) for rel in (*residual.relators, *K.relators[m:])}

    sub = derived.subgroup
    frame = sub.frame.schreier
    assert all(theta.evaluate(g.word)[0] == 0 for g in sub.generators)
    eta = {g.name: theta.evaluate(g.word)[1] for g in sub.generators}
    expected = {}
    for u, sign in ((0, 1), (1, -1)):
        for row, rel in zip(frame.heads[u], K.relators[:m]):
            expected.setdefault(row.letters, sign * theta.evaluate(rel)[1] % datum.order)
        for unit, n, rotation in zip(units, periods, rotations):
            row = frame.corners[unit.letters][u] ** n
            expected.setdefault(row.letters, sign * n * rotation % datum.order)
    for rel in derived.presentation.relators:
        value = sum(e * eta[g] for g, e in rel.letters) % datum.order
        assert expected[rel.letters] == value, (datum, str(rel))


def test_verdicts_agree_with_the_walk_on_every_small_epimorphism_and_the_battery(action_battery):
    data = []
    for gamma, periods, order in admissible_shapes(3, 3, 8):
        data += [ActionDatum(gamma, periods, order // 2, d, x)
                 for d, x in enumerate_smooth_epimorphisms(gamma, periods, order).tuples]
    assert len(data) == 582 and len(action_battery) == 126
    for datum in (*data, *action_battery):
        shape = pipeline.shape_certificate(datum.gamma, datum.periods)
        K, derived = shape.k_presentation, shape.derived
        extension = extend_to_dihedral(shape, datum)
        theta, unmapped = walked_theta(K, datum)
        assert not unmapped and rebuilt_hom(shape, datum, extension).images == theta.images
        eta, reasons = walked_eta(derived.subgroup, theta)
        assert not reasons
        assert rebuilt_hom(shape, datum, construct_eta(shape, datum)).images == eta.images
        assert_verdicts_agree(K, derived, datum)
        assert_verdicts_agree(K, derived, perturbed(datum))
        # extend_to_dihedral names the walk's first failing relator
        wrong = perturbed(datum)
        _, walked = walked_theta(K, wrong)
        try:
            extend_to_dihedral(shape, wrong)
            assert not walked, (wrong, walked)
        except PipelineAssertionError as exc:
            if walked:
                rel, value = walked[0]
                assert str(exc) == (f"Theta is not a homomorphism: relator {rel} maps to"
                                    f" {DihedralGroup(wrong.order).format(value)}")
            else:
                assert str(exc).startswith("Theta image has order"), (wrong, str(exc))


def test_a_corner_that_fails_is_named_with_its_image():
    # R vanishes at this rho, and x_1 = 1 has order 4, not n_1 = 2
    with pytest.raises(PipelineAssertionError, match=(
        r"^Theta is not a homomorphism: relator tau1\*tau2\*tau1\*tau2 maps to s\^2$"
    )):
        datum = ActionDatum(1, (2, 2, 2), 2, (1,), (1, 1, 0))
        extend_to_dihedral(pipeline.shape_certificate(datum.gamma, datum.periods), datum)


def walked_folds(monkeypatch) -> list:
    """The relators of each presentation that ``pipeline`` walks
    (``check_homomorphism``), one list per walk, from now on."""
    walks, check = [], pipeline.check_homomorphism
    monkeypatch.setattr(pipeline, "check_homomorphism", lambda p, *args: walks.append(
        [str(rel) for rel in p.relators]) or check(p, *args))
    return walks


def test_a_rebuilt_k_is_read_off_its_frame(monkeypatch):
    # a K rebuilt through its constructor is its frame plus its corners by
    # value: its kernel keeps the frame, and its rho stage walks only the
    # connector relator, with Theta and eta those of the walk oracles
    walks = walked_folds(monkeypatch)
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    realize(GENUS2)  # the frame is certified
    rebuilt = replace(shape.k_presentation)
    derived = derive_delta_hat(rebuilt, build_theta(rebuilt))
    assert derived.subgroup.frame is shape.frame and derived == shape.derived
    rebuilt_shape = replace(shape, k_presentation=rebuilt, derived=derived)
    walks.clear()
    extension = extend_to_dihedral(rebuilt_shape, GENUS2)
    eta = construct_eta(rebuilt_shape, GENUS2)
    assert walks == [["e^-1*tau4*e*tau1^-1"]]
    theta, unmapped = walked_theta(rebuilt, GENUS2)
    assert not unmapped and rebuilt_hom(rebuilt_shape, GENUS2, extension).images == theta.images
    walked, reasons = walked_eta(derived.subgroup, theta)
    assert not reasons and rebuilt_hom(rebuilt_shape, GENUS2, eta).images == walked.images


def flipped_glide(images):
    """Theta(x_1) with the sign of its rotation flipped."""
    def mutate(connector, target, glides, sums):
        first, *rest = glides
        negated = {v: -c for v, c in first.items()} if isinstance(first, dict) else -first
        return images(connector, target, (negated, *rest), sums)
    return mutate


def dropped_x1(images):
    """Theta(tau_2) = t: x_1 dropped from its rotation x_1."""
    def mutate(connector, target, glides, sums):
        first, *rest = sums
        return images(connector, target, glides, (({} if isinstance(first, dict) else 0), *rest))
    return mutate


def wrong_connector(images):
    """Theta(e) = Theta(tau1): e follows the gamma interior points, each
    a letter of its closed form, and tau1 follows e."""
    def mutate(connector, target, glides, sums):
        table, e = images(connector, target, glides, sums), len(connector)
        return [*table[:e], table[e + 1], *table[e + 1:]]
    return mutate


def unmapped(relator, image):
    return f"Theta is not a homomorphism: relator {relator} maps to {image}"


# (mutation, odd-gamma datum, even-gamma datum, and the message for each,
# in a 1-tuple, as the test ids number it): a datum at which the mutated
# Theta is not a homomorphism.  At even gamma, Theta(e) = Theta(tau1)
# sends e1 = e to a reflection, which the frame's record refuses before
# rho's walk of x2*x1*e could
MUTATIONS = [
    (flipped_glide, ActionDatum(1, (2, 4), 4, (1,), (4, 2)), ActionDatum(2, (2,), 4, (1, 1), (4,)),
     (unmapped("e^-1*tau3*e*tau1^-1", "s^4"),), (unmapped("e^-1*tau2*e*tau1^-1", "s^4"),)),
    (dropped_x1, ActionDatum(3, (2,), 2, (1, 1, 1), (2,)), ActionDatum(2, (2,), 4, (1, 1), (4,)),
     (unmapped("e^-1*tau2*e*tau1^-1", "s^2"),), (unmapped("e^-1*tau2*e*tau1^-1", "s^4"),)),
    (wrong_connector, GENUS2, ActionDatum(2, (2, 2), 2, (1, 1), (2, 2)),
     (unmapped("e^-1*tau4*e*tau1^-1", "s^2"),),
     ("eta: Theta sends the kernel generator e1 to a reflection",)),
]


@pytest.mark.parametrize("parity", [0, 1], ids=["odd-gamma", "even-gamma"])
@pytest.mark.parametrize("mutation, odd, even, odd_named, even_named", MUTATIONS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_a_wrong_closed_form_fails_and_names_the_relator(
    monkeypatch, parity, mutation, odd, even, odd_named, even_named
):
    # the mutation changes Theta's images for the frame's record builder
    # and for rho alike; the frame keeps what its folds give, and rho's
    # walk of them fails
    datum, (message,) = (odd, odd_named) if parity == 0 else (even, even_named)
    assert datum.gamma % 2 != parity and validate_action(datum)
    realize(datum)
    mutated = mutation(frames._theta_images)
    for module in (frames, pipeline):
        monkeypatch.setattr(module, "_theta_images", mutated)
    pipeline.shape_certificate.cache_clear()
    presentations.certify_frame.cache_clear()
    with pytest.raises(PipelineAssertionError, match=rf"^{re.escape(message)}$"):
        realize(datum)


def test_a_reflection_sent_to_a_rotation_fails_the_frame(monkeypatch):
    # each corner's rotation is read off the images of its two
    # reflections, so the frame certifies that each maps to a reflection
    images = frames._theta_images

    def mutate(connector, target, glides, sums):
        # tau2 follows the gamma interior points, e and tau1
        table, tau2 = images(connector, target, glides, sums), len(connector) + 2
        return [*table[:tau2], (0, table[tau2][1]), *table[tau2 + 1:]]

    monkeypatch.setattr(frames, "_theta_images", mutate)
    with pytest.raises(PipelineAssertionError,
                       match=r"^Theta sends the reflection tau2 to a rotation$"):
        realize(GENUS2)


def test_eta_rejects_a_frame_whose_theta_certificate_omits_a_relator(monkeypatch):
    # a certificate of K's frame that keeps no relator to walk still
    # passes a valid rho, but the rewrites of the connector relator fold
    # to +-R under eta, not to the identity the certificate claims, so the
    # record's builder refuses such a certificate
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    unwalked = with_frame(shape, folds=replace(shape.frame.folds, relators=()), walk=())
    extend_to_dihedral(unwalked, GENUS2)
    residual = frames._theta_residual
    monkeypatch.setattr(frames, "_theta_residual",
                        lambda frame, theta: replace(residual(frame, theta), relators=()))
    presentations.certify_frame.cache_clear()
    with pytest.raises(PipelineAssertionError) as exc:
        presentations.certify_frame(1, 3)
    assert str(exc.value) == (
        "eta: relator f2^-1*c3*f1 from coset 0 does not fold as Theta folds"
        " e^-1*tau4*e*tau1^-1"
    )


# the Theta and eta tampers of test_pipeline, each (call, message), run
# after a sibling shape of the same frame (1, 3) has certified the frame

def tampered_torsion_list():
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    words = shape.derived.presentation.torsion_words
    broken = replace(shape.derived.presentation, torsion_words=((words[0][0], 3),) + words[1:])
    broken = replace(shape.derived, subgroup=replace(shape.derived.subgroup, presentation=broken))
    construct_eta(replace(shape, derived=broken), GENUS2)


def tampered_eta_forms():
    # eta's certified form of delta1, the first generator, -d_1, doubled:
    # its image turns even
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    variables, (first, *coefficients), *rest = shape.frame.eta
    construct_eta(with_frame(shape, eta=(variables, (2 * first, *coefficients), *rest)), GENUS2)


def flipped_parity_bit():
    # the parity the frame requires of delta1's image, 1 for a glide, set
    # to 0: its image, 3, is odd
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    first, *parities = shape.frame.parities
    construct_eta(with_frame(shape, parities=(1 - first, *parities)), GENUS2)


def unmapped_relator():
    datum = ActionDatum(1, (2, 2, 2), 2, (1,), (1, 2, 2))
    extend_to_dihedral(pipeline.shape_certificate(datum.gamma, datum.periods), datum)


def image_of_the_wrong_order():
    datum = ActionDatum(1, (2, 2, 2), 4, (2,), (4, 4, 4))
    extend_to_dihedral(pipeline.shape_certificate(datum.gamma, datum.periods), datum)


def tampered_residual():
    # the frame's residual, the relators Theta walks, with x1, K's first
    # generator, appended, in its letters too
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    residual, walk = shape.frame.folds, shape.frame.walk
    x1 = shape.frame.presentation.generators_of_kind("elliptic")[0]
    folds = Presentation(residual.generators, (*residual.relators, Word.gen(x1)))
    extend_to_dihedral(with_frame(shape, folds=folds, walk=(*walk, ((0, 1),))), GENUS2)


TAMPERS = [
    (tampered_torsion_list, r"^eta: torsion collapse: c1 image 2 has order 2, declared 3$"),
    (tampered_eta_forms, r"^eta: .*orientation mismatch: glide image delta1 -> 2 is even"),
    (flipped_parity_bit, r"^eta: orientation mismatch: glide image delta1 -> 3 is odd$"),
    (unmapped_relator,
     r"^Theta is not a homomorphism: relator e\^-1\*tau4\*e\*tau1\^-1 maps to s\^3$"),
    (image_of_the_wrong_order, r"^Theta image has order 8, expected 4n = 16$"),
    (tampered_residual, r"^Theta is not a homomorphism: relator x1 maps to t\*s\^3$"),
]


@pytest.mark.parametrize("tamper, message", TAMPERS, ids=lambda v: getattr(v, "__name__", ""))
def test_tampers_raise_in_a_certified_frame(tamper, message):
    sibling = realize(first_smooth_epimorphism(1, (2, 2, 4), 8))
    frame = sibling.derived.subgroup.frame
    assert frame.folds is not None and frame.eta is not None
    with pytest.raises(PipelineAssertionError, match=message):
        tamper()
    assert presentations.certify_frame.cache_info().misses == 1
    assert pipeline.shape_certificate(1, (2, 2, 2)).frame is frame


def test_walked_eta_reasons_are_the_oracles():
    # at d_1 = 2 the rewrites of the connector relator fold to +-R = 2, not
    # to 0: eta names both, and its reasons are those of the walk of every
    # relator, item for item
    shape = pipeline.shape_certificate(1, (2, 2, 2))
    wrong = ActionDatum(1, (2, 2, 2), 2, (2,), (2, 2, 2))
    theta, unmapped = walked_theta(shape.k_presentation, wrong)
    assert [str(rel) for rel, _ in unmapped] == ["e^-1*tau4*e*tau1^-1"]
    _, reasons = walked_eta(shape.derived.subgroup, theta)
    assert [r for r in reasons if "homomorphism" in r] == [
        "eta is not a homomorphism: relator f2^-1*c3*f1 maps to 2",
        "eta is not a homomorphism: relator f1^-1*c3t*f2*tau1sq^-1 maps to 2"]
    with pytest.raises(PipelineAssertionError) as exc:
        construct_eta(shape, wrong)
    assert str(exc.value) == "eta: " + "; ".join(reasons)


def test_a_warm_realize_walks_only_the_connector_relator(monkeypatch):
    # theta's check in the shape stage walks no relator of K, as theta is
    # its frame's parity map; each rho walks one relator of K under Theta,
    # its frame's folds, and none of the derived kernel.  Theta and eta are
    # integer tuples in generator order: the library has no homomorphism
    # with named images, and no function of the rho stage builds a map
    walks = walked_folds(monkeypatch)
    first, *rest = (ActionDatum(3, (3, 6), 6, d, x)
                    for d, x in enumerate_smooth_epimorphisms(3, (3, 6), 12).tuples)
    frame = realize(first).shape.frame
    assert all(realize(datum).conclusion for datum in rest)
    assert pipeline.shape_certificate.cache_info().misses == 1
    assert [str(rel) for rel in frame.folds.relators] == ["e^-1*tau3*e*tau1^-1"]
    assert walks == [["e^-1*tau3*e*tau1^-1"]] * (1 + len(rest))
    assert presentations.certify_frame.cache_info().misses == 1
    assert not hasattr(groups, "FiniteHom")
    for stage in (pipeline.realize, pipeline._check_fits, pipeline.extend_to_dihedral,
                  frames._theta_images, pipeline.construct_eta, presentations.check_homomorphism):
        maps = [node for node in ast.walk(ast.parse(inspect.getsource(stage)))
                if isinstance(node, (ast.Dict, ast.DictComp))
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"]
        assert maps == [], stage.__name__


# the shapes of the benchmark's scaling ladder (bench/workloads.py)
LADDER_SHAPES = [
    (10, (), 4), (20, (), 4), (40, (), 4), (2, (2, 4, 6, 12, 2, 4, 6, 12, 3), 24),
    (1, (2, 4, 6, 12, 2, 4, 6, 12, 3, 4), 24), (2, (60, 60), 120), (1, (60, 20, 12), 120),
]


def seeded_rho(rng, gamma, periods, order):
    """The first epimorphism of the shape times a random unit mod 2n (an
    automorphism of C_2n), its glide images shuffled: another epimorphism."""
    first = first_smooth_epimorphism(gamma, periods, order)
    unit = rng.choice([u for u in range(1, order) if math.gcd(u, order) == 1])
    glides = [unit * d for d in first.d_images]
    rng.shuffle(glides)
    return ActionDatum(gamma, periods, order // 2, glides, [unit * x for x in first.x_images])


def test_the_tuples_are_the_walked_oracles_and_render_the_oracle_document(action_battery):
    # Theta's and eta's tuples, named by rebuilt_hom, are the walk
    # oracles' homomorphisms, and the render is the oracle document's JSON
    rng = random.Random(48)
    data = [*action_battery, *(ActionDatum(5, (2,), 6, d, x) for d, x
                               in enumerate_smooth_epimorphisms(5, (2,), 12).tuples)]
    data += [seeded_rho(rng, *shape) for shape in LADDER_SHAPES]
    assert len(data) == 126 + 2560 + 7
    for datum in data:
        cert = realize(datum)
        theta, unmapped = walked_theta(cert.k_presentation, datum)
        eta, reasons = walked_eta(cert.derived.subgroup, theta)
        assert not unmapped and not reasons
        assert rebuilt_hom(cert.shape, datum, cert.extension).images == theta.images
        assert rebuilt_hom(cert.shape, datum, cert.eta).images == eta.images
        doc = {"gamma": datum.gamma, "periods": list(datum.periods), "n": datum.n,
               "rho": {"d": list(datum.d_images), "x": list(datum.x_images)}}
        assert certificate.render(cert, doc) == json.dumps(
            oracle_document(cert, doc), sort_keys=True) + "\n", datum


def test_the_surface_kernel_walk_moved_to_the_tests():
    assert not hasattr(pipeline, "_surface_kernel_problems")


def test_valid_datum_validates_without_spelling_names():
    # Delta's names are spelled only for a reason that prints one
    gamma = 10**5
    datum = ActionDatum(gamma, (), 2, (1,) * gamma, ())
    glides, _ = presentations.crosscap_names(gamma, 0)
    spelled = sum(map(sys.getsizeof, glides))
    tracemalloc.start()
    try:
        assert validate_action(datum) == 1 + 2 * (gamma - 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spelled
