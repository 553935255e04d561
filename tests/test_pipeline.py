import ast
import copy
import gc
import inspect
import io
import json
import math
import random
import re
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import necsurf
from necsurf import (
    ActionDatum,
    ActionValidationError,
    CyclicGroup,
    DerivedKernel,
    DihedralExtension,
    DihedralGroup,
    EtaResult,
    FiniteHom,
    KernelSignatureReport,
    LemmaReport,
    NECSignature,
    PipelineAssertionError,
    RealizationCertificate,
    SchreierSubgroup,
    admissible_shapes,
    build_theta,
    canonical_presentation,
    check_homomorphism,
    construct_eta,
    derive_delta_hat,
    enumerate_smooth_epimorphisms,
    extend_to_dihedral,
    first_smooth_epimorphism,
    lemma1_check,
    quotient_disc_signature,
    realize,
    reduced_area,
    reidemeister_schreier,
    validate_action,
)
from necsurf import abelian, certificate, cli, cosets, frames, pipeline, presentations
from necsurf.cosets import SchreierFrame
from necsurf.frames import _printed_relator_words
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR, GeneratorKind, area_terms
from necsurf.words import Word
from reference import (
    cayley_coset_table,
    element_fold,
    naive_theta,
    oracle_certificate,
    oracle_document,
    own_word_lemma,
    parse_word,
    product_loop_epimorphisms,
    rebuilt_hom,
    reduce_mod_involutions,
    replace,
    rho_problems_by_presentation,
    rotation,
    surface_kernel_genus,
    theta_through_eta,
    unkept_reidemeister_schreier,
    unpruned_epimorphisms,
    walked_first,
    with_frame,
)
import reference

GENUS2 = ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 2))
GAMMA4 = ActionDatum(4, (), 2, (1, 1, 1, 1), ())


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def derived_for(gamma, periods):
    K = disc_group(gamma, periods)
    return K, derive_delta_hat(K, build_theta(K))


def extend(datum):
    """Theta at ``datum`` on its shape's K."""
    return extend_to_dihedral(pipeline.shape_certificate(datum.gamma, datum.periods), datum)


def eta_for(K, derived, datum):
    """eta at ``datum`` on ``derived``, after Theta on ``K``: the shape
    certificate of ``datum``'s shape with K and the derived kernel given;
    the ``EtaResult`` and its ``FiniteHom``."""
    shape = replace(pipeline.shape_certificate(datum.gamma, datum.periods),
                    k_presentation=K, derived=derived)
    extend_to_dihedral(shape, datum)
    eta = construct_eta(shape, datum)
    return eta, rebuilt_hom(shape, datum, eta)


def without_relator(derived, text):
    """``derived`` with the relator spelled ``text`` dropped from Δ̂."""
    relators = tuple(r for r in derived.presentation.relators if str(r) != text)
    assert len(relators) == len(derived.presentation.relators) - 1
    return with_presentation(derived, replace(derived.presentation, relators=relators))


def with_generator_word(derived, name, word):
    """``derived`` with its frame certified anew by the record's builder
    (``frames.certified_frame``), from a ``SchreierFrame`` that gives the
    Schreier generator ``name`` the word ``word``: what the lemma
    certifies the identities on."""
    build = frames.schreier_frame

    def tampered(*args):
        schreier = build(*args)
        generators = tuple(
            replace(g, word=word) if g.name == name else g for g in schreier.subgroup.generators)
        return replace(schreier, subgroup=replace(schreier.subgroup, generators=generators))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "schreier_frame", tampered)
        frame = frames.certified_frame(derived.subgroup.frame.presentation)
    return replace(derived, subgroup=replace(derived.subgroup, frame=frame))


def with_frame_relators(monkeypatch, keep):
    """Patch the frame presentation that the frame memo certifies, so
    that each frame (gamma, r) has only the relators that ``keep``
    accepts, and so has each K built on it."""
    build = presentations.disc_quotient_frame

    def frame(gamma, r):
        full = build(gamma, r)
        return Presentation(full.generators, filter(keep, full.relators))

    monkeypatch.setattr(presentations, "disc_quotient_frame", frame)


def with_presentation(derived, presentation):
    """``derived`` with its Schreier subgroup's presentation replaced."""
    return replace(derived, subgroup=replace(derived.subgroup, presentation=presentation))


def with_rs_presentation(monkeypatch, mutate):
    """Patch ``pipeline.reidemeister_schreier`` so that the subgroup it
    returns has its presentation replaced by ``mutate(presentation)``."""
    rs = pipeline.reidemeister_schreier

    def mutated(K, theta):
        sub = rs(K, theta)
        return replace(sub, presentation=mutate(sub.presentation))

    monkeypatch.setattr(pipeline, "reidemeister_schreier", mutated)


def assert_claim_refused(reason):
    """``derive_delta_hat`` on GENUS2's K and ``realize(GENUS2)`` each
    raise ``PipelineAssertionError`` naming the claimed signature and
    ``reason``."""
    K = disc_group(1, (2, 2, 2))
    for run in (lambda: derive_delta_hat(K, build_theta(K)), lambda: realize(GENUS2)):
        with pytest.raises(PipelineAssertionError) as exc:
            run()
        assert str(exc.value) == f"derived kernel signature (1;−;[2,2,2]) not certified: {reason}"


def reasons_of(datum):
    """The reasons ``validate_action`` raises for an invalid datum."""
    with pytest.raises(ActionValidationError) as exc:
        validate_action(datum)
    return exc.value.reasons


def unresolved_relators(K, words, sources, substitution, closed_form):
    """A stand-in for ``verify_derived_relators`` that certifies nothing."""
    return tuple("unresolved" for _ in zip(words, sources, strict=True))


def with_printed_row(monkeypatch, index, mutate):
    """Patch the record builder's ``frames._printed_relator_words`` so that
    its frame row ``index`` (label, word, source) is replaced by
    ``mutate(word, source)``, a (word, source) pair; returns the row's
    label.  A corner row is its unit, labelled without the shape's
    period.  The next frame the memo builds reads the patch."""
    labels = []

    def printed(frame, schreier):
        rows, units = _printed_relator_words(frame, schreier)
        label, word, source = rows[index]
        labels.append(label)
        return (*rows[:index], (label, *mutate(word, source)), *rows[index + 1:]), units

    monkeypatch.setattr(frames, "_printed_relator_words", printed)
    return labels


def frame_rows(K, theta):
    """The frame rows ``derive_delta_hat`` certifies for K's frame, and
    the shape's labels of the same rows (``reference.printed_relator_words``)."""
    sub = reidemeister_schreier(K, theta)
    shape = reference.printed_relator_words(sub, K.signature.period_cycles[0])
    return sub.frame.rows, [label for label, _, _ in shape]


def exponent_mutations(rows, periods):
    """(row index, mutate) pairs for ``with_printed_row``: one letter of
    one frame row inverted, in each row in turn, and each corner unit
    squared, one power too many."""
    mutations = [
        (i, lambda word, source, j=j: (
            Word(word.letters[:j] + ((word.letters[j][0], -word.letters[j][1]),)
                 + word.letters[j + 1:]), source))
        for i, (_, word, _) in enumerate(rows) for j in (0, len(word) - 1)
    ]
    return mutations + [(i, lambda word, source: (word * word, source)) for i in range(len(periods))]


def source_mutations(rows, periods):
    """(row index, mutate) pairs for ``with_printed_row``: corner k+1
    named for corner k's word, the connector relator for a corner word, a
    corner for the connector word, a source for an alternation and none
    (trivial) for a corner word."""
    sources = [source for _, _, source in rows]
    connector = sources[len(periods)]
    wrong = [(k, sources[k + 1]) for k in range(len(periods) - 1)]
    wrong += [(0, connector), (len(periods), sources[0]), (len(periods) + 1, connector),
              (len(periods) + 2, sources[0]), (0, None)]
    return [(i, lambda word, _, named=named: (word, named)) for i, named in wrong]


class TestValidateAction:
    def test_genus2_instance(self):
        assert validate_action(GENUS2) == 2

    def test_four_crosscaps(self):
        assert validate_action(GAMMA4) == 5

    def test_each_violation_reported(self):
        bad = ActionDatum(1, (2, 3), 3, (2,), (1, 1))
        errors = "\n".join(reasons_of(bad))
        assert "must be even" in errors
        assert "does not divide" in errors

    def test_orientation_and_torsion_violations(self):
        collapsed = ActionDatum(1, (2, 2, 2), 2, (1,), (0, 2, 2))
        errors = "\n".join(reasons_of(collapsed))
        assert "torsion collapse" in errors

        even_glide = ActionDatum(1, (2, 2, 2), 2, (2,), (2, 2, 2))
        errors = "\n".join(reasons_of(even_glide))
        assert "orientation mismatch" in errors

    def test_non_surjective_reported(self):
        # images {3, 6} only generate the index-3 subgroup of C12
        bad = ActionDatum(1, (2, 2, 2), 6, (3,), (6, 6, 6))
        errors = "\n".join(reasons_of(bad))
        assert "surjective" in errors
        assert "torsion" not in errors and "orientation" not in errors

    def test_non_hyperbolic_rejected(self):
        flat = ActionDatum(2, (), 2, (1, 1), ())
        errors = "\n".join(reasons_of(flat))
        assert "not hyperbolic" in errors

    def test_three_crosscaps_has_no_epimorphism(self):
        # the long relator forces 2*sum(d) = 2 mod 4 for any odd images
        assert enumerate_smooth_epimorphisms(3, (), 4).count == 0
        for d_images in product((1, 3), repeat=3):
            datum = ActionDatum(3, (), 2, d_images, ())
            assert reasons_of(datum)

    def test_large_order_memory_stays_linear(self):
        # rho's checks on C_6000 are gcds and parities: nothing is stored
        # per group element
        datum = ActionDatum(4, (), 3000, (1, 1, 1, 5997), ())
        tracemalloc.start()
        try:
            genus = validate_action(datum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert genus == 6001
        assert peak < 20 * 1024 * 1024

    def test_large_order_realize_enumerates_nothing(self):
        # surjectivity and |Theta(K)| = 4n are gcds, not walks over C_4000
        datum = ActionDatum(4, (), 2000, (1, 1, 1, 3997), ())
        tracemalloc.start()
        try:
            cert = realize(datum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.conclusion and cert.extension.kernel_index == 8000
        assert peak < 1024 * 1024

    def test_divisibility_violation(self):
        bad = ActionDatum(1, (2, 4), 2, (1,), (2, 2))
        assert reasons_of(bad)
        with pytest.raises(ActionValidationError):
            realize(bad)

    def test_every_admissible_shape_has_a_surface_kernel_genus(self):
        # once shape_problems passes, each period divides n, so
        # 2n * area = 2n(gamma - 2) + sum(2n - 2n/n_i) is a positive even
        # integer and the genus validate_action returns always exists
        shapes = admissible_shapes(4, 4, 120)
        for gamma, periods, order in shapes:
            sig = NECSignature(False, gamma, periods)
            assert surface_kernel_genus(sig, order) >= 2
        assert len(shapes) == 23775

    def test_hyperbolicity_in_integers_agrees_with_area_terms(self):
        # shape_problems decides hyperbolicity by n(gamma - 2) + sum(n - n/n_k),
        # n times the reduced area; area_terms decides it over 2 lcm(periods)
        checked = refused = 0
        for n in range(2, 31, 2):
            divisors = [p for p in range(2, n + 1) if n % p == 0]
            for gamma in range(1, 5):
                for r in range(5):
                    for periods in combinations_with_replacement(divisors, r):
                        sig = NECSignature(False, gamma, periods)
                        area = area_terms(sig)
                        expected = [] if area[0] > 0 else [
                            f"signature {sig} is not hyperbolic (reduced area {Fraction(*area)})"]
                        assert pipeline.shape_problems(gamma, periods, n) == expected, sig
                        checked += 1
                        refused += bool(expected)
        assert (checked, refused) == (5856, 104)


def closed_form_check(datum):
    """``validate_action``'s reasons (none when it accepts) and its genus
    (None when it refuses)."""
    try:
        return [], validate_action(datum)
    except ActionValidationError as exc:
        return list(exc.reasons), None


def assert_agrees_with_presentation_check(datum):
    """``validate_action`` gives the oracle's reasons, item for item and in
    order, and when there are none, its genus."""
    problems, genus = rho_problems_by_presentation(datum)
    assert closed_form_check(datum) == (problems, None if problems else genus), datum


def rho_mutations(datum):
    """``datum`` with each glide image + 1, each elliptic image + 1, each
    elliptic image doubled, and x_1 + 2."""
    d, x = datum.d_images, datum.x_images
    images = [(d[:j] + (v + 1,) + d[j + 1:], x) for j, v in enumerate(d)]
    images += [(d, x[:k] + (v + 1,) + x[k + 1:]) for k, v in enumerate(x)]
    images += [(d, x[:k] + (2 * v,) + x[k + 1:]) for k, v in enumerate(x)]
    images += [(d, (x[0] + 2,) + x[1:])] if x else []
    return [replace(datum, d_images=d_images, x_images=x_images) for d_images, x_images in images]


RESIDUE_SHAPES = admissible_shapes(4, 3, 24)


@st.composite
def raw_residues(draw):
    """A datum on a shape of ``RESIDUE_SHAPES`` with any residues mod 2n."""
    gamma, periods, order = draw(st.sampled_from(RESIDUE_SHAPES))
    images = draw(st.lists(st.integers(0, order - 1), min_size=gamma + len(periods),
                           max_size=gamma + len(periods)))
    return ActionDatum(gamma, periods, order // 2, tuple(images[:gamma]), tuple(images[gamma:]))


class TestClosedFormRhoCheck:
    """``validate_action`` checks rho by four closed-form conditions; the
    presentation-based check it replaced is the oracle."""

    def test_battery_and_its_mutations_agree(self, action_battery):
        mutants = 0
        heads = set()
        for datum in action_battery:
            assert_agrees_with_presentation_check(datum)
            for mutant in rho_mutations(datum):
                assert_agrees_with_presentation_check(mutant)
                heads |= {reason.split(":")[0] for reason in closed_form_check(mutant)[0]}
                mutants += 1
        assert len(action_battery) == 126 and mutants == 1258
        assert heads == {"rho is not a homomorphism", "torsion collapse", "orientation mismatch"} | {
            f"rho is not surjective onto C_{order}" for order in (4, 8, 12)
        }

    @given(raw_residues())
    def test_raw_residues_agree(self, datum):
        assert_agrees_with_presentation_check(datum)

    def test_accepts_exactly_the_searched_epimorphisms(self):
        shapes = [
            (gamma, periods, order) for gamma, periods, order in admissible_shapes(5, 4, 12)
            if order ** (gamma + len(periods)) <= 5000
        ]
        for gamma, periods, order in shapes:
            accepted = []
            for images in product(range(order), repeat=gamma + len(periods)):
                datum = ActionDatum(gamma, periods, order // 2, images[:gamma], images[gamma:])
                if not closed_form_check(datum)[0]:
                    accepted.append((datum.d_images, datum.x_images))
            assert accepted == list(enumerate_smooth_epimorphisms(gamma, periods, order).tuples)
        assert len(shapes) == 39

    def test_builds_no_presentation(self):
        tree = ast.parse(inspect.getsource(validate_action))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {
            "canonical_presentation", "FiniteHom", "check_homomorphism",
            "_theta_residual", "surface_kernel_genus",
        }

    def test_invalid_rho_at_huge_periods_is_refused_in_constant_memory(self):
        # the relators x_k^(2^24) hold, so none of them is spelled out
        m = 2**24
        datum = ActionDatum(1, (m, m, m), m, (1,), (4, 2, 2 * m - 8))
        tracemalloc.start()
        try:
            with pytest.raises(ActionValidationError) as exc:
                validate_action(datum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.reasons == (
            "torsion collapse: x1 image 4 has order 8388608, declared 16777216",
            "torsion collapse: x3 image 33554424 has order 4194304, declared 16777216",
        )
        assert peak < 64 * 1024


class TestBuildTheta:
    def test_even_gamma_kills_connector(self):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        assert theta.image_of("e") == 0
        assert not check_homomorphism(K, theta)
        assert theta.image_order() == 2

    def test_odd_gamma_needs_nontrivial_connector(self):
        K = disc_group(1, (2, 2, 2))
        theta = build_theta(K)
        assert theta.image_of("e") != 0
        assert not check_homomorphism(K, theta)
        naive = naive_theta(K)
        assert check_homomorphism(K, naive)

    def test_gamma4_explicit(self):
        K = disc_group(4, ())
        theta = build_theta(K)
        assert theta.image_of("e") == 0
        assert all(theta.image_of(g) == 1 for g in ("x1", "x2", "x3", "x4", "tau1"))
        assert not check_homomorphism(K, theta)


def test_each_rule_of_the_chain_has_one_owner():
    """``presentations`` names K's and Delta's generators and solves the
    long relator for the connector, and ``cosets`` names Delta-hat's: the
    pipeline spells out no generator name of any of them, and the
    certificate reads K's first reflection off the document.  Parity is
    theta's bit: ``build_theta`` folds the connector's closed form,
    ``derive_delta_hat`` reads the bit, and neither they nor
    ``lemma1_check`` work out gamma mod 2.  ``lemma1_check`` certifies its
    identities itself instead of batching them through the relator
    matcher."""
    tree = ast.parse(inspect.getsource(pipeline))
    fstrings = [node for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]
    # the literal parts of an f-string are constants too: they are read as heads
    parts = {id(part) for node in fstrings for part in node.values}
    constants = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and id(node) not in parts
    }
    derived_names = {
        gen.name for gamma in (1, 2) for gen in derived_for(gamma, (2, 2))[1].subgroup.generators
    }
    assert not constants & ({"tau1", "e"} | derived_names)
    heads = {
        node.values[0].value for node in fstrings if isinstance(node.values[0], ast.Constant)
    }
    stems = {name.rstrip("t0123456789") for name in derived_names} - {"tau1sq"}
    assert stems == {"delta", "c", "e", "f"}
    assert not heads & ({"x", "d", "tau"} | stems)
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("build_theta", "derive_delta_hat", "lemma1_check"):
        assert not any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            for node in ast.walk(functions[name])
        ), name
    assert "verify_derived_relators" not in {
        node.id for node in ast.walk(functions["lemma1_check"]) if isinstance(node, ast.Name)
    }
    assert "tau1" not in inspect.getsource(certificate)


def test_lemma_abelianizes_nothing():
    """The lemma certifies identities in K and one relator witness and reads
    H1 off the certified signature as a direct sum of cyclic groups:
    ``lemma1_check`` names no abelianization, class test or
    kernel-membership error, ``pipeline`` imports nothing from
    ``necsurf.abelian``, which defines only the benchmark's
    ``Abelianization``, and ``necsurf`` exports no Smith normal form."""
    tree = ast.parse(inspect.getsource(pipeline))
    lemma = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "lemma1_check"
    )
    named = {node.id for node in ast.walk(lemma) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(lemma) if isinstance(node, ast.Attribute)}
    assert not named & {"abelianization", "class_of", "is_zero", "NotInKernelError"}
    from_abelian = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if node.module == "abelian" or alias.name == "abelian"
    }
    assert not from_abelian
    body = ast.parse(inspect.getsource(abelian)).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in body if isinstance(node, ast.Assign) for target in node.targets}
    assert defined == {"Abelianization"}
    assert not hasattr(necsurf, "smith_normal_form")


def test_result_types_hold_only_values_that_vary():
    """The result types' fields are the values that vary with the input.
    What holds one value, or repeats a field, is a class constant or a
    property kept for the benchmark alone: no module of ``necsurf`` reads
    it, and ``certificate.document`` writes its JSON key as a literal
    that agrees with it."""
    fields = {
        cls.__name__: set(inspect.signature(cls).parameters)
        for cls in (DihedralExtension, EtaResult, LemmaReport, RealizationCertificate,
                    DerivedKernel)
    }
    assert fields == {
        "DihedralExtension": {"rotations", "image_order"},
        "EtaResult": {"images", "torsion_images"},
        "LemmaReport": {"connector_pair", "inversion_entries", "invariant_factors", "free_rank"},
        "RealizationCertificate": {"datum", "genus", "shape", "eta", "extension"},
        "DerivedKernel": {"subgroup", "signature", "printed_checks"},
    }
    shims = {"reflection_rotation", "kernel_index", "unit", "connector_product_zero", "ok",
             "conclusion", "report"}
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(necsurf.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in shims
    ]
    assert reads == []

    cert = realize(GENUS2)
    doc = certificate.document(cert, {})
    ext, eta, lemma = cert.extension, cert.eta, cert.lemma
    assert doc["theta_extension"]["reflection_rotation"] == ext.reflection_rotation == 0
    assert doc["theta_extension"]["kernel_index"] == ext.kernel_index == ext.image_order == 8
    assert doc["eta"]["unit"] == eta.unit == 1
    assert doc["lemma1"]["connector_product_zero"] is lemma.connector_product_zero is True
    assert lemma.ok is True and doc["conclusion"] is cert.conclusion is True
    assert cert.derived.report == KernelSignatureReport(cert.derived.signature)


class TestDeriveDeltaHat:
    def test_genus2_signature_and_correspondence(self):
        _, derived = derived_for(1, (2, 2, 2))
        assert derived.report.signature == NECSignature(False, 1, (2, 2, 2))
        words = {g.name: str(g.word) for g in derived.subgroup.generators}
        assert words["delta1"] == "tau1*x1"
        assert words["c1"] == "tau1*tau2"
        assert words["c2"] == "tau1*tau3"
        assert words["c3"] == "tau1*tau4"
        involutions = derived.subgroup.base.involution_names()
        connector_pair = {
            str(reduce_mod_involutions(g.word, involutions))
            for g in derived.subgroup.generators
            if g.name in ("f1", "f2")
        }
        assert connector_pair == {"tau1*e", "e*tau1"}

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_a_corner_off_its_period_is_refused_at_odd_gamma(self, gamma):
        # K's last corner (tau2*tau3)^5 where its signature says 3: its
        # torsion word c1t*c2 has the order 3 that the signature gives it,
        # but K's corner is not its unit's third power, so the claim is
        # not certified, as at even gamma, where the classical row says so
        K = disc_group(gamma, (2, 3))
        bent = replace(K, relators=(*K.relators[:-1], parse_word("tau2 tau3") ** 5))
        with pytest.raises(PipelineAssertionError) as exc:
            derive_delta_hat(bent, build_theta(bent))
        assert str(exc.value) == (f"derived kernel signature ({gamma};−;[2,3]) not certified:"
                                  " corner 2 of K is not (tau2*tau3)^3")
        derive_delta_hat(K, build_theta(K))
        K = disc_group(gamma + 1, (2, 3))
        bent = replace(K, relators=(*K.relators[:-1], parse_word("tau2 tau3") ** 5))
        with pytest.raises(PipelineAssertionError) as exc:
            derive_delta_hat(bent, build_theta(bent))
        assert str(exc.value) == "classical relator (c1^-1*c2)^3 could not be certified"

    def test_even_gamma_printed_relators_certified(self):
        _, derived = derived_for(2, (3,))
        assert derived.report.signature == NECSignature(False, 2, (3,))
        assert derived.printed_checks
        assert all(status != "unresolved" for _, status in derived.printed_checks)
        labels = [label for label, _ in derived.printed_checks]
        assert "c1^3" in labels

    def test_uncertified_classical_relator_is_an_assertion(self, monkeypatch):
        monkeypatch.setattr(frames, "verify_derived_relators", unresolved_relators)
        K = disc_group(2, (3,))  # its frame is certified with the stand-in
        with pytest.raises(
            PipelineAssertionError, match=r"classical relator c1\^3 could not be certified"
        ):
            derive_delta_hat(K, build_theta(K))

    @pytest.mark.parametrize("gamma, periods", [(2, (3, 4, 5)), (4, (3, 3, 3)), (6, ())])
    def test_wrong_exponent_in_a_printed_word_is_an_assertion(self, monkeypatch, gamma, periods):
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        rows, shape_labels = frame_rows(K, theta)
        mutations = exponent_mutations(rows, periods)
        assert len(mutations) == 2 * (len(periods) + 3) + len(periods)
        for i, mutate in mutations:
            labels = with_printed_row(monkeypatch, i, mutate)
            presentations.certify_frame.cache_clear()
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(K, theta)
            assert str(exc.value) == f"classical relator {shape_labels[i]} could not be certified"
            assert labels[0] == rows[i][0]

    @pytest.mark.parametrize("gamma, periods", [(2, (3, 4, 5)), (4, (3, 3, 3))])
    def test_wrong_named_source_is_an_assertion(self, monkeypatch, gamma, periods):
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        rows, shape_labels = frame_rows(K, theta)
        connector = rows[len(periods)][2]
        assert K.relators[connector[0]] == Word(
            (("e", -1), (f"tau{len(periods) + 1}", 1), ("e", 1), ("tau1", -1))
        )
        for i, mutate in source_mutations(rows, periods):
            labels = with_printed_row(monkeypatch, i, mutate)
            presentations.certify_frame.cache_clear()
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(K, theta)
            assert str(exc.value) == f"classical relator {shape_labels[i]} could not be certified"
            assert labels[0] == rows[i][0]

    def test_printed_words_name_their_sources(self):
        # c1 from tau1 tau2, (c_k^-1*c_(k+1)) from the unit of corner k+1,
        # both at rotation 0 in the frame with its corner units, the
        # connector word from the connector relator at rotation 2, the
        # alternations from nothing; a shape's corner row c1^3 is named
        # for K's corner (tau1 tau2)^3
        K = disc_group(2, (3, 4, 5))
        sub = reidemeister_schreier(K, build_theta(K))
        rows, units = sub.frame.rows, sub.frame.units
        named = {
            label: None if source is None else (str(units.relators[source[0]]), source[1])
            for label, _, source in rows
        }
        assert named == {
            "c1": ("tau1*tau2", 0),
            "(c1^-1*c2)": ("tau2*tau3", 0),
            "(c2^-1*c3)": ("tau3*tau4", 0),
            "e1*e2^-1*c3": ("e^-1*tau4*e*tau1^-1", 2),
            "delta-alternation-1": None,
            "delta-alternation-2": None,
        }
        assert units.relators[:-3] == K.relators[:-3] == sub.frame.presentation.relators
        assert [(label, str(K.relators[source[0]])) for label, _, source
                in reference.printed_relator_words(sub, (3, 4, 5))[:3]] == [
            ("c1^3", "tau1*tau2*tau1*tau2*tau1*tau2"),
            ("(c1^-1*c2)^4", "*".join(["tau2*tau3"] * 4)),
            ("(c2^-1*c3)^5", "*".join(["tau3*tau4"] * 5)),
        ]

    @pytest.mark.parametrize("gamma, periods, order", [(2, (3,), 12), (4, (), 4)])
    def test_closing_row_at_another_rotation_is_an_assertion(
        self, monkeypatch, gamma, periods, order
    ):
        # the closing row e1*e2^-1[*c_r] spells the connector relator from
        # its third letter; rotation 1 spells the row's inverse and
        # rotation 3 neither, so realize raises on each
        datum = first_smooth_epimorphism(gamma, periods, order)
        closing = len(periods)
        for k in (1, 3):
            pipeline.shape_certificate.cache_clear()
            presentations.certify_frame.cache_clear()
            labels = with_printed_row(
                monkeypatch, closing, lambda word, source, k=k: (word, (source[0], k))
            )
            with pytest.raises(PipelineAssertionError) as exc:
                realize(datum)
            assert str(exc.value) == f"classical relator {labels[0]} could not be certified"
            assert labels[0] == "e1*e2^-1" + "*c1" * bool(periods)

    @pytest.mark.parametrize("sibling, gamma, periods", [
        ((2, (3, 3, 3)), 2, (3, 4, 5)), ((4, (2, 2, 2)), 4, (3, 3, 3)), ((6, ()), 6, ()),
    ])
    def test_printed_row_mutations_raise_in_a_warm_frame(
        self, monkeypatch, verified_words, sibling, gamma, periods
    ):
        # every mutation of the two tests above, after a shape of the same
        # frame (gamma, r) certified the frame's classical relators; with
        # r = 0 the frame has one shape, which warms it.  The sibling
        # certifies the frame's r corner units and its rows after them in
        # one call, and the shape certifies no word.  So a mutated row is
        # not read again in the warm frame: it raises once the frame is
        # derived anew.  What a shape does check there, that each corner
        # of K is its unit's n_k-th power, raises in the warm frame
        derived_for(*sibling)
        derived_for(gamma, periods)
        monkeypatch.undo()
        r = len(periods)
        assert verified_words == [r + 3]
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        rows, shape_labels = frame_rows(K, theta)
        mutations = exponent_mutations(rows, periods)
        mutations += source_mutations(rows, periods) if periods else []
        for i, mutate in mutations:
            monkeypatch.undo()
            presentations.certify_frame.cache_clear()
            derive_delta_hat(K, theta)  # the frame certifies its rows
            labels = with_printed_row(monkeypatch, i, mutate)
            derive_delta_hat(K, theta)
            presentations.certify_frame.cache_clear()
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(K, theta)
            assert str(exc.value) == f"classical relator {shape_labels[i]} could not be certified"
            assert labels[-1] == rows[i][0]
        monkeypatch.undo()
        presentations.certify_frame.cache_clear()
        for k, p in enumerate(periods):
            derive_delta_hat(K, theta)
            corner = len(K.relators) - r + k
            bent = replace(K, relators=(*K.relators[:corner], Word(
                K.relators[corner].letters[:2]) ** (p + 1), *K.relators[corner + 1:]))
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(bent, build_theta(bent))
            assert str(exc.value) == f"classical relator {shape_labels[k]} could not be certified"

    def test_a_mutated_corner_unit_on_the_frame_is_an_assertion(self, verified_words):
        # the frame's unit of corner 1 reversed, tau2*tau1: in a memoised
        # record with the frame's statuses, K's corner is not its power,
        # and in a record built with that unit the row c1 does not spell
        # it; each raises, named for the shape's corner row
        derived_for(2, (3, 4))
        frame = presentations.certify_frame(2, 2)
        units = frame.units
        unit = len(units.relators) - 2
        bent = replace(units, relators=(*units.relators[:unit],
                                        Word(units.relators[unit].letters[::-1]),
                                        *units.relators[unit + 1:]))
        for name, patched in (("certified_frame", lambda _: replace(frame, units=bent)), (
                "_printed_relator_words", lambda *a: (_printed_relator_words(*a)[0], bent))):
            presentations.certify_frame.cache_clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(frames, name, patched)
                with pytest.raises(PipelineAssertionError) as exc:
                    derived_for(2, (5, 4))
            assert str(exc.value) == "classical relator c1^5 could not be certified"
        assert verified_words == [2 + 3, 2 + 3]

    def test_theta_of_index_one_rejected(self):
        # the index check lives in reidemeister_schreier alone
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        trivial = FiniteHom.from_dict(K, c2, {g: 0 for g in K.generator_names()})
        with pytest.raises(ValueError, match="index 1"):
            derive_delta_hat(K, trivial)

    def test_theta_fixing_tau1_rejected(self):
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        images = dict(build_theta(K).images) | {"tau1": 0}
        with pytest.raises(ValueError, match="fixes tau1$"):
            derive_delta_hat(K, FiniteHom.from_dict(K, c2, images))

    def test_theta_fixing_an_interior_point_rejected(self):
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        images = dict(build_theta(K).images) | {"x1": 0, "e": 1}
        theta = FiniteHom.from_dict(K, c2, images)
        message = "^theta must move every reflection and interior point, and fixes x1$"
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError, match=message):
                derive(K, theta)

    def test_torsion_word_of_another_order_refuses_the_claim(self, monkeypatch):
        def mutate(pres):
            (word, n), *rest = pres.torsion_words
            return replace(pres, torsion_words=((word, n + 1), *rest))

        with_rs_presentation(monkeypatch, mutate)
        assert_claim_refused("torsion word orders [2, 2, 3] are not the periods")

    def test_orientable_kernel_refuses_the_claim(self, monkeypatch):
        # a frame whose Schreier generators all preserve orientation: the
        # frame keeps the fact, and the kernel's generators are its own
        monkeypatch.setattr(cosets, "GLIDE", CONNECTOR)
        assert_claim_refused("no Schreier generator reverses orientation")

    def test_area_of_k_patched_off_refuses_the_claim(self, monkeypatch):
        # K is the one signature with a boundary; validation reads only Delta's
        area = pipeline.area_terms
        monkeypatch.setattr(
            pipeline, "area_terms", lambda sig: (0, 1) if sig.period_cycles else area(sig)
        )
        assert_claim_refused("reduced area 1/2 is not twice K's 0")

    def test_input_checks_are_reidemeister_schreiers(self):
        # derive_delta_hat raises no ValueError of its own
        assert "ValueError" not in inspect.getsource(derive_delta_hat)

    def test_gamma4_no_corner_generators(self):
        _, derived = derived_for(4, ())
        assert derived.report.signature == NECSignature(False, 4, ())
        names = set(derived.presentation.generator_names())
        assert not any(n.startswith("c") for n in names)
        assert {"e1", "e2"} <= names
        assert all(status != "unresolved" for _, status in derived.printed_checks)

    def test_torsion_words_carry_link_periods(self):
        _, derived = derived_for(1, (2, 2, 2))
        assert [n for _, n in derived.presentation.torsion_words] == [2, 2, 2]
        first = derived.presentation.torsion_words[0][0]
        assert str(first) == "c1"

    def test_signature_attached_to_presentation(self):
        # the report holds the signature; the presentation does not copy it
        _, derived = derived_for(2, (3, 4))
        sig = derived.report.signature
        assert sig == NECSignature(False, 2, (3, 4))
        assert reduced_area(sig) == 2 * reduced_area(derived.subgroup.base.signature)
        assert derived.presentation.signature is None


class TestConstructEta:
    def test_genus2_instance(self):
        K, derived = derived_for(1, (2, 2, 2))
        eta, hom = eta_for(K, derived, GENUS2)
        assert not check_homomorphism(derived.presentation, hom)
        assert eta.torsion_images == GENUS2.x_images and eta.unit == 1
        assert hom.image_of("delta1") % 2 == 1
        assert [
            hom.target.element_order(hom.evaluate(w))
            for w, _ in derived.presentation.torsion_words
        ] == [2, 2, 2]
        assert hom.image_order() == hom.target.order

    def test_gamma4_instance(self):
        K, derived = derived_for(4, ())
        _, hom = eta_for(K, derived, GAMMA4)
        assert not check_homomorphism(derived.presentation, hom)
        assert hom.image_order() == hom.target.order
        for j in range(1, 5):
            assert hom.image_of(f"delta{j}") % 2 == 1

    def test_deterministic(self):
        K, derived = derived_for(1, (2, 2, 2))
        first, first_hom = eta_for(K, derived, GENUS2)
        second, second_hom = eta_for(K, derived, GENUS2)
        assert first == second and first_hom.images == second_hom.images

    def test_inconsistent_torsion_fixture_fails(self):
        K, derived = derived_for(1, (2, 2, 2))
        # demand order 3 from an order-2 corner word with 2n = 4
        words = derived.presentation.torsion_words
        broken_pres = replace(
            derived.presentation,
            torsion_words=((words[0][0], 3),) + words[1:],
        )
        broken = with_presentation(derived, broken_pres)
        with pytest.raises(PipelineAssertionError):
            eta_for(K, broken, GENUS2)

    def test_datum_of_another_shape_is_refused(self):
        # a valid datum of (2; -; [2, 2]) against the certificate of
        # (1; -; [2, 2, 2]) is named as such, not read as eta reasons
        datum = first_smooth_epimorphism(2, (2, 2), 4)
        with pytest.raises(ValueError, match=re.escape(
                "a datum of shape (2;−;[2,2]) does not fit the shape certificate of"
                " (1;−;[2,2,2])")) as exc:
            construct_eta(pipeline.shape_certificate(1, (2, 2, 2)), datum)
        assert type(exc.value) is ValueError

    def test_tampered_theta_yields_no_eta(self):
        # eta's images are Theta's folds, kept in the frame's record as
        # forms: with delta1's form, -d_1, replaced by c1's, x_1, its image
        # turns even
        shape = pipeline.shape_certificate(1, (2, 2, 2))
        variables, coefficients, *rest = shape.frame.eta
        names = shape.derived.presentation.generator_names()
        i, j = names.index("delta1"), names.index("c1")
        variables = variables[:i] + variables[j:j + 1] + variables[i + 1:]
        coefficients = coefficients[:i] + coefficients[j:j + 1] + coefficients[i + 1:]
        shape = with_frame(shape, eta=(variables, coefficients, *rest))
        with pytest.raises(PipelineAssertionError, match="orientation mismatch"):
            construct_eta(shape, GENUS2)


def test_closed_form_on_every_small_epimorphism(closure):
    checked = []
    for gamma, periods, order in admissible_shapes(3, 3, 8):
        shape = pipeline.shape_certificate(gamma, periods)
        K, derived = shape.k_presentation, shape.derived
        dihedral = DihedralGroup(order)
        for d_images, x_images in enumerate_smooth_epimorphisms(
            gamma, periods, order
        ).tuples:
            datum = ActionDatum(gamma, periods, order // 2, d_images, x_images)
            ext = extend_to_dihedral(shape, datum)
            eta = construct_eta(shape, datum)
            assert eta.torsion_images == x_images
            assert eta.unit == 1
            Theta, eta_hom = (rebuilt_hom(shape, datum, result) for result in (ext, eta))
            assert Theta.image_of("tau1") == dihedral.reflection(0)
            assert not check_homomorphism(K, Theta)
            images = [v for _, v in Theta.images]
            assert ext.image_order == len(closure(dihedral, images)) == 2 * order
            for gen in derived.subgroup.generators:
                assert Theta.evaluate(gen.word) == rotation(dihedral, eta_hom.image_of(gen.name))
            for name, image in Theta.images:
                assert image == theta_through_eta(derived, eta_hom, name)
            checked.append(datum)
    assert len(checked) == 582
    assert {datum.gamma % 2 for datum in checked} == {0, 1}


def test_evaluate_matches_element_fold_on_battery(action_battery):
    """The normal form of ``FiniteHom.evaluate`` against the per-letter
    product of ``element_fold`` on every relator, torsion word and
    generator (both signs) of Delta under rho, K under theta and Theta
    and Delta-hat under eta, and on every Schreier generator word under
    theta and Theta, for the whole action battery."""
    checked = 0
    for datum in action_battery:
        cert = realize(datum)
        delta = canonical_presentation(datum.delta_signature())
        target = CyclicGroup(datum.order)
        images = {f"d{j}": v for j, v in enumerate(datum.d_images, 1)}
        images.update({f"x{i}": v for i, v in enumerate(datum.x_images, 1)})
        rho = FiniteHom.from_dict(delta, target, images)
        K, derived = cert.k_presentation, cert.derived.presentation
        schreier = [gen.word for gen in cert.derived.subgroup.generators]
        for hom, pres, extra in (
            (rho, delta, []),
            (cert.theta, K, schreier),
            (rebuilt_hom(cert.shape, datum, cert.extension), K, schreier),
            (rebuilt_hom(cert.shape, datum, cert.eta), derived, []),
        ):
            words = [*pres.relators, *(w for w, _ in pres.torsion_words), *extra]
            words += [Word.gen(g, e) for g in pres.generator_names() for e in (1, -1)]
            for w in words:
                assert hom.evaluate(w) == element_fold(hom, w), (datum, str(w))
                checked += 1
    assert len(action_battery) == 126
    assert checked == 20370


class TestLemma:
    def test_genus2_inversion_holds_for_all_generators(self):
        _, derived = derived_for(1, (2, 2, 2))
        report = lemma1_check(derived)
        assert report.ok
        assert report.inversion_entries == tuple(
            g.name for g in derived.subgroup.generators
        )

    def test_even_gamma_connector_product_class_zero(self):
        K, derived = derived_for(2, (3,))
        report = lemma1_check(derived)
        (connector,) = K.generators_of_kind("connector")
        assert derived.subgroup.parity[connector] == 0
        assert report.connector_pair == ("e1", "e2")
        assert report.connector_product_zero

    def test_conjugation_certificates(self):
        # the check-lemma view prints tau1*g*tau1*g for each glide and
        # corner rotation g whose inversion the lemma certified
        cert = realize(GENUS2)
        view = certificate.lemma_report(certificate.document(cert, {}))["lemma1"]
        identities = [c["identity"] for c in view["conjugation_certificates"]]
        assert identities == [
            f"tau1*{g.name}*tau1*{g.name}" for g in cert.derived.subgroup.generators
            if g.role in ("glide", "corner rotation") and g.name in cert.lemma.inversion_entries
        ]
        assert "tau1*delta1*tau1*delta1" in identities
        assert "tau1*c1*tau1*c1" in identities

    def test_odd_gamma_connector_class_recorded(self):
        cert = realize(GENUS2)
        report = cert.lemma
        assert report.connector_pair == ("f1", "f2")
        # recorded, and certified zero for odd gamma as well
        assert report.connector_product_zero
        lemma = certificate.document(cert, {})["lemma1"]
        assert lemma["gamma_even"] is False
        assert lemma["connector_product_class"] == [0] * len(cert.derived.subgroup.generators)

    def test_class_not_inverted_is_an_assertion(self):
        # delta1t*f2 is x1*e rewritten from coset 0, the first witness row
        # that shows f1*f2 dies in H1, so tau1 no longer provably inverts f1
        _, derived = derived_for(1, (2, 2, 2))
        broken = without_relator(derived, "delta1t*f2")
        with pytest.raises(
            PipelineAssertionError,
            match=r"f1\*f2: witness row delta1t\*f2 \(x1\*e from coset 0\) is not a relator",
        ):
            lemma1_check(broken)

    def test_nonzero_connector_product_is_an_assertion(self):
        _, derived = derived_for(2, (3,))
        broken = without_relator(derived, "delta2t*delta1*e1")
        with pytest.raises(
            PipelineAssertionError,
            match=r"e1\*e2: witness row delta2t\*delta1\*e1 \(x2\*x1\*e from coset 0\)",
        ):
            lemma1_check(broken)

    @pytest.mark.parametrize(
        "gamma, periods, row, source",
        [(1, (2, 2, 2), "delta1*f1", "x1*e"), (2, (3,), "delta2*delta1t*e2", "x2*x1*e")],
        ids=["odd-gamma", "even-gamma"],
    )
    def test_missing_long_relator_from_coset_one_is_an_assertion(
        self, gamma, periods, row, source
    ):
        # the witness needs the long relator rewritten from both cosets
        _, derived = derived_for(gamma, periods)
        with pytest.raises(
            PipelineAssertionError,
            match=re.escape(f"witness row {row} ({source} from coset 1) is not a relator"),
        ):
            lemma1_check(without_relator(derived, row))

    def test_k_without_its_long_relator_is_an_assertion(self, monkeypatch):
        # a frame without the long relator has no head to read the long
        # relator's rows from, so it rewrites them, and the lemma finds the
        # first missing from the derived kernel of the K built on it
        long_relator = parse_word("x1 e")
        with_frame_relators(monkeypatch, lambda rel: rel != long_relator)
        K = disc_group(1, (2, 2, 2))
        assert long_relator not in K.relators
        derived = derive_delta_hat(K, build_theta(K))
        with pytest.raises(
            PipelineAssertionError,
            match=re.escape("witness row delta1t*f2 (x1*e from coset 0) is not a relator"),
        ):
            lemma1_check(derived)

    def test_witness_rows_not_summing_to_the_connector_product_is_an_assertion(
        self, monkeypatch
    ):
        # a rewriting map that appends tau1sq to every walk from coset 1,
        # in place while the frame is derived, so the garbled row is listed
        # as a relator: the rows then sum to f1*f2*tau1sq
        tau1sq = Word.gen("tau1sq")
        original = SchreierSubgroup.rewrite
        monkeypatch.setattr(
            SchreierSubgroup, "rewrite",
            lambda self, w, coset=0: original(self, w, coset) * (tau1sq if coset else Word()),
        )
        _, broken = derived_for(1, (2, 2, 2))
        assert parse_word("delta1 f1 tau1sq") in broken.presentation.relators
        with pytest.raises(
            PipelineAssertionError,
            match=r"f1\*f2: witness rows sum to \{.*'tau1sq': 1\}, not to f1\*f2",
        ):
            lemma1_check(broken)

    @pytest.mark.parametrize("gamma, periods", [(1, (2, 2, 2)), (3, (2, 3)), (2, (2, 2))])
    def test_missing_delta1_relator_is_an_assertion(self, gamma, periods):
        # drop both rewrites of x1*x1 (conjugated by 1 and by tau1): the
        # witness names the row it misses
        _, derived = derived_for(gamma, periods)
        broken = without_relator(without_relator(derived, "delta1t*delta1"), "delta1*delta1t")
        with pytest.raises(
            PipelineAssertionError,
            match=r"witness row delta1t\*delta1 \(x1\*x1 from coset 0\) is not a relator",
        ):
            lemma1_check(broken)

    def test_uncertified_conjugation_identity_is_an_assertion(self, monkeypatch):
        # a reducer that reduces nothing leaves tau1*delta1*tau1*delta1
        # non-empty, so the frame's record is not built
        monkeypatch.setattr(frames, "cyclic_reduce_letters", lambda letters, involutions=(): letters)
        with pytest.raises(
            PipelineAssertionError,
            match="conjugation identity for delta1 could not be certified",
        ):
            lemma1_check(derived_for(1, (2, 2, 2))[1])

    def test_conjugate_leaving_the_kernel_is_an_assertion(self):
        # delta1 = x1 is not in the kernel, and tau1*x1*tau1*x1 is not 1 in K
        _, derived = derived_for(1, (2, 2, 2))
        with pytest.raises(
            PipelineAssertionError,
            match=r"conjugation identity for delta1 could not be certified:"
            r" tau1\*delta1\*tau1\*delta1 does not reduce",
        ):
            lemma1_check(with_generator_word(derived, "delta1", Word.gen("x1")))

    @pytest.mark.parametrize("gamma, periods", [(1, (2, 2, 2)), (2, (3,))])
    def test_corrupt_connector_word_is_an_assertion(self, gamma, periods):
        # give the second connector the first one's word: tau1 no longer
        # swaps the pair, so tau1*a*tau1*b^-1 does not reduce to 1
        _, derived = derived_for(gamma, periods)
        a, b = lemma1_check(derived).connector_pair
        words = {g.name: g.word for g in derived.subgroup.generators}
        with pytest.raises(
            PipelineAssertionError,
            match=f"conjugation identity for {a} could not be certified:"
            rf" tau1\*{a}\*tau1\*{b}\^-1 does not reduce",
        ):
            lemma1_check(with_generator_word(derived, b, words[a]))


# Each data-tamper case of TestLemma: (shape, tamper of its derived
# kernel, the message lemma1_check raises with)
LEMMA_TAMPERS = [
    pytest.param((1, (2, 2, 2)), lambda d: without_relator(d, "delta1t*f2"),
                 r"f1\*f2: witness row delta1t\*f2 \(x1\*e from coset 0\) is not a relator",
                 id="class-not-inverted"),
    pytest.param((2, (3,)), lambda d: without_relator(d, "delta2t*delta1*e1"),
                 r"e1\*e2: witness row delta2t\*delta1\*e1 \(x2\*x1\*e from coset 0\)",
                 id="nonzero-connector-product"),
    pytest.param((1, (2, 2, 2)), lambda d: without_relator(d, "delta1*f1"),
                 re.escape("witness row delta1*f1 (x1*e from coset 1) is not a relator"),
                 id="long-relator-from-coset-one-odd-gamma"),
    pytest.param((2, (3,)), lambda d: without_relator(d, "delta2*delta1t*e2"),
                 re.escape("witness row delta2*delta1t*e2 (x2*x1*e from coset 1) is not a relator"),
                 id="long-relator-from-coset-one-even-gamma"),
    *(pytest.param(
        shape, lambda d: without_relator(without_relator(d, "delta1t*delta1"), "delta1*delta1t"),
        r"witness row delta1t\*delta1 \(x1\*x1 from coset 0\) is not a relator",
        id=f"missing-delta1-relator-{shape}")
      for shape in ((1, (2, 2, 2)), (3, (2, 3)), (2, (2, 2)))),
    pytest.param((1, (2, 2, 2)), lambda d: with_generator_word(d, "delta1", Word.gen("x1")),
                 r"conjugation identity for delta1 could not be certified:"
                 r" tau1\*delta1\*tau1\*delta1 does not reduce",
                 id="conjugate-leaving-the-kernel"),
    *(pytest.param(
        shape, lambda d, a=a, b=b: with_generator_word(d, b, generator_word(d, a)),
        rf"conjugation identity for {a} could not be certified: tau1\*{a}\*tau1\*{b}\^-1",
        id=f"corrupt-connector-word-{shape}")
      for shape, a, b in (((1, (2, 2, 2)), "f1", "f2"), ((2, (3,)), "e1", "e2"))),
]


def generator_word(derived, name):
    return next(g.word for g in derived.subgroup.generators if g.name == name)


@pytest.mark.parametrize("shape, tamper, message", LEMMA_TAMPERS)
def test_tampered_lemma_data_raise_after_the_memo_is_warm(shape, tamper, message):
    # every memo is warmed by the untampered shape first: the shape stage
    # and a second derivation, which reuses the frame
    certified = pipeline.shape_certificate(*shape)
    _, derived = derived_for(*shape)
    assert derived == certified.derived and lemma1_check(derived) == certified.lemma
    assert derived.subgroup.frame is certified.derived.subgroup.frame
    assert derived.subgroup.frame.inverted == certified.lemma.inversion_entries
    with pytest.raises(PipelineAssertionError, match=message):
        lemma1_check(tamper(derived))


# a shape of the same frame (gamma, r) as each shape of LEMMA_TAMPERS
SIBLINGS = {(1, (2, 2, 2)): (1, (2, 2, 3)), (2, (3,)): (2, (4,)), (3, (2, 3)): (3, (2, 2)),
            (2, (2, 2)): (2, (3, 3))}


@pytest.mark.parametrize("shape, tamper, message", LEMMA_TAMPERS)
def test_tampered_lemma_data_raise_in_a_warm_frame(shape, tamper, message):
    # a sibling shape warms every memo of the frame, and its lemma
    # certifies the frame's identities; the tampered shape's own lemma
    # then reads both from the frame, and its tampered data still raise
    sibling = pipeline.shape_certificate(*SIBLINGS[shape])
    _, derived = derived_for(*shape)
    lemma1_check(derived)
    assert presentations.certify_frame.cache_info().misses == 1
    assert derived.subgroup.frame is sibling.derived.subgroup.frame
    assert derived.subgroup.frame.inverted == sibling.lemma.inversion_entries
    with pytest.raises(PipelineAssertionError, match=message):
        lemma1_check(tamper(derived))


@pytest.mark.parametrize("shape", [(1, (2, 2, 2)), (2, (3,)), (5, ())])
def test_witness_rows_are_the_frames_own_rewrites(shape):
    # each row the lemma looks up is the object the frame rewrote K's
    # relator into, and each source is K's relator itself: nothing is
    # stored twice
    K, derived = derived_for(*shape)
    frame = derived.subgroup.frame.schreier
    prefix = len(K.relators) - len(shape[1])
    assert len(frame.witness) == shape[0] + 2
    for row, word, coset in frame.witness:
        i = K.relators.index(word)
        assert i < prefix and word is K.relators[i]
        assert row is frame.heads[coset][i]
    assert lemma1_check(derived).ok


@pytest.mark.parametrize("shape, tamper, message", LEMMA_TAMPERS)
def test_lemma_reads_its_frame_after_the_memo_evicts_it(
    monkeypatch, signature_battery, shape, tamper, message
):
    # the subgroup carries its frame, so the lemma never looks it up: after
    # other frames exceed the memo's budget, lowered to a few frames, and
    # evict it, the lemma still certifies the shape, with the report of a
    # fresh derivation, and a deep copy too
    monkeypatch.setattr(presentations, "MEMO_LETTERS", 64)
    frames = presentations.certify_frame
    _, derived = derived_for(*shape)
    others = {}
    for gamma, periods in signature_battery:
        if (gamma, len(periods)) != (shape[0], len(shape[1])):
            others.setdefault((gamma, len(periods)), periods)
    for gamma, r in others:
        derived_for(gamma, others[gamma, r])
        assert frames.held <= 64
    assert (shape[0], len(shape[1])) not in frames.entries
    report = lemma1_check(derived)
    _, again = derived_for(*shape)
    assert again.subgroup.frame is not derived.subgroup.frame  # the memo missed
    assert report == lemma1_check(again) == lemma1_check(copy.deepcopy(derived))
    with pytest.raises(PipelineAssertionError, match=message):
        lemma1_check(tamper(derived))


class TestExtendToDihedral:
    def test_genus2_extension(self, closure):
        shape = pipeline.shape_certificate(1, (2, 2, 2))
        K, derived = shape.k_presentation, shape.derived
        ext = extend_to_dihedral(shape, GENUS2)
        Theta = rebuilt_hom(shape, GENUS2, ext)
        eta = rebuilt_hom(shape, GENUS2, construct_eta(shape, GENUS2))
        images = [v for _, v in Theta.images]
        assert len(closure(Theta.target, images)) == Theta.target.order == 8
        for gen in derived.subgroup.generators:
            assert Theta.evaluate(gen.word) == rotation(Theta.target, eta.image_of(gen.name))
        assert ext.image_order == 8
        assert ext.kernel_index == 8
        assert not check_homomorphism(K, Theta)
        flip, rot = Theta.image_of("tau1")
        assert flip == 1 and rot == ext.reflection_rotation

    def test_relator_not_mapped_to_one_is_an_assertion(self):
        # x_1 = 1 is odd: Theta(tau2) = t*s, and the connector relator
        # e^-1*tau4*e*tau1^-1 maps to s^3
        with pytest.raises(
            PipelineAssertionError,
            match=r"^Theta is not a homomorphism: relator e\^-1\*tau4\*e\*tau1\^-1 maps to s\^3$",
        ):
            extend(ActionDatum(1, (2, 2, 2), 2, (1,), (1, 2, 2)))

    def test_image_of_the_wrong_order_is_an_assertion(self):
        # every reflection image has an even rotation, so the relators hold
        # but the image is D_8's index-2 subgroup of order 8
        with pytest.raises(
            PipelineAssertionError, match="^Theta image has order 8, expected 4n = 16$"
        ):
            extend(ActionDatum(1, (2, 2, 2), 4, (2,), (4, 4, 4)))

    def test_datum_of_another_shape_is_refused(self):
        # the same periods in another order are another shape, and so is a
        # datum of (2; -; [2, 2]), which used to fail on tau4's missing image
        shape = pipeline.shape_certificate(1, (2, 2, 4))
        for datum, names in [
            (first_smooth_epimorphism(1, (2, 4, 2), 8), "(1;−;[2,4,2])"),
            (first_smooth_epimorphism(2, (2, 2), 8), "(2;−;[2,2])"),
        ]:
            with pytest.raises(ValueError, match=re.escape(
                    f"a datum of shape {names} does not fit the shape certificate of"
                    " (1;−;[2,2,4])")) as exc:
                extend_to_dihedral(shape, datum)
            assert type(exc.value) is ValueError

    def test_gamma4_extension_index8(self):
        assert extend(GAMMA4).kernel_index == 8

    def test_restriction_agrees_with_eta(self):
        shape = pipeline.shape_certificate(2, (3,))
        derived, datum = shape.derived, first_smooth_epimorphism(2, (3,), 12)
        Theta = rebuilt_hom(shape, datum, extend_to_dihedral(shape, datum))
        eta = rebuilt_hom(shape, datum, construct_eta(shape, datum))
        for gen in derived.subgroup.generators:
            flip, rot = Theta.evaluate(gen.word)
            assert flip == 0
            assert rot == eta.image_of(gen.name)

    def test_extension_agrees_with_eta_on_arbitrary_kernel_words(self):
        shape = pipeline.shape_certificate(2, (2, 6))
        K, derived = shape.k_presentation, shape.derived
        datum = first_smooth_epimorphism(2, (2, 6), 12)
        Theta = rebuilt_hom(shape, datum, extend_to_dihedral(shape, datum))
        eta = rebuilt_hom(shape, datum, construct_eta(shape, datum))
        for text in (
            "tau1 x1 tau2 x2",
            "e tau1 x1 tau3 tau2 x2 e^-1 x1 tau1",
            "x2 tau3 x2 tau3",
        ):
            w = parse_word(text)
            if build_theta(K).evaluate(w) != 0:
                continue
            flip, rot = Theta.evaluate(w)
            assert flip == 0
            assert rot == eta.evaluate(derived.subgroup.rewrite(w))

    def test_eta_coset_table_has_four_cosets(self):
        K, derived = derived_for(1, (2, 2, 2))
        _, eta = eta_for(K, derived, GENUS2)
        table = cayley_coset_table(eta)
        assert table.index == 4
        perm = table.forward["delta1"]
        i, seen = 0, []
        for _ in range(4):
            seen.append(i)
            i = perm[i]
        assert i == 0 and sorted(seen) == [0, 1, 2, 3]


class TestRealize:
    def test_genus2_certificate(self):
        cert = realize(GENUS2)
        assert cert.conclusion
        assert cert.genus == 2
        assert cert.derived.report.signature == NECSignature(False, 1, (2, 2, 2))
        assert cert.extension.kernel_index == 8
        K = cert.k_presentation
        # odd gamma needs the parity fix
        assert check_homomorphism(K, naive_theta(K))

    def test_gamma4_certificate(self):
        cert = realize(GAMMA4)
        assert cert.conclusion
        assert cert.genus == 5
        assert cert.extension.kernel_index == 8
        K = cert.k_presentation
        assert not check_homomorphism(K, naive_theta(K))  # even gamma

    @pytest.mark.parametrize("x_images", [(6, 2, 2), (-2, 2, 2)])
    def test_unreduced_residues_realize(self, x_images):
        # residues are reduced mod 2n once, by the datum, so eta's torsion
        # images are compared with the reduced elliptic images
        datum = ActionDatum(1, (2, 2, 2), 2, (1,), x_images)
        cert = realize(datum)
        assert cert.conclusion and cert.eta.torsion_images == (2, 2, 2)
        assert datum == GENUS2

    def test_validation_errors_propagate(self):
        with pytest.raises(ActionValidationError) as exc:
            realize(ActionDatum(1, (2, 4), 2, (1,), (2, 2)))
        assert any("n_2" in reason for reason in exc.value.reasons)

    def test_area_ratio_other_than_two_is_an_assertion(self, monkeypatch):
        # Delta's area made three times K's: the claim is refused
        area = pipeline.area_terms

        def tripled(sig):
            (numerator, denominator), boundary = area(sig), sig.period_cycles
            return (numerator, denominator) if boundary else (3 * numerator, 2 * denominator)

        monkeypatch.setattr(pipeline, "area_terms", tripled)
        with pytest.raises(
            PipelineAssertionError, match="reduced area 3/4 is not twice K's 1/4$"
        ):
            realize(GENUS2)

    def test_parity_map_not_a_homomorphism_is_an_assertion(self, monkeypatch):
        # theta's bit on the connector flipped breaks the long relator
        build = pipeline.build_theta

        def flipped(K):
            theta = build(K)
            (e,) = K.generators_of_kind("connector")
            images = dict(theta.images) | {e: 1 - theta.image_of(e)}
            return FiniteHom.from_dict(K, theta.target, images)

        monkeypatch.setattr(pipeline, "build_theta", flipped)
        with pytest.raises(
            PipelineAssertionError, match="^parity map theta is not a homomorphism$"
        ):
            realize(GENUS2)

    @pytest.mark.parametrize("gamma", [3, 4])
    @pytest.mark.parametrize("patch", ["parity bit", "corner unit"])
    def test_theta_its_frame_does_not_certify_is_an_assertion(self, monkeypatch, gamma, patch):
        # theta is certified as its frame's parity map, whose Schreier
        # frame rewrote the frame's relators and each corner unit, with
        # each corner of K its unit's power; a frame whose parity bit on
        # tau2, or whose unit of corner 1, differs certifies no theta
        frame = presentations.certify_frame(gamma, 2)
        schreier = frame.schreier
        if patch == "parity bit":
            parity = schreier.subgroup.parity | {"tau2": 0}
            schreier = replace(schreier, subgroup=replace(schreier.subgroup, parity=parity))
        else:
            (unit, rows), *rest = schreier.corners.items()
            schreier = replace(schreier, corners=dict([(unit[::-1], rows), *rest]))
        monkeypatch.setattr(frames, "certified_frame", lambda _: replace(frame, schreier=schreier))
        presentations.certify_frame.cache_clear()
        with pytest.raises(PipelineAssertionError) as exc:
            pipeline.shape_certificate(gamma, (3, 3))
        assert str(exc.value) == "parity map theta is not a homomorphism"

    def test_genus_disagreement_is_an_assertion(self, monkeypatch):
        # validation computes the genus from Delta's signature; only the
        # genus realize reads off K's area, kept on the shape certificate,
        # is off: K's area doubled gives 2g - 2 = 8 * 1/2
        shape = pipeline.shape_certificate
        monkeypatch.setattr(
            pipeline,
            "shape_certificate",
            lambda gamma, periods: replace(shape(gamma, periods), k_area=(1, 2)),
        )
        with pytest.raises(
            PipelineAssertionError, match="genus bookkeeping disagrees: 2 vs 3$"
        ):
            realize(GENUS2)


def counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that counts its calls; returns
    the list the calls' arguments are appended to."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def negated(datum):
    """rho followed by the automorphism u -> -u of C_2n: another
    surface-kernel epimorphism of the same shape, never equal to rho,
    since the glide images are odd and n is even."""
    return ActionDatum(datum.gamma, datum.periods, datum.n,
                       tuple(-d for d in datum.d_images), tuple(-x for x in datum.x_images))


class TestShapeMemo:
    def test_one_shape_is_derived_once(self, monkeypatch):
        derivations = counting(monkeypatch, pipeline, "reidemeister_schreier")
        lemmas = counting(monkeypatch, pipeline, "lemma1_check")
        tuples = enumerate_smooth_epimorphisms(3, (3, 6), 12).tuples
        assert len(tuples) == 288
        for d, x in tuples:
            assert realize(ActionDatum(3, (3, 6), 6, d, x)).conclusion
        assert len(derivations) == len(lemmas) == 1
        info = pipeline.shape_certificate.cache_info()
        assert (info.misses, info.hits) == (1, 287)

    def test_bounded_by_a_module_constant(self):
        assert presentations.MEMO_LETTERS == 2**16
        assert pipeline.shape_certificate.cache_info().maxsize == 2**16

    def test_warm_and_cold_documents_agree_on_battery(self, action_battery):
        # the memo is warmed by another rho of the same shape, so a warm
        # certificate shares every shape object with a certificate of
        # different branch data
        for datum in action_battery:
            pipeline.shape_certificate.cache_clear()
            other = realize(negated(datum))
            warm = realize(datum)
            assert pipeline.shape_certificate.cache_info().hits == 1
            assert warm.derived is other.derived and warm.lemma is other.lemma
            pipeline.shape_certificate.cache_clear()
            cold = realize(datum)
            assert cold.derived is not warm.derived
            assert certificate.document(warm, {}) == certificate.document(cold, {})

    def test_a_failed_stage_is_not_memoised(self, monkeypatch):
        lemma1 = pipeline.lemma1_check
        calls = []

        def fails_once(derived):
            calls.append(derived)
            if len(calls) == 1:
                raise PipelineAssertionError("lemma failed once")
            return lemma1(derived)

        monkeypatch.setattr(pipeline, "lemma1_check", fails_once)
        with pytest.raises(PipelineAssertionError, match="^lemma failed once$"):
            realize(GENUS2)
        assert pipeline.shape_certificate.cache_info().currsize == 0
        assert realize(GENUS2).conclusion
        assert len(calls) == 2
        assert pipeline.shape_certificate.cache_info().currsize == 1

    def test_every_memo_has_the_same_bound(self, monkeypatch):
        # one budget for both memos, read on each call; neither is a
        # function, so a tracer that wraps the public functions skips both
        monkeypatch.setattr(presentations, "MEMO_LETTERS", 100)
        for memo in (pipeline.shape_certificate, presentations.certify_frame):
            assert type(memo) is presentations.LetterMemo and not inspect.isfunction(memo)
            assert memo.cache_info().maxsize == 100

    def test_shapes_of_one_frame_derive_it_once(self):
        # (5; -; [p]) for p = 2, 3, 6: three shapes, one frame.  At 2n = 12,
        # (5; -; [3]) has no epimorphism (5 + 0 is odd), so its shape stage
        # is called directly; the other two are then realized from the memo
        for p in (2, 3, 6):
            pipeline.shape_certificate(5, (p,))
        assert first_smooth_epimorphism(5, (3,), 12) is None
        for p in (2, 6):
            assert realize(first_smooth_epimorphism(5, (p,), 12)).conclusion
        assert pipeline.shape_certificate.cache_info()[:2] == (2, 3)  # (hits, misses)
        assert presentations.certify_frame.cache_info().misses == 1
        # the lemma's witness rows and identities live on that one frame
        shapes = [pipeline.shape_certificate(5, (p,)) for p in (2, 3, 6)]
        frame, *others = (shape.derived.subgroup.frame for shape in shapes)
        assert all(other is frame for other in others)
        owner = shapes[0].frame
        assert all(shape.frame is owner for shape in shapes)
        assert owner.inverted == tuple(g.name for g in owner.schreier.subgroup.generators)
        # odd gamma prints no classical relators
        assert (owner.rows, owner.units, owner.statuses) == ((), None, ())

    def test_even_gamma_shapes_of_one_frame_certify_it_once(self, verified_words):
        # (4; -; [p]) for p = 2, 3, 6: the even-gamma twin of the test
        # above, which also prints its classical relators
        frames = []
        for p in (2, 3, 6):
            K = disc_group(4, (p,))
            derived = derive_delta_hat(K, build_theta(K))
            assert lemma1_check(derived).ok
            frames.append(derived.subgroup.frame)
        assert presentations.certify_frame.cache_info().misses == 1
        owner, *others = frames
        assert all(other is owner for other in others)
        assert owner is presentations.certify_frame(4, 1)
        assert owner.inverted == tuple(g.name for g in derived.subgroup.generators)
        assert owner.statuses == ("matches-relator",) * 2 + ("trivial",) * 2
        # the first shape certifies the frame's corner unit and its three
        # rows after it, in one call; the other two certify no word
        assert verified_words == [1 + 3]

    @pytest.mark.parametrize("warm, new", [
        ((400, (2, 2)), (400, (3, 3))), ((4, (2, 2, 2)), (4, (4, 6, 8))),
    ])
    def test_a_new_shape_in_a_warm_frame_certifies_nothing(
        self, monkeypatch, verified_words, warm, new
    ):
        # after a shape of its frame, a new shape's stage certifies no
        # word, evaluates no word under theta (its bit on e is gamma mod 2)
        # and reads no orientation character: each is a frame fact
        pipeline.shape_certificate(*warm)
        assert verified_words == [len(warm[1]) + 3]
        frame = presentations.certify_frame(new[0], len(new[1]))
        evaluated, walked, characters = [], [], []
        normal_form, check = CyclicGroup.normal_form, pipeline.check_homomorphism
        monkeypatch.setattr(CyclicGroup, "normal_form", lambda self, table, letters: (
            evaluated.append(tuple(letters)) or normal_form(self, table, evaluated[-1])))
        monkeypatch.setattr(pipeline, "check_homomorphism",
                            lambda p, *args: walked.append(p) or check(p, *args))
        character = GeneratorKind.character
        monkeypatch.setattr(GeneratorKind, "character", property(
            lambda kind: characters.append(kind) or character.fget(kind)))
        shape = pipeline.shape_certificate(*new)
        assert verified_words == [len(warm[1]) + 3]
        assert walked == [] and characters == []
        assert evaluated == []  # theta's image of e is gamma mod 2, nothing walked
        assert frame.presentation.relators[0] in shape.k_presentation.relators
        assert presentations.certify_frame.cache_info().misses == 1
        assert shape.derived.printed_checks[0] == (f"c1^{new[1][0]}", "matches-relator")

    @pytest.mark.parametrize("gamma, periods, order", [(1, (2, 2, 2), 4), (2, (2, 2), 4)])
    def test_a_derivation_alone_builds_the_whole_frame_record(
        self, monkeypatch, gamma, periods, order
    ):
        # derive_delta_hat and lemma1_check, with no realize, build the
        # frame's record whole in one miss of its memo: every field is
        # there (but the classical rows of an odd gamma), and none can be
        # assigned; a realize of the shape then misses no frame and builds
        # no record
        built, build = [], frames.certified_frame
        monkeypatch.setattr(frames, "certified_frame", lambda p: built.append(p) or build(p))
        _, derived = derived_for(gamma, periods)
        assert lemma1_check(derived).ok
        frame = derived.subgroup.frame
        assert presentations.certify_frame.cache_info().misses == len(built) == 1
        fields = {name: getattr(frame, name) for name in frame._fields}
        assert len(fields) == 11 and all(fields[name] for name in (
            "presentation", "schreier", "inverted", "folds", "connector", "walk", "eta",
            "parities"))
        classical = ("rows", "units", "statuses")
        assert all(fields[name] for name in classical) if gamma % 2 == 0 else (
            [fields[name] for name in classical] == [(), None, ()])
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(frame, name, value)
            assert getattr(frame, name) is value
        datum = first_smooth_epimorphism(gamma, periods, order)
        assert realize(datum).derived.subgroup.frame is frame
        assert presentations.certify_frame.cache_info().misses == len(built) == 1

    def test_clearing_both_memos_frees_every_schreier_frame(self):
        # a SchreierFrame is kept by K's frame alone, and a K that is not
        # its frame plus its corners is refused before one is derived: once
        # both memos are cleared and the results are dropped, gc finds none
        # of those this test made
        def schreier_frames():
            gc.collect()
            return {id(obj) for obj in gc.get_objects() if type(obj) is SchreierFrame}

        before = schreier_frames()
        realize(GENUS2)
        K = disc_group(2, (3, 4))  # its frame is certified with it
        built = schreier_frames()
        with pytest.raises(ValueError, match="^K is not its frame"):
            derive_delta_hat(replace(K, relators=K.relators[1:]), build_theta(K))
        del K
        # the refused K derived no frame; GENUS2's and K's stay
        assert schreier_frames() == built and len(built - before) == 2
        pipeline.shape_certificate.cache_clear()
        presentations.certify_frame.cache_clear()
        assert schreier_frames() <= before

    def test_invalid_input_never_reaches_the_memo(self):
        realize(GENUS2)
        before = pipeline.shape_certificate.cache_info()
        for bad in (ActionDatum(1, (2, 4), 2, (1,), (2, 2)),  # a period that exceeds n
                    ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 0))):  # a torsion collapse
            with pytest.raises(ActionValidationError):
                realize(bad)
        assert pipeline.shape_certificate.cache_info() == before
        assert before.currsize == 1


def toy_memo(build=lambda key: object()):
    """A letter memo whose every key is its own weight."""
    return presentations.LetterMemo(build, weight=lambda key: key)


class TestLetterMemo:
    def test_eviction_is_least_recent_first_and_a_hit_refreshes(self, monkeypatch):
        monkeypatch.setattr(presentations, "MEMO_LETTERS", 10)
        memo = toy_memo()
        three, four = memo(3), memo(4)
        assert memo(3) is three  # a hit: 4 is now the least recent
        memo(5)  # 12 letters: 4 is evicted
        assert list(memo.entries) == [(3,), (5,)] and memo.held == 8
        assert memo(3) is three  # 5 is now the least recent
        assert memo(4) is not four  # 12 letters again: 5 is evicted
        assert list(memo.entries) == [(3,), (4,)] and memo.held == 7
        assert memo.cache_info() == (2, 4, 10, 2)  # (hits, misses, maxsize, currsize)

    def test_a_lone_entry_over_the_budget_is_kept(self, monkeypatch):
        monkeypatch.setattr(presentations, "MEMO_LETTERS", 10)
        memo = toy_memo()
        memo(4)
        big = memo(11)
        assert list(memo.entries) == [(11,)] and memo.held == 11
        assert memo(11) is big and memo.cache_info()[:2] == (1, 2)
        # so are a shape and its frame over a budget of one letter
        monkeypatch.setattr(presentations, "MEMO_LETTERS", 1)
        shape = pipeline.shape_certificate(1, (2, 2, 2))
        assert pipeline.shape_certificate(1, (2, 2, 2)) is shape
        assert pipeline.shape_certificate.cache_info()[:2] == (1, 1)
        for memo in (pipeline.shape_certificate, presentations.certify_frame):
            assert memo.cache_info().misses == memo.cache_info().currsize == 1

    def test_a_raising_build_stores_nothing(self):
        calls = []

        def build(key):
            calls.append(key)
            if len(calls) == 1:
                raise PipelineAssertionError("failed once")
            return key

        memo = toy_memo(build)
        with pytest.raises(PipelineAssertionError, match="^failed once$"):
            memo(3)
        assert memo.entries == {} and memo.held == 0
        assert memo(3) == memo(3) == 3 and calls == [3, 3]
        assert memo.cache_info() == (1, 2, presentations.MEMO_LETTERS, 1)

    def test_what_a_build_raises_carries_no_context(self, monkeypatch):
        # each build runs outside the memo's lookup, so what it raises does
        # not say it happened while handling the memo's miss, at either
        # level of the shape stage's nested memos; neither keeps the key
        memo = toy_memo(lambda key: 1 // 0)
        with pytest.raises(ZeroDivisionError) as exc:
            memo(3)
        assert exc.value.__context__ is None and memo.entries == {}
        monkeypatch.setattr(frames, "cyclic_reduce_letters", lambda letters, involutions: letters)
        with pytest.raises(PipelineAssertionError, match="^conjugation identity") as exc:
            pipeline.shape_certificate(1, (2, 2, 2))
        assert exc.value.__context__ is None and exc.value.__cause__ is None
        for memo in (pipeline.shape_certificate, presentations.certify_frame):
            assert memo.entries == {} and memo.cache_info().misses == 1

    def test_the_held_weight_exceeds_the_budget_only_in_one_entry(
        self, monkeypatch, action_battery
    ):
        # a budget of about four battery frames, two shapes: each memo
        # holds the weights of its entries, and no more than the budget
        # unless it holds one entry
        monkeypatch.setattr(presentations, "MEMO_LETTERS", 85)
        memos = (pipeline.shape_certificate, presentations.certify_frame)
        for datum in action_battery:
            assert realize(datum).conclusion
            for memo in memos:
                assert memo.held == sum(weight for _, weight in memo.entries.values())
                assert memo.held <= 85 or len(memo.entries) == 1
        # so each memo evicted keys that it then missed again
        shape_misses, frame_misses = (memo.cache_info().misses for memo in memos)
        assert shape_misses > 112 and frame_misses > 20

    def test_the_weights_are_the_letters_of_k(self, action_battery):
        # a frame weighs the letters of its relators, K's but the corners,
        # and a shape those of all of K's, on the 112 battery shapes; the
        # battery's working set, their sums, fits each memo's budget
        shapes = {(datum.gamma, datum.periods) for datum in action_battery}
        frames = {(gamma, len(periods)) for gamma, periods in shapes}
        assert (len(shapes), len(frames)) == (112, 20)
        for gamma, periods in shapes:
            K = canonical_presentation(quotient_disc_signature(gamma, periods))
            frame = presentations.certify_frame(gamma, len(periods))
            assert pipeline.shape_certificate.weight(gamma, periods) == sum(map(len, K.relators))
            assert (presentations.certify_frame.weight(gamma, len(periods))
                    == sum(map(len, frame.presentation.relators)))
        assert sum(pipeline.shape_certificate.weight(*shape) for shape in shapes) == 4901
        assert sum(presentations.certify_frame.weight(*frame) for frame in frames) == 427
        assert 427 < 4901 <= presentations.MEMO_LETTERS


def test_the_oracles_agree_with_the_frame_on_both_batteries(derived_battery, action_battery):
    # the walks the frame's one path replaced, each kept nowhere, give what
    # the frame gives: the unkept Reidemeister-Schreier and the own-word
    # lemma on all 1640 signature-battery shapes, and every relator of K
    # and of the derived kernel walked under Theta and eta on the 126
    # battery data, whose certificate documents are byte-identical
    for _, _, K, theta, derived in derived_battery:
        sub, frame = unkept_reidemeister_schreier(K, theta)
        assert sub == derived.subgroup
        assert own_word_lemma(sub, frame) == lemma1_check(derived).inversion_entries
    assert len(derived_battery) == 1640 and len(action_battery) == 126
    for datum in action_battery:
        assert rendered(oracle_certificate(datum)) == rendered(realize(datum))


def rendered(cert) -> str:
    """The JSON certificate document of ``cert``, as ``realize`` prints it."""
    datum = cert.datum
    doc = {"gamma": datum.gamma, "periods": list(datum.periods), "n": datum.n,
           "rho": {"d": list(datum.d_images), "x": list(datum.x_images)}}
    return cli.render_json(certificate.document(cert, doc))


def cli_views(datum, workdir) -> tuple[str, ...]:
    """What ``cli.main`` prints for ``datum``: ``realize`` and
    ``check-lemma``, each in text and in JSON."""
    path = Path(workdir) / "datum.json"
    path.write_text(json.dumps({"gamma": datum.gamma, "periods": list(datum.periods),
                                "n": datum.n, "rho": {"d": list(datum.d_images),
                                                      "x": list(datum.x_images)}}))
    views = []
    for command in ("realize", "check-lemma"):
        for fmt in ("text", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(["--format", fmt, command, str(path)]) == cli.EXIT_OK
            views.append(out.getvalue())
    return tuple(views)


def test_memo_history_leaves_every_document_byte_identical(
    action_battery, tmp_path, monkeypatch
):
    # the 126 battery data in 5 seeded shuffled orders, each of the two
    # memos cleared at random before 15% of the calls, then in a sixth
    # with the budget lowered to about 4 battery frames, so that each
    # memo evicts by its budget: each of the four views cli.main prints,
    # realize and check-lemma in text and in JSON, warm frame or cold, is
    # byte-identical to the cold run's, and so is the oracle path's
    # document, which reads no frame
    memos = (pipeline.shape_certificate, presentations.certify_frame)
    cold = {}
    for datum in action_battery:
        for memo in memos:
            memo.cache_clear()
        cold[datum] = cli_views(datum, tmp_path)
        assert cold[datum][1] == rendered(realize(datum))
    cleared = [0, 0]
    for seed in range(5):
        rng = random.Random(seed)
        order = list(action_battery)
        rng.shuffle(order)
        for datum in order:
            for i, memo in enumerate(memos):
                if rng.random() < 0.15:
                    memo.cache_clear()
                    cleared[i] += 1
            assert cli_views(datum, tmp_path) == cold[datum], (seed, datum)
        for datum in order[::9]:
            assert rendered(oracle_certificate(datum)) == cold[datum][1], (seed, datum)
    assert min(cleared) > 5 * 126 * 0.1
    monkeypatch.setattr(presentations, "MEMO_LETTERS", 85)
    for memo in memos:
        memo.cache_clear()
    order = list(action_battery)
    random.Random(5).shuffle(order)
    for datum in order:
        assert cli_views(datum, tmp_path) == cold[datum], datum
    # each memo missed keys again after evicting them
    shape_misses, frame_misses = (memo.cache_info().misses for memo in memos)
    assert shape_misses > 112 and frame_misses > 20


MUTATIONS = [
    lambda doc: doc["k_presentation"]["generators"][0].update(name="y1"),
    lambda doc: doc["k_presentation"]["relators"].insert(0, "y1*y1"),
    lambda doc: doc["k_presentation"]["relators"].pop(),
    lambda doc: doc["delta_hat_presentation"]["generators"].pop(),
    lambda doc: doc["delta_hat_presentation"]["relators"].reverse(),
    lambda doc: doc["delta_hat_presentation"]["relators"].append("y1"),
    lambda doc: doc["correspondence"][-1].update(word="y1"),
    lambda doc: doc["theta"]["images"].update(x1="0"),
    lambda doc: doc.update(theta={}),
]


def containers(value):
    """Every list and dict in a JSON-ready value, itself included."""
    if isinstance(value, (list, dict)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


@pytest.mark.parametrize("mutate", MUTATIONS)
def test_a_mutated_document_changes_no_other(mutate):
    # two documents of a frame share no list or dict, so mutating one
    # leaves the next document of its shape and of a sibling shape of its
    # frame byte-identical
    data = [first_smooth_epimorphism(2, periods, 12) for periods in ((2, 6), (6, 2))]
    expected = [rendered(realize(datum)) for datum in data]
    docs = [certificate.document(realize(datum), {}) for datum in data]
    ids = [{id(c) for c in containers(doc)} for doc in docs]
    assert not ids[0] & ids[1]
    for datum in data:
        doc = certificate.document(realize(datum), {})
        mutate(doc)
        assert [rendered(realize(other)) for other in data] == expected
    assert realize(data[0]).derived.subgroup.frame is realize(data[1]).derived.subgroup.frame


def test_render_is_the_oracle_documents_json(action_battery):
    # the shape's runs spliced with each call's are json.dumps of the
    # whole document, key by key, on every battery datum and golden input,
    # once with the shape's runs built and once with them kept
    golden = Path(__file__).parent / "golden"
    data = list(action_battery)
    for name in ("genus2", "gamma2-search"):
        doc = json.loads((golden / f"{name}.input.json").read_text(encoding="utf-8"))
        data.append(cli.datum_from_document(cli.parse_input_document(doc)))
    for datum in data:
        doc = {"gamma": datum.gamma, "periods": list(datum.periods), "n": datum.n,
               "rho": {"d": list(datum.d_images), "x": list(datum.x_images)}}
        for _ in range(2):
            cert = realize(datum)
            expected = json.dumps(oracle_document(cert, doc), sort_keys=True) + "\n"
            assert certificate.render(cert, doc) == expected, datum
        assert certificate.document(cert, doc) == oracle_document(cert, doc)
    assert len(data) == 128


def test_realize_and_the_signature_battery_build_no_shape_runs(
    action_battery, signature_battery, monkeypatch
):
    # a shape's JSON text is built by its first document alone: realize
    # keeps none, and derive_delta_hat and lemma1_check make no shape
    built = counting(monkeypatch, certificate, "_shape_keys")
    shapes = {}
    for datum in action_battery:
        shapes[datum.gamma, datum.periods] = realize(datum).shape
    for gamma, periods in signature_battery:
        K = canonical_presentation(quotient_disc_signature(gamma, periods))
        lemma1_check(derive_delta_hat(K, build_theta(K)))
    assert built == [] and len(shapes) == 112
    assert all(shape.json_runs is None for shape in shapes.values())


def test_a_warm_rho_stage_builds_no_fraction(action_battery, monkeypatch):
    # validation tests hyperbolicity by the sign of an integer numerator,
    # and the genus is checked against K's area kept on the shape
    for datum in action_battery:
        realize(datum)
    built, new = [], Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    for datum in action_battery:
        realize(datum)
    assert built == []
    assert Fraction(1, 2) and built == [(1, 2)]


def test_a_new_shape_in_a_warm_frame_pays_only_for_its_corners(monkeypatch):
    # (gamma; -; [2, 2]) at n = 6 warms the frame (gamma, 2); then the
    # shape stage of (gamma; -; [3, 3]) constructs the same words, by
    # length, at gamma = 4 as at 400, and derive_delta_hat and
    # lemma1_check run as many lines of necsurf: what grows with gamma is
    # left to comparisons with the frame inside C
    package = str(Path(necsurf.__file__).parent)

    def count(gamma):
        presentations.certify_frame.cache_clear()
        pipeline.shape_certificate.cache_clear()
        realize(first_smooth_epimorphism(gamma, (2, 2), 12))
        built, lines = [], [0]
        # a word is constructed checked (``__post_init__``) or as a power
        post_init, power = Word.__post_init__, Word.__pow__
        monkeypatch.setattr(
            Word, "__post_init__", lambda w: built.append(len(w.letters)) or post_init(w))
        monkeypatch.setattr(
            Word, "__pow__", lambda w, n: built.append(len(w.letters) * abs(n)) or power(w, n))
        K = canonical_presentation(quotient_disc_signature(gamma, (3, 3)))
        theta = build_theta(K)

        def trace(frame, event, arg):
            if not frame.f_code.co_filename.startswith(package):
                return None
            lines[0] += event == "line"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            lemma1_check(derive_delta_hat(K, theta))
        finally:
            sys.settrace(previous)
        monkeypatch.undo()
        return built, lines[0]

    assert count(4) == count(400)


class TestEnumeration:
    def test_fixed_counts(self):
        assert enumerate_smooth_epimorphisms(1, (2, 2, 2), 4).count == 2
        assert enumerate_smooth_epimorphisms(3, (), 4).count == 0
        assert enumerate_smooth_epimorphisms(4, (), 4).count == 16

    @pytest.mark.parametrize("gamma", [13, 41])
    def test_infeasible_shape_lists_nothing_at_once(self, gamma):
        # odd gamma at 2n = 8 has no epimorphism: the walk says so in at most
        # gamma * 8 * tau(8) states, before any of the 4^gamma glide tuples
        start = time.perf_counter()
        assert enumerate_smooth_epimorphisms(gamma, (), 8).count == 0
        assert time.perf_counter() - start < 1

    def test_matches_product_loop(self):
        # the glide-prefix states list the same tuples, in the same order, as
        # the loop over the whole glide product, and every listed elliptic
        # tuple has the closed-form gcd order / lcm(periods)
        battery = admissible_shapes(5, 4, 12)
        larger = [(gamma, periods, order) for gamma, periods, order in admissible_shapes(3, 3, 48)
                  if order in (16, 24, 36, 40, 48) and (order // 2) ** gamma <= 3000]
        assert (len(battery), len(larger)) == (260, 652)
        for shape in battery + larger:
            listed = enumerate_smooth_epimorphisms(*shape).tuples
            assert listed == product_loop_epimorphisms(*shape), shape
            _, periods, order = shape
            x_gcd = order // math.lcm(*periods)
            assert all(math.gcd(order, *x) == x_gcd for _, x in listed), shape

    def test_enumeration_works_per_state(self, monkeypatch):
        # the walk tries at most (gamma + r) * 12 * tau(12) states of at most
        # 6 candidates, one gcd each, and the enumeration may add two per
        # glide prefix; the loop over all 6^5 glide tuples, with one more
        # gcd per output pair, took 49 294
        bound = 2 * 6**4 + 9 * 12 * 6 * 6
        tried = 0

        def gcd(*args):
            nonlocal tried
            tried += 1
            return math.gcd(*args)

        monkeypatch.setattr(pipeline, "math", SimpleNamespace(gcd=gcd, lcm=math.lcm))
        assert enumerate_smooth_epimorphisms(5, (3, 6, 6, 6), 12).count == 41472
        assert 0 < tried <= bound

    def test_first_is_lexicographic(self):
        result = enumerate_smooth_epimorphisms(1, (2, 2, 2), 4)
        assert result.tuples[0] == ((1,), (2, 2, 2))
        assert first_smooth_epimorphism(1, (2, 2, 2), 4) == GENUS2

    def test_oracle_agreement_small(self):
        for gamma, periods, order in [
            (1, (2, 2, 2), 4),
            (2, (2,), 8),
            (2, (2, 2), 4),
        ]:
            got = enumerate_smooth_epimorphisms(gamma, periods, order)
            assert list(got.tuples) == unpruned_epimorphisms(gamma, periods, order)

    def test_invalid_orders_rejected(self):
        for search in (enumerate_smooth_epimorphisms, first_smooth_epimorphism):
            with pytest.raises(ValueError, match="even"):
                search(1, (2, 2, 2), 6)  # n = 3 odd
            with pytest.raises(ValueError, match="gamma = 0 must be at least 1"):
                search(0, (2, 2, 2, 2, 2), 4)
            with pytest.raises(ValueError, match="not hyperbolic"):
                search(2, (), 4)

    def test_searches_reject_what_they_cannot_index(self):
        # an admissible shape past sys.maxsize gets one reason per bound; an
        # inadmissible one keeps exactly shape_problems' reasons
        big = 10**30
        cases = [
            ((1, (2, 2, 2), 2 * big),
             (f"order {2 * big} exceeds {sys.maxsize}, the largest order the search"
              " can index",)),
            ((big, (), 4),
             (f"gamma = {big} exceeds {sys.maxsize}, the most glides the search"
              " can index",)),
            ((big, (3,), 2 * big), tuple(pipeline.shape_problems(big, (3,), big))),
        ]
        for search in (enumerate_smooth_epimorphisms, first_smooth_epimorphism):
            for shape, reasons in cases:
                with pytest.raises(ActionValidationError) as exc:
                    search(*shape)
                assert exc.value.reasons == reasons, (search.__name__, shape)

    def test_searches_reject_exactly_what_shape_problems_rejects(self):
        # one rule, asked two ways: each search rejects a shape exactly when
        # it has a reason, with ActionValidationError carrying shape_problems'
        # reasons for an even order 2n and one reason naming an odd order;
        # every tuple listed for an accepted shape is a valid action
        reasons = {}
        for order in range(2, 17):
            for gamma in range(4):
                for r in range(3):
                    for periods in combinations_with_replacement(range(2, 17), r):
                        reasons[gamma, periods, order] = (
                            (f"order {order} is odd: the action order must be 2n"
                             " with n even",)
                            if order % 2
                            else tuple(pipeline.shape_problems(gamma, periods, order // 2))
                        )
        admissible = {shape for shape, why in reasons.items() if not why}
        assert 0 < len(admissible) < len(reasons)
        for search in (enumerate_smooth_epimorphisms, first_smooth_epimorphism):
            rejections = {}
            for shape in reasons:
                try:
                    search(*shape)
                except ValueError as exc:
                    rejections[shape] = exc
            # a set difference names the shapes the two rules disagree on
            assert set(reasons) - set(rejections) == admissible, search.__name__
            for shape, exc in rejections.items():
                assert isinstance(exc, ActionValidationError), shape
                assert exc.reasons == reasons[shape], shape
        for gamma, periods, order in admissible:
            if order > 12 or gamma > 2:
                continue
            listed = enumerate_smooth_epimorphisms(gamma, periods, order).tuples
            for d_images, x_images in listed:
                datum = ActionDatum(gamma, periods, order // 2, d_images, x_images)
                validate_action(datum)


@st.composite
def elliptic_images(draw):
    """An even n up to 10**6, at most 4 periods dividing n, and one unit
    mod each period."""
    n = 2 * draw(st.integers(1, 5 * 10**5))
    small = [p for p in range(1, math.isqrt(n) + 1) if n % p == 0]
    divisors = sorted({d for p in small for d in (p, n // p)} - {1})
    periods = draw(st.lists(st.sampled_from(divisors), max_size=4))
    units = [draw(st.integers(1, p - 1).filter(lambda u, p=p: math.gcd(u, p) == 1))
             for p in periods]
    return n, periods, units


@given(elliptic_images())
@example((2, [], []))
def test_elliptic_gcd_closed_form(case):
    """Each elliptic image is (2n/p)*u with u a unit mod its period p, so
    the images' gcd with 2n is 2n / lcm(periods), and 2n when r = 0."""
    n, periods, units = case
    images = [2 * n // p * u for p, u in zip(periods, units)]
    assert math.gcd(2 * n, *images) == 2 * n // math.lcm(*periods)


class TestFirstEpimorphism:
    def test_matches_enumeration_and_brute_force(self):
        shapes = admissible_shapes(5, 4, 12)
        assert len(shapes) == 260
        found = brute_checked = 0
        for gamma, periods, order in shapes:
            listed = enumerate_smooth_epimorphisms(gamma, periods, order).tuples
            datum = first_smooth_epimorphism(gamma, periods, order)
            first = (datum.d_images, datum.x_images) if datum else None
            assert first == (listed[0] if listed else None), (gamma, periods, order)
            if datum:
                found += 1
                assert datum == ActionDatum(gamma, periods, order // 2, *listed[0])
            if order ** (gamma + len(periods)) <= 5000:
                brute = unpruned_epimorphisms(gamma, periods, order)
                assert first == (brute[0] if brute else None), (gamma, periods, order)
                brute_checked += 1
        # both verdicts occur, and the brute force reaches both
        assert 0 < found < len(shapes) and brute_checked > 0

    @pytest.mark.parametrize("gamma", [13, 41])
    def test_infeasible_walk_expands_each_state_once(self, monkeypatch, gamma):
        # the oracle stays tractable: every candidate tried costs one gcd;
        # the walk has at most gamma * 8 * tau(8) states, each trying the 4
        # odd residues, where a walk without the memo would try about
        # 4^gamma.  Odd gamma with no periods is parity-obstructed.
        bound = gamma * 8 * 4 * 4
        tried = 0

        def gcd(*args):
            nonlocal tried
            tried += 1
            if tried > bound:
                raise AssertionError(f"more than {bound} candidates tried")
            return math.gcd(*args)

        monkeypatch.setattr(reference, "math", SimpleNamespace(gcd=gcd))
        assert walked_first(gamma, (), 8) is None
        assert tried > 0

    def test_deep_infeasible_walk_needs_no_recursion(self):
        # odd gamma at 2n = 4: the walk backtracks through all 2001 letters
        assert walked_first(2001, (), 4) is None
        assert first_smooth_epimorphism(2001, (), 4) is None

    def test_parity_obstruction_agrees_with_the_walk(self):
        # the closed form: an epimorphism exists exactly when gamma +
        # #{k : n/n_k odd} is even, and gamma >= 2 or the odd part of n
        # divides lcm(n_1..n_r).  On every shape with gamma <= 6, r <= 4 and
        # 2n <= 48 (the 260 battery shapes and the 652 larger shapes of
        # test_matches_product_loop among them) the walk agrees, and the
        # descent finds the walk's images; 40 shapes of even parity have
        # none, as the odd part fails
        shapes = admissible_shapes(6, 4, 48)
        none = odd = 0
        for gamma, periods, order in shapes:
            walk = walked_first(gamma, periods, order)
            exists = pipeline._has_epimorphism(gamma, periods, order)
            assert exists == (walk is not None), (gamma, periods, order)
            datum = first_smooth_epimorphism(gamma, periods, order)
            if exists:
                assert (datum.d_images + datum.x_images) == tuple(walk)
            else:
                none += 1
                assert datum is None
                assert enumerate_smooth_epimorphisms(gamma, periods, order).count == 0
            n = order // 2
            odd += (gamma + sum(n // p % 2 for p in periods)) % 2
        assert (len(shapes), none, odd) == (5758, 2912, 2872)

    def test_descent_matches_the_walk_on_random_shapes(self):
        # seeded shapes with 2n <= 400, gamma <= 3 and up to 4 periods,
        # beyond the exhaustive range of the test above
        rng = random.Random(42)
        compared = found = 0
        while compared < 400:
            n = 2 * rng.randint(13, 100)
            divisors = [p for p in range(2, n + 1) if n % p == 0]
            gamma = rng.randint(1, 3)
            periods = tuple(rng.choice(divisors) for _ in range(rng.randint(0, 4)))
            if pipeline.shape_problems(gamma, periods, n):
                continue
            compared += 1
            datum = first_smooth_epimorphism(gamma, periods, 2 * n)
            images = datum and list(datum.d_images + datum.x_images)
            assert images == walked_first(gamma, periods, 2 * n), (gamma, periods, n)
            found += datum is not None
        assert 0 < found < compared

    def test_descent_is_valid_on_random_factorisations(self):
        # seeded orders 2n <= sys.maxsize with up to five prime factors
        # besides 2: each datum found is a valid action, and None occurs
        # exactly where the closed-form criterion says there is none
        rng = random.Random(5)
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 1000003, 998244353]
        found = none = 0
        while found + none < 3000:
            powers = {2: rng.randint(1, 20), **{p: rng.randint(1, 4)
                                                for p in rng.sample(primes, rng.randint(0, 5))}}
            n = math.prod(p**e for p, e in powers.items())
            divisors = (math.prod(q**rng.randint(0, e) for q, e in powers.items())
                        for _ in range(rng.randint(0, 5)))
            periods = tuple(p for p in divisors if p > 1)
            gamma = rng.choice((1, 1, 2, 3))
            if 2 * n > sys.maxsize or pipeline.shape_problems(gamma, periods, n):
                continue
            datum = first_smooth_epimorphism(gamma, periods, 2 * n)
            assert (datum is not None) == pipeline._has_epimorphism(gamma, periods, 2 * n)
            if datum is None:
                none += 1
            else:
                found += 1
                assert datum.delta_signature() == NECSignature(False, gamma, periods)
                validate_action(datum)
        assert found > 500 and none > 500

    @pytest.mark.parametrize("gamma, periods, order", [
        pytest.param(3, (), 8, id="parity"),
        pytest.param(1, (2, 2, 2), 4 * 3**10, id="odd-part"),
    ])
    def test_descent_raises_where_the_criterion_is_wrong(self, monkeypatch, gamma, periods,
                                                        order):
        # the descent trusts _has_epimorphism for the root and checks every
        # letter: told an obstructed shape has an epimorphism, it finds no image
        monkeypatch.setattr(pipeline, "_has_epimorphism", lambda *shape: True)
        with pytest.raises(PipelineAssertionError, match="^first epimorphism: no image of letter "):
            first_smooth_epimorphism(gamma, periods, order)

    @pytest.mark.parametrize("n, limit", [(10**6, 0.1), (10**18, 1)])
    def test_descent_time_does_not_grow_with_n(self, n, limit):
        # the walk took 0.9 s at n = 10**6 and never returned at 10**18
        started = time.perf_counter()
        datum = first_smooth_epimorphism(1, (n, n, n), 2 * n)
        assert time.perf_counter() - started < limit
        assert (datum.d_images, datum.x_images) == ((1,), (2, 2, 2 * n - 6))

    @pytest.mark.parametrize("gamma, periods, n", [
        pytest.param(3, (), 4000, id="4000"), pytest.param(3, (), 10**6, id="1000000"),
        pytest.param(1, (2, 2, 2), 2 * 3**10, id="gamma1-2-2-2-2n-4*3^10"),
    ])
    def test_parity_obstructed_search_answers_at_once(self, gamma, periods, n):
        # (1; -; [2, 2, 2]) has even parity, but the odd part of n = 2*3^10
        # does not divide lcm(2, 2, 2): no walk runs, where it took 0.36 s
        started = time.perf_counter()
        assert first_smooth_epimorphism(gamma, periods, 2 * n) is None
        assert enumerate_smooth_epimorphisms(gamma, periods, 2 * n).count == 0
        assert time.perf_counter() - started < 1


def test_battery_subsample_round_trip(action_battery):
    # spot-check here; the full sweep runs in the acceptance module
    for datum in action_battery[::13]:
        cert = realize(datum)
        assert cert.conclusion
        assert cert.derived.report.signature == NECSignature(
            False, datum.gamma, tuple(sorted(datum.periods))
        )
