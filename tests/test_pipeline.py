import ast
import dataclasses
import inspect
import math
import re
import sys
import time
import tracemalloc
from dataclasses import replace
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
from necsurf import abelian, certificate, pipeline
from necsurf.pipeline import _printed_relator_words
from necsurf.signatures import CONNECTOR
from necsurf.words import Word
from reference import (
    cayley_coset_table,
    element_fold,
    mul,
    naive_theta,
    parse_word,
    product_loop_epimorphisms,
    reduce_mod_involutions,
    rotation,
    theta_through_eta,
    unpruned_epimorphisms,
)

GENUS2 = ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 2))
GAMMA4 = ActionDatum(4, (), 2, (1, 1, 1, 1), ())


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def derived_for(gamma, periods):
    K = disc_group(gamma, periods)
    return K, derive_delta_hat(K, build_theta(K))


def eta_for(K, derived, datum):
    return construct_eta(derived, extend_to_dihedral(K, datum), datum)


def without_relator(derived, text):
    """``derived`` with the relator spelled ``text`` dropped from Δ̂."""
    relators = tuple(r for r in derived.presentation.relators if str(r) != text)
    assert len(relators) == len(derived.presentation.relators) - 1
    return with_presentation(derived, replace(derived.presentation, relators=relators))


def with_generator_word(derived, name, word):
    """``derived`` with the Schreier generator ``name`` given ``word``."""
    generators = tuple(
        replace(g, word=word) if g.name == name else g for g in derived.subgroup.generators
    )
    return replace(derived, subgroup=replace(derived.subgroup, generators=generators))


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


def unresolved_relators(K, words, sources, substitution):
    """A stand-in for ``verify_derived_relators`` that certifies nothing."""
    return tuple("unresolved" for _ in zip(words, sources, strict=True))


def with_printed_row(monkeypatch, index, mutate):
    """Patch ``_printed_relator_words`` so that its row ``index`` (label,
    word, source) is replaced by ``mutate(word, source)``, a (word,
    source) pair; returns the row's label."""
    labels = []

    def printed(sub, periods):
        rows = _printed_relator_words(sub, periods)
        label, word, source = rows[index]
        rows[index] = (label, *mutate(word, source))
        labels.append(label)
        return rows

    monkeypatch.setattr(pipeline, "_printed_relator_words", printed)
    return labels


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
            assert pipeline.surface_kernel_genus(sig, order) >= 2
        assert len(shapes) == 23775


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
        cls.__name__: {field.name for field in dataclasses.fields(cls)}
        for cls in (DihedralExtension, EtaResult, LemmaReport, RealizationCertificate,
                    DerivedKernel)
    }
    assert fields == {
        "DihedralExtension": {"hom", "image_order"},
        "EtaResult": {"hom", "torsion_images"},
        "LemmaReport": {"connector_pair", "inversion_entries", "invariant_factors", "free_rank"},
        "RealizationCertificate": {"datum", "genus", "k_presentation", "theta", "derived",
                                   "lemma", "eta", "extension"},
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

    def test_even_gamma_printed_relators_certified(self):
        _, derived = derived_for(2, (3,))
        assert derived.report.signature == NECSignature(False, 2, (3,))
        assert derived.printed_checks
        assert all(status != "unresolved" for _, status in derived.printed_checks)
        labels = [label for label, _ in derived.printed_checks]
        assert "c1^3" in labels

    def test_uncertified_classical_relator_is_an_assertion(self, monkeypatch):
        K = disc_group(2, (3,))
        monkeypatch.setattr(pipeline, "verify_derived_relators", unresolved_relators)
        with pytest.raises(
            PipelineAssertionError, match=r"classical relator c1\^3 could not be certified"
        ):
            derive_delta_hat(K, build_theta(K))

    @pytest.mark.parametrize("gamma, periods", [(2, (3, 4, 5)), (4, (3, 3, 3)), (6, ())])
    def test_wrong_exponent_in_a_printed_word_is_an_assertion(self, monkeypatch, gamma, periods):
        # one letter of one printed word inverted, in each word in turn;
        # and one power too many on each corner word
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        rows = _printed_relator_words(reidemeister_schreier(K, theta), periods)
        mutations = [
            (i, lambda word, source, j=j: (
                Word(word.letters[:j] + ((word.letters[j][0], -word.letters[j][1]),)
                     + word.letters[j + 1:]), source))
            for i, (_, word, _) in enumerate(rows) for j in (0, len(word) - 1)
        ]
        mutations += [
            (i, lambda word, source, p=p: (word * Word(word.letters[:len(word) // p]), source))
            for i, p in enumerate(periods)
        ]
        assert len(mutations) == 2 * (len(periods) + 3) + len(periods)
        for i, mutate in mutations:
            labels = with_printed_row(monkeypatch, i, mutate)
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(K, theta)
            assert str(exc.value) == f"classical relator {labels[0]} could not be certified"
            assert labels[0] == rows[i][0]

    @pytest.mark.parametrize("gamma, periods", [(2, (3, 4, 5)), (4, (3, 3, 3))])
    def test_wrong_named_source_is_an_assertion(self, monkeypatch, gamma, periods):
        # corner k+1 named for corner k's word, the connector relator for
        # a corner word, a corner for the connector word, a source for an
        # alternation and none (trivial) for a corner word
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        rows = _printed_relator_words(reidemeister_schreier(K, theta), periods)
        sources = [source for _, _, source in rows]
        connector = sources[len(periods)]
        assert K.relators[connector[0]] == Word(
            (("e", -1), (f"tau{len(periods) + 1}", 1), ("e", 1), ("tau1", -1))
        )
        wrong = [(k, sources[k + 1]) for k in range(len(periods) - 1)]
        wrong += [(0, connector), (len(periods), sources[0]), (len(periods) + 1, connector),
                  (len(periods) + 2, sources[0]), (0, None)]
        for i, named in wrong:
            labels = with_printed_row(monkeypatch, i, lambda word, _, named=named: (word, named))
            with pytest.raises(PipelineAssertionError) as exc:
                derive_delta_hat(K, theta)
            assert str(exc.value) == f"classical relator {labels[0]} could not be certified"
            assert labels[0] == rows[i][0]

    def test_printed_words_name_their_sources(self):
        # c1^3 from (tau1 tau2)^3, (c_k^-1*c_(k+1))^p from corner k+1,
        # both at rotation 0, the connector word from the connector
        # relator at rotation 2, the alternations from nothing
        K = disc_group(2, (3, 4, 5))
        sub = reidemeister_schreier(K, build_theta(K))
        named = {
            label: None if source is None else (str(K.relators[source[0]]), source[1])
            for label, _, source in _printed_relator_words(sub, (3, 4, 5))
        }
        assert named == {
            "c1^3": ("tau1*tau2*tau1*tau2*tau1*tau2", 0),
            "(c1^-1*c2)^4": ("*".join(["tau2*tau3"] * 4), 0),
            "(c2^-1*c3)^5": ("*".join(["tau3*tau4"] * 5), 0),
            "e1*e2^-1*c3": ("e^-1*tau4*e*tau1^-1", 2),
            "delta-alternation-1": None,
            "delta-alternation-2": None,
        }

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
            labels = with_printed_row(
                monkeypatch, closing, lambda word, source, k=k: (word, (source[0], k))
            )
            with pytest.raises(PipelineAssertionError) as exc:
                realize(datum)
            assert str(exc.value) == f"classical relator {labels[0]} could not be certified"
            assert labels[0] == "e1*e2^-1" + "*c1" * bool(periods)

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
        def mutate(pres):
            return replace(pres, generators=tuple((name, CONNECTOR) for name, _ in pres.generators))

        with_rs_presentation(monkeypatch, mutate)
        assert_claim_refused("no Schreier generator reverses orientation")

    def test_area_of_k_patched_off_refuses_the_claim(self, monkeypatch):
        # K is the one signature with a boundary; validation reads only Delta's
        area = pipeline.reduced_area
        monkeypatch.setattr(
            pipeline, "reduced_area", lambda sig: 0 if sig.period_cycles else area(sig)
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
        eta = eta_for(K, derived, GENUS2)
        assert not check_homomorphism(derived.presentation, eta.hom)
        assert eta.torsion_images == GENUS2.x_images and eta.unit == 1
        assert eta.hom.image_of("delta1") % 2 == 1
        assert [
            eta.hom.target.element_order(eta.hom.evaluate(w))
            for w, _ in derived.presentation.torsion_words
        ] == [2, 2, 2]
        assert eta.hom.is_surjective()

    def test_gamma4_instance(self):
        K, derived = derived_for(4, ())
        eta = eta_for(K, derived, GAMMA4)
        assert not check_homomorphism(derived.presentation, eta.hom)
        assert eta.hom.is_surjective()
        for j in range(1, 5):
            assert eta.hom.image_of(f"delta{j}") % 2 == 1

    def test_deterministic(self):
        K, derived = derived_for(1, (2, 2, 2))
        first = eta_for(K, derived, GENUS2)
        second = eta_for(K, derived, GENUS2)
        assert first.hom.images == second.hom.images

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

    def test_tampered_theta_yields_no_eta(self):
        K, derived = derived_for(1, (2, 2, 2))
        ext = extend_to_dihedral(K, GENUS2)
        target = ext.hom.target
        tampered_images = dict(ext.hom.images) | {
            "x1": mul(target, ext.hom.image_of("x1"), rotation(target, 1))
        }
        tampered = replace(ext, hom=FiniteHom.from_dict(K, target, tampered_images))
        with pytest.raises(PipelineAssertionError, match="orientation mismatch"):
            construct_eta(derived, tampered, GENUS2)


def test_closed_form_on_every_small_epimorphism(closure):
    checked = []
    for gamma, periods, order in admissible_shapes(3, 3, 8):
        K, derived = derived_for(gamma, periods)
        dihedral = DihedralGroup(order)
        for d_images, x_images in enumerate_smooth_epimorphisms(
            gamma, periods, order
        ).tuples:
            datum = ActionDatum(gamma, periods, order // 2, d_images, x_images)
            ext = extend_to_dihedral(K, datum)
            eta = construct_eta(derived, ext, datum)
            assert eta.torsion_images == x_images
            assert eta.unit == 1
            assert ext.hom.image_of("tau1") == dihedral.reflection(0)
            assert not check_homomorphism(K, ext.hom)
            images = [v for _, v in ext.hom.images]
            assert ext.image_order == len(closure(dihedral, images)) == 2 * order
            for gen in derived.subgroup.generators:
                assert ext.hom.evaluate(gen.word) == rotation(
                    dihedral, eta.hom.image_of(gen.name)
                )
            for name, image in ext.hom.images:
                assert image == theta_through_eta(derived, eta, name)
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
            (cert.extension.hom, K, schreier),
            (cert.eta.hom, derived, []),
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

    def test_witness_rows_not_summing_to_the_connector_product_is_an_assertion(
        self, monkeypatch
    ):
        # a rewriting map that appends tau1sq to every walk from coset 1,
        # with the garbled row listed as a relator: the rows then sum to
        # f1*f2*tau1sq
        _, derived = derived_for(1, (2, 2, 2))
        tau1sq = Word.gen("tau1sq")
        relators = derived.presentation.relators + (parse_word("delta1 f1 tau1sq"),)
        broken = with_presentation(derived, replace(derived.presentation, relators=relators))
        original = SchreierSubgroup.rewrite
        monkeypatch.setattr(
            SchreierSubgroup, "rewrite",
            lambda self, w, coset=0: original(self, w, coset) * (tau1sq if coset else Word()),
        )
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
        # a reducer that reduces nothing leaves tau1*delta1*tau1*delta1 non-empty
        _, derived = derived_for(1, (2, 2, 2))
        monkeypatch.setattr(pipeline, "cyclic_reduce_letters", lambda letters, involutions=(): letters)
        with pytest.raises(
            PipelineAssertionError,
            match="conjugation identity for delta1 could not be certified",
        ):
            lemma1_check(derived)

    def test_conjugate_leaving_the_kernel_is_an_assertion(self):
        # delta1 = x1 is not in the kernel, and tau1*x1*tau1*x1 is not 1 in K
        _, derived = derived_for(1, (2, 2, 2))
        broken = with_generator_word(derived, "delta1", Word.gen("x1"))
        with pytest.raises(
            PipelineAssertionError,
            match=r"conjugation identity for delta1 could not be certified:"
            r" tau1\*delta1\*tau1\*delta1 does not reduce",
        ):
            lemma1_check(broken)

    @pytest.mark.parametrize("gamma, periods", [(1, (2, 2, 2)), (2, (3,))])
    def test_corrupt_connector_word_is_an_assertion(self, gamma, periods):
        # give the second connector the first one's word: tau1 no longer
        # swaps the pair, so tau1*a*tau1*b^-1 does not reduce to 1
        _, derived = derived_for(gamma, periods)
        a, b = lemma1_check(derived).connector_pair
        words = {g.name: g.word for g in derived.subgroup.generators}
        broken = with_generator_word(derived, b, words[a])
        with pytest.raises(
            PipelineAssertionError,
            match=f"conjugation identity for {a} could not be certified:"
            rf" tau1\*{a}\*tau1\*{b}\^-1 does not reduce",
        ):
            lemma1_check(broken)


class TestExtendToDihedral:
    def test_genus2_extension(self, closure):
        K, derived = derived_for(1, (2, 2, 2))
        ext = extend_to_dihedral(K, GENUS2)
        eta = construct_eta(derived, ext, GENUS2)
        images = [v for _, v in ext.hom.images]
        assert len(closure(ext.hom.target, images)) == ext.hom.target.order == 8
        for gen in derived.subgroup.generators:
            assert ext.hom.evaluate(gen.word) == rotation(
                ext.hom.target, eta.hom.image_of(gen.name)
            )
        assert ext.image_order == 8
        assert ext.kernel_index == 8
        assert not check_homomorphism(K, ext.hom)
        flip, rot = ext.hom.image_of("tau1")
        assert flip == 1 and rot == ext.reflection_rotation

    def test_relator_not_mapped_to_one_is_an_assertion(self):
        # x_1 = 1 is odd: Theta(tau2) = t*s, and the connector relator
        # e^-1*tau4*e*tau1^-1 maps to s^3
        K = disc_group(1, (2, 2, 2))
        with pytest.raises(
            PipelineAssertionError,
            match=r"^Theta is not a homomorphism: relator e\^-1\*tau4\*e\*tau1\^-1 maps to s\^3$",
        ):
            extend_to_dihedral(K, ActionDatum(1, (2, 2, 2), 2, (1,), (1, 2, 2)))

    def test_image_of_the_wrong_order_is_an_assertion(self):
        # every reflection image has an even rotation, so the relators hold
        # but the image is D_8's index-2 subgroup of order 8
        K = disc_group(1, (2, 2, 2))
        with pytest.raises(
            PipelineAssertionError, match="^Theta image has order 8, expected 4n = 16$"
        ):
            extend_to_dihedral(K, ActionDatum(1, (2, 2, 2), 4, (2,), (4, 4, 4)))

    def test_gamma4_extension_index8(self):
        K, _ = derived_for(4, ())
        ext = extend_to_dihedral(K, GAMMA4)
        assert ext.kernel_index == 8

    def test_restriction_agrees_with_eta(self):
        K, derived = derived_for(2, (3,))
        datum = first_smooth_epimorphism(2, (3,), 12)
        ext = extend_to_dihedral(K, datum)
        eta = construct_eta(derived, ext, datum)
        for gen in derived.subgroup.generators:
            flip, rot = ext.hom.evaluate(gen.word)
            assert flip == 0
            assert rot == eta.hom.image_of(gen.name)

    def test_extension_agrees_with_eta_on_arbitrary_kernel_words(self):
        K, derived = derived_for(2, (2, 6))
        datum = first_smooth_epimorphism(2, (2, 6), 12)
        ext = extend_to_dihedral(K, datum)
        eta = construct_eta(derived, ext, datum)
        for text in (
            "tau1 x1 tau2 x2",
            "e tau1 x1 tau3 tau2 x2 e^-1 x1 tau1",
            "x2 tau3 x2 tau3",
        ):
            w = parse_word(text)
            if build_theta(K).evaluate(w) != 0:
                continue
            flip, rot = ext.hom.evaluate(w)
            assert flip == 0
            assert rot == eta.hom.evaluate(derived.subgroup.rewrite(w))

    def test_eta_coset_table_has_four_cosets(self):
        K, derived = derived_for(1, (2, 2, 2))
        eta = eta_for(K, derived, GENUS2)
        table = cayley_coset_table(eta.hom)
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
        area = pipeline.reduced_area
        monkeypatch.setattr(
            pipeline,
            "reduced_area",
            lambda sig: area(sig) * (1 if sig.period_cycles else Fraction(3, 2)),
        )
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

    def test_genus_disagreement_is_an_assertion(self, monkeypatch):
        # validation computes the genus from Delta's signature; only the
        # genus realize reads off K (the one signature with a boundary) is off
        genus = pipeline.surface_kernel_genus
        monkeypatch.setattr(
            pipeline,
            "surface_kernel_genus",
            lambda sig, order: genus(sig, order) + (1 if sig.period_cycles else 0),
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
        assert pipeline.SHAPE_MEMO_SIZE == 16
        assert pipeline.shape_certificate.cache_info().maxsize == 16

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

    def test_invalid_input_never_reaches_the_memo(self):
        realize(GENUS2)
        before = pipeline.shape_certificate.cache_info()
        for bad in (ActionDatum(1, (2, 4), 2, (1,), (2, 2)),  # a period that exceeds n
                    ActionDatum(1, (2, 2, 2), 2, (1,), (2, 2, 0))):  # a torsion collapse
            with pytest.raises(ActionValidationError):
                realize(bad)
        assert pipeline.shape_certificate.cache_info() == before
        assert before.currsize == 1


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
        # every candidate tried costs one gcd; the walk has at most
        # gamma * 8 * tau(8) states, each trying the 4 odd residues, where
        # a walk without the memo would try about 4^gamma
        bound = gamma * 8 * 4 * 4
        tried = 0

        def gcd(*args):
            nonlocal tried
            tried += 1
            if tried > bound:
                raise AssertionError(f"more than {bound} candidates tried")
            return math.gcd(*args)

        monkeypatch.setattr(pipeline, "math", SimpleNamespace(gcd=gcd))
        assert first_smooth_epimorphism(gamma, (), 8) is None
        assert tried > 0

    def test_deep_infeasible_walk_needs_no_recursion(self):
        # odd gamma at 2n = 4: the walk backtracks through all 2001 letters
        assert first_smooth_epimorphism(2001, (), 4) is None


def test_battery_subsample_round_trip(action_battery):
    # spot-check here; the full sweep runs in the acceptance module
    for datum in action_battery[::13]:
        cert = realize(datum)
        assert cert.conclusion
        assert cert.derived.report.signature == NECSignature(
            False, datum.gamma, tuple(sorted(datum.periods))
        )
