"""The realization certificate as one JSON document.

``render(cert, input_doc)`` is the only code that reads a
``RealizationCertificate`` for output: it returns the line that ``necsurf
--format json realize`` prints, the document with sorted keys and
``input_doc`` echoed as its ``input``.  The shape's first document
encodes the twelve keys that the shape (gamma; -; [n_1..n_r]) alone
fixes and keeps that text on the ``ShapeCertificate``, which the shape
memo evicts with it; each call encodes only the six keys that read rho or
the input, and the literal ``genus_match``, and splices them in.  ``document(cert, input_doc)`` is that
line parsed, fresh on every call.  Every other view reads that dict
alone: ``text`` renders the human-readable certificate, ``lemma_report``
projects the ``check-lemma`` document and ``lemma_text`` renders that.
Images are listed in the generator order of the document's
presentations, so the document reloaded from that JSON renders the same
bytes.

``realize`` raises at the first check that fails, so these keys are
literals: ``signature_match``, ``genus_match``, ``conclusion``, the
``lemma1`` ``connector_product_zero`` and ``conjugation_*_ok`` keys, the
``eta`` and ``theta_extension`` checks and check-lemma's ``inverted`` and
``certified`` are ``true``, ``area_ratio`` is ``"2"``, ``eta``'s ``unit``
is 1, ``theta_extension``'s ``reflection_rotation`` is 0 and its
``kernel_index`` is ``image_order``, ``genus_real`` is ``genus`` and
``connector_product_class`` is 0 for each derived generator (the
odd-gamma text still calls it "(recorded)", so that its output stays
byte-identical).  ``theta``'s ``connector_exponent`` is read off theta;
``printed_connector_valid`` and ``gamma_even`` say it is 0, and K's first
reflection is read off ``k_presentation``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain

from .pipeline import RealizationCertificate
from .presentations import Presentation
from .signatures import NECSignature

# The document's keys in sorted order, in runs: the shape's at even positions,
# each call's at odd ones (genus_match, a literal, joins genus and genus_real)
_RUNS = (
    ("area_ratio", "conclusion", "correspondence", "delta_hat_presentation",
     "delta_hat_signature"),
    ("eta", "genus", "genus_match", "genus_real", "input"),
    ("k_presentation", "k_signature", "lemma1", "printed_relator_checks", "quotient_signature"),
    ("rho_resolved",), ("signature_match", "theta"), ("theta_extension",))
# the document is a tree, so the encoder skips json.dumps' cycle check
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _signature(sig: NECSignature) -> dict:
    return {
        "sign": sig.sign,
        "genus": sig.genus,
        "proper_periods": list(sig.proper_periods),
        "period_cycles": [list(c) for c in sig.period_cycles],
        "display": sig.display(),
    }


def _presentation(p: Presentation) -> dict:
    return {
        "generators": [
            {"name": g, "kind": k.kind, "order": k.order} for g, k in p.generators
        ],
        "relators": [str(r) for r in p.relators],
    }


def _images(hom) -> dict:
    return {name: hom.target.format(value) for name, value in hom.images}


def _shape_keys(cert: RealizationCertificate) -> dict:
    """The keys of ``cert``'s document that its shape alone fixes."""
    shape, lemma = cert.shape, cert.shape.lemma
    (connector,) = shape.k_presentation.generators_of_kind("connector")
    connector_exponent = shape.theta.image_of(connector)
    return {
        "quotient_signature": _signature(cert.datum.delta_signature()),
        "k_signature": _signature(shape.k_presentation.signature),
        "k_presentation": _presentation(shape.k_presentation),
        "theta": {
            "images": _images(shape.theta),
            "connector_exponent": connector_exponent,
            "printed_connector_valid": connector_exponent == 0,
        },
        "area_ratio": "2",
        "delta_hat_signature": _signature(shape.derived.signature),
        "delta_hat_presentation": _presentation(shape.derived.presentation),
        "correspondence": [
            {"name": g.name, "role": g.role, "word": str(g.word)}
            for g in shape.derived.subgroup.generators
        ],
        "signature_match": True,
        "printed_relator_checks": [
            {"relator": label, "status": status}
            for label, status in shape.derived.printed_checks
        ],
        "lemma1": {
            "gamma_even": connector_exponent == 0,
            "connector_pair": list(lemma.connector_pair),
            "connector_product_class": [0] * len(shape.derived.subgroup.generators),
            "connector_product_zero": True,
            "conjugation_inversion_ok": True,
            "conjugation_certificates_ok": True,
            "abelianization": {
                "invariant_factors": list(lemma.invariant_factors),
                "free_rank": lemma.free_rank,
            },
        },
        "conclusion": True,
    }


def _rho_keys(cert: RealizationCertificate, input_doc: dict) -> dict:
    """The keys of ``cert``'s document that each call encodes."""
    datum = cert.datum
    return {
        "input": input_doc,
        "rho_resolved": {"d": list(datum.d_images), "x": list(datum.x_images)},
        "genus": cert.genus,
        "eta": {
            "images": _images(cert.eta.hom),
            "unit": 1,
            "torsion_images": list(cert.eta.torsion_images),
            "surjective": True, "parity_ok": True, "torsion_ok": True, "branch_match": True,
        },
        "theta_extension": {
            "images": _images(cert.extension.hom),
            "reflection_rotation": 0,
            "surjective": True, "restriction_agrees": True,
            "image_order": cert.extension.image_order,
            "kernel_index": cert.extension.image_order,
        },
        "genus_real": cert.genus,
        "genus_match": True,
    }


def _encoded(keys: dict, runs: tuple[tuple[str, ...], ...]) -> Iterator[str]:
    """Each run of ``keys`` as JSON text, the object's braces cut off."""
    return (_encode({key: keys[key] for key in run})[1:-1] for run in runs)


def render(cert: RealizationCertificate, input_doc: dict) -> str:
    """The certificate of one realization, with ``input_doc`` echoed as
    its ``input``, as ``json.dumps`` with sorted keys prints it, and a
    newline: the shape's runs, kept by its first document, spliced with
    this call's."""
    shape_runs = cert.shape.json_runs or cert.shape._keep(
        "json_runs", tuple(_encoded(_shape_keys(cert), _RUNS[::2])))
    rho_runs = _encoded(_rho_keys(cert, input_doc), _RUNS[1::2])
    return "{" + ", ".join(chain.from_iterable(zip(shape_runs, rho_runs))) + "}\n"


def document(cert: RealizationCertificate, input_doc: dict) -> dict:
    """``render(cert, input_doc)``, parsed."""
    return json.loads(render(cert, input_doc))


def _first_reflection(presentation: dict) -> str:
    return next(g["name"] for g in presentation["generators"] if g["kind"] == "reflection")


def _image_list(images: dict, presentation: dict) -> str:
    return ", ".join(
        f"{g['name']} -> {images[g['name']]}" for g in presentation["generators"]
    )


def text(doc: dict) -> str:
    """The text certificate of ``document``'s dict."""
    gamma, periods, n = (doc["input"][key] for key in ("gamma", "periods", "n"))
    rho = doc["rho_resolved"]
    k_pres = doc["k_presentation"]
    lemma = doc["lemma1"]
    pair = "*".join(lemma["connector_pair"])
    ext = doc["theta_extension"]
    lines = [
        f"action input: gamma={gamma} periods={periods} order={2 * n} (n={n})",
        f"rho: d -> {rho['d']}, x -> {rho['x']}",
        f"genus of the acted-on surface: g = {doc['genus']}",
        f"quotient signature: {doc['quotient_signature']['display']}",
        f"bordered group K: signature {doc['k_signature']['display']}",
        "  generators: " + " ".join(g["name"] for g in k_pres["generators"]),
        "  relators: " + ", ".join(k_pres["relators"]),
        f"theta: K -> C2 with connector -> a^{doc['theta']['connector_exponent']};"
        " homomorphism: PASS",
        "  naive connector image (e -> 1) valid: "
        + ("yes" if doc["theta"]["printed_connector_valid"]
           else "no (long relator fails; parity fix applied)"),
        "area ratio [Dhat : K-area] = 2: PASS",
        "derived kernel generators:",
        *(f"  {g['name']} = {g['word']}  ({g['role']})" for g in doc["correspondence"]),
        f"Δ̂ signature {doc['delta_hat_signature']['display']} matches"
        " (γ;−;[n₁..n_r]): PASS",
        *(f"  classical relator {check['relator']}: {check['status']}"
          for check in doc["printed_relator_checks"]),
        f"connector product {pair} abelianized class zero: PASS" if lemma["gamma_even"]
        else f"connector product {pair} abelianized class:"
        f" {lemma['connector_product_class']} (recorded)",
        f"conjugation by {_first_reflection(k_pres)} inverts every generator class: PASS"
        f" ({len(doc['correspondence'])} generators)",
        "conjugation identities certified: PASS",
        "eta images: " + _image_list(doc["eta"]["images"], doc["delta_hat_presentation"]),
        "  surjective: PASS; torsion orders: PASS; parity: PASS;"
        f" branch match (exact, unit u={doc['eta']['unit']}): PASS",
        f"Theta images in D{2 * n}: " + _image_list(ext["images"], k_pres),
        f"  homomorphism: PASS; surjective (|image| = {ext['image_order']} = 4n):"
        " PASS; restriction to kernel = eta: PASS",
        f"  kernel index in K: {ext['kernel_index']}",
        f"genus of the real surface: {doc['genus_real']}; matches g: PASS",
        "conclusion: REALIZED",
    ]
    return "\n".join(lines) + "\n"


def lemma_report(doc: dict) -> dict:
    """The ``check-lemma`` document: the input and the lemma, with one
    inversion entry per derived kernel generator, and the identity
    τ₁*g*τ₁*g certified for each glide and corner rotation g, τ₁ the first
    reflection of the document's K."""
    lemma = {
        key: value for key, value in doc["lemma1"].items()
        if key not in ("conjugation_inversion_ok", "conjugation_certificates_ok")
    }
    gens = doc["correspondence"]
    t = _first_reflection(doc["k_presentation"])
    lemma["conjugation_inversion"] = [
        {"generator": g["name"], "inverted": True} for g in gens
    ]
    lemma["conjugation_certificates"] = [
        {"identity": f"{t}*{g['name']}*{t}*{g['name']}", "certified": True}
        for g in gens if g["role"] in ("glide", "corner rotation")
    ]
    return {"input": doc["input"], "lemma1": lemma}


def lemma_text(report: dict) -> str:
    """The text of ``lemma_report``'s dict."""
    lemma = report["lemma1"]
    ab = lemma["abelianization"]
    lines = [
        f"kernel abelianization: invariant factors {ab['invariant_factors']},"
        f" free rank {ab['free_rank']}",
        f"connector product {'*'.join(lemma['connector_pair'])} class zero: PASS"
        if lemma["gamma_even"]
        else f"connector product class: {lemma['connector_product_class']} (recorded)",
        f"conjugation inversion: PASS ({len(lemma['conjugation_inversion'])} generators)",
        "conjugation certificates: PASS",
    ]
    return "\n".join(lines) + "\n"
