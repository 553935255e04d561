"""The realization certificate as one JSON document.

``render(cert, input_doc)`` is the only code that reads a
``RealizationCertificate`` for output: it returns the line that ``necsurf
--format json realize`` prints, the document with sorted keys and
``input_doc`` echoed as its ``input``.  The shape's first document
encodes the twelve keys that the shape (gamma; -; [n_1..n_r]) alone
fixes and keeps that text on the ``ShapeCertificate``, which the shape
memo evicts with it, beside eta's and Theta's image maps: their JSON
keys in sorted order, each value a format field of its generator's index.
Each call fills the six keys that read rho or the input, and the literal
``genus_match``, into templates (``_RHO_RUNS``): eta's and Theta's
integer tuples, in generator order, fill the kept maps, so no name is
sorted or encoded per call.  ``document(cert, input_doc)`` is that line
parsed, fresh on every call.  Every other view reads that dict alone:
``text`` renders the human-readable certificate, ``lemma_report``
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
from itertools import chain, count

from .groups import DihedralGroup
from .pipeline import RealizationCertificate
from .presentations import Presentation, connector_name
from .signatures import NECSignature

# The document's keys in sorted order, in runs: the shape's, each followed
# by one of each call's (genus_match, a literal, joins genus and genus_real)
_SHAPE_RUNS = (
    ("area_ratio", "conclusion", "correspondence", "delta_hat_presentation",
     "delta_hat_signature"),
    ("k_presentation", "k_signature", "lemma1", "printed_relator_checks", "quotient_signature"),
    ("signature_match", "theta"))
# each call's runs, the literals of eta and theta_extension spelled out:
# {0} eta's images, {1} its torsion images, {2} the genus, {3} the input,
# {4} rho's images, {5} Theta's images and {6} its image order
_RHO_RUNS = (
    '"eta": {{"branch_match": true, "images": {0}, "parity_ok": true, "surjective": true,'
    ' "torsion_images": {1}, "torsion_ok": true, "unit": 1}}, "genus": {2},'
    ' "genus_match": true, "genus_real": {2}, "input": {3}',
    '"rho_resolved": {4}',
    '"theta_extension": {{"image_order": {6}, "images": {5}, "kernel_index": {6},'
    ' "reflection_rotation": 0, "restriction_agrees": true, "surjective": true}}')
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


def _image_map(p: Presentation) -> str:
    """The JSON object of strings that maps each generator of ``p``, in
    sorted order, to the ``str.format`` field of its index (the names hold
    no brace)."""
    items = (f'{_encode(g)}: "{{{i}}}"' for g, i in sorted(zip(p.generator_names(), count())))
    return "{{" + ", ".join(items) + "}}"


def _shape_keys(cert: RealizationCertificate) -> dict:
    """The keys of ``cert``'s document that its shape alone fixes."""
    shape, lemma = cert.shape, cert.shape.lemma
    connector_exponent = shape.theta.image_of(connector_name(shape.k_presentation))
    return {
        "quotient_signature": _signature(cert.datum.delta_signature()),
        "k_signature": _signature(shape.k_presentation.signature),
        "k_presentation": _presentation(shape.k_presentation),
        "theta": {
            "images": {name: str(bit) for name, bit in shape.theta.images},
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


def _shape_runs(cert: RealizationCertificate) -> tuple:
    """The shape's runs of the document, eta's and Theta's image maps
    (``_image_map``) and theta's images, the flips of Theta's."""
    shape = cert.shape
    return (tuple(_encoded(_shape_keys(cert), _SHAPE_RUNS)),
            _image_map(shape.derived.presentation), _image_map(shape.k_presentation),
            tuple(bit for _, bit in shape.theta.images))


def _encoded(keys: dict, runs: tuple[tuple[str, ...], ...]) -> Iterator[str]:
    """Each run of ``keys`` as JSON text, the object's braces cut off."""
    return (_encode({key: keys[key] for key in run})[1:-1] for run in runs)


def render(cert: RealizationCertificate, input_doc: dict) -> str:
    """The certificate of one realization, with ``input_doc`` echoed as
    its ``input``, as ``json.dumps`` with sorted keys prints it, and a
    newline: the shape's runs, kept by its first document, spliced with
    this call's, which fill Theta's and eta's tuples into the shape's
    kept image maps."""
    shape, datum, extension = cert.shape, cert.datum, cert.extension
    runs, eta_map, theta_map, flips = shape.json_runs or shape._keep(
        "json_runs", _shape_runs(cert))
    theta = map(DihedralGroup(datum.order).format, zip(flips, extension.rotations))
    values = (eta_map.format(*cert.eta.images), _encode(list(cert.eta.torsion_images)),
              cert.genus, _encode(input_doc),
              _encode({"d": list(datum.d_images), "x": list(datum.x_images)}),
              theta_map.format(*theta), extension.image_order)
    rho_runs = (run.format(*values) for run in _RHO_RUNS)
    return "{" + ", ".join(chain.from_iterable(zip(runs, rho_runs))) + "}\n"


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
