"""The realization certificate as one document.

``document(cert, input_doc)`` is the only code that reads a
``RealizationCertificate`` for output; it returns the dict that
``necsurf --format json realize`` prints on one line with sorted keys,
which ``json.loads`` gives back unchanged.  Every other view reads that
dict alone: ``text`` renders the human-readable certificate,
``lemma_report`` projects the ``check-lemma`` document and ``lemma_text``
renders that.  Images are listed in the generator order of the
document's presentations, so the document reloaded from that JSON renders
the same bytes.

``realize`` raises at the first check that fails, so these keys are
literals: ``signature_match``, ``genus_match``, the ``lemma1``
``conjugation_*_ok`` keys, the ``eta`` and ``theta_extension`` checks and
check-lemma's ``inverted`` and ``certified`` are ``true``, ``area_ratio``
is ``"2"``, ``genus_real`` is ``genus`` and ``connector_product_class`` is
0 for each derived generator (the odd-gamma text still calls it
"(recorded)", so that its output stays byte-identical).  ``theta``'s
``connector_exponent`` is read off theta; ``printed_connector_valid`` and
``gamma_even`` say it is 0, and K's first reflection is read off
``k_presentation``.
"""

from __future__ import annotations

from .pipeline import RealizationCertificate
from .presentations import Presentation
from .signatures import NECSignature


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


def document(cert: RealizationCertificate, input_doc: dict) -> dict:
    """The certificate of one realization, with ``input_doc`` echoed as
    its ``input``."""
    datum = cert.datum
    lemma = cert.lemma
    (connector,) = cert.k_presentation.generators_of_kind("connector")
    connector_exponent = cert.theta.image_of(connector)
    return {
        "input": input_doc,
        "rho_resolved": {"d": list(datum.d_images), "x": list(datum.x_images)},
        "genus": cert.genus,
        "quotient_signature": _signature(datum.delta_signature()),
        "k_signature": _signature(cert.k_presentation.signature),
        "k_presentation": _presentation(cert.k_presentation),
        "theta": {
            "images": _images(cert.theta),
            "connector_exponent": connector_exponent,
            "printed_connector_valid": connector_exponent == 0,
        },
        "area_ratio": "2",
        "delta_hat_signature": _signature(cert.derived.report.signature),
        "delta_hat_presentation": _presentation(cert.derived.presentation),
        "correspondence": [
            {"name": g.name, "role": g.role, "word": str(g.word)}
            for g in cert.derived.subgroup.generators
        ],
        "signature_match": True,
        "printed_relator_checks": [
            {"relator": label, "status": rc.status}
            for label, rc in cert.derived.printed_checks
        ],
        "lemma1": {
            "gamma_even": connector_exponent == 0,
            "connector_pair": list(lemma.connector_pair),
            "connector_product_class": [0] * len(cert.derived.subgroup.generators),
            "connector_product_zero": lemma.connector_product_zero,
            "conjugation_inversion_ok": True,
            "conjugation_certificates_ok": True,
            "abelianization": {
                "invariant_factors": list(lemma.invariant_factors),
                "free_rank": lemma.free_rank,
            },
        },
        "eta": {
            "images": _images(cert.eta.hom),
            "unit": cert.eta.unit,
            "torsion_images": list(cert.eta.torsion_images),
            "surjective": True,
            "parity_ok": True,
            "torsion_ok": True,
            "branch_match": True,
        },
        "theta_extension": {
            "images": _images(cert.extension.hom),
            "reflection_rotation": cert.extension.reflection_rotation,
            "surjective": True,
            "restriction_agrees": True,
            "image_order": cert.extension.image_order,
            "kernel_index": cert.extension.kernel_index,
        },
        "genus_real": cert.genus,
        "genus_match": True,
        "conclusion": cert.conclusion,
    }


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
