"""Command-line front end.

Subcommands:

* ``realize <file>``     -- run the full pipeline on a JSON action datum
  and print (or write) the certificate;
* ``enumerate --gamma G --periods LIST --order 2N`` -- list all
  surface-kernel epimorphisms for the given quotient data, or print why
  ``shape_problems`` (or an odd 2N) rejects them, on one line;
* ``check-lemma <file>`` -- run the full pipeline and print only the
  normality-lemma report.

Input file: a JSON object {"gamma": int, "periods": [int..], "n": int,
"rho": {"d": [int..], "x": [int..]} | "search"}.  With "search" the
lexicographically first epimorphism, found by the memoised walk of
``first_smooth_epimorphism``, is used; it rejects a shape with the
itemised ``shape_problems`` reasons that an explicit rho would get.
Residues out of range are reduced mod 2n with a warning (when n >= 1;
otherwise validation rejects n).

Exit codes: 0 success, 1 usage error or input/validation failure with
itemized reasons, 2 internal assertion (a step failing where the
construction guarantees success -- always a bug or unsupported edge).
``realize`` raises ``PipelineAssertionError`` at the first check that
fails, so every verdict printed for a certificate is a literal, and exit 2
comes only from that exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .pipeline import (
    ActionDatum,
    ActionValidationError,
    LemmaReport,
    PipelineAssertionError,
    RealizationCertificate,
    enumerate_smooth_epimorphisms,
    first_smooth_epimorphism,
    realize,
)
from .presentations import Presentation
from .signatures import NECSignature

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2


# ---------------------------------------------------------------------------
# Input documents
# ---------------------------------------------------------------------------

class InputError(ValueError):
    pass


def _require(doc: dict, field: str, kind: type) -> Any:
    if field not in doc:
        raise InputError(f"missing field {field!r}")
    value = doc[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InputError(f"field {field!r} must be an integer, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise InputError(f"field {field!r} must be a list, got {value!r}")
    return value


def _int_list(doc: dict, field: str) -> list[int]:
    values = _require(doc, field, list)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"field {field!r} must contain integers, got {v!r}")
    return values


def parse_input_document(doc: Any) -> dict:
    """Validate field presence and types of an action-input document."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    gamma = _require(doc, "gamma", int)
    periods = _int_list(doc, "periods")
    n = _require(doc, "n", int)
    rho = doc.get("rho", "search")
    if rho != "search":
        if not isinstance(rho, dict):
            raise InputError('field "rho" must be an object {"d": .., "x": ..} or "search"')
        d = _int_list(rho, "d")
        x = _int_list(rho, "x")
        if len(d) != gamma:
            raise InputError(f'field "rho.d" must list {gamma} residues, got {len(d)}')
        if len(x) != len(periods):
            raise InputError(
                f'field "rho.x" must list {len(periods)} residues, got {len(x)}'
            )
        rho = {"d": d, "x": x}
    return {"gamma": gamma, "periods": periods, "n": n, "rho": rho}


def datum_from_document(doc: dict, warn=lambda msg: None) -> ActionDatum:
    """Build the action datum, resolving "search" by
    ``first_smooth_epimorphism``, and warning about residues out of range."""
    gamma, periods, n = doc["gamma"], tuple(doc["periods"]), doc["n"]
    if doc["rho"] == "search":
        datum = first_smooth_epimorphism(gamma, periods, 2 * n)
        if datum is None:
            raise ActionValidationError(
                (f"no surface-kernel epimorphism exists for gamma={gamma},"
                 f" periods={list(periods)}, order={2 * n}",)
            )
        return datum
    if n >= 1:  # ActionDatum reduces the residues; n < 1 is left for validation
        two_n = 2 * n
        for field in ("d", "x"):
            for i, v in enumerate(doc["rho"][field], start=1):
                if not 0 <= v < two_n:
                    warn(f"warning: rho.{field}[{i}] = {v} reduced mod {two_n}"
                         f" to {v % two_n}")
    return ActionDatum(gamma, periods, n, doc["rho"]["d"], doc["rho"]["x"])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _signature_json(sig: NECSignature) -> dict:
    return {
        "sign": sig.sign,
        "genus": sig.genus,
        "proper_periods": list(sig.proper_periods),
        "period_cycles": [list(c) for c in sig.period_cycles],
        "display": sig.display(),
    }


def _presentation_json(p: Presentation) -> dict:
    return {
        "generators": [
            {"name": g, "kind": k.kind, "order": k.order} for g, k in p.generators
        ],
        "relators": [str(r) for r in p.relators],
    }


def _hom_images_json(hom) -> dict:
    return {name: str(value) for name, value in hom.images}


def _lemma_json(lemma: LemmaReport, **conjugation) -> dict:
    """The ``lemma1`` keys that ``realize`` and ``check-lemma`` share; each
    command adds its own conjugation keys."""
    return {
        "gamma_even": lemma.gamma_even,
        "connector_pair": list(lemma.connector_pair),
        "connector_product_class": list(lemma.connector_product_class),
        "connector_product_zero": lemma.connector_product_zero,
        **conjugation,
        "abelianization": {
            "invariant_factors": list(lemma.invariant_factors),
            "free_rank": lemma.free_rank,
        },
    }


def certificate_json(cert: RealizationCertificate, input_doc: dict) -> dict:
    datum = cert.datum
    # realize raises if any check fails, so these keys are literal, as are
    # check-lemma's inverted and certified: signature_match, genus_match,
    # conjugation_inversion_ok, conjugation_certificates_ok and eta's and
    # theta_extension's checks are true, area_ratio is "2", genus_real = genus.
    return {
        "input": input_doc,
        "rho_resolved": {"d": list(datum.d_images), "x": list(datum.x_images)},
        "genus": cert.genus,
        "quotient_signature": _signature_json(datum.delta_signature()),
        "k_signature": _signature_json(cert.k_presentation.signature),
        "k_presentation": _presentation_json(cert.k_presentation),
        "theta": {
            "images": _hom_images_json(cert.theta),
            "connector_exponent": datum.gamma % 2,
            "printed_connector_valid": datum.gamma % 2 == 0,
        },
        "area_ratio": "2",
        "delta_hat_signature": _signature_json(cert.derived.report.signature),
        "delta_hat_presentation": _presentation_json(cert.derived.presentation),
        "correspondence": [
            {"name": g.name, "role": g.role, "word": str(g.word)}
            for g in cert.derived.subgroup.generators
        ],
        "signature_match": True,
        "printed_relator_checks": [
            {"relator": label, "status": rc.status}
            for label, rc in cert.derived.printed_checks
        ],
        "lemma1": _lemma_json(
            cert.lemma, conjugation_inversion_ok=True, conjugation_certificates_ok=True
        ),
        "eta": {
            "images": _hom_images_json(cert.eta.hom),
            "unit": cert.eta.unit,
            "torsion_images": list(cert.eta.torsion_images),
            "surjective": True,
            "parity_ok": True,
            "torsion_ok": True,
            "branch_match": True,
        },
        "theta_extension": {
            "images": _hom_images_json(cert.extension.hom),
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


def certificate_text(cert: RealizationCertificate) -> str:
    datum = cert.datum
    lines = []
    lines.append(
        f"action input: gamma={datum.gamma} periods={list(datum.periods)}"
        f" order={datum.order} (n={datum.n})"
    )
    lines.append(
        f"rho: d -> {list(datum.d_images)}, x -> {list(datum.x_images)}"
    )
    lines.append(f"genus of the acted-on surface: g = {cert.genus}")
    lines.append(f"quotient signature: {datum.delta_signature()}")
    lines.append(f"bordered group K: signature {cert.k_presentation.signature}")
    lines.append(
        "  generators: " + " ".join(g for g, _ in cert.k_presentation.generators)
    )
    lines.append(
        "  relators: " + ", ".join(str(r) for r in cert.k_presentation.relators)
    )
    lines.append(
        f"theta: K -> C2 with connector -> a^{datum.gamma % 2}; homomorphism: PASS"
    )
    lines.append(
        "  naive connector image (e -> 1) valid: "
        + ("no (long relator fails; parity fix applied)" if datum.gamma % 2 else "yes")
    )
    lines.append("area ratio [Dhat : K-area] = 2: PASS")
    lines.append("derived kernel generators:")
    for g in cert.derived.subgroup.generators:
        lines.append(f"  {g.name} = {g.word}  ({g.role})")
    sig_display = cert.derived.report.signature.display()
    lines.append(
        f"Δ̂ signature {sig_display} matches"
        " (γ;−;[n₁..n_r]): PASS"
    )
    for label, rc in cert.derived.printed_checks:
        lines.append(f"  classical relator {label}: {rc.status}")
    lemma = cert.lemma
    if lemma.gamma_even:
        lines.append(
            f"connector product {lemma.connector_pair[0]}*{lemma.connector_pair[1]}"
            " abelianized class zero: PASS"
        )
    else:
        lines.append(
            f"connector product {lemma.connector_pair[0]}*{lemma.connector_pair[1]}"
            f" abelianized class: {list(lemma.connector_product_class)} (recorded)"
        )
    lines.append(
        "conjugation by tau1 inverts every generator class: PASS"
        f" ({len(lemma.inversion_entries)} generators)"
    )
    lines.append("conjugation identities certified: PASS")
    eta = cert.eta
    lines.append(
        "eta images: "
        + ", ".join(f"{name} -> {value}" for name, value in eta.hom.images)
    )
    lines.append(
        "  surjective: PASS; torsion orders: PASS; parity: PASS;"
        f" branch match (exact, unit u={eta.unit}): PASS"
    )
    ext = cert.extension
    lines.append(
        "Theta images in D" + str(ext.hom.target.modulus) + ": "
        + ", ".join(f"{name} -> {value}" for name, value in ext.hom.images)
    )
    lines.append(
        f"  homomorphism: PASS; surjective (|image| = {ext.image_order} = 4n):"
        " PASS; restriction to kernel = eta: PASS"
    )
    lines.append(f"  kernel index in K: {ext.kernel_index}")
    lines.append(f"genus of the real surface: {cert.genus}; matches g: PASS")
    lines.append("conclusion: REALIZED")
    return "\n".join(lines) + "\n"


def validation_failure_json(input_doc: dict | None, reasons: tuple[str, ...]) -> dict:
    return {"input": input_doc, "errors": list(reasons)}


def validation_failure_text(reasons: tuple[str, ...]) -> str:
    lines = ["input validation failed:"]
    lines += [f"  - {reason}" for reason in reasons]
    return "\n".join(lines) + "\n"


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output file {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot parse input file {path!r}: {exc}")
    return parse_input_document(raw)


def _realize_document(
    args: argparse.Namespace,
) -> tuple[dict, RealizationCertificate | None]:
    """Load the input file, resolve rho and run the pipeline once.  On
    invalid input (a "search" that finds no epimorphism included) the
    itemised failure is emitted in the chosen format and the result is
    ``(doc, None)``."""
    doc = _load_document(args.file)
    try:
        datum = datum_from_document(doc, warn=lambda msg: print(msg, file=sys.stderr))
        return doc, realize(datum)
    except ActionValidationError as exc:
        if args.format == "json":
            _emit(render_json(validation_failure_json(doc, exc.reasons)), args.out)
        else:
            _emit(validation_failure_text(exc.reasons), args.out)
        return doc, None


def _cmd_realize(args: argparse.Namespace) -> int:
    doc, cert = _realize_document(args)
    if cert is None:
        return EXIT_INVALID
    if args.format == "json":
        _emit(render_json(certificate_json(cert, doc)), args.out)
    else:
        _emit(certificate_text(cert), args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        periods = tuple(int(tok) for tok in args.periods.replace(",", " ").split())
        result = enumerate_smooth_epimorphisms(args.gamma, periods, args.order)
    except ValueError as exc:
        print(f"invalid enumeration request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "json":
        doc = {
            "gamma": args.gamma,
            "periods": list(periods),
            "order": args.order,
            "count": result.count,
            "epimorphisms": [
                {"d": list(d), "x": list(x)} for d, x in result.tuples
            ],
        }
        _emit(render_json(doc), args.out)
    else:
        lines = [f"count: {result.count}"]
        lines += [f"d={list(d)} x={list(x)}" for d, x in result.tuples]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_check_lemma(args: argparse.Namespace) -> int:
    doc, cert = _realize_document(args)
    if cert is None:
        return EXIT_INVALID
    lemma = cert.lemma
    payload = {
        "input": doc,
        "lemma1": _lemma_json(
            lemma,
            conjugation_inversion=[
                {"generator": name, "inverted": True} for name in lemma.inversion_entries
            ],
            conjugation_certificates=[
                {"identity": label, "certified": True}
                for label in lemma.conjugation_certificates
            ],
        ),
    }
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        lines = [f"kernel abelianization: invariant factors"
                 f" {list(lemma.invariant_factors)}, free rank {lemma.free_rank}"]
        if lemma.gamma_even:
            lines.append(
                f"connector product {lemma.connector_pair[0]}*{lemma.connector_pair[1]}"
                " class zero: PASS"
            )
        else:
            lines.append(
                f"connector product class: {list(lemma.connector_product_class)} (recorded)"
            )
        lines.append(
            f"conjugation inversion: PASS ({len(lemma.inversion_entries)} generators)"
        )
        lines.append("conjugation certificates: PASS")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_INVALID``: argparse's own code, 2, is
    reserved here for internal assertions.  Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="necsurf",
        description=(
            "Build and verify the group-theoretic realization of a cyclic"
            " orientation-reversing surface action on a real surface."
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--out", default=None, help="write output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_realize = sub.add_parser("realize", help="run the full pipeline on a JSON input")
    p_realize.add_argument("file", help="JSON file with gamma, periods, n, rho")
    p_realize.set_defaults(func=_cmd_realize)

    p_enum = sub.add_parser("enumerate", help="list surface-kernel epimorphisms")
    p_enum.add_argument("--gamma", type=int, required=True)
    p_enum.add_argument("--periods", default="", help='comma-separated, e.g. "2,2,2"')
    p_enum.add_argument("--order", type=int, required=True, help="cyclic order 2n")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_lemma = sub.add_parser("check-lemma", help="print only the normality-lemma report")
    p_lemma.add_argument("file", help="JSON file with gamma, periods, n, rho")
    p_lemma.set_defaults(func=_cmd_check_lemma)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so every
    ``main`` call shares it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PipelineAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
