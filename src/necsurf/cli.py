"""Command-line front end.

Subcommands:

* ``realize <file>``     -- run the full pipeline on a JSON action datum
  and print (or write) the certificate;
* ``enumerate --gamma G --periods LIST --order 2N`` -- list all
  surface-kernel epimorphisms for the given quotient data, or print why
  ``shape_problems`` (or an odd 2N) rejects them, on one line;
* ``check-lemma <file>`` -- run the full pipeline and print only the
  normality-lemma report.

Both ``realize`` and ``check-lemma`` render ``necsurf.certificate``'s
document: the whole of it, or its lemma projection, as text or as JSON,
which ``render_json`` prints, for every command, on one line with sorted keys.

Input file: a JSON object {"gamma": int, "periods": [int..], "n": int,
"rho": {"d": [int..], "x": [int..]} | "search"}.  Reading it checks only
that each field is present with its JSON type (a missing or mistyped
field is named by its path, such as "rho.d"); the values, rho's lengths
included (gamma glide images, one elliptic image per period), are
checked by ``validate_action``, which lists every failing item at once.
With "search" the lexicographically first epimorphism, found by the
memoised walk of ``first_smooth_epimorphism``, is used; it rejects a
shape with the itemised ``shape_problems`` reasons that an explicit rho
would get, and an order 2n or a gamma above ``sys.maxsize``, which it
cannot index, with a reason naming it.
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

from . import certificate
from .pipeline import (
    ActionDatum,
    ActionValidationError,
    PipelineAssertionError,
    decimal,
    enumerate_smooth_epimorphisms,
    first_smooth_epimorphism,
    realize,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2


# ---------------------------------------------------------------------------
# Input documents
# ---------------------------------------------------------------------------

class InputError(ValueError):
    pass


def _require(doc: dict, path: str, kind: type) -> Any:
    """The value of the field at ``path`` ("n", or "rho.d" inside the rho
    object ``doc``), checked to be of ``kind``; a message names the path."""
    field = path.rpartition(".")[2]
    if field not in doc:
        raise InputError(f'missing field "{path}"')
    value = doc[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InputError(f'field "{path}" must be an integer, got {value!r}')
    if kind is list and not isinstance(value, list):
        raise InputError(f'field "{path}" must be a list, got {value!r}')
    return value


def _int_list(doc: dict, path: str) -> list[int]:
    values = _require(doc, path, list)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f'field "{path}" must contain integers, got {v!r}')
    return values


def parse_input_document(doc: Any) -> dict:
    """Validate field presence and JSON types of an action-input document.
    Every value check, rho's lengths included, is ``validate_action``'s."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    gamma = _require(doc, "gamma", int)
    periods = _int_list(doc, "periods")
    n = _require(doc, "n", int)
    rho = doc.get("rho", "search")
    if rho != "search":
        if not isinstance(rho, dict):
            raise InputError('field "rho" must be an object {"d": .., "x": ..} or "search"')
        rho = {"d": _int_list(rho, "rho.d"), "x": _int_list(rho, "rho.x")}
    return {"gamma": gamma, "periods": periods, "n": n, "rho": rho}


def datum_from_document(doc: dict, warn=lambda msg: None) -> ActionDatum:
    """Build the action datum, resolving "search" by
    ``first_smooth_epimorphism``, and warning about each residue that
    ``ActionDatum`` reduced."""
    gamma, periods, n = doc["gamma"], tuple(doc["periods"]), doc["n"]
    if doc["rho"] == "search":
        datum = first_smooth_epimorphism(gamma, periods, 2 * n)
        if datum is None:
            raise ActionValidationError(
                (f"no surface-kernel epimorphism exists for gamma={gamma},"
                 f" periods={list(periods)}, order={decimal(2 * n)}",)
            )
        return datum
    datum = ActionDatum(gamma, periods, n, doc["rho"]["d"], doc["rho"]["x"])
    for field, reduced in (("d", datum.d_images), ("x", datum.x_images)):
        for i, (v, residue) in enumerate(zip(doc["rho"][field], reduced), start=1):
            if v != residue:
                warn(f"warning: rho.{field}[{i}] = {v} reduced mod {decimal(datum.order)}"
                     f" to {decimal(residue)}")
    return datum


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def validation_failure_json(input_doc: dict | None, reasons: tuple[str, ...]) -> dict:
    return {"input": input_doc, "errors": list(reasons)}


def validation_failure_text(failure: dict) -> str:
    lines = ["input validation failed:"]
    lines += [f"  - {reason}" for reason in failure["errors"]]
    return "\n".join(lines) + "\n"


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


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
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer literal past Python's
        # limit on integer string conversion
        raise InputError(f"cannot parse input file {path!r}: {exc}")
    return parse_input_document(raw)


def _cmd_certificate(args: argparse.Namespace) -> int:
    """``realize`` and ``check-lemma``: load the input file, resolve rho,
    run the pipeline once and emit the subcommand's view of the
    certificate document, or the itemised failure on invalid input (a
    "search" that finds no epimorphism included).  A certificate holding
    an integer longer than Python prints (``sys.get_int_max_str_digits``)
    is an input error naming that limit."""
    doc = _load_document(args.file)
    try:
        datum = datum_from_document(doc, warn=lambda msg: print(msg, file=sys.stderr))
        cert = realize(datum)
    except ActionValidationError as exc:
        code, view = EXIT_INVALID, validation_failure_json(doc, exc.reasons)
        render_text = validation_failure_text
    else:
        code, render_text = EXIT_OK, args.render_text
    try:
        if code == EXIT_OK:
            view = args.view(certificate.document(cert, doc))
        text = render_json(view) if args.format == "json" else render_text(view)
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputError(f"cannot print the certificate: {exc}")
    _emit(text, args.out)
    return code


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """``enumerate``: ``--periods`` is a comma-separated list; blank means
    r = 0, and an empty item between, before or after commas is an error."""
    try:
        items = args.periods.split(",") if args.periods.strip() else []
        if not all(item.strip() for item in items):
            raise ValueError(f"--periods {args.periods!r} has an empty item")
        periods = tuple(int(tok) for item in items for tok in item.split())
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
    p_realize.set_defaults(func=_cmd_certificate, view=lambda doc: doc,
                           render_text=certificate.text)

    p_enum = sub.add_parser("enumerate", help="list surface-kernel epimorphisms")
    p_enum.add_argument("--gamma", type=int, required=True)
    p_enum.add_argument("--periods", default="", help='comma-separated, e.g. "2,2,2"')
    p_enum.add_argument("--order", type=int, required=True, help="cyclic order 2n")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_lemma = sub.add_parser("check-lemma", help="print only the normality-lemma report")
    p_lemma.add_argument("file", help="JSON file with gamma, periods, n, rho")
    p_lemma.set_defaults(func=_cmd_certificate, view=certificate.lemma_report,
                         render_text=certificate.lemma_text)
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
