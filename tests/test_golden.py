"""Golden certificates: the CLI output of ``realize`` and ``check-lemma``,
in text and JSON, for one odd-gamma and one even-gamma input and for one
rejected input (an even glide image), compared byte for byte with the
files under ``tests/golden``, together with each command's exit code.
The whole action battery is pinned as well: ``tests/golden/battery.sha256``
holds, per action datum, the sha256 of ``realize``'s text output, of its
JSON output, and the datum as a compact input document.  On the same data,
the text certificate and the check-lemma view are rendered from the JSON
document as reloaded, so they depend on nothing outside it.

To regenerate after an intended output change, run from the repository
root, for each input and command:

    PYTHONPATH=src python -m necsurf [--format json] <command> \\
        tests/golden/<case>.input.json > tests/golden/<case>.<command>.<txt|json>

and, for the battery digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from necsurf import certificate, cli, realize

GOLDEN = Path(__file__).parent / "golden"
BATTERY = GOLDEN / "battery.sha256"
CASES = {"genus2": cli.EXIT_OK, "gamma2-search": cli.EXIT_OK, "even-glide": cli.EXIT_INVALID}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", ("realize", "check-lemma"))
@pytest.mark.parametrize("fmt, suffix", (("text", "txt"), ("json", "json")))
def test_output_matches_golden(capsys, case, command, fmt, suffix):
    code = cli.main(["--format", fmt, command, str(GOLDEN / f"{case}.input.json")])
    assert code == CASES[case]
    expected = (GOLDEN / f"{case}.{command}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def compact_input(datum) -> str:
    return json.dumps(
        {"gamma": datum.gamma, "periods": list(datum.periods), "n": datum.n,
         "rho": {"d": list(datum.d_images), "x": list(datum.x_images)}},
        separators=(",", ":"),
    )


def realize_stdout(doc: str, fmt: str, workdir) -> str:
    """What ``necsurf --format fmt realize`` prints for the input ``doc``."""
    path = Path(workdir) / "datum.json"
    path.write_text(doc, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", fmt, "realize", str(path)])
    assert code == cli.EXIT_OK, f"realize {doc} exited with {code}"
    return out.getvalue()


def battery_digests(data, workdir) -> dict[str, tuple[str, str]]:
    """Compact input document of each datum -> sha256 of the stdout of
    ``realize`` in text and in JSON."""
    digests = {}
    for datum in data:
        doc = compact_input(datum)
        digests[doc] = tuple(
            hashlib.sha256(realize_stdout(doc, fmt, workdir).encode("utf-8")).hexdigest()
            for fmt in ("text", "json")
        )
    return digests


def test_battery_outputs_match_digests(action_battery, tmp_path):
    expected = {}
    for line in BATTERY.read_text(encoding="utf-8").splitlines():
        text_hash, json_hash, doc = line.split(maxsplit=2)
        expected[doc] = (text_hash, json_hash)
    actual = battery_digests(action_battery, tmp_path)
    changed = [doc for doc in {**expected, **actual} if expected.get(doc) != actual.get(doc)]
    assert not changed, f"{len(changed)} battery outputs differ: {changed}"


def test_battery_renders_from_the_reloaded_document(action_battery, tmp_path):
    for datum in action_battery:
        doc = compact_input(datum)
        cert = realize(datum)
        reloaded = json.loads(cli.render_json(certificate.document(cert, json.loads(doc))))
        assert certificate.text(reloaded) == realize_stdout(doc, "text", tmp_path), doc
        lemma = certificate.lemma_report(reloaded)["lemma1"]
        assert [e["generator"] for e in lemma["conjugation_inversion"]] == list(
            cert.lemma.inversion_entries), doc
        assert [c["identity"] for c in lemma["conjugation_certificates"]] == list(
            cert.lemma.conjugation_certificates), doc


if __name__ == "__main__":
    from conftest import action_battery_data

    with tempfile.TemporaryDirectory() as workdir:
        digests = battery_digests(action_battery_data(), workdir)
    BATTERY.write_text(
        "".join(f"{t} {j} {doc}\n" for doc, (t, j) in digests.items()), encoding="utf-8"
    )
