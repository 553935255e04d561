"""Golden certificates: the CLI output of ``realize`` and ``check-lemma``,
in text and JSON, for one odd-gamma and one even-gamma input and for one
rejected input (an even glide image), compared byte for byte with the
files under ``tests/golden``, together with each command's exit code.
The whole action battery is pinned as well: ``tests/golden/battery.sha256``
holds, per action datum, the sha256 of ``realize``'s text output, of its
JSON output, and the datum as a compact input document.

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

from necsurf import cli

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


def battery_digests(data, workdir) -> dict[str, tuple[str, str]]:
    """Compact input document of each datum -> sha256 of the stdout of
    ``realize`` in text and in JSON."""
    path = Path(workdir) / "datum.json"
    digests = {}
    for datum in data:
        doc = json.dumps(
            {"gamma": datum.gamma, "periods": list(datum.periods), "n": datum.n,
             "rho": {"d": list(datum.d_images), "x": list(datum.x_images)}},
            separators=(",", ":"),
        )
        path.write_text(doc, encoding="utf-8")
        hashes = []
        for fmt in ("text", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["--format", fmt, "realize", str(path)])
            assert code == cli.EXIT_OK, f"realize {doc} exited with {code}"
            hashes.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
        digests[doc] = tuple(hashes)
    return digests


def test_battery_outputs_match_digests(action_battery, tmp_path):
    expected = {}
    for line in BATTERY.read_text(encoding="utf-8").splitlines():
        text_hash, json_hash, doc = line.split(maxsplit=2)
        expected[doc] = (text_hash, json_hash)
    actual = battery_digests(action_battery, tmp_path)
    changed = [doc for doc in {**expected, **actual} if expected.get(doc) != actual.get(doc)]
    assert not changed, f"{len(changed)} battery outputs differ: {changed}"


if __name__ == "__main__":
    from conftest import action_battery_data

    with tempfile.TemporaryDirectory() as workdir:
        digests = battery_digests(action_battery_data(), workdir)
    BATTERY.write_text(
        "".join(f"{t} {j} {doc}\n" for doc, (t, j) in digests.items()), encoding="utf-8"
    )
