"""Golden certificates: the CLI output of ``realize`` and ``check-lemma``,
in text and JSON, for one odd-gamma and one even-gamma input and for one
rejected input (an even glide image), compared byte for byte with the
files under ``tests/golden``, together with each command's exit code.

To regenerate after an intended output change, run from the repository
root, for each input and command:

    PYTHONPATH=src python -m necsurf [--format json] <command> \\
        tests/golden/<case>.input.json > tests/golden/<case>.<command>.<txt|json>
"""

from pathlib import Path

import pytest

from necsurf import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = {"genus2": cli.EXIT_OK, "gamma2-search": cli.EXIT_OK, "even-glide": cli.EXIT_INVALID}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", ("realize", "check-lemma"))
@pytest.mark.parametrize("fmt, suffix", (("text", "txt"), ("json", "json")))
def test_output_matches_golden(capsys, case, command, fmt, suffix):
    code = cli.main(["--format", fmt, command, str(GOLDEN / f"{case}.input.json")])
    assert code == CASES[case]
    expected = (GOLDEN / f"{case}.{command}.{suffix}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
