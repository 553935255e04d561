import json
import sys

import pytest

from necsurf import cli, pipeline
from necsurf.pipeline import PipelineAssertionError

GENUS2_DOC = {
    "gamma": 1,
    "periods": [2, 2, 2],
    "n": 2,
    "rho": {"d": [1], "x": [2, 2, 2]},
}

REQUIRED_KEYS = {
    "input",
    "genus",
    "k_signature",
    "delta_hat_signature",
    "signature_match",
    "lemma1",
    "theta_extension",
    "conclusion",
}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRealizeCommand:
    def test_genus2_text(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        code = cli.main(["realize", path])
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "Δ̂ signature (1;−;[2,2,2]) matches"
            " (γ;−;[n₁..n_r]): PASS" in out
        )
        assert "conclusion: REALIZED" in out

    def test_genus2_json_schema(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        code = cli.main(["--format", "json", "realize", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert REQUIRED_KEYS <= set(doc)
        assert doc["conclusion"] is True
        assert doc["genus"] == 2
        assert doc["delta_hat_signature"]["display"] == "(1;−;[2,2,2])"
        assert doc["theta_extension"]["kernel_index"] == 8

    def test_input_echo_round_trips(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        cli.main(["--format", "json", "realize", path])
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"] == GENUS2_DOC

    def test_search_mode(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, rho="search")
        path = write_doc(tmp_path, doc)
        code = cli.main(["--format", "json", "realize", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["input"]["rho"] == "search"
        assert payload["rho_resolved"] == {"d": [1], "x": [2, 2, 2]}

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        cli.main(["--format", "json", "realize", path])
        first = capsys.readouterr().out
        cli.main(["--format", "json", "realize", path])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        out_path = tmp_path / "cert.json"
        code = cli.main(["--format", "json", "--out", str(out_path), "realize", path])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["conclusion"] is True

    def test_odd_n_exits_one_citing_evenness(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, n=3)
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "even" in captured.out

    def test_validation_failure_lists_reasons(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, periods=[2, 4])
        doc["rho"] = {"d": [1], "x": [2, 2]}
        path = write_doc(tmp_path, doc)
        code = cli.main(["--format", "json", "realize", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["errors"]
        assert "conclusion" not in payload

    def test_search_with_no_epimorphism_exits_one(self, tmp_path, capsys):
        doc = {"gamma": 3, "periods": [], "n": 2, "rho": "search"}
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "no surface-kernel epimorphism" in out

    def test_search_at_large_gamma_resolves_rho(self):
        # the walk keeps its own stack: 2000 letters deep is no RecursionError
        doc = {"gamma": 2000, "periods": [], "n": 2, "rho": "search"}
        datum = cli.datum_from_document(doc)
        assert datum.d_images == (1,) * 2000 and datum.n == 2

    def test_out_of_range_residue_warns_and_reduces(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, rho={"d": [5], "x": [2, 2, -2]})
        code = cli.main(["realize", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines() == [
            "warning: rho.d[1] = 5 reduced mod 4 to 1",
            "warning: rho.x[3] = -2 reduced mod 4 to 2",
        ]

    def test_no_residue_warning_when_n_is_zero(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, n=0, rho={"d": [5], "x": [2, 2, -2]})
        code = cli.main(["realize", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert "n = 0 must be at least 2" in captured.out
        assert captured.err == ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["realize", str(path)])
        assert code == 1
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["realize", "check-lemma"])
    def test_deeply_nested_json_exits_one(self, tmp_path, capsys, command):
        # the decoder gives up with RecursionError, not JSONDecodeError
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code = cli.main([command, str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"invalid input: cannot parse input file {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_missing_field_named(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"gamma": 1, "periods": [2, 2, 2]})
        code = cli.main(["realize", path])
        err = capsys.readouterr().err
        assert code == 1
        assert '"n"' in err

    def test_nested_field_named_by_its_path(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, rho={"d": [1.5], "x": [2, 2, 2]})
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == 'invalid input: field "rho.d" must contain integers, got 1.5\n'

    def test_wrong_rho_length_named(self, tmp_path, capsys):
        doc = dict(GENUS2_DOC, rho={"d": [1, 1], "x": [2, 2, 2]})
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "expected 1 glide images, got 2" in out

    def test_negative_gamma_names_gamma(self, tmp_path, capsys):
        doc = {"gamma": -1, "periods": [], "n": 2, "rho": {"d": [], "x": []}}
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "gamma = -1 must be at least 1" in captured.out
        assert "must list" not in captured.out + captured.err

    def test_rho_lengths_listed_with_the_shape_reasons(self, tmp_path, capsys):
        doc = {"gamma": 2, "periods": [3, 5], "n": 4, "rho": {"d": [1], "x": [2]}}
        path = write_doc(tmp_path, doc)
        code = cli.main(["realize", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert captured.out == (
            "input validation failed:\n"
            "  - period n_1 = 3 does not divide n = 4\n"
            "  - period n_2 = 5 exceeds n = 4\n"
            "  - expected 2 glide images, got 1\n"
            "  - expected 2 elliptic images, got 1\n"
        )

    def test_internal_assertion_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(datum):
            raise PipelineAssertionError("synthetic failure")

        monkeypatch.setattr(cli, "realize", boom)
        path = write_doc(tmp_path, GENUS2_DOC)
        code = cli.main(["realize", path])
        assert code == 2
        assert "internal assertion" in capsys.readouterr().err

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        out_path = tmp_path / "missing" / "cert.json"
        code = cli.main(["--out", str(out_path), "realize", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"invalid input: cannot write output file '{out_path}'")
        assert captured.err.count("\n") == 1

    def test_directory_input_exits_one(self, tmp_path, capsys):
        code = cli.main(["realize", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"invalid input: cannot read input file '{tmp_path}': ")
        assert captured.err.count("\n") == 1

    def test_non_utf8_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        code = cli.main(["realize", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"invalid input: cannot read input file '{path}': ")
        assert "utf-8" in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["realize"],
        ["--format", "yaml", "realize", "input.json"],
        ["enumerate", "--gamma", "x", "--order", "4"],
    ],
    ids=["missing-file", "unknown-format", "non-integer-gamma"],
)
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["realize", "check-lemma"])
def test_failed_search_uses_the_failure_output(tmp_path, capsys, command, fmt):
    doc = {"gamma": 1, "periods": [2, 2, 3], "n": 6, "rho": "search"}
    path = write_doc(tmp_path, doc)
    code = cli.main(["--format", fmt, command, path])
    captured = capsys.readouterr()
    reason = "no surface-kernel epimorphism exists for gamma=1, periods=[2, 2, 3], order=12"
    assert code == 1
    assert captured.err == ""
    if fmt == "json":
        assert json.loads(captured.out) == {"input": doc, "errors": [reason]}
    else:
        assert captured.out == f"input validation failed:\n  - {reason}\n"


@pytest.mark.parametrize(
    "shape, reasons",
    [
        (
            {"gamma": 2, "periods": [3, 5], "n": 4},
            ["period n_1 = 3 does not divide n = 4", "period n_2 = 5 exceeds n = 4"],
        ),
        (
            {"gamma": 1, "periods": [], "n": 3},
            ["n = 3 must be even (the action order is 2n with n even)"],
        ),
        (
            {"gamma": 1, "periods": [2], "n": 2},
            ["signature (1;\u2212;[2]) is not hyperbolic (reduced area -1/2)"],
        ),
    ],
    ids=["periods", "odd-n", "not-hyperbolic"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_reports_the_shape_violations(tmp_path, capsys, shape, reasons, fmt):
    # "search" and an explicit rho give the same itemised reasons
    explicit = {"d": [1] * shape["gamma"], "x": [0] * len(shape["periods"])}
    for rho in ("search", explicit):
        doc = dict(shape, rho=rho)
        code = cli.main(["--format", fmt, "realize", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out) == {"input": doc, "errors": reasons}
        else:
            assert captured.out == "".join(
                ["input validation failed:\n"] + [f"  - {reason}\n" for reason in reasons]
            )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_period_beyond_maxsize_fails_validation(tmp_path, capsys, fmt):
    # a relator spells its period out, so a period past sys.maxsize is
    # rejected by validation instead of overflowing when the word is built
    big = 10**21
    reasons = [
        f"period n_{i} = {big} exceeds {sys.maxsize}, the longest relator word"
        " that can be spelled out"
        for i in (1, 2, 3)
    ]
    for rho in ("search", {"d": [1], "x": [2, 2, big - 4]}):
        doc = {"gamma": 1, "periods": [big] * 3, "n": big, "rho": rho}
        code = cli.main(["--format", fmt, "realize", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out) == {"input": doc, "errors": reasons}
        else:
            assert captured.out == "".join(
                ["input validation failed:\n"] + [f"  - {reason}\n" for reason in reasons]
            )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_beyond_maxsize_fails_validation(tmp_path, capsys, fmt):
    # the search indexes residues mod 2n by machine integers, so an order
    # past sys.maxsize is rejected before the walk overflows
    n = 10**30
    doc = {"gamma": 1, "periods": [2, 2, 2], "n": n, "rho": "search"}
    reason = f"order {2 * n} exceeds {sys.maxsize}, the largest order the search can index"
    code = cli.main(["--format", fmt, "realize", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    if fmt == "json":
        assert json.loads(captured.out) == {"input": doc, "errors": [reason]}
    else:
        assert captured.out == f"input validation failed:\n  - {reason}\n"


def test_explicit_rho_beyond_maxsize_realizes(tmp_path, capsys):
    # the bound is the search's: an explicit rho at the same n still realizes
    n = 10**30
    doc = {"gamma": 4, "periods": [], "n": n, "rho": {"d": [1, 1, 1, n - 3], "x": []}}
    code = cli.main(["--format", "json", "realize", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["theta_extension"]["image_order"] == 4 * n


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", [0, -2])
def test_non_positive_n_fails_validation(tmp_path, capsys, n, fmt):
    # residues are not reduced mod 2n <= 0; validation names n instead
    doc = {"gamma": 1, "periods": [], "n": n, "rho": {"d": [1], "x": []}}
    path = write_doc(tmp_path, doc)
    code = cli.main(["--format", fmt, "realize", path])
    captured = capsys.readouterr()
    assert code == 1
    assert f"n = {n} must be at least 2" in captured.out
    assert "reduced mod" not in captured.err
    assert "Traceback" not in captured.out + captured.err


# n has as many digits as Python converts to a string by default, so 2n
# and the residues mod 2n have one more
LONG_N = 8 * 10**4299
TOO_LONG = f"(an integer of more than {sys.get_int_max_str_digits()} digits)"


@pytest.mark.parametrize("command", ["realize", "check-lemma"])
def test_integer_literal_past_the_digit_limit_exits_one(tmp_path, capsys, command):
    # json.load raises a bare ValueError, not JSONDecodeError, for it
    path = tmp_path / "long.json"
    path.write_text('{"gamma": 3, "periods": [], "n": ' + "1" * 5000 + ', "rho": "search"}')
    code = cli.main([command, str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"invalid input: cannot parse input file {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_order_past_the_digit_limit_is_named(tmp_path, capsys, fmt):
    doc = {"gamma": 3, "periods": [], "n": LONG_N, "rho": "search"}
    reason = f"order {TOO_LONG} exceeds {sys.maxsize}, the largest order the search can index"
    code = cli.main(["--format", fmt, "realize", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    if fmt == "json":
        assert json.loads(captured.out) == {"input": doc, "errors": [reason]}
    else:
        assert captured.out == f"input validation failed:\n  - {reason}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_residues_past_the_digit_limit_are_named(tmp_path, capsys, fmt):
    # -1 and -2 reduce to 2n - 1 and 2n - 2, each one digit too long; the
    # relator sum, 2n - 4, and d1's even image are named by their length
    doc = {"gamma": 3, "periods": [], "n": LONG_N, "rho": {"d": [-2, -1, 1], "x": []}}
    reasons = [
        f"rho is not a homomorphism: relator d1*d1*d2*d2*d3*d3 maps to {TOO_LONG}",
        f"orientation mismatch: glide image d1 -> {TOO_LONG} is even",
    ]
    code = cli.main(["--format", fmt, "realize", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [
        f"warning: rho.d[{i}] = {v} reduced mod {TOO_LONG} to {TOO_LONG}"
        for i, v in ((1, -2), (2, -1))
    ]
    if fmt == "json":
        assert json.loads(captured.out) == {"input": doc, "errors": reasons}
    else:
        assert captured.out == "".join(
            ["input validation failed:\n"] + [f"  - {reason}\n" for reason in reasons]
        )


@pytest.mark.parametrize("command", ["realize", "check-lemma"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_certificate_past_the_digit_limit_exits_one(tmp_path, capsys, fmt, command):
    # a valid action whose genus 2n + 1 and images mod 2n are too long to
    # print; in JSON the json encoder raises the ValueError
    doc = {"gamma": 4, "periods": [], "n": LONG_N, "rho": {"d": [1, 1, 1, LONG_N - 3], "x": []}}
    code = cli.main(["--format", fmt, command, write_doc(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("invalid input: cannot print the certificate: ")
    assert err.count("\n") == 1


def test_decimal_names_the_length_past_the_limit():
    assert pipeline.decimal(2 * LONG_N - 1) == TOO_LONG
    assert pipeline.decimal(LONG_N) == str(LONG_N)


@pytest.mark.parametrize("command", ["realize", "check-lemma"])
def test_validation_runs_once_per_command(tmp_path, capsys, monkeypatch, command):
    calls = []
    original = pipeline.validate_action

    def counting(datum):
        calls.append(datum)
        return original(datum)

    monkeypatch.setattr(pipeline, "validate_action", counting)
    path = write_doc(tmp_path, GENUS2_DOC)
    assert cli.main([command, path]) == 0
    assert len(calls) == 1


class TestEnumerateCommand:
    def test_count_zero_still_succeeds(self, capsys):
        code = cli.main(["enumerate", "--gamma", "3", "--periods", "", "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("count: 0")

    def test_lists_tuples(self, capsys):
        code = cli.main(
            ["enumerate", "--gamma", "1", "--periods", "2,2,2", "--order", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "count: 2" in out
        assert "d=[1] x=[2, 2, 2]" in out

    def test_json_format(self, capsys):
        code = cli.main(
            ["--format", "json", "enumerate", "--gamma", "4", "--periods", "", "--order", "4"]
        )
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 16
        assert len(doc["epimorphisms"]) == 16
        # one line with sorted keys
        assert out == json.dumps(doc, sort_keys=True) + "\n"
        assert out.count("\n") == 1

    def test_bad_order_exits_one(self, capsys):
        code = cli.main(["enumerate", "--gamma", "1", "--periods", "2", "--order", "6"])
        assert code == 1
        assert "even" in capsys.readouterr().err

    def test_period_beyond_n_exits_one(self, capsys):
        # enumerate applies shape_problems, as realize does: a period 8 at
        # 2n = 8 would need odd elliptic images
        code = cli.main(["enumerate", "--gamma", "1", "--periods", "8,8", "--order", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "invalid enumeration request: period n_1 = 8 exceeds n = 4;"
            " period n_2 = 8 exceeds n = 4\n"
        )

    def test_odd_order_exits_one(self, capsys):
        code = cli.main(["enumerate", "--gamma", "1", "--periods", "8,8", "--order", "7"])
        assert code == 1
        assert capsys.readouterr().err == (
            "invalid enumeration request: order 7 is odd: the action order must be"
            " 2n with n even\n"
        )

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--gamma", "4", "--order", str(2 * 10**24)],
             f"order {2 * 10**24} exceeds {sys.maxsize}, the largest order the search"
             " can index"),
            (["--gamma", str(10**20), "--order", "4"],
             f"gamma = {10**20} exceeds {sys.maxsize}, the most glides the search"
             " can index"),
        ],
        ids=["order", "gamma"],
    )
    def test_beyond_maxsize_exits_one(self, capsys, argv, reason):
        code = cli.main(["enumerate", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"invalid enumeration request: {reason}\n"

    @pytest.mark.parametrize("periods", ["2,,3", "2,3,", ",2"])
    def test_empty_period_item_exits_one(self, capsys, periods):
        code = cli.main(["enumerate", "--gamma", "2", "--periods", periods, "--order", "12"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"invalid enumeration request: --periods {periods!r} has an empty item\n"
        )

    def test_spaced_periods_are_valid(self, capsys):
        code = cli.main(["enumerate", "--gamma", "1", "--periods", "2, 2, 2", "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "d=[1] x=[2, 2, 2]" in out

    def test_non_integer_period_exits_one(self, capsys):
        code = cli.main(["enumerate", "--gamma", "1", "--periods", "2,a", "--order", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid enumeration request: ")
        assert err.count("\n") == 1


class TestCheckLemmaCommand:
    def test_genus2_lemma_only(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        code = cli.main(["--format", "json", "check-lemma", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(doc) == {"input", "lemma1"}
        assert all(
            entry["inverted"] for entry in doc["lemma1"]["conjugation_inversion"]
        )

    def test_text_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, GENUS2_DOC)
        code = cli.main(["check-lemma", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "conjugation inversion: PASS" in out
