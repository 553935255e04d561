"""The merge step of scripts/bench_trajectory.py, with stubbed runners: no
workload and no test suite is run from here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RESULT = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"cases_per_ref": {"value": 2.5, "unit": "1/ref"}}}


def stub_record(trajectory, tag, calls=None):
    def runner(workload, seconds):
        if calls is not None:
            calls.append((workload, seconds))
        return RESULT

    return trajectory.collect(tag, 0.5, workload_runner=runner,
                              tier1_runner=lambda: (6.0, 0), time_reference=lambda: 0.002)


def test_collect_records_each_workload_and_tier1_in_ref(trajectory):
    calls = []
    record = stub_record(trajectory, "new", calls)
    assert calls == [(w, 0.5) for w in trajectory.WORKLOADS for _ in range(3)]
    assert record["workloads"] == {w: trajectory.median_of_runs([RESULT] * 3)
                                   for w in trajectory.WORKLOADS}
    assert record["tier1"] == {"seconds": 6.0, "ref": 3000.0, "reference_s": 0.002, "exit_code": 0}
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "necsurf").glob("*.py"))
    assert record["src_lines"] == lines and record["seed"] == 1 and record["tag"] == "new"


def test_each_metric_records_the_median_of_three_runs(trajectory):
    # the runs of one workload, as a drifting machine gives them: the
    # median of each metric and of the case counts is its value, whatever
    # the order, the three values are kept beside it, and one failed run
    # marks the workload
    values = iter([2.5, 9.0, 1.0, 0.30, 0.10, 0.20])
    runs = [{"correct": correct, "attempted": attempted, "failed": int(not correct),
             "metrics": {"cases_per_ref": {"value": next(values), "unit": "1/ref"}}}
            for correct, attempted in ((True, 40), (False, 90), (True, 10))]
    for run in runs:
        run["metrics"]["case_p50_ref"] = {"value": next(values), "unit": "ref"}
    merged = trajectory.median_of_runs(runs)
    assert merged["metrics"] == {
        "cases_per_ref": {"value": 2.5, "unit": "1/ref", "runs": [2.5, 9.0, 1.0]},
        "case_p50_ref": {"value": 0.20, "unit": "ref", "runs": [0.30, 0.10, 0.20]},
    }
    assert (merged["correct"], merged["attempted"], merged["failed"]) == (False, 40, 0)
    assert merged["runs"] == {"attempted": [40, 90, 10], "failed": [0, 1, 0]}
    assert trajectory.RUNS == 3


def test_main_writes_the_parent_numbers_beside_the_new_ones(trajectory, tmp_path, monkeypatch):
    record = stub_record(trajectory, "new")
    parent = {**stub_record(trajectory, "old"), "parent": {"tag": "older"}}
    (tmp_path / "BENCH_old.json").write_text(json.dumps(parent))
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory, "collect", lambda tag, seconds: {**record, "tag": tag})
    assert trajectory.main(["--tag", "new", "--parent", "old"]) == 0
    written = json.loads((tmp_path / "BENCH_new.json").read_text())
    assert written == {**record, "parent": {k: v for k, v in parent.items() if k != "parent"}}
    assert written["parent"]["tag"] == "old"


def test_time_reference_is_the_benchmarks_own(trajectory):
    assert trajectory._time_reference().__code__.co_filename == str(ROOT / "bench" / "run.py")


def stub_child(trajectory, monkeypatch, returncode, stdout, stderr):
    """Make ``subprocess.run`` in the script return one finished child."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, returncode, stdout, stderr)

    monkeypatch.setattr(trajectory.subprocess, "run", run)
    return calls


def test_run_workload_reads_the_last_line(trajectory, monkeypatch):
    calls = stub_child(trajectory, monkeypatch, 0, "progress\n" + json.dumps(RESULT) + "\n", "")
    assert trajectory.run_workload("signature-battery", 2) == RESULT
    assert calls[0][1:] == ["bench/run.py", "--workload", "signature-battery",
                            "--seed", "1", "--seconds", "2"]


@pytest.mark.parametrize("stdout", ["", "not json\n"], ids=["silent", "garbled"])
def test_a_crashed_workload_is_named_with_its_exit_code_and_stderr(
    trajectory, monkeypatch, stdout
):
    stderr = "".join(f"line {i}\n" for i in range(20)) + "MemoryError: out of memory\n"
    stub_child(trajectory, monkeypatch, 137, stdout, stderr)
    with pytest.raises(RuntimeError) as raised:
        trajectory.run_workload("scaling-ladder", 2)
    message = str(raised.value)
    assert message.startswith("workload scaling-ladder printed no result (exit code 137)")
    assert message.endswith("line 19\nMemoryError: out of memory")
    assert "line 10\n" not in message and "line 11\n" in message
