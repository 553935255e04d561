#!/usr/bin/env python3
"""Record one point of the benchmark trajectory in BENCH_<tag>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_trajectory.py --tag TAG [--parent TAG] [--seconds T]

For each workload of bench/run.py it runs

    python3 bench/run.py --workload W --seed 1 --seconds T

three times, each in a child process with PYTHONDONTWRITEBYTECODE=1, and
reads the last line of each run's standard output, one JSON object.  Each
metric records the median of the three runs as its value, with the three
values beside it under "runs"; so do the attempted and failed case counts,
their runs under the workload's "runs", and the workload is correct when
every run is.  It adds the line count of
src/necsurf/*.py, the Python version and the Tier-1 wall time, in seconds
and in ref: divided by the median of bench/run.py's ``time_reference()``
timed before and after the suite.  It writes BENCH_<tag>.json at the root
of the checkout; with --parent, the numbers of BENCH_<parent>.json are
copied in beside the new ones under "parent".

A point is comparable with its parent's only when both were recorded
under the same machine state: the CPU speed of a shared machine drifts,
and ``setup_s`` is measured in fresh processes whose start-up the ref
does not cancel.  To compare two revisions, run both in alternation on
one machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("action-battery", "signature-battery", "scaling-ladder", "epimorphism-search")
SEED = 1
RUNS = 3  # runs of each workload; each metric records their median
TIER1 = ("-m", "pytest", "-q", "-W", "error", "--continue-on-collection-errors")
REFERENCE_SAMPLES = 11  # timings of the reference loop on each side of Tier-1


def _time_reference():
    """bench/run.py's ``time_reference``, imported from that file."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.time_reference


def _env() -> dict:
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_workload(workload: str, seconds: float) -> dict:
    """The last line of bench/run.py's standard output on ``workload``.
    A child that prints no JSON line raises ``RuntimeError`` naming the
    workload, its exit code and the last ten lines of its standard error."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = "\n".join(done.stderr.strip().splitlines()[-10:])
        raise RuntimeError(f"workload {workload} printed no result (exit code"
                           f" {done.returncode}); its stderr ends:\n{tail}") from None


def median_of_runs(results: list[dict]) -> dict:
    """One workload's runs as one result: correct when every run is, and
    the median of the attempted and failed cases and of each metric as its
    value, with every run's value under "runs"."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {**metric, "value": statistics.median(values), "runs": values}
    runs = {key: [result[key] for result in results] for key in ("attempted", "failed")}
    return {"correct": all(result["correct"] for result in results),
            **{key: statistics.median(values) for key, values in runs.items()},
            "runs": runs, "metrics": metrics}


def run_tier1() -> tuple[float, int]:
    """Wall seconds and exit code of the Tier-1 suite."""
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    code = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return time.perf_counter() - started, code


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src" / "necsurf").glob("*.py"))


def collect(tag: str, seconds: float, workload_runner=run_workload, tier1_runner=run_tier1,
            time_reference=None) -> dict:
    """One trajectory point: every workload's median of ``RUNS`` runs, then
    Tier-1's wall time between two sets of reference timings."""
    time_reference = time_reference or _time_reference()
    workloads = {w: median_of_runs([workload_runner(w, seconds) for _ in range(RUNS)])
                 for w in WORKLOADS}
    before = [time_reference() for _ in range(REFERENCE_SAMPLES)]
    tier1_s, code = tier1_runner()
    after = [time_reference() for _ in range(REFERENCE_SAMPLES)]
    reference_s = statistics.median(before + after)
    return {
        "tag": tag,
        "python": platform.python_version(),
        "src_lines": src_lines(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
        "tier1": {"seconds": tier1_s, "ref": tier1_s / reference_s,
                  "reference_s": reference_s, "exit_code": code},
    }


def with_parent(record: dict, parent: dict) -> dict:
    """``record`` with the parent's numbers beside its own, under
    "parent"; the parent's own parent is not carried along."""
    return {**record, "parent": {k: v for k, v in parent.items() if k != "parent"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--parent")
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    record = collect(args.tag, args.seconds)
    if args.parent:
        record = with_parent(record, json.loads((ROOT / f"BENCH_{args.parent}.json").read_text()))
    (ROOT / f"BENCH_{args.tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failed = [w for w, result in record["workloads"].items() if not result["correct"]]
    return 1 if failed or record["tier1"]["exit_code"] else 0


if __name__ == "__main__":
    sys.exit(main())
