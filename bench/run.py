#!/usr/bin/env python3
"""necsurf benchmark: certificate throughput on four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload action-battery --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every case passed every oracle.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 11
# setup_s is given in seconds at the speed where one reference loop takes
# this long (about its time on the 2-vCPU Xeon guest the benchmark was
# tuned on), so that it follows necsurf rather than the machine's drift.
NOMINAL_REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.02  # wall seconds between two timings of the reference loop
SAMPLES_AROUND = 10  # reference timings averaged on each side of a case

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_REFERENCE_LETTERS = tuple((f"g{i % 5}", 1 if i * 7 % 3 else -1) for i in range(400)) * 5


def time_reference() -> float:
    """Seconds for one run of a fixed pure-Python loop of the kind of work
    necsurf does (tuples of letters, cancellation, dict counts), about
    1 ms on a 2020s server core."""
    started = perf_counter()
    counts: dict = {}
    word: list = []
    for letter in _REFERENCE_LETTERS:
        if word and word[-1] == (letter[0], -letter[1]):
            word.pop()
        else:
            word.append(letter)
        counts[letter] = counts.get(letter, 0) + 1
    return perf_counter() - started


class ReferenceClock:
    """Times the reference loop about every ``SAMPLE_EVERY_S`` seconds:
    between cases, and with ``interrupt`` also from a SIGALRM handler in
    the middle of long cases.  The CPU speed of a shared machine drifts by
    tens of percent within seconds; a case's time divided by the mean
    reference time around and during it cancels that drift.  ``paused``
    is the time spent in the handler, which case times leave out."""

    def __init__(self, interrupt: bool) -> None:
        self.interrupt = interrupt
        self.samples: list[float] = []
        self.paused = 0.0
        self._last = 0.0
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal arrived during a sample
            return
        self._sampling = True
        started = perf_counter()
        self.samples.append(time_reference())
        self._last = perf_counter()
        self.paused += self._last - started
        self._sampling = False

    def tick(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def __enter__(self) -> "ReferenceClock":
        self.sample()
        if self.interrupt:
            self._handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def unit(self, first: int, last: int) -> float:
        """Mean reference time over the samples taken during a case (which
        began with ``first`` samples taken and ended with ``last``) and
        ``SAMPLES_AROUND`` on either side; one sample alone is too noisy."""
        around = self.samples[max(first - SAMPLES_AROUND, 0):last + SAMPLES_AROUND]
        return sum(around) / len(around)


def import_necsurf():
    """necsurf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "necsurf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no necsurf sources under {src}")
    sys.path.insert(0, str(src))
    import necsurf

    if Path(necsurf.__file__).resolve().parent != src / "necsurf":
        raise SystemExit(f"bench: imported necsurf from {necsurf.__file__}, not {src}")
    return necsurf


class Loop:
    """Results of a timed loop: each case's seconds, the same in units of
    the reference loop (ref), which case it was (a case repeated in
    several passes is the same object), and the cases that failed with
    their problems."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.refs: list[float] = []
        self.keys: list[int] = []
        self.problems: list[tuple[dict, list[str]]] = []

    @property
    def completed(self) -> int:
        return len(self.seconds) - len(self.problems)

    def per_case(self, times) -> list[float]:
        """Each case's median over the passes that repeated it."""
        repeats = defaultdict(list)
        for key, t in zip(self.keys, times):
            repeats[key].append(t)
        return [statistics.median(ts) for ts in repeats.values()]

    def metrics(self) -> dict[str, tuple[float, str]]:
        cases = self.per_case(self.refs)
        return {
            "cases_per_ref": (self.completed / sum(self.refs), "1/ref"),
            "case_p50_ref": (statistics.median(cases), "ref"),
            "case_p90_ref": (_p90(cases), "ref"),
        }

    def wall_metrics(self) -> dict[str, tuple[float, str]]:
        cases = self.per_case(self.seconds)
        return {
            "cases_per_s": (self.completed / sum(self.seconds), "1/s"),
            "case_p50_ms": (statistics.median(cases) * 1e3, "ms"),
            "case_p90_ms": (_p90(cases) * 1e3, "ms"),
        }


def _p90(values) -> float:
    # Linear interpolation between order statistics (numpy's default).
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_loop(cycle, seconds, tracer=None, min_cases=workloads.MIN_CASES, between=None) -> Loop:
    """Run whole cycles until at least ``seconds`` have passed (0: no time
    limit) and at least ``min_cases`` cases were attempted.  Only the
    necsurf calls are timed; the oracle checks and ``between(elapsed)``
    run between them.  A traced loop is not interrupted, so that spans
    hold no reference timings."""
    loop = Loop()
    windows = []
    with ReferenceClock(interrupt=tracer is None) as clock:
        started = perf_counter()
        while True:
            for cases in cycle:
                for case in cases:
                    if between is not None:
                        between(perf_counter() - started)
                    gc.collect()  # every case starts from the same collector state
                    clock.tick()
                    if tracer is not None:
                        tracer.current_case = len(loop.seconds)
                    first, paused = len(clock.samples), clock.paused
                    t0 = perf_counter()
                    try:
                        output = workloads.run_case(case)
                    except Exception as exc:  # a failing case is counted, not fatal
                        found = [f"{type(exc).__name__}: {exc}"]
                    else:
                        found = None
                    loop.seconds.append(perf_counter() - t0 - (clock.paused - paused))
                    windows.append((first, len(clock.samples)))
                    loop.keys.append(id(case))
                    if found is None:
                        found = workloads.check_case(case, output)
                    if found:
                        loop.problems.append((case, found))
            if len(loop.seconds) >= min_cases and perf_counter() - started >= seconds:
                break
    loop.refs = [s / clock.unit(*w) for s, w in zip(loop.seconds, windows)]
    return loop


class SetupProbe:
    """Times fresh processes that import necsurf and finish the workload's
    first case (interpreter start-up is not included), each with the
    reference loop timed in the same process around it.  The processes
    are spread over the timed loop; the timer signal waits while one runs."""

    def __init__(self, case, seconds: float) -> None:
        self.case_file = OUT / "first-case.json"
        self.case_file.write_text(json.dumps(case))
        self.every = seconds / SETUP_REPEATS
        self.samples: list[tuple[float, float]] = []

    def between_cases(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * self.every:
            self.samples.append(self._time_one())

    def medians(self) -> tuple[float, float]:
        """Median set-up time in nominal seconds and in wall seconds."""
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._time_one())
        nominal = [s / ref * NOMINAL_REFERENCE_S for s, ref in self.samples]
        return statistics.median(nominal), statistics.median(s for s, _ in self.samples)

    def _time_one(self) -> tuple[float, float]:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH / "firstcase.py"), str(self.case_file)],
                capture_output=True, text=True, timeout=150, check=False,
            )
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        if done.returncode != 0:
            raise SystemExit(f"bench: first case failed in a fresh process:\n{done.stderr}")
        elapsed, reference = done.stdout.split()[-2:]
        return float(elapsed), float(reference)


def traced_run(necsurf, cycle, untraced: Loop, min_cases: int):
    """Run whole cycles once more with every necsurf layer wrapped, until
    ``min_cases`` cases; returns the loop, the per-layer metrics, the
    tracer and the full label -> (self seconds, calls) table."""
    with Tracer() as tracer:
        layers.install(tracer, necsurf)
        loop = run_loop(cycle, 0, tracer, min_cases)
    metrics, totals = layers.layer_metrics(tracer, len(loop.seconds))
    plain, traced = untraced.metrics()["cases_per_ref"][0], loop.metrics()["cases_per_ref"][0]
    metrics.update({
        "trace.cases": len(loop.seconds),
        "trace.spans": len(tracer.start),
        "trace.untraced_cases_per_ref": plain,
        "trace.traced_cases_per_ref": traced,
        "trace.overhead_ratio": plain / traced,
    })
    return loop, metrics, tracer, totals


def write_trace(workload, seed, metrics, tracer, totals) -> None:
    stem = f"{workload}-seed{seed}"
    tracer.write(OUT / f"{stem}-spans.tsv.gz")
    report = {"workload": workload, "seed": seed, "metrics": metrics,
              "layers": {label: {"self_s": s, "calls": c} for label, (s, c) in sorted(totals.items())}}
    (OUT / f"{stem}-trace.json").write_text(json.dumps(report, indent=1))


def print_trace_report(workload, metrics, totals) -> None:
    cases = metrics["trace.cases"]
    print(f"traced run of {workload}: {cases} cases, {metrics['trace.spans']} spans")
    print(f"  tracing overhead {metrics['trace.overhead_ratio']:.3f}"
          f" = untraced {metrics['trace.untraced_cases_per_ref']:.4g}"
          f" / traced {metrics['trace.traced_cases_per_ref']:.4g} cases per ref")
    print(f"  {'layer':<44} {'self s':>10} {'calls':>10}")
    for label, (self_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        if calls:
            print(f"  {label:<44} {self_s:>10.4f} {calls:>10}")
    print(f"  eta_useful_ratio {metrics['pipeline.eta_useful_ratio']:.4g}"
          f" = {metrics['pipeline.construct_eta.calls']} construct_eta calls"
          f" / {metrics['pipeline.eta_hom_checks']} eta_hom_checks")
    print(f"  search_yield_ratio {metrics['pipeline.search_yield_ratio']:.4g}"
          f" = {metrics['pipeline.search_found']} found"
          f" / {metrics['pipeline.search_candidates']} search_candidates")
    print(f"  validate_calls_per_case {metrics['pipeline.validate_calls_per_case']:.4g}"
          f" = {metrics['pipeline.validate_action.calls']} calls / {cases} cases")
    for key in layers.COUNTS:
        print(f"  {key} {metrics[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    necsurf = import_necsurf()
    OUT.mkdir(exist_ok=True)
    cycle = workloads.generate(args.workload, args.seed, OUT)
    gc.collect()
    gc.freeze()  # the collections before each case then skip the inputs and modules

    if args.trace:
        untraced = run_loop(cycle, 0, min_cases=1)
        traced, layer, tracer, totals = traced_run(necsurf, cycle, untraced, min_cases=1)
        write_trace(args.workload, args.seed, layer, tracer, totals)
        print_trace_report(args.workload, layer, totals)
        attempted = len(untraced.seconds) + len(traced.seconds)
        problems = untraced.problems + traced.problems
        metrics = {name: {"value": value, "unit": layers.unit_of(name)} for name, value in layer.items()}
    else:
        setup = SetupProbe(cycle[0][0], args.seconds)
        loop = run_loop(cycle, args.seconds, between=setup.between_cases)
        setup_s, setup_wall_s = setup.medians()
        attempted, problems = len(loop.seconds), loop.problems
        values = loop.metrics()
        values["setup_s"] = (setup_s, "s")
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        wall = {**loop.wall_metrics(), "setup_wall_s": (setup_wall_s, "s")}
        for name, (value, unit) in {**values, **wall}.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    failed = len(problems)
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g}"
          f" ({failed} failed / {attempted} attempted)")
    for case, found in problems[:5]:
        print(f"FAILED {json.dumps(case)}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # String hashes are salted per process unless PYTHONHASHSEED is set,
    # which moves necsurf's name-keyed dicts and sets around and shifts
    # case times by several percent from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
