"""Run one benchmark case in a fresh process and print the seconds from
``import necsurf`` to the end of the case, then the median time of the
reference loop around it.

Usage: python3 bench/firstcase.py CASE.json  (written by bench/run.py)
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
import workloads  # noqa: E402
from run import time_reference  # noqa: E402


def main() -> int:
    case = json.loads(Path(sys.argv[1]).read_text())
    references = [time_reference() for _ in range(5)]
    started = perf_counter()
    import necsurf  # noqa: F401  (the import is part of what is timed)

    output = workloads.run_case(case)
    elapsed = perf_counter() - started
    references += [time_reference() for _ in range(5)]
    problems = workloads.check_case(case, output)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    print(f"{elapsed:.9f} {statistics.median(references):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
