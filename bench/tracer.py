"""In-memory span recorder that wraps module attributes from outside.

A ``Tracer`` replaces functions with wrappers that record one span per
call (label, start, end, parent span, case id) in flat arrays, and puts
every original back on ``restore``.  Spans are written out only at the
end, and each label's self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered, run_start, run_end = 0.0, None, None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_case = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, label: str, fn, on_return=None):
        """A wrapper recording one span per call of ``fn``; ``on_return``
        (counts, args, kwargs, result) runs after a call that returned."""
        label_id = len(self.labels)
        self.labels.append(label)
        stack = self._stack
        add_label, add_parent, add_case = self.label.append, self.parent.append, self.case.append
        add_start, add_end = self.start.append, self.end.append
        starts, ends, counts = self.start, self.end, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            add_label(label_id)
            add_parent(stack[-1] if stack else -1)
            add_case(self.current_case)
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def count_calls(self, key: str, fn):
        """A wrapper that only counts calls of ``fn``, for calls too
        frequent to keep a span each."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for ``restore``.
        For a class the original is read from its own ``__dict__``."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """label -> (total self seconds, calls), for labels with spans."""
        totals: dict[str, tuple[float, int]] = {}
        for label_id, s in zip(self.label, self_times(self.parent, self.start, self.end)):
            label = self.labels[label_id]
            seconds, calls = totals.get(label, (0.0, 0))
            totals[label] = (seconds + s, calls + 1)
        return totals

    def label_of_parent(self, span: int) -> str | None:
        p = self.parent[span]
        return self.labels[self.label[p]] if p >= 0 else None

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines: span, label, parent,
        case, start, end (seconds on the ``perf_counter`` clock)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlabel\tparent\tcase\tstart\tend\n")
            for i, (lab, par, case, s, e) in enumerate(
                zip(self.label, self.parent, self.case, self.start, self.end)
            ):
                out.write(f"{i}\t{self.labels[lab]}\t{par}\t{case}\t{s:.9f}\t{e:.9f}\n")
