"""Self time from spans, and the traced run's patching of necsurf."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import layers
import run
from tracer import Tracer, self_times


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 6]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    assert self_times(parents, starts, ends) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]  # children cover [1, 7] and [9, 10]
    assert self_times(parents, starts, ends)[0] == pytest.approx(3.0)


def test_layer_totals_sum_self_time_per_label():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda f: f() + 1)
    inner = tracer.wrap("inner", lambda: 1)
    assert outer(inner) == 2 and inner() == 1
    totals = tracer.layer_totals()
    assert totals["outer"][1] == 1 and totals["inner"][1] == 2
    assert tracer.parent[1] == 0 and tracer.parent[2] == -1
    whole = tracer.end[0] - tracer.start[0]
    assert totals["outer"][0] == pytest.approx(whole - (tracer.end[1] - tracer.start[1]))


def _namespaces(necsurf):
    """Every module and class namespace of necsurf, by identity of value."""
    snapshot = {}
    for short in layers.MODULES + ("",):
        module = importlib.import_module("necsurf" + (f".{short}" if short else ""))
        snapshot[module.__name__] = {k: id(v) for k, v in vars(module).items()}
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__.startswith("necsurf"):
                snapshot[f"{module.__name__}.{name}"] = {k: id(v) for k, v in vars(cls).items()}
    return snapshot


def test_traced_run_restores_every_wrapped_attribute():
    necsurf = run.import_necsurf()
    before = _namespaces(necsurf)
    cycle = [[{"kind": "realize", "gamma": 1, "periods": [2, 2, 2], "order": 4, "d": [1], "x": [2, 2, 2]},
              {"kind": "derive-lemma", "gamma": 2, "periods": [3]}]]
    untraced = run.run_loop(cycle, 0, min_cases=2)
    loop, metrics, tracer, totals = run.traced_run(necsurf, cycle, untraced, min_cases=2)
    assert not loop.problems and len(loop.seconds) == 2
    assert totals["presentations.check_homomorphism"][1] > 0
    assert metrics["pipeline.validate_action.calls"] == 1
    assert metrics["words.constructed"] > 0
    assert _namespaces(necsurf) == before


def test_restore_runs_when_traced_code_raises():
    necsurf = run.import_necsurf()
    before = _namespaces(necsurf)
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            layers.install(tracer, necsurf)
            assert necsurf.pipeline.first_smooth_epimorphism.__wrapped__
            necsurf.pipeline.first_smooth_epimorphism(0, (), 4)
    assert _namespaces(necsurf) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    necsurf = run.import_necsurf()
    cycle = [[{"kind": "first", "gamma": 3, "periods": [], "order": 4},
              {"kind": "enumerate", "gamma": 2, "periods": [2, 2], "order": 4, "count": 4}]]
    untraced = run.run_loop(cycle, 0, min_cases=2)
    _, metrics, _, _ = run.traced_run(necsurf, cycle, untraced, min_cases=2)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layers.unit_of(m["name"]) == m["unit"]
    units = {name: unit for name, (_, unit) in untraced.metrics().items()}
    units.update(setup_s="s", peak_rss_mb="MB")
    assert units == {m["name"]: m["unit"] for m in spec["end_to_end"]}
