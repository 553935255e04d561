"""Which necsurf layers the traced run wraps, the counts it records at
their boundaries, and the per-layer metrics derived from them.

Every public function defined in a ``necsurf`` module is wrapped wherever
a module namespace holds it (``pipeline.check_homomorphism`` is the same
object as ``presentations.check_homomorphism``), and labelled
``<defining module>.<name>``.  Generator functions are left alone, since
a span would close before their work is done.  ``Word`` construction is
counted without spans: it happens about a million times per battery pass.
"""

from __future__ import annotations

import importlib
import inspect

from oracles import candidate_space, exact_order_residues

MODULES = ("abelian", "cli", "cosets", "groups", "kernels", "pipeline",
           "presentations", "signatures", "words")
METHODS = (("cosets", "SchreierSubgroup", "rewrite"), ("abelian", "Abelianization", "class_of"))

# Layers reported in BENCHMARK.json, each as <layer>.self_s and <layer>.calls.
REPORTED_LAYERS = (
    "pipeline.validate_action", "pipeline.construct_eta", "pipeline.extend_to_dihedral",
    "pipeline.derive_delta_hat", "pipeline.lemma1_check", "cosets.reidemeister_schreier",
    "cosets.SchreierSubgroup.rewrite", "kernels.kernel_signature_index2",
    "abelian.abelianization", "abelian.smith_normal_form", "abelian.Abelianization.class_of",
    "presentations.verify_derived_relator", "presentations.check_homomorphism",
    "pipeline.first_smooth_epimorphism", "pipeline.enumerate_smooth_epimorphisms",
    "cli.main", "cli.certificate_json", "cli.render_json",
)
COUNTS = ("words.constructed", "cosets.kernel_generators", "cosets.kernel_relators",
          "cosets.relator_letters", "abelian.matrix_cells", "pipeline.theta_reflections_tried",
          "pipeline.search_candidates", "pipeline.search_found")


def _first_hit_rank(gamma, periods, order, datum) -> int:
    """Position of the found tuple in the search order (odd glide images,
    then exact-order elliptic images, lexicographically)."""
    rank = 0
    for v in datum.d_images:
        rank = rank * (order // 2) + (v - 1) // 2
    for t, p in zip(datum.x_images, periods):
        residues = exact_order_residues(p, order)
        rank = rank * len(residues) + residues.index(t)
    return rank


def _on_derive(counts, args, kwargs, derived) -> None:
    pres = derived.presentation
    counts["cosets.kernel_generators"] += len(pres.generators)
    counts["cosets.kernel_relators"] += len(pres.relators)
    counts["cosets.relator_letters"] += sum(len(rel) for rel in pres.relators)


def _on_snf(counts, args, kwargs, result) -> None:
    matrix = args[0]
    counts["abelian.matrix_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _on_extend(counts, args, kwargs, ext) -> None:
    counts["pipeline.theta_reflections_tried"] += ext.reflection_rotation + 1


def _on_first(counts, args, kwargs, datum) -> None:
    gamma, periods, order = args
    periods = tuple(periods)
    if datum is None:
        counts["pipeline.search_candidates"] += candidate_space(gamma, periods, order)
    else:
        counts["pipeline.search_candidates"] += _first_hit_rank(gamma, periods, order, datum) + 1
        counts["pipeline.search_found"] += 1


def _on_enumerate(counts, args, kwargs, result) -> None:
    gamma, periods, order = args
    counts["pipeline.search_candidates"] += candidate_space(gamma, tuple(periods), order)
    counts["pipeline.search_found"] += result.count


HOOKS = {
    "pipeline.derive_delta_hat": _on_derive,
    "abelian.smith_normal_form": _on_snf,
    "pipeline.extend_to_dihedral": _on_extend,
    "pipeline.first_smooth_epimorphism": _on_first,
    "pipeline.enumerate_smooth_epimorphisms": _on_enumerate,
}


def install(tracer, package) -> None:
    """Wrap every traced necsurf function and method in ``tracer``;
    ``tracer.restore()`` undoes all of it."""
    modules = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                label = f"{short}.{name}"
                wrappers[id(obj)] = (obj, tracer.wrap(label, obj, HOOKS.get(label)))
    for namespace in (package, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                tracer.patch(namespace, attr, entry[1])
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        tracer.patch(cls, method, tracer.wrap(f"{short}.{cls_name}.{method}", vars(cls)[method]))
    word = modules["words"].Word
    tracer.patch(word, "__post_init__", tracer.count_calls("words.constructed", vars(word)["__post_init__"]))


def unit_of(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("cases_per_ref"):
        return "1/ref"
    if metric.endswith("calls_per_case"):
        return "calls/case"
    return "ratio" if metric.endswith("_ratio") else "count"


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(tracer, cases: int) -> tuple[dict[str, float], dict[str, tuple[float, int]]]:
    """The per-layer metrics of BENCHMARK.json (totals over the traced
    loop) and the full label -> (self seconds, calls) table."""
    totals = tracer.layer_totals()
    metrics: dict[str, float] = {}
    for layer in REPORTED_LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = calls
    for key in COUNTS:
        metrics[key] = tracer.counts[key]
    eta_checks = sum(
        1 for i, label_id in enumerate(tracer.label)
        if tracer.labels[label_id] == "presentations.check_homomorphism"
        and tracer.label_of_parent(i) == "pipeline.construct_eta"
    )
    metrics["pipeline.eta_hom_checks"] = eta_checks
    # Each construct_eta call keeps exactly one of the homomorphisms it checks.
    metrics["pipeline.eta_useful_ratio"] = ratio(metrics["pipeline.construct_eta.calls"], eta_checks)
    metrics["pipeline.validate_calls_per_case"] = ratio(metrics["pipeline.validate_action.calls"], cases)
    metrics["pipeline.search_yield_ratio"] = ratio(
        metrics["pipeline.search_found"], metrics["pipeline.search_candidates"])
    return metrics, totals
