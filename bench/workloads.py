"""The four workloads: seeded input generation, how each case calls
necsurf, and how its output is checked against the oracles.

A case is a JSON-serialisable dict, so a fresh process can run the first
case of a workload (see ``firstcase.py``).  ``generate`` returns a cycle:
a list of passes, each a list of cases.  The timed loop runs whole
cycles, so every run of a workload does the same mix of work.  necsurf is
imported only inside ``run_case``, so importing this module costs a fresh
process nothing that set-up time should count.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import oracles

WORKLOADS = ("action-battery", "signature-battery", "scaling-ladder", "epimorphism-search")
MIN_CASES = 100

LADDER_ROWS = (
    (10, (), 4),
    (20, (), 4),
    (40, (), 4),
    (2, (2, 4, 6, 12, 2, 4, 6, 12, 3), 24),
    (1, (2, 4, 6, 12, 2, 4, 6, 12, 3, 4), 24),
    (2, (60, 60), 120),
    (1, (60, 20, 12), 120),
)
INFEASIBLE_SEARCHES = ((9, (), 8), (11, (), 8))
BRUTE_FORCE_LIMIT = 5000  # largest residue space order**(gamma + r) counted by brute force


# -- input generation ----------------------------------------------------

def battery_shapes(max_gamma=5, max_r=4, max_order=12):
    """Hyperbolic (gamma; -; [periods]) with periods dividing n, 2n <= 12."""
    shapes = []
    for order in range(4, max_order + 1, 4):
        divisors = [p for p in range(2, order // 2 + 1) if (order // 2) % p == 0]
        for gamma in range(1, max_gamma + 1):
            for r in range(max_r + 1):
                for periods in combinations_with_replacement(divisors, r):
                    if oracles.reduced_area(gamma, periods) > 0:
                        shapes.append((gamma, periods, order))
    return shapes


def complete_glides(rng, gamma, x, order, tries=100):
    """Odd glide images d, drawn at random, that make (d, x) an
    epimorphism; None if there are none."""
    n = order // 2
    for _ in range(tries):
        d = [rng.randrange(1, order, 2) for _ in range(gamma - 1)]
        rest = -(2 * sum(d) + sum(x)) % order
        odd = [v for v in (rest // 2, rest // 2 + n) if rest % 2 == 0 and v % 2]
        if not odd:
            return None  # the parity of sum(x) rules out every completion
        last = [v for v in odd if gcd(order, *d, v, *x) == 1]
        if last:
            return (*d, rng.choice(last))
        if gamma == 1:
            return None
    return None


def completable_elliptics(gamma, periods, order):
    """Every elliptic image tuple (exact orders) that some glide images
    complete to an epimorphism."""
    probe = random.Random(0)
    return [
        x for x in product(*(oracles.exact_order_residues(p, order) for p in periods))
        if complete_glides(probe, gamma, x, order) is not None
    ]


def draw_rho(rng, gamma, periods, order, elliptics=None):
    """A seeded epimorphism: elliptic images uniform over ``elliptics``
    (default: all completable tuples), then glide images uniform over
    their completions.  Checked by the benchmark's own oracle."""
    x = rng.choice(elliptics or completable_elliptics(gamma, periods, order))
    d = complete_glides(rng, gamma, x, order)
    problems = oracles.epimorphism_problems(gamma, periods, order, d, x)
    if problems:
        raise AssertionError(f"generator drew a bad rho: {problems}")
    return list(d), list(x)


def multiplicity_classes(gamma, periods, order):
    """Completable elliptic tuples grouped by the multiset of their value
    multiplicities, which fixes how many distinct orderings they have."""
    classes: dict[tuple[int, ...], list] = {}
    for x in completable_elliptics(gamma, periods, order):
        classes.setdefault(tuple(sorted(Counter(x).values())), []).append(x)
    return [classes[key] for key in sorted(classes)]


def shuffle_after_first(rng, cases):
    """Seeded case order.  The first case stays put: it is the one whose
    cost set-up time includes, so it should not change with the seed."""
    rest = cases[1:]
    rng.shuffle(rest)
    return [cases[0], *rest]


def _action_battery(rng, out_dir: Path):
    cases = []
    for i, (gamma, periods, order) in enumerate(battery_shapes()):
        if not oracles.residue_count(gamma, periods, order):
            continue
        d, x = draw_rho(rng, gamma, periods, order)
        source = out_dir / f"action-{i}.json"
        source.write_text(json.dumps(
            {"gamma": gamma, "periods": list(periods), "n": order // 2, "rho": {"d": d, "x": x}}))
        cases.append({"kind": "cli-realize", "gamma": gamma, "periods": list(periods),
                      "order": order, "d": d, "x": x, "input": str(source),
                      "output": str(out_dir / "certificate.json")})
    return [shuffle_after_first(rng, cases)]


def _signature_battery(rng, out_dir: Path):
    cases = [
        {"kind": "derive-lemma", "gamma": gamma, "periods": list(periods)}
        for gamma in range(1, 6)
        for r in range(5)
        for periods in combinations_with_replacement(range(2, 9), r)
        if oracles.reduced_area(gamma, periods) > 0
    ]
    return [shuffle_after_first(rng, cases)]


def _scaling_ladder(rng, out_dir: Path):
    # The cost of eta on the r-rows grows with the number of distinct
    # orderings of the elliptic images.  Each row therefore cycles through
    # its multiplicity classes in a seeded order, and a cycle holds one
    # round of the row with the most classes, so that the seed changes
    # which rho is drawn but hardly the mix of costs.
    rows = [(row, multiplicity_classes(*row)) for row in LADDER_ROWS]
    orders = {row: rng.sample(range(len(classes)), len(classes)) for row, classes in rows}
    cycle = []
    for k in range(max(len(classes) for _, classes in rows)):
        cases = []
        for row, classes in rows:
            gamma, periods, order = row
            elliptics = classes[orders[row][k % len(classes)]]
            d, x = draw_rho(rng, gamma, periods, order, elliptics)
            cases.append({"kind": "realize", "gamma": gamma, "periods": list(periods),
                          "order": order, "d": d, "x": x})
        cycle.append(cases)
    return cycle


def _epimorphism_search(rng, out_dir: Path):
    cases = []
    for gamma, periods, order in battery_shapes():
        count = oracles.residue_count(gamma, periods, order)
        if not count:
            continue
        if order ** (gamma + len(periods)) <= BRUTE_FORCE_LIMIT:
            if oracles.brute_force_count(gamma, periods, order) != count:
                raise AssertionError(f"count oracles disagree on {gamma}, {periods}, {order}")
        cases.append({"kind": "enumerate", "gamma": gamma, "periods": list(periods),
                      "order": order, "count": count})
    walks = []
    for gamma, periods, order in INFEASIBLE_SEARCHES:
        if not oracles.infeasible_by_parity(gamma, periods, order):
            raise AssertionError(f"{gamma}, {periods}, {order} is not parity-infeasible")
        walks.append({"kind": "first", "gamma": gamma, "periods": list(periods), "order": order})
    # The gamma = 11 walk alone takes longer than all the enumerations; it
    # runs in every other pass, so that the enumerations are timed more
    # often in a run.
    return [shuffle_after_first(rng, cases + walks), shuffle_after_first(rng, cases)]


GENERATORS = {
    "action-battery": _action_battery,
    "signature-battery": _signature_battery,
    "scaling-ladder": _scaling_ladder,
    "epimorphism-search": _epimorphism_search,
}


def generate(workload: str, seed: int, out_dir: Path) -> list[list[dict]]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), out_dir)


# -- running a case ------------------------------------------------------

def run_case(case: dict):
    """Call necsurf on one case; returns what ``check_case`` needs.  Every
    call goes through a module attribute, so a traced run sees it."""
    kind = case["kind"]
    gamma, periods = case["gamma"], tuple(case["periods"])
    if kind == "cli-realize":
        import necsurf.cli

        return necsurf.cli.main(["--format", "json", "--out", case["output"], "realize", case["input"]])
    from necsurf import pipeline, presentations, signatures

    if kind == "realize":
        datum = pipeline.ActionDatum(gamma, periods, case["order"] // 2, tuple(case["d"]), tuple(case["x"]))
        return pipeline.realize(datum)
    if kind == "derive-lemma":
        K = presentations.canonical_presentation(signatures.quotient_disc_signature(gamma, periods))
        derived = pipeline.derive_delta_hat(K, pipeline.build_theta(K))
        return derived, pipeline.lemma1_check(derived)
    if kind == "first":
        return pipeline.first_smooth_epimorphism(gamma, periods, case["order"])
    if kind == "enumerate":
        return pipeline.enumerate_smooth_epimorphisms(gamma, periods, case["order"])
    raise ValueError(f"unknown case kind {kind!r}")


def _json_certificate(doc: dict) -> dict:
    sig = doc["delta_hat_signature"]
    return {
        "rho": (doc["rho_resolved"]["d"], doc["rho_resolved"]["x"]),
        "genus": doc["genus"],
        "delta_hat": (sig["sign"], sig["genus"], sig["proper_periods"], sig["period_cycles"]),
        "image_order": doc["theta_extension"]["image_order"],
        "kernel_index": doc["theta_extension"]["kernel_index"],
        "unit": doc["eta"]["unit"],
        "torsion_images": doc["eta"]["torsion_images"],
        "conclusion": doc["conclusion"],
    }


def _library_certificate(cert) -> dict:
    sig = cert.derived.report.signature
    return {
        "rho": (list(cert.datum.d_images), list(cert.datum.x_images)),
        "genus": cert.genus,
        "delta_hat": (sig.sign, sig.genus, sig.proper_periods, sig.period_cycles),
        "image_order": cert.extension.image_order,
        "kernel_index": cert.extension.kernel_index,
        "unit": cert.eta.unit,
        "torsion_images": cert.eta.torsion_images,
        "conclusion": cert.conclusion,
    }


def check_case(case: dict, output) -> list[str]:
    """Problems with a case's output; empty when every oracle agrees."""
    kind = case["kind"]
    gamma, periods = case["gamma"], tuple(case["periods"])
    if kind in ("cli-realize", "realize"):
        if kind == "cli-realize":
            if output != 0:
                return [f"necsurf realize exited with {output}"]
            with open(case["output"], encoding="utf-8") as handle:
                cert = _json_certificate(json.load(handle))
        else:
            cert = _library_certificate(output)
        return oracles.certificate_problems(gamma, periods, case["order"], case["d"], case["x"], cert)
    if kind == "derive-lemma":
        derived, lemma = output
        sig = derived.report.signature
        problems = oracles.signature_problems(
            gamma, periods, sig.sign, sig.genus, sig.proper_periods, sig.period_cycles)
        if not lemma.ok or (gamma % 2 == 0 and not lemma.connector_product_zero):
            problems.append("normality lemma verdict is not ok")
        if len(lemma.inversion_entries) != len(derived.subgroup.generators):
            problems.append("lemma did not check every kernel generator")
        return problems
    if kind == "first":  # only parity-infeasible shapes are searched
        return [] if output is None else [f"found {output} where none can exist"]
    if kind == "enumerate":
        return oracles.enumeration_problems(gamma, periods, case["order"], output.tuples, case["count"])
    raise ValueError(f"unknown case kind {kind!r}")
