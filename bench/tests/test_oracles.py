"""Each oracle accepts necsurf's real output and rejects a tampered one."""

import json
import random

import pytest

import oracles
import workloads

GENUS_TWO = {"kind": "realize", "gamma": 1, "periods": [2, 2, 2], "order": 4, "d": [1], "x": [2, 2, 2]}
TAMPERS = {
    "genus": lambda c: c.update(genus=c["genus"] + 1),
    "delta_hat": lambda c: c.update(delta_hat=(c["delta_hat"][0], c["delta_hat"][1], [2, 2], [])),
    "image_order": lambda c: c.update(image_order=c["image_order"] // 2),
    "kernel_index": lambda c: c.update(kernel_index=c["kernel_index"] + 1),
    "unit": lambda c: c.update(unit=2),
    "torsion_images": lambda c: c.update(torsion_images=[0, *c["torsion_images"][1:]]),
    "conclusion": lambda c: c.update(conclusion=False),
    "rho": lambda c: c.update(rho=([3], [2, 2, 2])),
}


def test_count_oracles_agree_with_each_other_and_known_counts():
    for gamma, periods, order in [(1, (2, 2, 2), 4), (2, (2, 2), 4), (1, (2, 2, 3), 12),
                                  (2, (3,), 12), (1, (6, 6), 12), (4, (), 8)]:
        assert oracles.residue_count(gamma, periods, order) == oracles.brute_force_count(
            gamma, periods, order)
    assert oracles.residue_count(1, (2, 2, 2), 4) == 2
    assert oracles.residue_count(3, (), 4) == 0
    assert oracles.residue_count(4, (), 4) == 16


def test_epimorphism_oracle_rejects_each_broken_condition():
    assert not oracles.epimorphism_problems(1, (2, 2, 2), 4, (1,), (2, 2, 2))
    assert oracles.epimorphism_problems(1, (2, 2, 2), 4, (2,), (2, 2, 2))  # even glide
    assert oracles.epimorphism_problems(1, (2, 2), 4, (1,), (2, 0))  # wrong order
    assert oracles.epimorphism_problems(2, (), 8, (1, 1), ())  # long relator
    not_generating = oracles.epimorphism_problems(2, (2, 2), 12, (3, 3), (6, 6))
    assert not_generating == ["images do not generate C_12"]


def test_riemann_hurwitz_genus():
    assert oracles.riemann_hurwitz_genus(1, (2, 2, 2), 4) == 2
    assert oracles.riemann_hurwitz_genus(1, (3, 2), 12) == 2
    with pytest.raises(ValueError):
        oracles.riemann_hurwitz_genus(1, (2, 2), 4)


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_certificate_oracle_rejects_tampered_field(field):
    cert = workloads._library_certificate(workloads.run_case(GENUS_TWO))
    args = (1, (2, 2, 2), 4, [1], [2, 2, 2])
    assert oracles.certificate_problems(*args, dict(cert)) == []
    TAMPERS[field](cert)
    assert oracles.certificate_problems(*args, cert)


def test_cli_certificate_is_checked_from_the_written_json(tmp_path):
    rng = random.Random(3)
    case = workloads._action_battery(rng, tmp_path)[0][0]
    code = workloads.run_case(case)
    assert workloads.check_case(case, code) == []
    path = tmp_path / "certificate.json"
    doc = json.loads(path.read_text())
    doc["theta_extension"]["kernel_index"] += 2
    path.write_text(json.dumps(doc))
    assert workloads.check_case(case, code)
    assert workloads.check_case(case, 2)  # a non-zero exit code fails the case


def test_signature_and_lemma_oracle_rejects_tampered_signature():
    case = {"kind": "derive-lemma", "gamma": 2, "periods": [3, 2]}
    derived, lemma = workloads.run_case(case)
    assert workloads.check_case(case, (derived, lemma)) == []
    assert oracles.signature_problems(2, (3, 2), "-", 2, [2, 3], [])  == []
    assert oracles.signature_problems(2, (3, 2), "-", 2, [3, 2], [])
    assert oracles.signature_problems(2, (3, 2), "+", 2, [2, 3], [])
    assert workloads.check_case({**case, "periods": [3, 3]}, (derived, lemma))


def test_infeasible_oracle_rejects_a_found_epimorphism():
    case = {"kind": "first", "gamma": 3, "periods": [], "order": 4}
    assert oracles.infeasible_by_parity(3, (), 4)
    assert workloads.check_case(case, workloads.run_case(case)) == []
    assert workloads.check_case(case, object())


def test_enumeration_oracle_rejects_tampered_counts_and_tuples():
    case = {"kind": "enumerate", "gamma": 2, "periods": [3], "order": 12,
            "count": oracles.residue_count(2, (3,), 12)}
    result = workloads.run_case(case)
    tuples = list(result.tuples)
    check = lambda ts, count=case["count"]: oracles.enumeration_problems(2, (3,), 12, ts, count)
    assert check(tuples) == []
    assert check(tuples, case["count"] + 1)
    assert check(tuples[:-1])
    assert check([tuples[1], tuples[0], *tuples[2:]])
    assert check([((2, 1), (4,)), *tuples[1:]])


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.generate("scaling-ladder", 7, tmp_path)
    assert first == workloads.generate("scaling-ladder", 7, tmp_path)
    assert first != workloads.generate("scaling-ladder", 8, tmp_path)
    for cases in first:
        for case in cases:
            assert not oracles.epimorphism_problems(
                case["gamma"], case["periods"], case["order"], case["d"], case["x"])
