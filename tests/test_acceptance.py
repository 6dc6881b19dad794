"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them for passing tests) and asserts the same condition.
"""

import json

from wreathbranch import cli
from wreathbranch.branching import branch_second
from wreathbranch.lr import lr_multi
from wreathbranch.shapes import (enumerate_partitions, removable_boxes,
                                 specht_dimension)
from wreathbranch.verify import (verify_cosets, verify_dimensions,
                                 verify_labelling_equivalence,
                                 verify_length_lemma, verify_lr_oracle,
                                 verify_stabilizers)

from helpers import count_standard_tableaux


def _report(num: int, title: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} ({title}): {status} [{detail}]")
    assert ok, f"acceptance {num} ({title}): {detail}"


def test_acceptance_1_worked_example(capsys):
    code = cli.main(["branch-first", "-m", "3",
                     "--lambda", "[[2],[1,1],[1,1]]", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    hit = {"nu": [[3], [2, 1]], "mult": 1} in payload["multiplicities"]
    with capsys.disabled():
        _report(1, "worked example", code == 0 and hit,
                "branch-first -m 3 reports mult 1 at nu=[[3],[2,1]]")


def test_acceptance_2_labelling_matrix_equivalence():
    report = verify_labelling_equivalence(max_m=4, max_n=6)
    _report(2, "labelling/matrix equivalence", not report["failures"],
            f"{report['checked']} instances, "
            f"{len(report['failures'])} failures")


def test_acceptance_3_first_rule_dimension_identity():
    report = verify_dimensions("first", max_m=4, max_n=5)
    _report(3, "first-rule dimension identity", not report["failures"],
            f"{report['checked']} instances, "
            f"{len(report['failures'])} failures")


def test_acceptance_4_second_rule_dimension_identity():
    report = verify_dimensions("second", max_m=5, max_n=6)
    _report(4, "second-rule dimension identity", not report["failures"],
            f"{report['checked']} instances, "
            f"{len(report['failures'])} failures")


def test_acceptance_5_lr_oracle_agreement():
    report = verify_lr_oracle(max_total=11)
    _report(5, "LR oracle agreement", not report["failures"],
            f"{report['checked']} coefficients, "
            f"{len(report['failures'])} failures")


def test_acceptance_6_specht_dimension_consistency():
    bad = []
    checked = 0
    for size in range(0, 9):
        for lam in enumerate_partitions(size):
            checked += 1
            if specht_dimension(lam) != count_standard_tableaux(lam):
                bad.append(("syt", lam))
            if size <= 7 and specht_dimension(lam) != lr_multi(
                    lam, ((1,),) * size):
                bad.append(("lr", lam))
    _report(6, "Specht dimension consistency", not bad,
            f"{checked} shapes, {len(bad)} failures")


def test_acceptance_7_coset_machinery():
    reports = [verify_cosets(max_n=6), verify_stabilizers(max_n=6),
               verify_length_lemma(max_n=6)]
    failures = [f for r in reports for f in r["failures"]]
    checked = sum(r["checked"] for r in reports)
    _report(7, "coset machinery", not failures,
            f"{checked} instances, {len(failures)} failures")


def test_acceptance_8_m1_degeneration():
    bad = []
    checked = 0
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            checked += 1
            got = branch_second(1, (lam,))
            want = {(d,): 1 for d in removable_boxes(lam)}
            if got != want:
                bad.append(lam)
    _report(8, "m=1 degeneration", not bad,
            f"{checked} shapes, {len(bad)} failures")
