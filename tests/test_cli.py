import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import wreathbranch
from helpers import (adjacency_of, branch_human, branch_payload,
                     cheapest_first_rule_requests, concat_parts,
                     labellings_payload)
from wreathbranch import branching, cli, verify
from wreathbranch.shapes import enumerate_partitions, multipartitions


# Exact stdout, byte for byte, of commands whose counts alone would not
# catch a change in order or formatting.
PINNED_STDOUT = {
    ("cosets", "--gamma", "(3,1,0,2,3)", "--alpha", "(8,1)", "--json"):
        ('{"alpha": [8, 1], "count": 4, "gamma": [3, 1, 0, 2, 3], '
         '"reps": ["e", "(6,9,8,7)", "(4,9,8,7,6,5)", '
         '"(3,9,8,7,6,5,4)"]}\n'),
    ("labellings", "-m", "3", "--lambda",
     "[[2],[1,1],[1,1]]", "--nu", "[[3],[2,1]]", "--json"):
        ('{"labellings": [{"coefficient": 0, "labels": [{"label": [2], '
         '"lower": 1, "upper": 1}, {"label": [1], "lower": 2, '
         '"upper": 2}, {"label": [1], "lower": 1, "upper": 2}, '
         '{"label": [2], "lower": 2, "upper": 3}]}, {"coefficient": 1, '
         '"labels": [{"label": [2], "lower": 1, "upper": 1}, '
         '{"label": [1], "lower": 2, "upper": 2}, {"label": [1], '
         '"lower": 1, "upper": 2}, {"label": [1, 1], "lower": 2, '
         '"upper": 3}]}, {"coefficient": 0, "labels": [{"label": [1, '
         '1], "lower": 1, "upper": 1}, {"label": [1], "lower": 2, '
         '"upper": 2}, {"label": [1], "lower": 1, "upper": 2}, '
         '{"label": [2], "lower": 2, "upper": 3}]}, {"coefficient": 0, '
         '"labels": [{"label": [1, 1], "lower": 1, "upper": 1}, '
         '{"label": [1], "lower": 2, "upper": 2}, {"label": [1], '
         '"lower": 1, "upper": 2}, {"label": [1, 1], "lower": 2, '
         '"upper": 3}]}], "lambda": [[2], [1, 1], [1, 1]], "m": 3, '
         '"nu": [[3], [2, 1]], "total": 1}\n'),
    ("branch-second", "-m", "3", "--lambda", "[[1],[1],[]]", "--json"):
        ('{"lambda": [[1], [1], []], "m": 3, '
         '"multiplicities": [{"mult": 2, "nu": [[1], [], []]}, '
         '{"mult": 1, "nu": [[], [1], []]}], "n": 2, "rule": "second"}\n'),
    ("partitions", "4"):
        '[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]\n',
    ("partitions", "4", "--json"):
        ('{"m": 4, "partitions": [[4], [3, 1], [2, 2], [2, 1, '
         '1], [1, 1, 1, 1]]}\n'),
    ("dim", "--partition", "[3,2]"):
        '5\n',
    ("dim", "--partition", "[3,2]", "--json"):
        '{"dim": 5, "partition": [3, 2]}\n',
    ("lr", "--lambda", "[3,2,1]", "--alpha", "[2,1]", "--beta", "[2,1]"):
        '2\n',
    ("lr", "--lambda", "[3,2,1]", "--alpha", "[2,1]", "--beta", "[2,1]",
     "--json"):
        ('{"alpha": [2, 1], "beta": [2, 1], "coefficient": 2, '
         '"lambda": [3, 2, 1]}\n'),
    ("lr-multi", "--lambda", "[3,2,1]", "--parts", "[2];[1,1];[1,1]"):
        '2\n',
    ("lr-multi", "--lambda", "[3,2,1]", "--parts", "[2];[1,1];[1,1]",
     "--json"):
        ('{"coefficient": 2, "lambda": [3, 2, 1], "parts": '
         '[[2], [1, 1], [1, 1]]}\n'),
    ("young-layer", "3"):
        ('upper: [[3], [2, 1], [1, 1, 1]]\n'
         'lower: [[2], [1, 1]]\n'
         'edges: 4\n'),
    ("young-layer", "3", "--json"):
        ('{"adjacency": [[1, 0], [1, 1], [0, 1]], "edges": '
         '[{"lower": 1, "upper": 1}, {"lower": 2, "upper": 2}, '
         '{"lower": 1, "upper": 2}, {"lower": 2, "upper": 3}], '
         '"lower": [[2], [1, 1]], "m": 3, "upper": [[3], [2, '
         '1], [1, 1, 1]]}\n'),
    ("labellings", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]", "--nu",
     "[[3],[2,1]]"):
        ('4 good labellings, coefficient sum 1\n'
         '  M(L)=0  (1,1):[2] (2,2):[1] (2,1):[1] (3,2):[2]\n'
         '  M(L)=1  (1,1):[2] (2,2):[1] (2,1):[1] (3,2):[1, 1]\n'
         '  M(L)=0  (1,1):[1, 1] (2,2):[1] (2,1):[1] (3,2):[2]\n'
         '  M(L)=0  (1,1):[1, 1] (2,2):[1] (2,1):[1] (3,2):[1, 1]\n'),
    ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]"):
        ('rule=first m=3 n=6 lambda=[[2], [1, 1], [1, 1]]\n'
         '  nu=[[3], [2, 1]] mult=1\n'
         '  nu=[[3, 1], [1, 1]] mult=1\n'
         '  nu=[[3], [1, 1, 1]] mult=1\n'
         '  nu=[[2], [2, 2]] mult=1\n'
         '  nu=[[2], [2, 1, 1]] mult=1\n'
         '  nu=[[2, 1], [2, 1]] mult=1\n'
         '  nu=[[2, 1, 1], [1, 1]] mult=1\n'
         '  nu=[[2, 1], [1, 1, 1]] mult=1\n'
         '  nu=[[2], [1, 1, 1, 1]] mult=1\n'),
    ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]", "--json"):
        ('{"lambda": [[2], [1, 1], [1, 1]], "m": 3, '
         '"multiplicities": [{"mult": 1, "nu": [[3], [2, 1]]}, '
         '{"mult": 1, "nu": [[3, 1], [1, 1]]}, {"mult": 1, '
         '"nu": [[3], [1, 1, 1]]}, {"mult": 1, "nu": [[2], [2, '
         '2]]}, {"mult": 1, "nu": [[2], [2, 1, 1]]}, {"mult": '
         '1, "nu": [[2, 1], [2, 1]]}, {"mult": 1, "nu": [[2, 1, '
         '1], [1, 1]]}, {"mult": 1, "nu": [[2, 1], [1, 1, 1]]}, '
         '{"mult": 1, "nu": [[2], [1, 1, 1, 1]]}], "n": 6, '
         '"rule": "first"}\n'),
    ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]", "--method",
     "both"):
        ('rule=first m=3 n=6 lambda=[[2], [1, 1], [1, 1]]\n'
         '  nu=[[3], [2, 1]] mult=1\n'
         '  nu=[[3, 1], [1, 1]] mult=1\n'
         '  nu=[[3], [1, 1, 1]] mult=1\n'
         '  nu=[[2], [2, 2]] mult=1\n'
         '  nu=[[2], [2, 1, 1]] mult=1\n'
         '  nu=[[2, 1], [2, 1]] mult=1\n'
         '  nu=[[2, 1, 1], [1, 1]] mult=1\n'
         '  nu=[[2, 1], [1, 1, 1]] mult=1\n'
         '  nu=[[2], [1, 1, 1, 1]] mult=1\n'),
    ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]", "--method",
     "both", "--json"):
        ('{"lambda": [[2], [1, 1], [1, 1]], "m": 3, '
         '"multiplicities": [{"mult": 1, "nu": [[3], [2, 1]]}, '
         '{"mult": 1, "nu": [[3, 1], [1, 1]]}, {"mult": 1, '
         '"nu": [[3], [1, 1, 1]]}, {"mult": 1, "nu": [[2], [2, '
         '2]]}, {"mult": 1, "nu": [[2], [2, 1, 1]]}, {"mult": '
         '1, "nu": [[2, 1], [2, 1]]}, {"mult": 1, "nu": [[2, 1, '
         '1], [1, 1]]}, {"mult": 1, "nu": [[2, 1], [1, 1, 1]]}, '
         '{"mult": 1, "nu": [[2], [1, 1, 1, 1]]}], "n": 6, '
         '"rule": "first"}\n'),
    ("branch-second", "-m", "3", "--lambda", "[[1],[1],[]]"):
        ('rule=second m=3 n=2 lambda=[[1], [1], []]\n'
         '  nu=[[1], [], []] mult=2\n'
         '  nu=[[], [1], []] mult=1\n'),
    ("wreath-dim", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]"):
        '360\n',
    ("wreath-dim", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]", "--json"):
        '{"dim": 360, "lambda": [[2], [1, 1], [1, 1]], "m": 3}\n',
    ("cosets", "--gamma", "(3,1,0,2,3)", "--alpha", "(8,1)"):
        ('e\n'
         '(6,9,8,7)\n'
         '(4,9,8,7,6,5)\n'
         '(3,9,8,7,6,5,4)\n'),
    ("rho", "--sizes", "(3,1,0,2,3)"):
        ('rho_1 = (3,9,8,7,6,5,4)\n'
         'rho_2 = (4,9,8,7,6,5)\n'
         'rho_4 = (6,9,8,7)\n'
         'rho_5 = e\n'),
    ("rho", "--sizes", "(3,1,0,2,3)", "--json"):
        ('{"reps": [{"cycles": "(3,9,8,7,6,5,4)", "index": 1}, '
         '{"cycles": "(4,9,8,7,6,5)", "index": 2}, {"cycles": '
         '"(6,9,8,7)", "index": 4}, {"cycles": "e", "index": '
         '5}], "sizes": [3, 1, 0, 2, 3]}\n'),
    ("verify", "--suite", "length-lemma", "--max-n", "3"):
        'suite length-lemma: 7 instances checked, 0 failures\n',
    ("verify", "--suite", "length-lemma", "--max-n", "3", "--json"):
        '{"checked": 7, "failures": [], "suite": "length-lemma"}\n',
    ("dim", "--partition", "[1,2]", "--json"):
        ('{"code": "computation-error", "message": "not a '
         'partition: (1, 2)", "status": "error"}\n'),
}

# Exit codes of the PINNED_STDOUT commands that do not succeed.
PINNED_EXIT = {("dim", "--partition", "[1,2]", "--json"): 2}

# Commands whose stdout is too long to pin in full: (bytes, SHA-256).
_M5 = ("branch-first", "-m", "5", "--lambda",
       "[[1],[1,1,1],[2],[1,1],[2],[3],[1]]")
PINNED_DIGEST = {
    _M5: (492807, "14616026c9161ccf55b08aa80dc934b27420280d"
                  "95a969f8568e6906ff979e73"),
    _M5 + ("--json",): (571270, "f93740d1d3e2db45dee2710a2396e2d1"
                                "26f6b857a1c15fcf1d0131f2c7a917fb"),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_zero(capsys):
    code, out, _ = run(capsys, "partitions", "0")
    assert code == 0
    assert out.strip() == "[[]]"


def test_partitions_three_json(capsys):
    code, out, _ = run(capsys, "partitions", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partitions"] == [[3], [2, 1], [1, 1, 1]]


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--partition", "[3,2]")
    assert code == 0
    assert out.strip() == "5"


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "--lambda", "[2,1]",
                       "--alpha", "[1]", "--beta", "[1,1]")
    assert code == 0
    assert out.strip() == "1"


def test_lr_multi(capsys):
    code, out, _ = run(capsys, "lr-multi", "--lambda", "[3,2,1]",
                       "--parts", "[1];[1];[1];[1];[1];[1]")
    assert code == 0
    assert out.strip() == "16"


def test_branch_first_worked_example_json(capsys):
    code, out, _ = run(capsys, "branch-first", "-m", "3",
                       "--lambda", "[[2],[1,1],[1,1]]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["n"] == 6
    assert payload["rule"] == "first"
    assert payload["lambda"] == [[2], [1, 1], [1, 1]]
    entry = {"nu": [[3], [2, 1]], "mult": 1}
    assert entry in payload["multiplicities"]


def test_branch_first_sorted_descending(capsys):
    _, out, _ = run(capsys, "branch-first", "-m", "2",
                    "--lambda", "[[1],[1]]", "--json")
    payload = json.loads(out)
    keys = [tuple(v for p in e["nu"] for v in p)
            for e in payload["multiplicities"]]
    assert keys == sorted(keys, reverse=True)


def test_branch_first_both_methods_agree(capsys):
    code, out, _ = run(capsys, "branch-first", "-m", "3",
                       "--lambda", "[[2],[1,1],[1,1]]", "--method", "both",
                       "--json")
    assert code == 0
    assert json.loads(out)["multiplicities"]


def test_branch_second(capsys):
    code, out, _ = run(capsys, "branch-second", "-m", "3",
                       "--lambda", "[[1],[1],[]]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "second" and payload["n"] == 2
    assert {"nu": [[1], [], []], "mult": 2} in payload["multiplicities"]
    assert {"nu": [[], [1], []], "mult": 1} in payload["multiplicities"]


def test_wreath_dim(capsys):
    code, out, _ = run(capsys, "wreath-dim", "-m", "3",
                       "--lambda", "[[2],[1,1],[1,1]]")
    assert code == 0
    assert out.strip() == "360"


def test_rho_worked_example(capsys):
    code, out, _ = run(capsys, "rho", "--sizes", "(3,1,0,2,3)")
    assert code == 0
    assert out.splitlines() == [
        "rho_1 = (3,9,8,7,6,5,4)",
        "rho_2 = (4,9,8,7,6,5)",
        "rho_4 = (6,9,8,7)",
        "rho_5 = e",
    ]


def test_cosets(capsys):
    code, out, _ = run(capsys, "cosets", "--gamma", "(3,1,0,2,3)",
                       "--alpha", "(8,1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert len(payload["reps"]) == 4
    # S_0 has one element, the identity
    code, out, _ = run(capsys, "cosets", "--gamma", "()", "--alpha", "()",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["reps"]) == (1, ["e"])


def test_young_layer(capsys):
    code, out, _ = run(capsys, "young-layer", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == [[3], [2, 1], [1, 1, 1]]
    assert payload["lower"] == [[2], [1, 1]]


def test_young_layer_prints_the_dense_matrix_of_the_edges(capsys):
    for m in range(1, 7):
        code, out, _ = run(capsys, "young-layer", str(m), "--json")
        assert code == 0
        assert json.loads(out)["adjacency"] == [
            list(row) for row in adjacency_of(branching.young_layer(m))]


def test_labellings_worked_example(capsys):
    code, out, _ = run(capsys, "labellings", "-m", "3",
                       "--lambda", "[[2],[1,1],[1,1]]",
                       "--nu", "[[3],[2,1]]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["labellings"]) == 4
    assert payload["total"] == 1


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lr-oracle",
                       "--max-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["checked"] > 0


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "dim")
    assert code == 1
    assert "usage error" in err


def test_unknown_verify_suite_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope", "--json")
    assert code == 1
    assert "usage error" in err
    assert out == ""


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


# The command list of the top-level --help, and the usage paragraph of
# each command's --help, as argparse prints them 80 columns wide.
HELP_COMMANDS = [
    "    partitions          list the partitions of m",
    "    dim                 Specht module dimension by hook lengths",
    "    lr                  Littlewood-Richardson coefficient",
    "    lr-multi            generalized LR coefficient",
    "    young-layer         two adjacent layers of the Young graph",
    "    labellings          good labellings with their coefficients",
    "    branch-first        restriction to the smaller inner group",
    "    branch-second       restriction to the smaller outer group",
    "    wreath-dim          dimension of a wreath product Specht module",
    "    cosets              double coset representatives from tableaux",
    "    rho                 cyclic coset representatives for given sizes",
    "    verify              run an exhaustive verification suite",
]

USAGE = {
    "partitions": "usage: wreathbranch partitions [-h] [--json] m",
    "dim": "usage: wreathbranch dim [-h] [--json] --partition PARTITION",
    "lr": ("usage: wreathbranch lr [-h] [--json] --lambda LAM --alpha ALPHA "
           "--beta BETA"),
    "lr-multi": ("usage: wreathbranch lr-multi [-h] [--json] --lambda LAM "
                 "--parts PARTS"),
    "young-layer": "usage: wreathbranch young-layer [-h] [--json] m",
    "labellings": ("usage: wreathbranch labellings [-h] [--json] -m M "
                   "--lambda LAM --nu NU"),
    "branch-first": (
        "usage: wreathbranch branch-first [-h] [--json] -m M --lambda LAM\n"
        "                                 [--method {labellings,matrices,"
        "both}]"),
    "branch-second": ("usage: wreathbranch branch-second [-h] [--json] -m M "
                      "--lambda LAM"),
    "wreath-dim": ("usage: wreathbranch wreath-dim [-h] [--json] -m M "
                   "--lambda LAM"),
    "cosets": ("usage: wreathbranch cosets [-h] [--json] --gamma GAMMA "
               "--alpha ALPHA"),
    "rho": "usage: wreathbranch rho [-h] [--json] --sizes SIZES",
    "verify": (
        "usage: wreathbranch verify [-h] [--json] --suite\n"
        "                           {cosets,dimensions-first,"
        "dimensions-second,labelling-equivalence,length-lemma,lr-oracle,"
        "stabilizers}\n"
        "                           [--max-m MAX_M] [--max-n MAX_N]"),
}


def _help(capsys, monkeypatch, *argv) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main([*argv, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_in_order(capsys, monkeypatch):
    out = _help(capsys, monkeypatch)
    assert [line for line in out.splitlines()
            if re.match(r"    \S", line)] == HELP_COMMANDS


@pytest.mark.parametrize("command", list(USAGE))
def test_command_help_usage(capsys, monkeypatch, command):
    assert _help(capsys, monkeypatch, command).split("\n\n")[0] == (
        USAGE[command])


USAGE_ERRORS = [
    (("frobnicate",),
     "argument command: invalid choice: 'frobnicate' (choose from "
     "'partitions', 'dim', 'lr', 'lr-multi', 'young-layer', 'labellings', "
     "'branch-first', 'branch-second', 'wreath-dim', 'cosets', 'rho', "
     "'verify')"),
    ((), "the following arguments are required: command"),
    (("lr", "--lambda", "[1]"),
     "the following arguments are required: --alpha, --beta"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_text(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("cosets", "--gamma", "({n})", "--alpha", "({ones})"),
    ("cosets", "--gamma", "({n})", "--alpha", "({n})"),
    ("cosets", "--gamma", "({ones})", "--alpha", "({n})"),
])
def test_cosets_past_the_recursion_limit_are_answered(argv):
    # double_coset_reps is one loop, so boxes in one row or one per row,
    # more than the recursion limit, need no deeper stack; and it never
    # starts a row that its remaining entries cannot finish, so n
    # distinct entries in one row take n steps, not 2^n
    n = sys.getrecursionlimit() + 100
    ones = ",".join(["1"] * n)
    proc = _fresh_python("-m", "wreathbranch.cli",
                         *(a.format(n=n, ones=ones) for a in argv), "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert (payload["count"], payload["reps"]) == (1, ["e"])


@pytest.mark.parametrize("shape", ["[{n}]", "[{ones}]"],
                         ids=["row", "column"])
def test_lr_past_the_recursion_limit_is_answered(shape):
    # the LR walk is one loop, so a shape longer than the recursion
    # limit needs no deeper stack
    n = sys.getrecursionlimit() + 100
    lam = shape.format(n=n, ones=",".join(["1"] * n))
    proc = _fresh_python("-m", "wreathbranch.cli", "lr", "--lambda", lam,
                         "--alpha", "[]", "--beta", lam)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


@pytest.mark.parametrize("shape", ["[{n}]", "[{ones}]"],
                         ids=["row", "column"])
def test_lr_multi_past_the_recursion_limit_is_answered(shape):
    # the peel is one loop over the parts, and its walk lists only the
    # nonzero beta of each shape: here one per part
    n = sys.getrecursionlimit() + 100
    lam = shape.format(n=n, ones=",".join(["1"] * n))
    proc = _fresh_python("-m", "wreathbranch.cli", "lr-multi", "--lambda",
                         lam, "--parts", ";".join(["[1]"] * n))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_computation_error_exit_code(capsys):
    code, out, _ = run(capsys, "dim", "--partition", "[1,2]")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["code"] == "computation-error"


@pytest.mark.parametrize("argv", [
    ("dim", "--partition", "[true]"),
    ("branch-first", "-m", "3", "--lambda", "[[true],[],[]]"),
])
def test_bool_parts_are_computation_errors(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["code"] == "computation-error"


def test_verify_default_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "length-lemma", "--json")
    assert code == 0
    assert json.loads(out)["checked"] == 2083


@pytest.mark.parametrize("argv", [
    ("--suite", "length-lemma", "--max-n", "0"),
    ("--suite", "length-lemma", "--max-n", "-1"),
    ("--suite", "dimensions-first", "--max-m", "0"),
])
def test_verify_bounds_below_one_are_rejected(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--json")
    assert code == 2
    assert json.loads(out)["code"] == "computation-error"


def test_verify_oracle_bounds_checked_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the bound check")

    for name in ("schur_product_oracle", "brute_force_double_cosets",
                 "young_subgroup", "all_perms"):
        monkeypatch.setattr(verify, name, no_work)
    over = verify.ORACLE_BOUND + 1
    for suite, bound in (("lr-oracle", verify.SCHUR_ORACLE_BOUND + 1),
                         ("cosets", over), ("stabilizers", over),
                         ("length-lemma", over)):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-n", str(bound), "--json")
        assert code == 2
        assert "oracle bound exceeded" in json.loads(out)["message"]


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_pinned_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == PINNED_EXIT.get(argv, 0)
    assert out == PINNED_STDOUT[argv]


@pytest.mark.parametrize("argv", list(PINNED_DIGEST))
def test_pinned_stdout_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_DIGEST[argv]


@pytest.mark.parametrize("m, lam, digest", [
    pytest.param(m, lam, digest, id=name)
    for name, m, lam, digest in cheapest_first_rule_requests(
        ("first_rule_deep",))])
def test_deep_request_stdout_digest(capsys, m, lam, digest):
    # one request per deep benchmark stratum: the LR kernel at the sizes
    # users ask for, against the digest the benchmark recorded
    code, out, _ = run(capsys, "branch-first", "-m", str(m), "--lambda",
                       json.dumps([list(p) for p in lam]), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("wreath-dim", "-m", "0", "--lambda", "[[2]]"),
    ("branch-second", "-m", "0", "--lambda", "[[1]]"),
    ("branch-first", "-m", "0", "--lambda", "[[1]]"),
])
def test_m_below_one_is_computation_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == "computation-error"
    assert payload["message"] == "m must be at least 1"


@pytest.mark.parametrize("argv", [
    ("rho", "--sizes", "(2,-1,1)"),
    ("cosets", "--gamma", "(2,-1)", "--alpha", "(1,)"),
    ("cosets", "--gamma", "(2)", "--alpha", "(3)"),
])
def test_negative_composition_parts_are_computation_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["code"] == "computation-error"


def test_bad_composition_syntax(capsys):
    code, out, _ = run(capsys, "rho", "--sizes", "3,1")
    assert code == 2
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("argv, message", [
    (("dim", "--partition", "[1,"), "bad partition syntax '[1,'"),
    (("dim", "--partition", "[[1]]"), "bad partition '[[1]]'"),
    (("branch-first", "-m", "2", "--lambda", "[[1],]"),
     "bad multipartition syntax '[[1],]'"),
    (("branch-first", "-m", "2", "--lambda", "[1,2]"),
     "bad multipartition '[1,2]'"),
    (("rho", "--sizes", "()"), "need a positive total size"),
])
def test_malformed_values_are_computation_errors(capsys, argv, message):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == "computation-error"
    assert payload["message"].startswith(message)


def test_output_is_deterministic(capsys):
    args = ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]",
            "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("argv", [
    ("dim", "--partition", "[2,1]"),
    ("branch-second", "-m", "2", "--lambda", "[[1],[1]]"),
])
def test_json_payloads_are_valid_json(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    json.loads(out)


def _branch_cases():
    """(rule, m, lambda) for both rules, every lambda with m, n <= 4."""
    for m in range(1, 5):
        components = len(enumerate_partitions(m))
        for n in range(5):
            for lam in multipartitions(n, components):
                yield "first", m, lam
                if n:
                    yield "second", m, lam


def test_branch_output_matches_the_generic_encoding():
    # the CLI splices its branching answers from cached partition texts;
    # they must equal the generic encoding of the payload, byte for byte.
    # main prints what _run returns; one parser serves every case, as
    # building it takes most of a small request.
    parser = cli.build_parser()
    answer = {"first": branching.branch_first,
              "second": branching.branch_second}
    cases = 0
    for rule, m, lam in _branch_cases():
        expected = branch_payload(m, rule, lam, answer[rule](m, lam))
        argv = [f"branch-{rule}", "-m", str(m), "--lambda", json.dumps(lam)]
        assert cli._run(parser.parse_args(argv + ["--json"])) == (
            json.dumps(expected, sort_keys=True), 0), argv
        assert cli._run(parser.parse_args(argv)) == (
            branch_human(expected), 0), argv
        cases += 1
    assert cases == 830


def test_labellings_output_matches_the_reference():
    # every (lambda, nu) with m <= 4 and n <= 3; the reference takes its
    # labellings from fillings and its coefficients from lr_multi
    parser = cli.build_parser()
    cases = 0
    for m in range(1, 5):
        layer = branching.young_layer(m)
        for n in range(4):
            for lam in multipartitions(n, len(layer.upper)):
                for nu in multipartitions(n, len(layer.lower)):
                    expected = labellings_payload(layer, lam, nu)
                    argv = ["labellings", "-m", str(m), "--lambda",
                            json.dumps(lam), "--nu", json.dumps(nu)]
                    assert cli._run(parser.parse_args(argv + ["--json"])) == (
                        json.dumps(expected, sort_keys=True), 0), argv
                    assert cli._run(parser.parse_args(argv)) == (
                        cli._labellings_human(expected), 0), argv
                    cases += 1
    assert cases == 1956


_PARTITION = st.lists(st.one_of(st.integers(1, 3), st.integers(1, 300)),
                      max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))


@given(st.dictionaries(st.tuples(_PARTITION, _PARTITION, _PARTITION),
                       st.integers(1, 9), max_size=40))
def test_ordering_matches_the_tuple_key_sort(mults):
    # n bounds every part; past 255 the ordering takes tuple keys
    n = max((sum(map(sum, nu)) for nu in mults), default=0)
    assert cli._ordered(mults, n) == sorted(
        mults, key=lambda nu: (concat_parts(nu), nu), reverse=True)


def test_parts_past_255_are_ordered_by_tuple_keys(capsys):
    lam = ((300,), (1,))
    code, out, _ = run(capsys, "branch-second", "-m", "2", "--lambda",
                       "[[300],[1]]", "--json")
    assert code == 0
    expected = branch_payload(2, "second", lam,
                              branching.branch_second(2, lam))
    assert out == json.dumps(expected, sort_keys=True) + "\n"
    assert [e["nu"] for e in expected["multiplicities"]] == [
        ((300,), ()), ((299,), (1,))]


def test_method_disagreement(capsys, monkeypatch):
    lam = ((2,), (1, 1), (1, 1))
    walk_route = branching._column_by_walk

    def perturbed(column):
        nus, coeffs = walk_route(column)
        return nus, (coeffs[0] + 1,) + coeffs[1:]

    monkeypatch.setattr(branching, "_column_by_walk", perturbed)
    mats = branching.branch_first(3, lam, method="matrices")
    labs = branching.branch_first(3, lam, method="labellings")
    assert mats != labs
    argv = ("branch-first", "-m", "3", "--lambda", "[[2],[1,1],[1,1]]",
            "--method", "both")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    expected = {"status": "error", "code": "method-disagreement",
                "matrices": branch_payload(3, "first", lam, mats),
                "labellings": branch_payload(3, "first", lam, labs)}
    assert out == json.dumps(expected, sort_keys=True) + "\n"
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out == "methods disagree\n"


def _fresh_python(*args, **overrides):
    """Run the package's interpreter on `args` in a new process.

    Keywords set environment variables of the child; None unsets one.
    """
    src = str(Path(wreathbranch.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src,
               **overrides)
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _fresh_cli(*args, **env):
    """`python -m wreathbranch.cli` on `args`, stdout block-buffered."""
    return _fresh_python("-m", "wreathbranch.cli", *args,
                         PYTHONUNBUFFERED=None, **env)


def test_fresh_process_prints_the_whole_buffered_answer():
    # stdout into a pipe is block-buffered, so the final newline of the
    # answer is still in the buffer when os._exit would end the process
    argv = _M5 + ("--json",)
    proc = _fresh_cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    data = proc.stdout.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_DIGEST[argv]


@pytest.mark.parametrize("argv, code, out, err", [
    (USAGE_ERRORS[0][0], 1, "", f"usage error: {USAGE_ERRORS[0][1]}\n"),
    (("dim", "--partition", "[1,2]", "--json"), 2,
     PINNED_STDOUT[("dim", "--partition", "[1,2]", "--json")], ""),
], ids=["usage-error", "computation-error"])
def test_fresh_process_exit_codes(argv, code, out, err):
    proc = _fresh_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_fresh_process_verification_failure():
    # the labelling route of --method both reads each column's first
    # coefficient raised by 1
    script = ("import sys\n"
              "from wreathbranch import branching, cli\n"
              "route = branching._column_by_walk\n"
              "def perturbed(column):\n"
              "    nus, coeffs = route(column)\n"
              "    return nus, (coeffs[0] + 1,) + coeffs[1:]\n"
              "branching._column_by_walk = perturbed\n"
              "sys.argv[1:] = ['branch-first', '-m', '3', '--lambda',\n"
              "                '[[2],[1,1],[1,1]]', '--method', 'both']\n"
              "cli.run()\n")
    proc = _fresh_python("-c", script, PYTHONUNBUFFERED=None)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "methods disagree\n", "")


def test_fresh_process_help_matches_in_process(capsys, monkeypatch):
    proc = _fresh_cli("--help", COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, _help(capsys, monkeypatch), "")


def test_main_block_skips_atexit_hooks():
    # `python -m wreathbranch.cli` ends in os._exit, so a hook that other
    # code registered in the process does not run
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'atexit hook ran')\n"
              "sys.argv[1:] = ['dim', '--partition', '[3,2]']\n"
              "runpy.run_module('wreathbranch.cli', run_name='__main__')\n")
    proc = _fresh_python("-c", script, PYTHONUNBUFFERED=None)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5\n", "")


def test_run_exits_hard_with_the_code_of_main(capsys, monkeypatch):
    exits = []
    monkeypatch.setattr(sys, "argv", ["wreathbranch", "dim",
                                      "--partition", "[3,2]"])
    monkeypatch.setattr(os, "_exit", lambda code: exits.append(
        (code, capsys.readouterr().out)))
    cli.run()
    assert exits == [(0, "5\n")]


def test_run_leaves_a_failed_flush_to_the_interpreter(monkeypatch):
    class BrokenPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    stdout = BrokenPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "argv", ["wreathbranch", "dim",
                                      "--partition", "[1,2]"])
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit"))
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 2
    assert json.loads(stdout.getvalue())["code"] == "computation-error"


def test_branch_requests_leave_the_oracles_unimported():
    # a branch-* request loads the package and exactly these modules
    script = ("import contextlib, io, sys\n"
              "from wreathbranch import cli\n"
              "imported = ['wreathbranch.verify' in sys.modules]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    for rule in ('branch-first', 'branch-second'):\n"
              "        cli.main([rule, '-m', '3', '--lambda', "
              "'[[2],[1,1],[1,1]]'])\n"
              "print(' '.join(sorted(name for name in sys.modules\n"
              "                      if name.startswith('wreathbranch'))))\n"
              "imported.append('wreathbranch.verify' in sys.modules)\n"
              "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
              "    code = cli.main(['verify', '--suite', 'nope'])\n"
              "imported.append('wreathbranch.verify' in sys.modules)\n"
              "print(imported, code, 'usage error' in err.getvalue())\n")
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "wreathbranch wreathbranch.branching wreathbranch.cli wreathbranch.lr "
        "wreathbranch.perms wreathbranch.shapes\n"
        "[False, False, False] 1 True\n")


def test_verify_suites_match_the_oracles(capsys):
    assert cli.VERIFY_SUITES == tuple(sorted(verify.SUITES))
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert "{" + ",".join(cli.VERIFY_SUITES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (("cosets", 1, 2.0), "max_n must be an int, not float"),
    (("stabilizers", None, "3"), "max_n must be an int, not str"),
    (("length-lemma", 1, True), "max_n must be an int, not bool"),
    (("dimensions-first", False, None), "max_m must be an int, not bool"),
    (("length-lemma", None, 0), "max_n must be at least 1"),
    (("dimensions-first", 0, None), "max_m must be at least 1"),
])
def test_run_suite_checks_its_bounds(args, message):
    # argparse hands the CLI ints, but a library caller may pass anything
    with pytest.raises(ValueError, match=message):
        verify.run_suite(*args)
