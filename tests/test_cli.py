import json

import pytest

from wreathbranch import cli, verify


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


def test_young_layer(capsys):
    code, out, _ = run(capsys, "young-layer", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == [[3], [2, 1], [1, 1, 1]]
    assert payload["lower"] == [[2], [1, 1]]


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


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


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

    monkeypatch.setattr(verify, "schur_product_oracle", no_work)
    monkeypatch.setattr(verify, "brute_force_double_cosets", no_work)
    for suite, bound in (("lr-oracle", "11"), ("cosets", "8")):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-n", bound, "--json")
        assert code == 2
        assert "oracle bound exceeded" in json.loads(out)["message"]


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_pinned_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == PINNED_STDOUT[argv]


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
])
def test_negative_composition_parts_are_computation_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["code"] == "computation-error"


def test_bad_composition_syntax(capsys):
    code, out, _ = run(capsys, "rho", "--sizes", "3,1")
    assert code == 2
    assert json.loads(out)["status"] == "error"


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
