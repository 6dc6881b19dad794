import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wreathbranch

PACKAGE = Path(wreathbranch.__file__).resolve().parent


def test_every_exported_name_resolves():
    for name in wreathbranch.__all__:
        assert hasattr(wreathbranch, name), name


def test_oracles_are_not_exported():
    for name in ("schur_product_oracle", "brute_force_double_cosets",
                 "young_subgroup", "length", "descents", "compose",
                 "inverse", "all_perms", "from_cycles", "identity",
                 "standard_filling"):
        assert name not in wreathbranch.__all__
        assert not hasattr(wreathbranch, name)


def test_lr_internals_are_not_exported():
    # the tableau listing the LR walk replaced is the tests' brute-force
    # reference now, so no module of the package holds it
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("wreathbranch.tableaux")
    modules = [wreathbranch] + [
        importlib.import_module(f"wreathbranch.{info.name}")
        for info in pkgutil.iter_modules(wreathbranch.__path__)]
    for name in ("enumerate_skew_ssyt", "is_lattice_word",
                 "reverse_reading_word"):
        assert name not in wreathbranch.__all__
        assert not any(hasattr(module, name) for module in modules)


def test_console_script_runs_the_cli_entry():
    # pyproject.toml is read as text, since Python 3.10 has no tomllib
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.fullmatch(r'wreathbranch = "([\w.]+):(\w+)"\n*',
                                scripts).groups()
    assert module == "wreathbranch.cli"
    cli = importlib.import_module(module)
    assert getattr(cli, name) is cli.run


def referenced_names(skip) -> set:
    """Names referenced in the package's modules, except those in `skip`.

    A reference is a name, an attribute or an import in the code, so a
    docstring or comment that mentions the name does not count.
    """
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def test_every_exported_name_has_a_caller_in_the_package():
    # a name only the tests use belongs in the tests, not in __all__
    referenced = referenced_names({"__init__.py"})
    assert set(wreathbranch.__all__) <= referenced, (
        sorted(set(wreathbranch.__all__) - referenced))


def test_every_perms_function_has_a_caller_besides_the_oracles():
    # a permutation helper only the oracles or the tests use belongs in
    # verify.py or the tests; exporting it makes no caller
    tree = ast.parse((PACKAGE / "perms.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    referenced = referenced_names({"__init__.py", "verify.py"})
    assert defined <= referenced, sorted(defined - referenced)


def test_no_module_asserts():
    # python -O strips assert statements, so no invariant may rest on one
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run `code` under ``python -O``, which strips assert statements."""
    src = Path(wreathbranch.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_hook_divisibility_is_checked_under_optimize():
    done = run_optimized("import wreathbranch.shapes as s\n"
                         "s.factorial = lambda n: 7\n"
                         "s.specht_dimension((2, 1))\n")
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr


def test_oracle_partition_check_survives_optimize():
    # K((2,), (1, 1)) is 1, not 3, so the peel meets a negative
    # coefficient at (1, 1)
    done = run_optimized("import wreathbranch.verify as v\n"
                         "v._kostka = lambda shape: {(1,): 1, (2,): 1,"
                         " (1, 1): 3}\n"
                         "v.schur_product_oracle((1,), (1,))\n")
    assert done.returncode != 0
    assert "RuntimeError" in done.stderr
