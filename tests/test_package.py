import ast
import os
import subprocess
import sys
from pathlib import Path

import wreathbranch


def test_every_exported_name_resolves():
    for name in wreathbranch.__all__:
        assert hasattr(wreathbranch, name), name


def test_oracles_are_not_exported():
    for name in ("schur_product_oracle", "brute_force_double_cosets",
                 "young_subgroup"):
        assert name not in wreathbranch.__all__
        assert not hasattr(wreathbranch, name)


def test_every_exported_name_has_a_caller_in_the_package():
    # a name only the tests use belongs in the tests, not in __all__; a
    # reference is a name, an attribute or an import in the code, so a
    # docstring or comment that mentions the name does not count
    package = Path(wreathbranch.__file__).resolve().parent
    referenced = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert set(wreathbranch.__all__) <= referenced, (
        sorted(set(wreathbranch.__all__) - referenced))


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
