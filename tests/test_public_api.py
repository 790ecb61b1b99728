"""The top-level API is exactly what the demos and the README use.

``apdgof.__all__`` must equal the names that ``demos/*.py`` and the README's
Python blocks import from ``apdgof``, plus the error classes and
``__version__``; everything else stays in the submodules.  Each README
Python block is also run, so the quick start cannot go stale.  Every name
the benchmark's tracer patches (``TRACED`` in ``benchmarks/tracing.py``)
must still be a function of its module, and a fresh ``import apdgof.cli``
must load, and log under ``-X importtime``, every module whose import time
the benchmark reads from it (``MODULES``).  Data arrays enter the package
through one rule: ``np.asarray`` is called only in ``numerics._reals``.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import apdgof
from apdgof import errors

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def imported_from_apdgof(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "apdgof"
        for alias in node.names
    }


def test_all_is_what_demos_and_readme_import():
    used = set()
    for source in [p.read_text() for p in ROOT.glob("demos/*.py")] + README_BLOCKS:
        used |= imported_from_apdgof(source)
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.ApdGofError)
    }
    assert used and len(error_classes) == 5
    assert len(apdgof.__all__) == len(set(apdgof.__all__))
    assert set(apdgof.__all__) == used | error_classes | {"__version__"}
    for name in apdgof.__all__:
        assert hasattr(apdgof, name)


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index):
    assert README_BLOCKS[index].strip()
    exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"), {})


def tracing_names(constant: str) -> list[str]:
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == constant for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"benchmarks/tracing.py defines no {constant}")


@pytest.mark.parametrize("name", tracing_names("TRACED"))
def test_traced_name_is_a_function(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"apdgof.{module}"), attr, None))


def test_cli_import_logs_every_benchmarked_module():
    """The benchmark reads each module's import time from ``-X importtime -c "import apdgof.cli"``.

    A module loaded through ``importlib.import_module`` is in ``sys.modules``
    but has no line there, and the benchmark then stops on an empty median.
    """
    modules = [f"apdgof.{m}" for m in tracing_names("MODULES")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import apdgof.cli"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    logged = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert modules and [m for m in modules if m not in logged] == []


def asarray_sites() -> list[str]:
    """Where ``src/apdgof`` calls ``asarray`` or ``asanyarray``: ``module.function`` for each call."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("asarray", "asanyarray"):
                    sites.append(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "apdgof").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_data_arrays_are_coerced_in_one_place():
    assert asarray_sites() == ["numerics._reals"]
