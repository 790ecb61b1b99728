"""Import cost of the package.

``import apdgof`` runs ``errors``, ``numerics`` and ``score`` only: all a
first :func:`apdgof.run_test` needs.  ``apd`` and ``simulate`` (six frozen
dataclasses and ``json`` between them) load on the first use of one of their
names, or of the submodule itself.  ``apdgof.cli``, and so ``apdgof test``,
still imports both at module level: its other subcommands sample and run
studies, and the benchmark reads every submodule's import time from one
``import apdgof.cli``.

``import apdgof``, a first :func:`apdgof.run_test` and an in-process
``apdgof test --json`` need numpy only.  ``scipy.stats`` takes about half a
second and some 20 MB to import and is never needed.  ``scipy.special``
(~0.4 s and ~25 MB) loads on the first ``cdf`` or ``quantile`` call, or a
noncentral chi-square value at an ``x`` near an ``ncp`` past about 143; the
test itself computes its gamma, digamma and trigamma values in closed form,
and below that ``ncp`` the noncentral law of a power study,
``asymptotic_power`` and ``apdgof simulate power`` is a numpy kernel, so
those load no scipy module at all.  ``scipy.integrate`` (which pulls in
``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg``, ~290 modules and
~25 MB) loads on the first quadrature call, and the process pool only when
a study runs with ``workers > 1``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apdgof

SRC = Path(__file__).resolve().parents[1] / "src"

DEFERRED = (
    "scipy.special",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.linalg",
    "multiprocessing",
    "concurrent.futures.process",
)


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_first_test_loads_neither_apd_nor_simulate():
    code = """
import sys, apdgof
apdgof.run_test([-2.1, -1.2, -0.4, 0.1, 0.3, 0.9, 1.7, 2.4], 1.5)
print([m for m in ("apdgof.apd", "apdgof.simulate", "json") if m in sys.modules])
"""
    assert _run(code).strip() == "[]"


def test_public_names_are_their_submodules_own():
    code = """
import json, sys, apdgof
apdgof.run_test([-2.1, -1.2, -0.4, 0.1, 0.3, 0.9, 1.7, 2.4], 1.5)
objects = {name: getattr(apdgof, name) for name in apdgof.__all__ if name != "__version__"}
print(json.dumps({name: obj is getattr(sys.modules[obj.__module__], name) for name, obj in objects.items()}))
"""
    same = json.loads(_run(code).strip().splitlines()[-1])
    assert len(same) == len(apdgof.__all__) - 1 and all(same.values()), same


@pytest.mark.parametrize("name", ["apd", "simulate"])
def test_bare_import_still_resolves_the_submodule(name):
    code = f"import apdgof; print(apdgof.{name}.__name__)"
    assert _run(code).strip() == f"apdgof.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        apdgof.no_such_name  # noqa: B018


def test_dir_lists_every_public_name():
    code = "import apdgof; print(sorted(set(apdgof.__all__) - set(dir(apdgof))))"
    assert _run(code).strip() == "[]"


def test_import_does_not_load_scipy_stats():
    code = "import sys, apdgof; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    assert _run(code).strip() == "[]"


def test_cli_and_first_test_defer_quadrature_and_process_pool():
    code = f"""
import json, math, sys
import apdgof, apdgof.cli
from apdgof import numerics
apdgof.run_test([-2.1, -1.2, -0.4, 0.1, 0.3, 0.9, 1.7, 2.4], 1.5)
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
value = numerics.integrate(math.exp, (0.0, 1.0))
print(json.dumps({{"loaded": loaded, "value": value, "after": "scipy.integrate" in sys.modules}}))
"""
    out = json.loads(_run(code).strip().splitlines()[-1])
    assert out["loaded"] == []
    assert abs(out["value"] - (math.e - 1.0)) <= 1e-12
    assert out["after"]


def test_special_functions_load_on_first_cdf_or_noncentral_call(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("-2.1\n-1.2\n-0.4\n0.1\n0.3\n0.9\n1.7\n2.4\n")
    code = f"""
import contextlib, io, json, sys
import apdgof
from apdgof import apd, cli
steps = {{"import": "scipy.special" in sys.modules}}
apdgof.run_test([-2.1, -1.2, -0.4, 0.1, 0.3, 0.9, 1.7, 2.4], 1.5)
steps["run_test"] = "scipy.special" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["test", "--input", {str(data)!r}, "--lambda", "1.5", "--json"])
assert rc == 0 and "t_stat" in json.loads(out.getvalue())["results"]
steps["cli test"] = "scipy.special" in sys.modules
apd.cdf(0.3, apd.ApdParams(0.5, 1.5))
steps["cdf"] = "scipy.special" in sys.modules
print(json.dumps(steps))
"""
    steps = json.loads(_run(code).strip().splitlines()[-1])
    assert steps == {"import": False, "run_test": False, "cli test": False, "cdf": True}
    code = """
import sys
from apdgof import numerics
numerics.noncentral_chi2_sf(1.0, 0.0)
before = "scipy.special" in sys.modules
numerics.noncentral_chi2_sf(1.0, 2.0)
small = "scipy.special" in sys.modules
numerics.noncentral_chi2_sf(150.0, 150.0)
print(before, small, "scipy.special" in sys.modules)
"""
    assert _run(code).split() == ["False", "False", "True"]


def test_power_study_and_its_law_load_no_scipy_module():
    code = """
import contextlib, io, json, sys
from apdgof import cli, score, simulate
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
steps = {}
cfg = simulate.StudyConfig(2.0, 50, 100, 7, delta=(0.5, 0.3))
report = simulate.run_local_alternative_study(cfg)
assert report.rejections[0].predicted > 0.05 and 0.0 < report.ks_stat < 1.0
steps["run_local_alternative_study"] = scipy_modules()
assert 0.05 < score.asymptotic_power((1.0, 0.5), 2.0, 0.05) < 1.0
steps["asymptotic_power"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["simulate", "power", "--lambda", "2", "--delta", "0.5,0.3", "--n", "50", "--reps", "100", "--json"])
assert rc == 0 and json.loads(out.getvalue())["results"]["ks_stat"] > 0.0
steps["simulate power --json"] = scipy_modules()
print(json.dumps(steps))
"""
    steps = json.loads(_run(code).strip().splitlines()[-1])
    assert steps == {"run_local_alternative_study": [], "asymptotic_power": [], "simulate power --json": []}
