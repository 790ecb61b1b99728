"""Import cost of the package.

``import apdgof``, a first :func:`apdgof.run_test` and an in-process
``apdgof test --json`` need numpy only.  ``scipy.stats`` takes about half a
second and some 20 MB to import and is never needed.  ``scipy.special``
(~0.4 s and ~25 MB) loads on the first ``cdf``, ``quantile`` or noncentral
chi-square call; the test itself computes its gamma, digamma and trigamma
values in closed form.  ``scipy.integrate`` (which pulls in
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
print(before, "scipy.special" in sys.modules)
"""
    assert _run(code).split() == ["False", "True"]
