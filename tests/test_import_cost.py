"""Import cost of the package.

``import apdgof`` and a first :func:`apdgof.run_test` need numpy and
``scipy.special`` only.  ``scipy.stats`` takes about half a second and some
20 MB to import and is never needed.  ``scipy.integrate`` (which pulls in
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
