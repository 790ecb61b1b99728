"""Import cost of the package.

``scipy.stats`` takes about half a second and some 20 MB to import, and the
package needs none of it (``scipy.special`` and ``scipy.integrate`` only), so
importing ``apdgof`` must not pull it in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, apdgof; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
