"""The bit-identity digest (``tests/digest.py``) is a pure function of the code.

Its quick slice prints the same lines in this process and in a fresh
interpreter, so comparing the full digest of two versions compares their
outputs, not the state of the process that printed them.
"""

import subprocess
import sys
from pathlib import Path

from tests import digest

DIGEST = Path(__file__).resolve().parent / "digest.py"


def test_quick_slice_is_the_same_in_a_fresh_interpreter():
    lines = digest.digest(quick=True)
    proc = subprocess.run([sys.executable, str(DIGEST), "--quick"], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.splitlines() == lines
    assert any("Error: " in line for line in lines)  # errors are outputs too
