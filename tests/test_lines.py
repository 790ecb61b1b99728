"""The line-coverage tool (``tests/lines.py``) counts the lines that ran and the lines that could.

Checked on a small module written by the test, so no suite runs under the
tracer here, and the tracer in place before is put back.
"""

import importlib.util
import sys

from tests import lines

SOURCE = '''"""A module."""


def f(x):
    if x:
        return 1
    return 2
'''


def test_a_small_module_runs_all_but_its_untaken_branch(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)
    before = sys.gettrace()
    value, ran = lines.traced(lambda: (spec.loader.exec_module(module), module.f(1)), [path])
    assert sys.gettrace() is before
    assert lines.executable_lines(path) == {1, 4, 5, 6, 7}
    assert value == (None, 1) and ran == {path: {1, 4, 5, 6}}
