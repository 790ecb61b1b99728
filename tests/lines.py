"""Line coverage of ``src/apdgof`` by the tier-1 suite, with no coverage package.

    python tests/lines.py > lines.txt

Runs the suite in this process, from the repository root, under
``sys.settrace`` and ``threading.settrace``, recording the lines of the
frames whose code lies in ``src/apdgof``.  A module's executable lines are
the line numbers of its code objects (``co_lines``).  Prints ``path:line:
source`` for every executable line that never ran, then ``ran N of M
executable lines``; pytest's own report goes to stderr.  The exit status is
pytest's.

Lines that run only in a study's worker processes are not seen.  The tests
in :data:`PERTURBED` are deselected: the tracer's frames raise their
``tracemalloc`` peaks past their bounds.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apdgof"

PERTURBED = (
    "tests/test_simulate.py::TestReplicateBlock::test_working_memory_is_three_arrays[3.0]",
    "tests/test_simulate.py::TestReplicateBlock::test_working_memory_is_two_arrays_at_closed_form_nulls[1.0]",
    "tests/test_simulate.py::TestReplicateBlock::test_working_memory_is_two_arrays_at_closed_form_nulls[2.0]",
)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from the module at ``path``."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None: no line; 0: a module's entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run, paths) -> tuple[object, dict[Path, set[int]]]:
    """``run()``, and the lines of each of ``paths`` that ran while it ran, in any thread.

    The tracers in place before are put back afterwards.
    """
    ran = {os.path.realpath(p): set() for p in paths}
    seen = {}  # co_filename -> its set in ran, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = ran.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        value = run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return value, {p: ran[os.path.realpath(p)] for p in paths}


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    args = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    args += [arg for test in PERTURBED for arg in ("--deselect", test)]
    with contextlib.redirect_stdout(sys.stderr):
        status, ran = traced(lambda: pytest.main(args), paths)
    total = unrun = 0
    for path in paths:
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(lines - ran[path])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total, unrun = total + len(lines), unrun + len(missed)
    print(f"ran {total - unrun} of {total} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
