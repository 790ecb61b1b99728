"""The standing gates of apdgof, against the commit this change sits on, as one markdown report.

    python tests/gate.py

The base is ``HEAD`` when tracked files have uncommitted changes, else
``HEAD^1`` (a committed change, or a pull request's merge commit, whose first
parent is the base branch).  One after another, each in its own process, it
runs: tier-1, the benchmark smoke tests, every demo with RuntimeWarnings as
errors, ``tests/lines.py``, and ``tests/digest.py`` and ``tests/work.py`` in
the working tree and in a ``git archive`` copy of the base.  It also checks
that every ``.py`` file parses under Python 3.10's grammar, and compares
``wc -l src/apdgof/*.py`` on both sides.

The exit status is 1 when a check fails or overruns its timeout.  A digest or
ledger difference between the sides is shown, not failed.  pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL_TIMEOUT = 120  # seconds, for each run of digest.py and work.py
LINES_TIMEOUT = 300


def base_rev(root: Path = ROOT) -> str:
    """``HEAD`` if a tracked file of ``root`` differs from it, else ``HEAD^1``."""
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=root).returncode
    return "HEAD" if dirty else "HEAD^1"


def compare(name: str, base: bytes, head: bytes) -> list[str]:
    """Markdown lines: each side's line count and sha256, then "identical" or a unified diff."""
    out = [f"### `{name}`: base against this tree", "```"]
    for side, data in (("base", base), ("head", head)):
        out.append(f"{side}: {len(data.splitlines())} lines, sha256 {hashlib.sha256(data).hexdigest()}")
    diff = difflib.unified_diff(base.decode().splitlines(), head.decode().splitlines(), "base", "head", n=0, lineterm="")
    return out + (list(diff) or ["identical"]) + ["```"]


def wc(root: Path) -> dict[str, int]:
    """``wc -l`` of each ``src/apdgof/*.py`` under ``root``, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "apdgof").glob("*.py"))}


def main() -> int:
    failed = []

    def report(*lines: str) -> None:
        print(*lines, sep="\n", flush=True)

    def check(label: str, cmd: list[str], cwd: Path = ROOT, timeout: float | None = None) -> bytes:
        """``cmd``'s stdout, run with ``PYTHONPATH=src``; where it fails or times out, the tail of its output is shown."""
        try:
            done = subprocess.run(cmd, cwd=cwd, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, timeout=timeout)
            passed, out, err = done.returncode == 0, done.stdout, done.stderr
        except subprocess.TimeoutExpired as e:
            passed, out, err = False, e.stdout or b"", (e.stderr or b"") + f"\ntimed out after {timeout} s".encode()
        if not passed:
            failed.append(label)
            report("", f"**{label} failed**", "```", *(out + err).decode(errors="replace").splitlines()[-30:], "```")
        return out

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    py = sys.executable
    base = base_rev()
    head_sha = git("rev-parse", "--short", "HEAD").decode().strip()
    base_sha = git("rev-parse", "--short", base).decode().strip()
    report("## Standing gates (`python tests/gate.py`)", "")
    # TestLeafSums, the reader corpus and TestReplicateRng mirror numpy's own code paths
    versions = check("versions", [py, "-c", "import sys, numpy, scipy; print(sys.version.split()[0], numpy.__version__, scipy.__version__)"])
    report(f"- Python, numpy, scipy: {versions.decode().strip()}",
           f"- this tree: {head_sha}{' with uncommitted changes' if base == 'HEAD' else ''}; base: {base_sha} ({base})")
    sources = [p for d in ("src", "tests", "benchmarks", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    for path in sources:
        try:
            ast.parse(path.read_bytes(), str(path), feature_version=(3, 10))
        except SyntaxError as e:
            failed.append(f"3.10 grammar: {path.relative_to(ROOT)}")
            report(f"**{path.relative_to(ROOT)} does not parse under Python 3.10's grammar:** {e}")
    report(f"- Python 3.10 grammar: {len(sources)} files checked")
    for label, cmd in (("tier-1", ["-m", "pytest", "-q", "--continue-on-collection-errors"]),
                       ("benchmark smoke", ["-m", "pytest", "-q", "benchmarks"])):
        summary = check(label, [py, *cmd]).decode().strip().splitlines()
        report(f"- {label}: `{summary[-1] if summary else ''}`")
    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        check(f"demos/{demo.name}", [py, "-W", "error::RuntimeWarning", str(demo)])
    report(f"- demos, RuntimeWarnings as errors: {len(demos)} run", "")
    never_run = check("tests/lines.py", [py, "tests/lines.py"], timeout=LINES_TIMEOUT).decode().rstrip()
    report("### `tests/lines.py`: lines of `src/apdgof` that tier-1 never runs", "```", never_run, "```")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", base))) as archive:
            archive.extractall(tmp, filter="data")
        for tool in ("digest", "work"):
            runs = len(failed)
            sides = [check(f"tests/{tool}.py on the {side}", [py, f"tests/{tool}.py"], cwd, TOOL_TIMEOUT)
                     for side, cwd in (("base", Path(tmp)), ("head", ROOT))]
            if len(failed) == runs:
                report(*compare(f"tests/{tool}.py", *sides))
        before, after = wc(Path(tmp)), wc(ROOT)
    moved = [f"- `{f}`: {before.get(f, 0)} → {after.get(f, 0)}" for f in sorted(before | after) if before.get(f) != after.get(f)]
    report("### `wc -l src/apdgof/*.py`", f"- total: {sum(before.values())} → {sum(after.values())}", *moved, "")
    report(f"**Gate failed:** {', '.join(failed)}" if failed else "**Gate passed.**")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
