"""The gate script (``tests/gate.py``) picks its base commit and compares two tools' outputs.

Checked on a throwaway repository and on short byte strings, so no gate runs here.
"""

import hashlib
import subprocess

from tests import gate


def test_identical_outputs_give_count_sha256_and_identical():
    data = b"a\nb\nc\n"
    lines = gate.compare("tests/digest.py", data, data)
    digest = hashlib.sha256(data).hexdigest()
    assert f"base: 3 lines, sha256 {digest}" in lines and f"head: 3 lines, sha256 {digest}" in lines
    assert "identical" in lines


def test_one_changed_line_is_listed_with_its_number():
    lines = gate.compare("tests/work.py", b"a\nb\nc\n", b"a\nB\nc\n")
    assert "identical" not in lines
    assert lines[lines.index("@@ -2 +2 @@") + 1:][:2] == ["-b", "+B"]


def test_base_is_the_parent_unless_a_tracked_file_changed(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=gate", "-c", "user.email=gate@example.com",
                        "-c", "commit.gpgsign=false", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    tracked = tmp_path / "tracked.txt"
    for text in ("one\n", "two\n"):
        tracked.write_text(text)
        git("add", "tracked.txt")
        git("commit", "-q", "-m", text)
    assert gate.base_rev(tmp_path) == "HEAD^1"
    (tmp_path / "untracked.txt").write_text("new\n")
    assert gate.base_rev(tmp_path) == "HEAD^1"
    tracked.write_text("three\n")
    assert gate.base_rev(tmp_path) == "HEAD"
