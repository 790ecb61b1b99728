"""End-to-end tests of the command-line interface.

Each case drives ``main(argv)`` in-process and checks stdout/stderr and the
exit code; the error-mapping cases also run the module as a program, so a
traceback would show on its stderr.  Exit codes: 0 success, 2 input error,
3 degenerate data, 4 numerical failure, 64 usage error.

``reference_read_values`` is the earlier line-by-line parser of ``apdgof
test`` input, kept as the oracle of ``read_values``: on every input both must
return bit-equal arrays or raise the same message.
"""

import gzip
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from apdgof.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _GRID_CAP,
    _InputError,
    _parse_grid,
    main,
    read_values,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1\n2\n4\n")
    return str(path)


class TestTestCommand:
    def test_human_output(self, capsys, data_file):
        code, out, err = run_cli(capsys, "test", "--input", data_file, "--lambda", "1")
        assert code == EXIT_OK
        assert "mu_hat    : 2.0" in out
        assert "sigma_hat : 0.5" in out
        assert "accept H0" in out

    def test_json_output(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--json"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["schema_version"] == "1"
        assert record["command"] == "test"
        results = record["results"]
        assert results["mu_hat"] == 2.0
        assert results["sigma_hat"] == 0.5
        assert_allclose(results["r1"], -2.0 / 3.0, rtol=0, atol=1e-12)
        assert results["p_value"] == pytest.approx(
            math.exp(-results["t_stat"] / 2), abs=1e-12
        )
        assert all(
            v is None or isinstance(v, (bool, int, str)) or math.isfinite(v)
            for v in results.values()
        )

    def test_json_round_trip_idempotent(self, capsys, data_file):
        _, out, _ = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--json"
        )
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_comments_blanks_crlf_ignored(self, capsys, tmp_path, data_file):
        messy = tmp_path / "messy.txt"
        messy.write_bytes(b"# header\r\n\r\n1\r\n2\n\n# trailing\n4\r\n")
        _, clean_out, _ = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--json"
        )
        _, messy_out, _ = run_cli(
            capsys, "test", "--input", str(messy), "--lambda", "1", "--json"
        )
        clean = json.loads(clean_out)
        messy_rec = json.loads(messy_out)
        assert clean["results"] == messy_rec["results"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("lam", ["2", "1.5", "3"])  # the mean, then the location solve
    def test_piped_input_with_header(self, tmp_path, lam):
        # A parse that reopened or seeked the path would lose what the
        # first read took from the pipe.
        values = np.random.default_rng(2).standard_normal(500)
        text = "".join(f"{v:.17g}\n" for v in values)
        path = tmp_path / "plain.txt"
        path.write_text(text)
        plain = run_program("test", "--input", str(path), "--lambda", lam, timeout=60)
        piped = run_program(
            "test", "--input", "/dev/stdin", "--lambda", lam, timeout=60, input="# header\n" + text
        )
        assert plain.returncode == piped.returncode == EXIT_OK
        assert "n=500" in plain.stdout
        assert piped.stdout == plain.stdout

    def test_garbled_token(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\nabc\n2\n")
        code, out, err = run_cli(capsys, "test", "--input", str(bad), "--lambda", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "abc" in err

    def test_nonfinite_token(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\nnan\n2\n")
        code, out, _ = run_cli(capsys, "test", "--input", str(bad), "--lambda", "1")
        assert code == EXIT_INPUT
        assert out == ""

    def test_two_values_per_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3\n")
        code, _, _ = run_cli(capsys, "test", "--input", str(bad), "--lambda", "1")
        assert code == EXIT_INPUT

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "test", "--input", str(tmp_path / "nope.txt"), "--lambda", "1"
        )
        assert code == EXIT_INPUT
        assert out == ""

    def test_too_few_values(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1.5\n")
        code, _, _ = run_cli(capsys, "test", "--input", str(short), "--lambda", "1")
        assert code == EXIT_INPUT

    def test_degenerate_data(self, capsys, tmp_path):
        const = tmp_path / "const.txt"
        const.write_text("3\n3\n3\n")
        code, _, err = run_cli(capsys, "test", "--input", str(const), "--lambda", "1")
        assert code == EXIT_DEGENERATE
        assert "degenerate" in err

    def test_bad_lambda_is_usage_error(self, capsys, data_file):
        code, _, _ = run_cli(capsys, "test", "--input", data_file, "--lambda", "0.5")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("lam", ["1e103", "inf", "nan"])
    def test_lambda_out_of_range_is_usage_error(self, capsys, data_file, lam):
        # 1e103 raised a bare OverflowError from lam**3
        code, out, err = run_cli(capsys, "test", "--input", data_file, "--lambda", lam)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: --lambda")

    def test_bad_alpha_is_usage_error(self, capsys, data_file):
        code, _, _ = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--alpha", "1.5"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("alpha", ["nan", "0", "1"])
    def test_alpha_outside_unit_interval_names_the_flag(self, capsys, data_file, alpha):
        code, out, err = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--alpha", alpha
        )
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: --alpha")

    def test_exit_zero_even_when_rejecting(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        skewed = np.exp(rng.standard_normal(400))  # clearly not symmetric EP
        path = tmp_path / "skew.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in skewed))
        code, out, _ = run_cli(capsys, "test", "--input", str(path), "--lambda", "2")
        assert code == EXIT_OK
        assert "reject H0" in out


class TestSimulateCommand:
    ARGS = (
        "simulate", "size", "--lambda", "1", "--n", "64", "--reps", "100",
        "--seed", "42", "--json",
    )

    def test_size_study_runs(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["command"] == "simulate"
        payload = record["results"]
        assert payload["kind"] == "size"
        assert payload["config"]["seed"] == 42
        assert len(payload["rejections"]) == 1
        assert payload["replicate_failures"] == 0

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS, "--workers", "2")
        assert first == second

    def test_zero_workers_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--workers", "0")
        assert code == EXIT_USAGE
        assert out == "" and "workers" in err

    def test_seed_beyond_64_bits_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "size", "--lambda", "2", "--n", "200",
            "--reps", "100", "--seed", str(2**64),
        )
        assert code == EXIT_USAGE
        assert out == "" and "seed" in err

    def test_power_requires_delta(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--n", "64",
            "--reps", "100", "--seed", "1",
        )
        assert code == EXIT_USAGE
        assert "--delta" in err

    def test_size_rejects_delta(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "size", "--lambda", "2", "--n", "64",
            "--reps", "100", "--seed", "1", "--delta", "0.5,0.3",
        )
        assert code == EXIT_USAGE

    def test_power_study_reports_prediction(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--n", "100",
            "--reps", "100", "--seed", "7", "--delta", "0.5,0.3", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)["results"]
        assert payload["kind"] == "power"
        assert payload["rejections"][0]["predicted"] is not None

    @pytest.mark.parametrize("alpha", ["1e-14", "1e-17", str(2**-54), "1e-300"])
    def test_power_study_at_a_small_level(self, capsys, alpha):
        # From 2**-54 the predicted power raised a DomainError about a p that 1 - alpha rounded to 1.
        code, out, _ = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--n", "16",
            "--reps", "100", "--seed", "1", "--delta", "0.5,0.3", "--alpha", alpha, "--json",
        )
        assert code == EXIT_OK
        row = json.loads(out)["results"]["rejections"][0]
        assert row["alpha"] == float(alpha) and 0.0 <= row["predicted"] < 1e-12

    def test_malformed_delta(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--delta", "0.5",
        )
        assert code == EXIT_USAGE

    def test_invalid_reps(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "size", "--lambda", "2", "--reps", "5",
        )
        assert code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "size", "--lambda", "2", "--frobnicate")
        assert code == EXIT_USAGE


class TestTablesCommand:
    def test_single_row_laplace(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--lambda-grid", "1:1:1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == (
            "lambda,j_theta1_theta1,j_theta2_theta2,j_theta1_mu,j_theta2_sigma,"
            "j_mu_mu,j_sigma_sigma,sigma11,sigma22"
        )
        row = lines[1].split(",")
        assert float(row[1]) == 8.0
        assert float(row[7]) == 4.0

    def test_normal_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--lambda-grid", "2:2:1", "--json")
        assert code == EXIT_OK
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 1
        assert_allclose(rows[0]["sigma11"], 12.0 - 32.0 / math.pi, rtol=0, atol=1e-12)

    def test_grid_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--lambda-grid", "1:3:0.5", "--json")
        rows = json.loads(out)["results"]["rows"]
        assert [r["lambda"] for r in rows] == [1.0, 1.5, 2.0, 2.5, 3.0]

    @pytest.mark.parametrize(
        "grid", ["0.5:2:1", "2:1:1", "1:2:0", "1:2", "a:b:c"]
    )
    def test_bad_grids(self, capsys, grid):
        code, _, _ = run_cli(capsys, "tables", "--lambda-grid", grid)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "grid", ["1:3:0.5", "1.7:9.3:0.37", "1:100:0.01", "1e15:1e15:0.3", "1:1.00000000005:1e-14"]
    )
    def test_grid_matches_stepping_oracle(self, grid):
        # start + k*step, stepped until it passes stop (with slack).  In the
        # last two grids step is a few ulps of start, so rows round unevenly.
        start, stop, step = map(float, grid.split(":"))
        expected = []
        while (lam := start + len(expected) * step) <= stop * (1.0 + 1e-12) + 1e-12:
            expected.append(lam)
        assert _parse_grid(grid) == expected

    def test_grid_row_cap(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--lambda-grid", f"1:{_GRID_CAP}:1")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + _GRID_CAP
        code, out, err = run_cli(capsys, "tables", "--lambda-grid", f"1:{_GRID_CAP + 1}:1")
        assert code == EXIT_USAGE
        assert out == "" and "rows" in err

    @pytest.mark.parametrize("grid", ["1e103:1e103:1", "1:1e9:1"])
    def test_long_grid_is_usage_error(self, grid):
        # The first never ended (start + k*step rounds to start); the second
        # built a billion-row list.
        proc = run_program("tables", "--lambda-grid", grid, timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


class TestSampleCommand:
    def test_reproducible(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "sample", "--theta1", "0.3", "--theta2", "1.5",
                "--n", "50", "--seed", "11", "--output", str(out),
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_values_round_trip_bit_exact(self, capsys, tmp_path):
        out = tmp_path / "x.txt"
        run_cli(
            capsys, "sample", "--theta1", "0.5", "--theta2", "2",
            "--n", "100", "--seed", "3", "--output", str(out),
        )
        from apdgof import apd

        rng = np.random.default_rng(np.random.SeedSequence(entropy=3))
        expected = apd.sample(apd.ApdParams(0.5, 2.0), 100, rng)
        parsed = np.array([float(line) for line in out.read_text().splitlines()])
        assert np.array_equal(parsed, expected)
        assert out.read_bytes() == b"".join(f"{v:.17g}\n".encode() for v in expected)
        assert read_values(str(out)).tobytes() == expected.tobytes()

    def test_self_consistency_with_test(self, capsys, tmp_path):
        out = tmp_path / "draws.txt"
        run_cli(
            capsys, "sample", "--theta1", "0.5", "--theta2", "2",
            "--n", "20000", "--seed", "12", "--output", str(out),
        )
        code, text, _ = run_cli(
            capsys, "test", "--input", str(out), "--lambda", "2", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(text)["results"]["p_value"] > 0.01

    def test_zero_n_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sample", "--theta1", "0.5", "--theta2", "2",
            "--n", "0", "--output", str(tmp_path / "x.txt"),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, tmp_path, seed):
        # 2**64 was written out: only a negative seed was refused
        out = tmp_path / "x.txt"
        code, _, err = run_cli(
            capsys, "sample", "--theta1", "0.5", "--theta2", "2",
            "--n", "5", "--seed", seed, "--output", str(out),
        )
        assert code == EXIT_USAGE
        assert "seed" in err and not out.exists()

    def test_bad_theta1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sample", "--theta1", "1.5", "--theta2", "2",
            "--n", "5", "--output", str(tmp_path / "x.txt"),
        )
        assert code == EXIT_USAGE

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sample", "--theta1", "0.5", "--theta2", "2",
            "--n", "5", "--output", str(tmp_path / "missing" / "x.txt"),
        )
        assert code == EXIT_INPUT


def reference_read_values(path: str) -> np.ndarray:
    """The line-by-line parser ``read_values`` replaced: the oracle of its rules."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    values = []
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        if any(ch.isspace() for ch in token):
            raise _InputError(f"{path}:{lineno}: expected one value per line")
        try:
            v = float(token)
        except ValueError:
            raise _InputError(f"{path}:{lineno}: not a decimal: {token!r}") from None
        if not math.isfinite(v):
            raise _InputError(f"{path}:{lineno}: value is not finite: {token!r}")
        values.append(v)
    if len(values) < 2:
        raise _InputError(f"{path}: need at least 2 values, found {len(values)}")
    return np.array(values)


def _outcome(parse, path):
    try:
        return "values", parse(path)
    except _InputError as exc:
        return "error", str(exc)


def assert_parses_like_reference(path: Path, content: bytes):
    """Write ``content`` to ``path``; both parsers must agree bit for bit, or in message."""
    path.write_bytes(content)
    kind, got = _outcome(read_values, str(path))
    try:
        ref_kind, want = _outcome(reference_read_values, str(path))
    except UnicodeDecodeError as exc:
        # The oracle decodes the whole file at once, so exc.start is a file offset.
        ref_kind = "error"
        want = f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
    assert kind == ref_kind, (got, want)
    if kind == "values":
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want
    return kind, got


INPUT_CORPUS = {
    "crlf": (b"1\r\n2\r\n3\r\n", [1.0, 2.0, 3.0]),
    "lone-cr": (b"1\r2\r3", [1.0, 2.0, 3.0]),
    "form-feed": (b"1\f2\f3\n", [1.0, 2.0, 3.0]),
    "next-line": ("1\x852\x853".encode(), [1.0, 2.0, 3.0]),
    "line-separator": ("1\u20282\u20283".encode(), [1.0, 2.0, 3.0]),
    "no-final-newline": (b"1\n2", [1.0, 2.0]),
    "indented-comment": (b"  # c\n1\n2\n", [1.0, 2.0]),
    "inline-comment": (b"1 # c\n2\n", ":1: expected one value per line"),
    "underscores": (b"1_000\n2\n", [1000.0, 2.0]),
    "padded-tiny": (b" +1e-300 \n2\n", [1e-300, 2.0]),
    "negative-zero": (b"-0.0\n0.0\n1\n", [-0.0, 0.0, 1.0]),
    "unicode-digits": ("\u0661\u0662\n3\n".encode(), [12.0, 3.0]),
    "byte-order-mark": ("\ufeff1\n2\n".encode(), ":1: not a decimal: '\\ufeff1'"),
    "overflow": (b"1\n1e999\n", ":2: value is not finite: '1e999'"),
    "nan": (b"1\nnan\n2\n", ":2: value is not finite: 'nan'"),
    "minus-inf": (b"-inf\n1\n2\n", ":1: value is not finite: '-inf'"),
    "two-per-line": (b"1 2\n3\n", ":1: expected one value per line"),
    "two-columns": (b"1 2\n3 4\n", ":1: expected one value per line"),
    "inner-tab": (b"1\n2\t3\n", ":2: expected one value per line"),
    "inner-nbsp": ("1\n2\u00a03\n".encode(), ":2: expected one value per line"),
    "empty": (b"", ": need at least 2 values, found 0"),
    "whitespace-only": (b"  \n\t\n \r\n", ": need at least 2 values, found 0"),
    "single-value": (b"1.5\n", ": need at least 2 values, found 1"),
    "bad-text-first": (b"1\nabc\n3 4\ninf\n", ":2: not a decimal: 'abc'"),
    "bad-pair-first": (b"1\n3 4\nabc\ninf\n", ":2: expected one value per line"),
    "bad-inf-first": (b"# h\n\n1\ninf\nabc\n3 4\n", ":4: value is not finite: 'inf'"),
    # A stream that dropped whole '#' lines would lose the 1.5 after the form feed.
    "comment-then-form-feed": (b"# c\x0c1.5\n2\n", [1.5, 2.0]),
    "trailing-empty-line": (b"1\n2\n\n", [1.0, 2.0]),
    "empty-line-mid-file": (b"1\n\n2\n", [1.0, 2.0]),
    "trailing-next-line": ("1\x85\n2\n".encode(), [1.0, 2.0]),
    # The byte is named by its offset in the file, not in a decoded chunk.
    "late-bad-byte": (
        b"1\n" * 10_000 + b"\xff", ": not UTF-8 text (byte 20000: invalid start byte)"
    ),
}


class FifoPath(type(Path())):
    """A path that ``write_bytes`` makes a FIFO: the first reader gets ``content`` through a pipe.

    Once that reader has opened the FIFO, a regular file with the same
    content takes its place, so every later reader (the oracle) reads a file.
    """

    def write_bytes(self, content):
        os.mkfifo(self)
        self.writer = threading.Thread(target=self._feed, args=(content,), daemon=True)
        self.writer.start()

    def _feed(self, content):
        with open(self, "wb") as pipe:  # blocks until the first reader opens
            regular = Path(f"{self}.regular")
            regular.write_bytes(content)
            os.replace(regular, self)
            pipe.write(content)


def assert_pipe_parses_like_reference(path: Path, content: bytes):
    """:func:`assert_parses_like_reference` with ``read_values`` reading ``content`` from a FIFO."""
    fifo = FifoPath(path)
    try:
        return assert_parses_like_reference(fifo, content)
    finally:
        fifo.writer.join(timeout=60)
        assert not fifo.writer.is_alive()


RANDOM_FILES = dict(
    lines=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).flatmap(
                lambda v: st.sampled_from([repr(v), f"{v:.17g}", f"{v:.3e}", f" {v!r}\t"])
            ),
            st.sampled_from(["", " ", "\t", "  \t "]),
            st.text(max_size=12).map(lambda t: "#" + t),
            st.text(max_size=12).map(lambda t: "  # " + t),
        ),
        max_size=40,
    ),
    bad=st.lists(
        st.tuples(
            st.integers(0, 40),
            st.sampled_from(["abc", "1 2", "nan", "inf", "-1e999", "1 # c", "0x1p3"]),
        ),
        max_size=2,
    ),
    sep=st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]),
    final_sep=st.booleans(),
)


def random_file(lines, bad, sep, final_sep) -> bytes:
    for pos, line in bad:
        lines.insert(min(pos, len(lines)), line)
    return (sep.join(lines) + (sep if final_sep and lines else "")).encode()


def check_corpus_case(path: Path, case: str, check):
    content, expected = INPUT_CORPUS[case]
    kind, got = check(path, content)
    if isinstance(expected, str):
        assert kind == "error"
        assert got in (f"{path}{expected}", f"cannot read {path}{expected}")
    else:
        assert kind == "values"
        assert got.tobytes() == np.array(expected).tobytes()


class TestReadValues:
    """``read_values`` against the line-by-line oracle on a corpus and on random files.

    Each input is read from a file, which numpy's reader reads where it
    lies, and through a FIFO, which ``read_values`` reads into memory first.
    """

    @pytest.mark.parametrize("case", sorted(INPUT_CORPUS))
    def test_corpus_matches_reference(self, tmp_path, case):
        check_corpus_case(tmp_path / "input.txt", case, assert_parses_like_reference)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @pytest.mark.parametrize("case", sorted(INPUT_CORPUS))
    def test_corpus_through_a_fifo(self, tmp_path, case):
        check_corpus_case(tmp_path / "input.txt", case, assert_pipe_parses_like_reference)

    @given(**RANDOM_FILES)
    @settings(max_examples=200, deadline=None)
    def test_random_files_match_reference(self, tmp_path_factory, lines, bad, sep, final_sep):
        path = tmp_path_factory.mktemp("random") / "input.txt"
        assert_parses_like_reference(path, random_file(lines, bad, sep, final_sep))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @given(**RANDOM_FILES)
    @settings(max_examples=200, deadline=None)
    def test_random_files_through_a_fifo(self, tmp_path_factory, lines, bad, sep, final_sep):
        path = tmp_path_factory.mktemp("random") / "input.txt"
        assert_pipe_parses_like_reference(path, random_file(lines, bad, sep, final_sep))

    def test_seekable_file_parse_memory(self, tmp_path):
        # A file is read where it lies: the parse holds the values, and no copy
        # of the file's bytes (which take ~2.4x the values' 8 bytes at 17
        # digits), also with CRLF endings and an empty line mid-file.
        values = np.random.default_rng(6).standard_normal(20_000)
        lines = [f"{v:.17g}" for v in values]
        contents = {
            "plain": "".join(f"{line}\n" for line in lines),
            "crlf-empty-line": "\r\n".join(lines[:10_000] + [""] + lines[10_000:]) + "\r\n",
        }
        for name, content in contents.items():
            path = tmp_path / f"{name}.txt"
            path.write_bytes(content.encode())
            read_values(str(path))
            tracemalloc.start()
            try:
                got = read_values(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == values.tobytes(), name
            assert peak < 1.75 * values.nbytes, (name, peak)

    def test_gzip_bytes_named_gz_are_read_as_text(self, tmp_path):
        # numpy's reader decompresses a path ending in .gz; such a file is read
        # as its bytes, so gzip data is not UTF-8 text.
        path = tmp_path / "values.txt.gz"
        path.write_bytes(gzip.compress(b"1\n2\n3\n"))
        with pytest.raises(_InputError) as info:
            read_values(str(path))
        assert str(info.value) == f"cannot read {path}: not UTF-8 text (byte 1: invalid start byte)"

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_text_with_a_compressed_suffix_parses(self, tmp_path, suffix):
        path = tmp_path / f"values{suffix}"
        path.write_bytes(b"1.5\n-2\n3e2\n")
        assert read_values(str(path)).tolist() == [1.5, -2.0, 300.0]

    def test_relative_path_like_a_url_reads_the_local_file(self, tmp_path, monkeypatch):
        # numpy's reader would fetch a path it parses as a URL.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "f").write_bytes(b"1\n2\n")
        assert read_values("http://host/f").tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("content", [b"", b"  \n\t\n \r\n"], ids=["empty", "whitespace-only"])
    def test_file_without_values_is_an_error_and_no_warning(self, tmp_path, content):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        for action in ("error", "always"):  # numpy's "input contained no data" must not escape
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(_InputError) as info:
                    read_values(str(path))
            assert caught == []
            assert str(info.value) == f"{path}: need at least 2 values, found 0"

    def test_plain_file_parse_memory(self, tmp_path):
        # The line pass held the text, its line list and a token list: 4.8x
        # the file's bytes at 20 000 values.
        values = np.random.default_rng(5).standard_normal(20_000)
        path = tmp_path / "plain.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in values))
        read_values(str(path))
        tracemalloc.start()
        try:
            got = read_values(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == values.tobytes()
        assert peak < 2 * path.stat().st_size


class TestUsageBasics:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "test", "--lambda", "1")[0] == EXIT_USAGE


def run_program(*argv, timeout=300, input=None):
    """Run ``python -m apdgof.cli`` in a fresh interpreter, ``input`` on its stdin."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "apdgof.cli", *argv],
        env=env,
        input=input,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestErrorMapping:
    """Every package error maps to a documented exit code; no traceback escapes."""

    def test_huge_lambda_study(self):
        proc = run_program("simulate", "size", "--lambda", "1e6", "--n", "20", "--reps", "100")
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (EXIT_OK, EXIT_DEGENERATE, EXIT_NUMERIC, EXIT_USAGE)

    def test_study_with_every_replicate_failed_is_numerical_failure(self):
        proc = run_program("simulate", "size", "--lambda", "1e8", "--n", "20", "--reps", "100")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_NUMERIC
        assert "all 100 replicates failed" in proc.stderr

    def test_huge_theta2_sample(self, tmp_path):
        out = tmp_path / "draws.txt"
        proc = run_program(
            "sample", "--theta1", "0.5", "--theta2", "1e6", "--n", "1000",
            "--seed", "3", "--output", str(out),
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_OK
        values = np.loadtxt(out)
        assert np.all(np.abs(values) <= 1.0 + 1e-4)

    def test_unrepresentable_sample_is_numerical_failure(self, capsys, tmp_path):
        with np.errstate(over="ignore"):
            code, _, err = run_cli(
                capsys, "sample", "--theta1", "0.5", "--theta2", "1e-3",
                "--n", "10", "--output", str(tmp_path / "x.txt"),
            )
        assert code == EXIT_NUMERIC
        assert "numerical failure" in err

    # 1e15 float64 values take 7.11 PiB, more than the address space, so the
    # allocation fails before any page is touched.
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--theta1", "0.5", "--theta2", "2", "--n", "1000000000000000",
             "--output", "{tmp}/x.txt"),
            ("simulate", "size", "--lambda", "2", "--n", "1000000000000000", "--reps", "100"),
        ],
    )
    def test_allocation_failure_is_numerical_failure(self, capsys, tmp_path, argv):
        args = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_NUMERIC
        assert out == "" and err.startswith("error: out of memory:")
        proc = run_program(*args, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr.startswith("error: out of memory:")

    def test_undecodable_input_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n\xff\n2\n")
        code, out, err = run_cli(capsys, "test", "--input", str(path), "--lambda", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert str(path) in err and "not UTF-8" in err
        proc = run_program("test", "--input", str(path), "--lambda", "1")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_INPUT
        assert str(path) in proc.stderr

    @pytest.mark.parametrize(
        "flag,value", [("--sigma", "0"), ("--sigma", "-1"), ("--sigma", "nan"), ("--mu", "inf")]
    )
    def test_bad_study_location_or_scale_is_usage_error(self, capsys, flag, value):
        args = ("simulate", "size", "--lambda", "2", "--n", "16", "--reps", "100", flag, value)
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        proc = run_program(*args)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_USAGE

    @pytest.mark.parametrize(
        "args,expected",
        [
            (("simulate", "size", "--lambda", "2", "--sigma", "-1"),
             "error: --mu/--sigma: sigma must be positive, got -1.0\n"),
            (("sample", "--theta1", "1.5", "--theta2", "2", "--n", "5", "--output", "x.txt"),
             "error: --theta1/--theta2/--mu/--sigma: theta1 must lie in (0, 1), got 1.5\n"),
        ],
    )
    def test_bad_distribution_parameter_names_its_flags(self, capsys, args, expected):
        # the message named the field but not the flags it came from
        assert run_cli(capsys, *args) == (EXIT_USAGE, "", expected)

    def test_study_leaving_parameter_space_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--n", "16",
            "--reps", "100", "--delta", "4,0",
        )
        assert code == EXIT_USAGE
        assert "parameter space" in err
