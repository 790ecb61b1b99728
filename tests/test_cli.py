"""End-to-end tests of the command-line interface.

Each case drives ``main(argv)`` in-process and checks stdout/stderr and the
exit code; the error-mapping cases also run the module as a program, so a
traceback would show on its stderr.  Exit codes: 0 success, 2 input error,
3 degenerate data, 4 numerical failure, 64 usage error.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from apdgof.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
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

    def test_bad_alpha_is_usage_error(self, capsys, data_file):
        code, _, _ = run_cli(
            capsys, "test", "--input", data_file, "--lambda", "1", "--alpha", "1.5"
        )
        assert code == EXIT_USAGE

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


class TestUsageBasics:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "test", "--lambda", "1")[0] == EXIT_USAGE


def run_program(*argv):
    """Run ``python -m apdgof.cli`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "apdgof.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestErrorMapping:
    """Every package error maps to a documented exit code; no traceback escapes."""

    def test_huge_lambda_study(self):
        proc = run_program("simulate", "size", "--lambda", "1e6", "--n", "20", "--reps", "100")
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (EXIT_OK, EXIT_DEGENERATE, EXIT_NUMERIC, EXIT_USAGE)

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

    def test_study_leaving_parameter_space_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "power", "--lambda", "2", "--n", "16",
            "--reps", "100", "--delta", "4,0",
        )
        assert code == EXIT_USAGE
        assert "parameter space" in err
