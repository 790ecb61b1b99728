"""The command line as a program: ``python -m apdgof.cli`` in a fresh interpreter.

Each case runs the module in a subprocess with a timeout and checks its exit
code, its output and that no traceback reaches stderr.  These are the shell
checks of an installed console script, kept here so that every run of the
suite makes them; ``tests/test_cli.py`` drives ``main`` in-process.
"""

import json

import pytest

from apdgof.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE
from tests.test_cli import run_program

HUGE_N = str(10**30)  # a count numpy cannot size: a bare ValueError before


def test_sample_then_test(tmp_path):
    draws = tmp_path / "draws.txt"
    proc = run_program("sample", "--theta1", "0.5", "--theta2", "2", "--n", "500", "--seed", "1",
                       "--output", str(draws))
    assert proc.returncode == EXIT_OK, proc.stderr
    proc = run_program("test", "--input", str(draws), "--lambda", "2", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["results"]["n"] == 500


def test_tables():
    proc = run_program("tables", "--lambda-grid", "1:3:0.5")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 5


def test_study_output_does_not_depend_on_workers():
    argv = ("simulate", "size", "--lambda", "2", "--n", "200", "--reps", "100", "--seed", "1", "--json")
    one = run_program(*argv, "--workers", "1")
    two = run_program(*argv, "--workers", "2")
    assert one.returncode == two.returncode == EXIT_OK, one.stderr + two.stderr
    assert one.stdout == two.stdout


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("sample", "--theta1", "0.5", "--theta2", "2", "--n", "5", "--seed", str(2**64),
          "--output", "{tmp}/seed.txt"), EXIT_USAGE, "error: seed must be below 2**64"),
        (("simulate", "size", "--lambda", "2", "--n", "200", "--reps", "100", "--seed", str(2**64)),
         EXIT_USAGE, "error: seed must be below 2**64"),
        (("sample", "--theta1", "0.5", "--theta2", "2", "--n", HUGE_N, "--output", "{tmp}/huge.txt"),
         EXIT_NUMERIC, "error: out of memory: n is 1" + "0" * 30),
        (("simulate", "size", "--lambda", "2", "--n", HUGE_N, "--reps", "100"),
         EXIT_NUMERIC, "error: out of memory: n is 1" + "0" * 30),
        (("simulate", "size", "--lambda", "2", "--n", "20", "--reps", HUGE_N),
         EXIT_NUMERIC, "error: out of memory: reps is 1" + "0" * 30),
    ],
    ids=["sample-seed-2**64", "simulate-seed-2**64", "sample-n-1e30", "simulate-n-1e30",
         "simulate-reps-1e30"],
)
def test_refused_arguments_end_without_a_traceback(tmp_path, argv, code, message):
    proc = run_program(*(a.format(tmp=tmp_path) for a in argv))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    assert proc.stdout == "" and proc.stderr.startswith(message)
    assert not any(tmp_path.iterdir())
