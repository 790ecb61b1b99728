"""Command-line front end.

Subcommands: ``test`` (run the goodness-of-fit test on a data file),
``simulate`` (Monte Carlo size/power studies), ``tables`` (closed-form
covariance entries over a grid of tail exponents) and ``sample`` (write
reproducible APD variates).  Exit codes: 0 success, 2 input error,
3 degenerate data, 4 numerical failure (a quantity is not representable, a
routine missed its accuracy target, every replicate of a study failed, or
an array did not fit in memory), 64 usage error (including an invalid study
configuration).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import stat
import sys
import warnings

import numpy as np

from . import apd
from .errors import ApdGofError, ConfigError, DegenerateSampleError, DomainError
from .score import LocationScale, _check_alpha, check_lambda, fisher_information, run_test, score_covariance
from .simulate import _SCHEMA_VERSION, StudyConfig, _check_seed, run_local_alternative_study, run_null_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64

# Most rows ``tables --lambda-grid`` prints.
_GRID_CAP = 10_000
# Suffixes of the files numpy's text reader decompresses when given their path.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

_TABLE_COLUMNS = (
    "lambda",
    "j_theta1_theta1",
    "j_theta2_theta2",
    "j_theta1_mu",
    "j_theta2_sigma",
    "j_mu_mu",
    "j_sigma_sigma",
    "sigma11",
    "sigma22",
)


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def read_values(path: str) -> np.ndarray:
    """Parse a single-column text file of decimals.

    The file must be UTF-8 text; an undecodable file is an input error.
    Blank lines and whole-line ``#`` comments are skipped, and any line
    break ``str.splitlines`` knows ends a line (CRLF included).  Every
    remaining line, stripped of surrounding whitespace, must hold exactly one
    finite value in a spelling Python's ``float()`` accepts (``1_000`` and
    ``-1e-3`` among them); an inline comment such as ``1 # note`` is an
    input error.  At least two values are required.  The first bad line in
    file order is reported with its line number.

    numpy's C text reader parses first.  A regular file whose name numpy
    would not decompress is read where it lies, and the parse holds about
    the values (8 bytes a value); other input, a pipe among them, is opened
    once and read into memory, so it holds its bytes plus the values.  The
    reader splits at the whitespace ``str.isspace`` knows and takes only
    ASCII ``float()`` spellings, so one column of finite values from it is
    what the rules above give.  Any other input takes a pass over its
    decoded lines, about five times its size, which alone reads the other
    spellings and names the first bad line: what is accepted and every
    error message do not depend on the route.
    """
    data = None
    try:
        if stat.S_ISREG(os.stat(path).st_mode) and not path.endswith(_COMPRESSED):
            values = _loaded(os.path.abspath(path))  # absolute: never read as a URL
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            values = _loaded(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        if values is not None:
            return values
        if data is None:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    del data  # the line list is the peak: hold neither the bytes nor the text under it
    lines = text.splitlines()
    del text
    # float() rejects inner whitespace, so a token that converts is a single value.
    tokens = [t for t in map(str.strip, lines) if t and t[0] != "#"]
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        raise _first_bad_line(path, lines)
    if len(values) < 2:
        raise _InputError(f"{path}: need at least 2 values, found {len(values)}")
    return values


def _loaded(src) -> np.ndarray | None:
    """One column of at least two finite values read from ``src`` by numpy, else None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            values = np.loadtxt(src, dtype=float, comments=None, encoding="utf-8", ndmin=2)
    except (ValueError, OSError, UserWarning):  # UnicodeDecodeError among them
        return None
    if values.shape[1:] != (1,) or len(values) < 2:
        return None
    values = values[:, 0]
    return values if math.isfinite(values.min()) and math.isfinite(values.max()) else None


def _first_bad_line(path: str, lines: list[str]) -> _InputError:
    """The error for the first line of ``read_values`` input that breaks its rules."""
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        if any(ch.isspace() for ch in token):
            return _InputError(f"{path}:{lineno}: expected one value per line")
        try:
            v = float(token)
        except ValueError:
            return _InputError(f"{path}:{lineno}: not a decimal: {token!r}")
        if not math.isfinite(v):
            return _InputError(f"{path}:{lineno}: value is not finite: {token!r}")
    raise AssertionError(f"{path}: the whole-file parse failed on no line")


def _emit_json(command: str, inputs: dict, results: dict) -> None:
    record = {"schema_version": _SCHEMA_VERSION, "command": command, "inputs": inputs, "results": results}
    print(json.dumps(record, sort_keys=True, indent=2))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _check_flag(flag: str, rule, *values):
    """``rule(*values)`` for a library rule; its :class:`DomainError` becomes a usage error naming ``flag``."""
    try:
        return rule(*values)
    except DomainError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _cmd_test(args) -> int:
    _check_flag("--lambda", check_lambda, args.lam)
    _check_flag("--alpha", _check_alpha, args.alpha)
    data = read_values(args.input)
    report = run_test(data, args.lam, alpha=args.alpha)
    results = {
        "n": report.n,
        "lambda": report.lam,
        "mu_hat": report.loc_scale.mu,
        "sigma_hat": report.loc_scale.sigma,
        "r1": float(report.score[0]),
        "r2": float(report.score[1]),
        "t_stat": report.t_stat,
        "p_value": report.p_value,
        "alpha": report.alpha,
        "reject": report.reject,
    }
    if args.json:
        _emit_json("test", {"input": args.input, "lambda": args.lam, "alpha": args.alpha}, results)
    else:
        verdict = "reject H0" if report.reject else "accept H0"
        print(f"modified score test (lambda={args.lam:g}, n={report.n})")
        print(f"  mu_hat    : {report.loc_scale.mu!r}")
        print(f"  sigma_hat : {report.loc_scale.sigma!r}")
        print(f"  score     : ({float(report.score[0])!r}, {float(report.score[1])!r})")
        print(f"  t_stat    : {report.t_stat!r}")
        print(f"  p_value   : {report.p_value!r}")
        print(f"  decision  : {verdict} at alpha={args.alpha:g}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    delta = None
    if args.kind == "power":
        _check(args.delta is not None, "simulate power requires --delta d1,d2")
        delta = args.delta
    else:
        _check(args.delta is None, "--delta is only valid for simulate power")
    loc_scale = _check_flag("--mu/--sigma", LocationScale, args.mu, args.sigma)
    cfg = StudyConfig(
        lam=args.lam,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        alpha_grid=(args.alpha,),
        delta=delta,
        loc_scale=loc_scale,
    )
    run = run_null_study if args.kind == "size" else run_local_alternative_study
    report = run(cfg, workers=args.workers)
    payload = report.to_dict()
    if args.json:
        _emit_json("simulate", {"kind": args.kind}, payload)
    else:
        print(f"simulate {args.kind}: lambda={args.lam:g} n={args.n} reps={args.reps} seed={args.seed}")
        for row in payload["rejections"]:
            line = (
                f"  alpha={row['alpha']:g}  rejection={row['rate']:.4f}"
                f"  se={row['std_error']:.4f}"
            )
            if row["predicted"] is not None:
                line += f"  predicted={row['predicted']:.4f}"
            print(line)
        print(f"  ks_stat={payload['ks_stat']:.6f}  failures={payload['replicate_failures']}")
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    _check(len(parts) == 3, "--lambda-grid must look like start:stop:step")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise _UsageError(f"--lambda-grid has non-numeric parts: {text!r}") from None
    _check_flag("--lambda-grid start", check_lambda, start)
    _check_flag("--lambda-grid stop", check_lambda, stop)
    _check(stop >= start, "--lambda-grid stop must be >= start")
    _check(math.isfinite(step) and step > 0.0, "--lambda-grid step must be positive and finite")
    # Row k is start + k*step while it stays <= stop (with slack).  The cap
    # also ends a grid whose rows round to start for every k.
    limit = stop * (1.0 + 1e-12) + 1e-12
    grid = []
    while (lam := start + len(grid) * step) <= limit:
        _check(len(grid) < _GRID_CAP, f"--lambda-grid must have at most {_GRID_CAP} rows")
        grid.append(lam)
    return grid


def _cmd_tables(args) -> int:
    grid = _parse_grid(args.lambda_grid)
    rows = []
    for lam in grid:
        # lambda, then the six nonzero entries of J and the diagonal of Sigma
        j = fisher_information(lam)
        values = [lam, j[0, 0], j[1, 1], j[0, 2], j[1, 3], j[2, 2], j[3, 3],
                  *np.diagonal(score_covariance(lam))]
        rows.append(dict(zip(_TABLE_COLUMNS, map(float, values))))
    if args.json:
        _emit_json("tables", {"lambda_grid": args.lambda_grid}, {"rows": rows})
    else:
        print(",".join(_TABLE_COLUMNS))
        for row in rows:
            print(",".join(map(repr, row.values())))
    return EXIT_OK


def _cmd_sample(args) -> int:
    _check(args.n >= 1, "--n must be >= 1")
    _check_seed(args.seed)
    params = _check_flag(
        "--theta1/--theta2/--mu/--sigma", apd.ApdParams, args.theta1, args.theta2, args.mu, args.sigma
    )
    rng = np.random.default_rng(args.seed)
    values = apd.sample(params, args.n, rng)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v:.17g}\n" for v in values.tolist()))
    except OSError as exc:
        raise _InputError(f"cannot write {args.output}: {exc}") from None
    results = {"n": args.n, "seed": args.seed, "output": args.output}
    if args.json:
        inputs = {
            "theta1": args.theta1,
            "theta2": args.theta2,
            "mu": args.mu,
            "sigma": args.sigma,
        }
        _emit_json("sample", inputs, results)
    else:
        print(f"wrote {args.n} values to {args.output} (seed={args.seed})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apdgof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a data file against the exponential-power null")
    p_test.add_argument("--input", required=True, help="single-column text file of decimals")
    p_test.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="null tail exponent (>= 1; 1=Laplace, 2=normal)")
    p_test.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p_test.add_argument("--json", action="store_true", help="machine-readable output")

    p_sim = sub.add_parser("simulate", help="Monte Carlo size or power study")
    p_sim.add_argument("kind", choices=("size", "power"))
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--n", type=int, default=2000, help="sample size per replicate")
    p_sim.add_argument("--reps", type=int, default=1000, help="number of replicates")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--delta", type=_delta_arg, default=None,
                       help="local-alternative direction d1,d2 (power only)")
    p_sim.add_argument("--mu", type=float, default=0.0, help="data-generating location")
    p_sim.add_argument("--sigma", type=float, default=1.0, help="data-generating scale")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel workers (at most the available CPUs)")
    p_sim.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("tables", help="covariance entries over a tail-exponent grid")
    p_tab.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                       help="grid as start:stop:step with start >= 1")
    p_tab.add_argument("--json", action="store_true")

    p_smp = sub.add_parser("sample", help="write reproducible APD variates to a file")
    p_smp.add_argument("--theta1", type=float, required=True, help="asymmetry in (0, 1)")
    p_smp.add_argument("--theta2", type=float, required=True, help="tail exponent > 0")
    p_smp.add_argument("--mu", type=float, default=0.0)
    p_smp.add_argument("--sigma", type=float, default=1.0)
    p_smp.add_argument("--n", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=0)
    p_smp.add_argument("--output", required=True)
    p_smp.add_argument("--json", action="store_true")
    return parser


def _delta_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated values")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a pair of decimals: {text!r}") from None


_HANDLERS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateSampleError as exc:
        print(f"error: degenerate sample: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ApdGofError as exc:  # DomainError, AccuracyError
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
