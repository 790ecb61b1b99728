"""Digest of apdgof's outputs, one line per case, for comparing two versions bit for bit.

    python tests/digest.py [--quick] > digest.txt

It imports the ``src/`` next to this directory.  ``tests/gate.py`` runs it
in this tree and in a ``git archive`` copy of the base commit, and shows
the two outputs' line counts, sha256 and diff.  A line names its case, then gives
the outputs as ``float.hex``, or the error class and message, then every
warning the case raised.  The cases:

- ``run_test`` (mu, sigma, score, T, p), ``fit_null_mle`` (mu, sigma) and
  ``modified_score`` at that fit, on null draws over lam, location/scale,
  size and seed, on null draws of 65,545 and 100,000 values (more than
  one block of the fit) at seed 0 and 65,545 normal values scaled by
  1e+-150 and 1e+-300, and on ties, signed zeros, a fit on a data point, data
  scaled by 1e+-150 and 1e+-300, the +-1.7e308 span and too few
  observations;
- the same three at lam = 1 on :func:`median_inputs`, samples of more than
  one block whose median is selected block by block or left to
  ``np.median``;
- ``apd.sample`` draws, by sha256, at tail exponents whose ``1/theta2``
  covers every fast path of ``**`` (0.5, 1, 2) and ``np.power``;
- apd's density side over :data:`APD_SHAPES`, from theta1 = 1e-300 to
  1 - 2**-52, theta2 = 1e-300 to 1e300 and sigma = 1e-300 to 1e300: a line
  each for ``log_pdf`` and ``cdf`` at :data:`APD_XS`, ``quantile`` at
  :data:`APD_US` and the sha256 of ten ``sample`` draws at seed 0; and
  ``from_sepd`` at gamma = 1.5 for q from 1e-17 to 3;
- the sha256 of the JSON of size studies at lam = 3 and power studies at
  lam = 2, at seeds 1 to 3, and of size studies at lam = 1 there, at
  that n and at an odd n (201), whose replicates fit in their own draws;
- the noncentral chi-square law: ``noncentral_chi2_sf`` on a grid of ncp
  and x up to 1e4 and at the edges of its domain (windows apart, either
  side of the numpy sum's end at ncp ~ 143, where ``chndtr`` has no value,
  ncp/2 past 2**53), and ``asymptotic_power`` at lam = 2 on that ncp grid
  at three levels and at a ``delta`` past 2**53;
- ``cli.read_values``, by the sha256 of the parsed values or the error
  message (the temporary directory shown as ``<dir>``), on the
  ``test-file`` benchmark's input of 1e5 values and on files with CRLF and
  lone-CR endings, an empty line mid-file, a ``#`` header, ``1_000``,
  Unicode digits, a plain file named ``.gz``, gzip bytes named ``.gz`` and
  a bad line.

``--quick`` prints a small slice of these, which ``tests/test_digest.py``
runs in one process and in a subprocess.  No hex value is pinned: numpy's
last bits may differ across CPUs.  pytest does not collect this file.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from apdgof import apd, cli, numerics, score, simulate  # noqa: E402

LAMS = (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.5, 8.0, 50.0)
PLACES = ((0.0, 1.0), (1000.0, 50.0))
SIZES = (2, 7, 200, 2000)
SEEDS = (0, 1, 2)
# Samples of more than one leaf (score._BLOCK values), which fit and score in blocks.
LEAF_LAMS = (1.0, 1.01, 1.5, 2.0, 3.0, 8.0)
LEAF_SIZES = (65_545, 100_000)
_LEAF_NORMAL = np.random.default_rng(3).standard_normal(LEAF_SIZES[0])
SCALES = (1e150, 1e-150, 1e300, 1e-300)
# Tail exponents of apd.sample: 1/theta2 is 2, 1, 0.5 (the fast paths of
# **), then 1/3 and an exponent near 1/2 that is not 0.5 (np.power).
SHAPES = (0.5, 1.0, 2.0, 3.0, 2.0067)
STUDY_SEEDS = (1, 2, 3)
# apd's density side: every (theta1, theta2, sigma) at mu = 0, from the ends of the double range in.
APD_SHAPES = tuple(
    apd.ApdParams(t1, t2, 0.0, sigma)
    for t1 in (1e-300, 1e-9, 0.3, 0.5, 0.9, 1.0 - 2.0**-52)
    for t2 in (1e-300, 1e-100, 1e-10, 0.01, 1.0, 3.0, 1e10, 1e300)
    for sigma in (1e-300, 1.0, 1e300)
)
APD_XS = (0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300)
APD_US = (1e-9, 0.3, 0.5, 0.99)
SEPD_QS = (1e-17, 1e-12, 1e-8, 1e-4, 1.0, 3.0)
# The noncentral law: an ncp grid, an x grid, and (x, ncp) at the edges of its domain.
NCPS = (1e-3, 0.3, 1.3, 4.0, 40.0, 800.0, 5000.0, 1e4)
XS = (0.0, 1e-3, 0.5, 3.0, 5.99, 12.0, 30.0, 60.0, 900.0, 1e4)
LAW_EDGES = (
    (5.0, 1e12), (5.0, 1e16), (1e6, 1e3), (143.0, 143.0), (144.0, 144.0), (1e10, 1e10), (5e10, 5e10), (5.0, 1e300)
)
NULL_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
# Inputs of cli.read_values: name (with the file's suffix) -> bytes.  The
# quick slice takes the first four.
_LINES = [f"{v:.17g}" for v in np.random.default_rng(4).standard_normal(1000)]
PARSE_FILES = {
    "crlf.txt": "\r\n".join(_LINES).encode() + b"\r\n",
    "empty-line-mid-file.txt": "\n".join(_LINES[:500] + [""] + _LINES[500:]).encode(),
    "header.txt": ("# values\n" + "\n".join(_LINES)).encode(),
    "bad-line.txt": b"1\n2\n1 # note\n",
    "lone-cr.txt": "\r".join(_LINES).encode(),
    "underscores.txt": b"1_000\n-2_5.0_1\n3\n",
    "unicode-digits.txt": "\u0661\u0662\n\u0663.5\n-\u0664\n".encode(),
    "plain.gz": "\n".join(_LINES).encode(),
    "gzip-bytes.gz": gzip.compress(b"1\n2\n", mtime=0),
}

_NORMAL = np.random.default_rng(3).standard_normal(200)
SPECIAL = {
    "ties": [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0],
    "signed-zeros": [-0.0, 0.0, -0.0, 1.0, -2.0, 0.5],
    "on-a-point": [-2.0, -1.0, 0.0, 1.0, 2.0],
    "adjacent": [1.0, math.nextafter(1.0, 2.0)],
    "span": [-1.7e308, 1.7e308, 0.0, 1e308, -3e307],
    "huge-one-side": [1e308, 1.7e308, 1.5e308, 1.2e308],
    **{f"normal*{s:g}": _NORMAL * s for s in SCALES},
    **{f"(1000+normal)*{s:g}": (1000.0 + _NORMAL) * s for s in SCALES},
    "zero-spread": [2.0, 2.0, 2.0],
    "one": [1.0],
    "empty": [],
}


def median_inputs() -> dict[str, np.ndarray]:
    """Samples of more than one leaf whose lam = 1 location is ``np.median``'s double: name -> values.

    Laplace draws in their own, sorted, reversed and organ-pipe order,
    periodic tiles, ties at the centre, signed zeros at the centre, and
    draws scaled to the ends of the double range; at both ``LEAF_SIZES``.
    """
    inputs = {}
    for n in LEAF_SIZES:
        x = apd.sample(apd.ApdParams(0.5, 1.0), n, np.random.default_rng(6))
        z = np.random.default_rng(7).standard_normal(n)
        up = np.sort(x)
        lone = np.full(n, 2.5)
        lone[n // 3] = -1.0
        zeros = x.copy()
        zeros[::10] = np.copysign(0.0, z[::10])
        cases = {
            "laplace": x,
            "sorted": up,
            "reversed": up[::-1].copy(),
            "organ-pipe": np.concatenate([up[::2], up[1::2][::-1]]),
            "period-8": np.resize(x[:8], n),
            "period-13": np.resize(x[:13], n),
            "two-valued": np.where(z < 0.0, 1.5, 2.5),
            "all-but-one-equal": lone,
            "normal-rounded": np.round(z, 1),
            "(3+normal)-rounded": np.round(3.0 + z, 1),
            "signed-zeros": zeros,
            **{f"laplace*{s:g}": x * s for s in (1e300, 1e-300, 1e-310)},
            "1.5e308+laplace*1e306": 1.5e308 + x * 1e306,
        }
        inputs.update({f"{name} n={n}": v for name, v in cases.items()})
    return inputs


def _line(name: str, call) -> str:
    """``name: outputs [warnings]`` for the str or the floats ``call()`` returns, or for its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
            if not isinstance(out, str):
                out = " ".join(float(v).hex() for v in out)
        except Exception as exc:  # an error is an output of its case
            out = f"{type(exc).__name__}: {exc}"
    notes = "".join(f" [{w.category.__name__}: {w.message}]" for w in caught)
    return f"{name}: {out}{notes}"


def _report(r: score.TestReport) -> list[float]:
    return [r.loc_scale.mu, r.loc_scale.sigma, *r.score, r.t_stat, r.p_value]


def _tests(name: str, x, lam: float) -> list[str]:
    """``run_test``, ``fit_null_mle`` and, with 2 observations or more, ``modified_score`` at the fit."""
    fit = []

    def fitted():
        fit.append(score.fit_null_mle(x, lam))
        return fit[0].mu, fit[0].sigma

    lines = [
        _line(f"{name} run_test", lambda: _report(score.run_test(x, lam))),
        _line(f"{name} fit_null_mle", fitted),
    ]
    if fit and np.size(x) >= 2:
        lines.append(_line(f"{name} modified_score", lambda: score.modified_score(x, lam, fit[0])))
    return lines


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _study(cfg: simulate.StudyConfig) -> str:
    run = simulate.run_null_study if cfg.delta is None else simulate.run_local_alternative_study
    return _sha(run(cfg).to_json().encode())


def digest(quick: bool = False) -> list[str]:
    """Every line of the digest, or of its quick slice."""
    lams = (1.5, 2.0, 3.0) if quick else LAMS
    sizes = (7, 200) if quick else SIZES
    seeds = SEEDS[:1] if quick else SEEDS
    lines = []
    for lam in lams:
        for mu, sigma in PLACES:
            params = apd.ApdParams(0.5, lam, mu, sigma)
            for n in sizes:
                for seed in seeds:
                    x = apd.sample(params, n, np.random.default_rng(seed))
                    lines += _tests(f"null lam={lam} mu={mu} sigma={sigma} n={n} seed={seed}", x, lam)
        for name, x in SPECIAL.items():
            lines += _tests(f"{name} lam={lam}", x, lam)
    for lam in () if quick else LEAF_LAMS:
        for mu, sigma in PLACES:
            for n in LEAF_SIZES:
                x = apd.sample(apd.ApdParams(0.5, lam, mu, sigma), n, np.random.default_rng(0))
                lines += _tests(f"null lam={lam} mu={mu} sigma={sigma} n={n} seed=0", x, lam)
        for s in SCALES:
            lines += _tests(f"normal*{s:g} n={LEAF_SIZES[0]} lam={lam}", _LEAF_NORMAL * s, lam)
    for name, x in () if quick else median_inputs().items():
        lines += _tests(f"median {name} lam=1.0", x, 1.0)
    for t2 in SHAPES:
        for t1, mu, sigma in ((0.5, 0.0, 1.0), (0.3, 1000.0, 50.0)):
            params = apd.ApdParams(t1, t2, mu, sigma)
            for n in (0, 1, 1000):
                lines.append(_line(
                    f"sample theta1={t1} theta2={t2} mu={mu} sigma={sigma} n={n}",
                    lambda: _sha(apd.sample(params, n, np.random.default_rng(n)).tobytes()),
                ))
    n = 200 if quick else 2000
    for seed in STUDY_SEEDS[:1] if quick else STUDY_SEEDS:
        null = simulate.StudyConfig(3.0, n, 100, seed, alpha_grid=NULL_GRID)
        power = simulate.StudyConfig(2.0, n, 100, seed, delta=(0.5, 0.3))
        lines.append(_line(f"size study lam=3 n={n} seed={seed}", lambda: _study(null)))
        lines.append(_line(f"power study lam=2 n={n} seed={seed}", lambda: _study(power)))
        for m in (n, 201):  # the median of an even and of an odd n
            laplace = simulate.StudyConfig(1.0, m, 100, seed, alpha_grid=NULL_GRID)
            lines.append(_line(f"size study lam=1 n={m} seed={seed}", lambda: _study(laplace)))
    return lines + _density(quick) + _laws(quick) + _parses(quick)


def _density(quick: bool) -> list[str]:
    """A line per apd function and shape: ``log_pdf``, ``cdf``, ``quantile``, ``sample``'s sha256, then ``from_sepd``."""
    shapes = APD_SHAPES[60:66] if quick else APD_SHAPES  # quick: theta1 = 0.3, theta2 in (1, 3)
    lines = []
    for p in shapes:
        name = f"theta1={p.theta1!r} theta2={p.theta2!r} sigma={p.sigma!r}"
        lines += [
            _line(f"log_pdf {name}", lambda: apd.log_pdf(APD_XS, p)),
            _line(f"cdf {name}", lambda: apd.cdf(APD_XS, p)),
            _line(f"quantile {name}", lambda: apd.quantile(APD_US, p)),
            _line(f"sample {name} n=10 seed=0", lambda: _sha(apd.sample(p, 10, np.random.default_rng(0)).tobytes())),
        ]
    for q in SEPD_QS:
        lines.append(_line(f"from_sepd gamma=1.5 q={q}", lambda: [apd.from_sepd(apd.SepdParams(1.5, q)).sigma]))
    return lines


def _laws(quick: bool) -> list[str]:
    """A line per value of the noncentral law: ``noncentral_chi2_sf`` and ``asymptotic_power``, or the error."""
    ncps, xs = (NCPS[1:4], XS[2:6]) if quick else (NCPS, XS)
    lines = []
    for ncp in ncps:
        for x in xs:
            lines.append(_line(f"noncentral_chi2_sf x={x} ncp={ncp}", lambda: [numerics.noncentral_chi2_sf(x, ncp)]))
    for x, ncp in LAW_EDGES[-2:] if quick else LAW_EDGES:
        lines.append(_line(f"noncentral_chi2_sf x={x} ncp={ncp}", lambda: [numerics.noncentral_chi2_sf(x, ncp)]))
    unit = score.noncentrality((1.0, 0.0), 2.0)
    for ncp in ncps:
        delta = (math.sqrt(ncp / unit), 0.0)
        for alpha in (0.01, 0.05, 0.2):
            lines.append(_line(f"asymptotic_power delta={delta} lam=2 alpha={alpha}",
                               lambda: [score.asymptotic_power(delta, 2.0, alpha)]))
    lines.append(_line("asymptotic_power delta=(1e100, 0) lam=2 alpha=0.05",
                       lambda: [score.asymptotic_power((1e100, 0.0), 2.0, 0.05)]))
    return lines


def _test_file_input() -> bytes:
    """The ``test-file`` benchmark's input at ``--seed 0``: 1e5 APD draws at 17 significant digits."""
    params = apd.ApdParams(theta1=0.45, theta2=1.5, mu=1000.0, sigma=50.0)
    values = apd.sample(params, 100_000, np.random.default_rng(np.random.SeedSequence(0)))
    return "".join(f"{v:.17g}\n" for v in values).encode()


def _parses(quick: bool) -> list[str]:
    """A line per ``cli.read_values`` input: the sha256 of the values' bytes, or the error."""
    if quick:
        files = dict(list(PARSE_FILES.items())[:4])
    else:
        files = {"test-file.txt": _test_file_input(), **PARSE_FILES}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_bytes(content)
            line = _line(f"read_values {name}", lambda: _sha(cli.read_values(str(path)).tobytes()))
            lines.append(line.replace(tmp, "<dir>"))
    return lines


if __name__ == "__main__":
    print("\n".join(digest(quick="--quick" in sys.argv[1:])))
