"""Work ledger of apdgof: the numpy calls of each stage of a test, counted, for comparing two versions.

    python tests/work.py [--quick] > work.txt

It imports the ``src/`` next to this directory.  ``tests/gate.py`` runs it
in this tree and in a ``git archive`` copy of the base commit, and shows
the two outputs' line counts, sha256 and diff.  While it runs, the ``np`` of
``apdgof.score``, ``apdgof.apd`` and ``apdgof.numerics`` is a proxy that
counts every call of a ufunc or of a ufunc method such as ``add.reduce``,
and every call of a numpy function such as ``median`` that is passed an
array, with its elements: the size of the largest array among its
arguments and its result (a numpy scalar is 1).  So an allocation such as
``np.empty(n)`` is not counted, as the arrays a ufunc allocates for its
result are not.  Array operators (``*=``, ``**``, and the in-place
``**=`` of the sampler's and the residuals' powers), ndarray methods and
``Generator`` draws do not go through ``np`` and are not counted either.

For each tail exponent ``lam`` in :data:`LAMS` and size ``n`` in
:data:`SIZES`, it tests :data:`REPS` null samples (``replicate_rng(42,
r)``), then evaluates the noncentral law of a power study at their
statistics.  It prints one line per (lam, n, stage, numpy name) with the
totals over the replicates.  The stages:

- ``sample``: ``apd.sample``;
- ``solve``: ``score._locate``, the null location;
- ``scale``: the rest of ``score._fit``;
- ``score``: ``score._mean_shape_score`` and the rest of ``score._test``;
- ``law``: ``numerics._chi2_cdf`` at the statistics and the predicted power
  ``noncentral_chi2_sf`` at the 5% critical value, at the noncentrality of
  ``delta = (0.5, 0.3)``.

The caches of the three modules are cleared before each (lam, n), so its
counts do not depend on what ran before it.  Counts are exact and do not
depend on the host.  ``--quick`` prints a small slice, which
``tests/test_work.py`` runs twice.  pytest does not collect this file.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from apdgof import apd, numerics, score, simulate  # noqa: E402

LAMS = (1.0, 1.01, 1.5, 2.0, 3.0, 8.0)
SIZES = (2000, 100_000)
REPS = {2000: 60, 100_000: 3}
SEED = 42
DELTA = (0.5, 0.3)
STAGES = ("sample", "solve", "scale", "score", "law")
MODULES = (score, apd, numerics)


class _Ledger:
    """Calls and elements by (stage, numpy name), with the stage now running."""

    def __init__(self):
        self.stage = "score"
        self.calls = Counter()
        self.elements = Counter()

    def count(self, name: str, call, args, kwargs, reads: bool = True):
        """``call(*args, **kwargs)``, counted if it is a ufunc's (``reads``) or an array is among its arguments."""
        arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, (np.ndarray, np.generic))]
        out = call(*args, **kwargs)
        if not (reads or any(isinstance(a, np.ndarray) for a in arrays)):
            return out
        sizes = [a.size for a in (*arrays, out) if isinstance(a, (np.ndarray, np.generic))]
        key = (self.stage, name)
        self.calls[key] += 1
        self.elements[key] += max(sizes, default=0)
        return out

    @contextmanager
    def running(self, stage: str):
        outer, self.stage = self.stage, stage
        try:
            yield
        finally:
            self.stage = outer


class _Ufunc:
    """A ufunc whose calls and methods (``reduce``, ``accumulate``, ...) are counted."""

    def __init__(self, ufunc: np.ufunc, ledger: _Ledger):
        self._ufunc, self._ledger = ufunc, ledger

    def __call__(self, *args, **kwargs):
        return self._ledger.count(self._ufunc.__name__, self._ufunc, args, kwargs)

    def __getattr__(self, name: str):
        attr = getattr(self._ufunc, name)
        if not callable(attr):
            return attr
        return lambda *args, **kwargs: self._ledger.count(f"{self._ufunc.__name__}.{name}", attr, args, kwargs)


class _Numpy:
    """``np`` as a counted module: ufuncs and numpy functions are counted, types and submodules are numpy's."""

    def __init__(self, ledger: _Ledger):
        self._ledger = ledger

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return _Ufunc(attr, self._ledger)
        if not callable(attr) or isinstance(attr, type):
            return attr
        return lambda *args, **kwargs: self._ledger.count(name, attr, args, kwargs, reads=False)


def _staged(ledger: _Ledger, stage: str, f):
    def run(*args, **kwargs):
        with ledger.running(stage):
            return f(*args, **kwargs)

    return run


@contextmanager
def _counting(ledger: _Ledger):
    """Count the numpy calls of the three modules into ``ledger``, by stage; restore them after."""
    saved = [(m, "np", m.np) for m in MODULES]
    saved += [(score, name, getattr(score, name)) for name in ("_locate", "_fit", "_mean_shape_score")]
    try:
        for m in MODULES:
            m.np = _Numpy(ledger)
        score._locate = _staged(ledger, "solve", score._locate)
        score._fit = _staged(ledger, "scale", score._fit)
        score._mean_shape_score = _staged(ledger, "score", score._mean_shape_score)
        yield
    finally:
        for m, name, value in saved:
            setattr(m, name, value)


def _clear_caches() -> None:
    for m in MODULES:
        for value in vars(m).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _cell(lam: float, n: int, reps: int) -> list[str]:
    """The ledger lines of ``reps`` null samples of ``n`` values tested at ``lam``, then the law at their statistics."""
    _clear_caches()
    ledger = _Ledger()
    params = apd.ApdParams(0.5, lam)
    ncp = score.noncentrality(DELTA, lam)
    crit = -2.0 * math.log(0.05)
    t = np.empty(reps)
    with _counting(ledger):
        for r in range(reps):
            with ledger.running("sample"):
                x = apd.sample(params, n, simulate.replicate_rng(SEED, r))
            t[r] = score._test(x, lam)[-2]
        with ledger.running("law"):
            numerics._chi2_cdf(t, ncp)
            numerics.noncentral_chi2_sf(crit, ncp)
    keys = sorted(ledger.calls, key=lambda k: (STAGES.index(k[0]), k[1]))
    return [
        f"lam={lam:g} n={n} stage={stage} {name} calls={ledger.calls[stage, name]} "
        f"elements={ledger.elements[stage, name]}"
        for stage, name in keys
    ]


def ledger(quick: bool = False) -> list[str]:
    """Every line of the ledger, or of its quick slice."""
    lams, sizes = ((1.5, 3.0), SIZES[:1]) if quick else (LAMS, SIZES)
    lines = []
    for n in sizes:
        reps = 2 if quick else REPS[n]
        lines.append(f"# n={n}: totals over {reps} null samples, replicate_rng({SEED}, r)")
        for lam in lams:
            lines += _cell(lam, n, reps)
    return lines


if __name__ == "__main__":
    print("\n".join(ledger(quick="--quick" in sys.argv[1:])))
