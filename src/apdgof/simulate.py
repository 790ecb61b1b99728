"""Monte Carlo verification harness for the modified score test.

Empirical size under the null, empirical power under local shape
alternatives, and Monte Carlo / quadrature cross-checks of the closed-form
score covariance.  Every study is a pure function of its configuration:
replicate ``r`` draws from a random stream derived deterministically from
``(seed, r)``, so reports are byte-identical regardless of scheduling or
worker count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import apd
from .errors import ConfigError, DegenerateSampleError, DomainError
from .numerics import _check_count, _check_size, _chi2_cdf, _reals, integrate
from .score import (
    LocationScale,
    _check_alpha,
    _check_delta,
    _test,
    asymptotic_power,
    check_lambda,
    noncentrality,
    stacked_scores,
)

__all__ = [
    "StudyConfig",
    "RejectionRate",
    "StudyReport",
    "McFisherCheck",
    "replicate_rng",
    "ks_distance",
    "run_null_study",
    "run_local_alternative_study",
    "mc_fisher_check",
    "quadrature_fisher",
]

_SCHEMA_VERSION = "1"


def _check_seed(seed) -> int:
    """``seed`` as an int, if it is a 64-bit unsigned integer; else :class:`ConfigError`."""
    seed = _check_count("seed", seed, 0, ConfigError)
    if seed >= 2**64:
        raise ConfigError(f"seed must be below 2**64, got {seed}")
    return seed


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one Monte Carlo study.

    ``delta`` is the local-alternative direction for the shape pair; leave it
    ``None`` for a null (size) study.  ``loc_scale`` sets the location and
    scale used to generate the data.  The validated values are stored:
    ``lam`` as a float, ``n``, ``reps`` and ``seed`` as ints, ``alpha_grid``
    and ``delta`` as tuples of floats, and ``loc_scale`` as the given
    :class:`LocationScale`, whose fields are floats.  ``lam``, each level of
    ``alpha_grid`` (a tuple or list) and each entry of ``delta`` must be a
    Python or numpy int or float, and the counts whole numbers.  An invalid
    field raises :class:`ConfigError`.
    """

    lam: float
    n: int
    reps: int
    seed: int
    alpha_grid: tuple[float, ...] = (0.05,)
    delta: tuple[float, float] | None = None
    loc_scale: LocationScale = LocationScale(0.0, 1.0)

    def __post_init__(self):
        if not isinstance(self.alpha_grid, (tuple, list)):
            raise ConfigError(f"alpha_grid must be a tuple or list of levels, got {self.alpha_grid!r}")
        try:
            fields = {
                "lam": check_lambda(self.lam),
                "n": _check_count("n", self.n, 10, ConfigError),
                "reps": _check_count("reps", self.reps, 100, ConfigError),
                "seed": _check_seed(self.seed),
                "alpha_grid": tuple(map(_check_alpha, self.alpha_grid)),
                "delta": None if self.delta is None else tuple(_check_delta(self.delta).tolist()),
            }
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        alphas = fields["alpha_grid"]
        if not alphas or len(set(alphas)) != len(alphas):
            raise ConfigError(f"alpha_grid must hold one or more distinct levels, got {alphas}")
        if not isinstance(self.loc_scale, LocationScale):
            raise ConfigError(f"loc_scale must be a LocationScale, got {self.loc_scale!r}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def shifted_shape(self) -> tuple[float, float]:
        """Shape pair ``(1/2, lam) + delta / sqrt(n)`` of the alternative."""
        if self.delta is None:
            raise ConfigError("delta is not set")
        root_n = math.sqrt(self.n)
        t1 = 0.5 + self.delta[0] / root_n
        t2 = self.lam + self.delta[1] / root_n
        if not 0.0 < t1 < 1.0 or not t2 > 0.0:
            raise ConfigError(
                f"shifted shape ({t1}, {t2}) leaves the parameter space"
            )
        return t1, t2


@dataclass(frozen=True)
class RejectionRate:
    """Empirical rejection rate at one level, with its binomial standard error."""

    alpha: float
    rate: float
    std_error: float
    predicted: float | None = None


@dataclass(frozen=True)
class StudyReport:
    """Summary of a Monte Carlo study."""

    kind: str
    config: StudyConfig
    rejections: tuple[RejectionRate, ...]
    ks_stat: float
    replicate_failures: int

    def to_dict(self) -> dict:
        """Plain-types view, suitable for JSON serialization."""
        return {
            "schema_version": _SCHEMA_VERSION,
            "kind": self.kind,
            "config": {
                "lambda": self.config.lam,
                "n": self.config.n,
                "reps": self.config.reps,
                "seed": self.config.seed,
                "alpha_grid": list(self.config.alpha_grid),
                "delta": None if self.config.delta is None else list(self.config.delta),
                "mu": self.config.loc_scale.mu,
                "sigma": self.config.loc_scale.sigma,
            },
            "rejections": [asdict(r) for r in self.rejections],
            "ks_stat": self.ks_stat,
            "replicate_failures": self.replicate_failures,
        }

    def to_json(self) -> str:
        """Canonical JSON encoding (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class McFisherCheck:
    """Sample covariance of the stacked scores, with per-entry standard errors."""

    estimate: np.ndarray
    std_error: np.ndarray


# numpy's SeedSequence hash on 32-bit words (numpy/random/bit_generator.pyx):
# hashmix(v) is ``v ^= h; h *= MULT; v *= h; v ^= v >> 16``, with a running
# constant h, and mix(x, y) is ``r = MIX_L x - MIX_R y; r ^ r >> 16``.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashmix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=256)
def _seed_pool(seed: int) -> tuple[tuple[int, int, int, int], int]:
    """numpy's SeedSequence pool after the words of ``seed``, and the running hash constant.

    With a spawn key the seed's little-endian words are zero-padded to the
    pool size 4, so they fill the pool; then each pool word is mixed with
    the hashmix of every other.  This half is the same for every replicate.
    """
    pool, h = [], _INIT_A
    for i in range(4):
        v = ((seed >> 32 * i & _M32) ^ h) * (h := h * _MULT_A & _M32) & _M32
        pool.append(v ^ v >> 16)
    for a in range(4):
        for b in range(4):
            if a != b:
                v = (pool[a] ^ h) * (h := h * _MULT_A & _M32) & _M32
                v = (_MIX_L * pool[b] - _MIX_R * (v ^ v >> 16)) & _M32
                pool[b] = v ^ v >> 16
    return tuple(pool), h


class _ReplicateSeed(ISeedSequence):
    """PCG64's four uint64 seed words, as numpy's SeedSequence would generate them."""

    __slots__ = ("_words",)

    def __init__(self, words: list[int]):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a replicate seed holds 4 uint64 words, not {n_words} of {dtype}")
        return np.array(self._words, np.uint64)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Random stream for replicate ``index``, derived from ``(seed, index)``.

    The stream is numpy's ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(index,)))``, draw for draw, so streams are independent of
    how replicates are scheduled across workers.  The package computes that
    seed hash itself, mixing the seed's words once per seed, and a test pins
    it against the installed numpy.  So the Generator's
    ``bit_generator.seed_seq`` is a private seed object, not a
    ``SeedSequence``, and it cannot ``spawn``.  ``seed`` follows the
    :class:`StudyConfig` rule, and ``index`` is a count from 0.
    """
    seed, index = _check_seed(seed), _check_count("index", index, 0, ConfigError)
    pool, h = _seed_pool(seed)
    pool = list(pool)
    while True:  # the index's little-endian words; 0 is the one word 0
        w = index & _M32
        for b in range(4):
            v = (w ^ h) * (h := h * _MULT_A & _M32) & _M32
            v = (_MIX_L * pool[b] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[b] = v ^ v >> 16
        index >>= 32
        if not index:
            break
    words, h = [], _INIT_B
    for k in (0, 2, 0, 2):  # output words cycle through the pool; two make a uint64
        lo = (pool[k] ^ h) * (h := h * _MULT_B & _M32) & _M32
        hi = (pool[k + 1] ^ h) * (h := h * _MULT_B & _M32) & _M32
        words.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return np.random.default_rng(_ReplicateSeed(words))


def ks_distance(values, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF.

    ``values`` must be 1-d, and ``cdf`` must map the sorted values to an
    array of the same shape; else :class:`DomainError`.
    """
    x = _reals(values, "values")
    if x.ndim != 1:
        raise DomainError(f"values must be 1-d, got shape {x.shape}")
    x = np.sort(x)
    n = x.size
    if n == 0:
        raise ConfigError("cannot compute a KS distance from an empty sample")
    c = _reals(cdf(x), "cdf(values)")
    if c.shape != x.shape:
        raise DomainError(f"cdf(values) must have the shape of values {x.shape}, got {c.shape}")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - c, c - (i - 1) / n)))


def _replicate_block(
    params: apd.ApdParams, lam: float, n: int, seed: int, indices
) -> tuple[np.ndarray, np.ndarray]:
    """T statistics and p-values of replicates ``indices``, in index order.

    Replicate ``r`` tests ``apd.sample(params, n, replicate_rng(seed, r))``
    against the null with tail exponent ``lam`` as
    :func:`apdgof.score.run_test` would, without checking ``lam`` again or
    building its report; a degenerate replicate gives NaN in both arrays.
    The draws are handed over to the test, which may fit in their buffer
    (at lam in {1, 2} it holds them and one more array of n values), and
    are released when it returns, before the next replicate draws.
    Top-level function so process pools can pickle it.
    """
    t = np.full(len(indices), math.nan)
    p = np.full(len(indices), math.nan)
    for k, r in enumerate(indices):
        try:
            t[k], p[k] = _test(apd.sample(params, n, replicate_rng(seed, r)), lam, overwrite=True)[-2:]
        except DegenerateSampleError:
            continue
    return t, p


def _study(cfg: StudyConfig, workers: int) -> StudyReport:
    """Run and summarise ``cfg.reps`` replicates: a power study if ``cfg.delta`` is set, else a size study.

    Rejection rates are taken over the replicates that did not fail, next
    to the predicted asymptotic power in a power study; the KS distance is
    against the chi-square(2) law with the noncentrality of ``cfg.delta``
    (0 in a size study).  ``workers`` must be an integer >= 1, else
    :class:`ConfigError`; the pool is capped at the CPUs this process may use.
    """
    if cfg.delta is None:
        kind, ncp, theta = "size", 0.0, (0.5, cfg.lam)
    else:
        kind, ncp, theta = "power", noncentrality(cfg.delta, cfg.lam), cfg.shifted_shape()
    workers = _check_count("workers", workers, 1, ConfigError)
    _check_size("reps", cfg.reps)  # the statistics and p-values are arrays of reps floats
    params = apd.ApdParams(*theta, mu=cfg.loc_scale.mu, sigma=cfg.loc_scale.sigma)
    block = partial(_replicate_block, params, cfg.lam, cfg.n, cfg.seed)
    # A forking pool starts all max_workers processes on its first submit, so
    # ask for no more than the CPUs this process may use, or than chunks.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    if workers <= 1:
        t, p = block(range(cfg.reps))
    else:
        from concurrent.futures import ProcessPoolExecutor

        indices = np.array_split(np.arange(cfg.reps), min(4 * workers, cfg.reps))
        with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
            t, p = np.concatenate(list(pool.map(block, indices)), axis=1)
    ok = np.isfinite(t)
    m = int(np.count_nonzero(ok))
    if m == 0:
        raise DomainError(f"all {cfg.reps} replicates failed")
    t, p = t[ok], p[ok]
    rejections = []
    for a in cfg.alpha_grid:
        rate = float(np.count_nonzero(p < a) / m)
        predicted = asymptotic_power(cfg.delta, cfg.lam, a) if kind == "power" else None
        rejections.append(RejectionRate(a, rate, math.sqrt(rate * (1.0 - rate) / m), predicted))
    return StudyReport(
        kind=kind,
        config=cfg,
        rejections=tuple(rejections),
        ks_stat=ks_distance(t, lambda v: _chi2_cdf(v, ncp)),
        replicate_failures=cfg.reps - m,
    )


def run_null_study(cfg: StudyConfig, workers: int = 1) -> StudyReport:
    """Empirical size study: data generated under the null.

    Reports per-level rejection rates and the KS distance between the
    observed statistics and the central chi-square(2) law.
    """
    if cfg.delta is not None:
        raise ConfigError("null study must not set delta")
    return _study(cfg, workers)


def run_local_alternative_study(cfg: StudyConfig, workers: int = 1) -> StudyReport:
    """Empirical power study under the local alternative ``cfg.delta``.

    Data are generated with the shape pair shifted by ``delta / sqrt(n)``;
    rejection rates are reported next to the predicted asymptotic power, and
    the KS distance is taken against the noncentral chi-square(2) law.
    """
    if cfg.delta is None:
        raise ConfigError("local-alternative study requires delta")
    return _study(cfg, workers)


def mc_fisher_check(lam: float, n_draws: int, seed: int) -> McFisherCheck:
    """Monte Carlo estimate of the 4x4 score covariance under the null.

    Sample covariance of the stacked scores over ``n_draws`` standardized
    null variates, with per-entry standard errors; each entry should fall
    within a few standard errors of the closed form.  ``n_draws`` must be an
    integer >= 1e5 and ``seed`` follows the :class:`StudyConfig` rule; both
    raise :class:`ConfigError` otherwise.
    """
    lam = check_lambda(lam)
    n_draws = _check_count("n_draws", n_draws, 10**5, ConfigError)
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    y = apd.sample(apd.ApdParams(theta1=0.5, theta2=lam), n_draws, rng)
    v = stacked_scores(y, lam)
    centered = v - v.mean(axis=1, keepdims=True)
    estimate = centered @ centered.T / (n_draws - 1)
    std_error = np.empty((4, 4))
    for a in range(4):
        for b in range(a, 4):
            prod = centered[a] * centered[b]
            std_error[a, b] = std_error[b, a] = prod.std(ddof=1) / math.sqrt(n_draws)
    return McFisherCheck(estimate=estimate, std_error=std_error)


def quadrature_fisher(lam: float) -> np.ndarray:
    """Quadrature evaluation of the 4x4 score covariance under the null.

    Integrates each product of score components against the standardized
    null density over the two half-lines (split at the mode, where log
    factors are non-smooth), to the fixed tolerances of
    :func:`apdgof.numerics.integrate`.  Rows and columns run (theta1,
    theta2, mu, sigma); independent cross-check of the closed-form matrix
    :func:`apdgof.score.fisher_information`.
    """
    lam = check_lambda(lam)
    norm = 1.0 / (2.0 ** (1.0 + 1.0 / lam) * math.gamma(1.0 + 1.0 / lam))

    def density(y: float) -> float:
        return norm * math.exp(-0.5 * abs(y) ** lam)

    def entry(a: int, b: int) -> float:
        def f(y: float) -> float:
            s = stacked_scores(y, lam)
            return float(s[a] * s[b]) * density(y)

        return integrate(f, (-math.inf, 0.0)) + integrate(f, (0.0, math.inf))

    out = np.empty((4, 4))
    for a in range(4):
        for b in range(a, 4):
            out[a, b] = out[b, a] = entry(a, b)
    return out

