"""Argument contract: every public scalar and data-array argument refuses a bad value with its typed error.

Each scalar argument below is fed the same value, 2, in forms that are not
a Python or numpy int or float: a str, None, a complex, a 0-d and a 1-d
array, a ``Fraction`` and a ``Decimal``.  Each must raise the
:class:`ApdGofError` subclass its function documents (``ConfigError`` in a
study), never a bare ``TypeError`` or ``ValueError``, and no warning; the
message shows the value by ``repr``.  An int beyond the double range is
refused as well, or is the :class:`MemoryError` of a count no array can
hold, or is accepted where the argument is a count with no upper bound.

Each data-array argument is fed values that are not finite ints or floats:
a str, a list holding a str, numeric strs, None, a complex array, a list of
``Fraction`` values, a ragged list, a bool array, and a NaN or an inf entry.
Each must raise :class:`DomainError` with no warning and a short message,
also for a 1e5-entry array; float32, int64, list and float64 forms of the
same values give bit-identical results.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from apdgof import LocationScale, StudyConfig, apd, numerics, score, simulate
from apdgof.errors import ConfigError, DomainError

DATA = np.array([0.3, -1.2, 2.5, 0.7, -0.1])
CFG = StudyConfig(lam=2.0, n=16, reps=100, seed=1)

NON_REALS = [
    pytest.param("2", id="str"),
    pytest.param(None, id="None"),
    pytest.param(2j, id="complex"),
    pytest.param(np.array(2.0), id="array-0d"),
    pytest.param(np.array([2.0]), id="array-1d"),
    pytest.param(Fraction(2), id="Fraction"),
    pytest.param(Decimal(2), id="Decimal"),
]


def _rng():
    return np.random.default_rng(0)


# name: (call with the argument set to the value, error of a non-real, outcome of 10**400)
# where an outcome of None means the value is accepted.
ARGS = {
    "check_lambda.lam": (score.check_lambda, DomainError, DomainError),
    "run_test.lam": (lambda v: score.run_test(DATA, v), DomainError, DomainError),
    "fisher_information.lam": (score.fisher_information, DomainError, DomainError),
    "score_covariance.lam": (score.score_covariance, DomainError, DomainError),
    "noncentrality.lam": (lambda v: score.noncentrality((0.5, 0.3), v), DomainError, DomainError),
    "run_test.alpha": (lambda v: score.run_test(DATA, 2.0, alpha=v), DomainError, DomainError),
    "asymptotic_power.alpha": (
        lambda v: score.asymptotic_power((0.5, 0.3), 2.0, v), DomainError, DomainError
    ),
    "test_statistic.n": (lambda v: score.test_statistic([0.1, 0.0], v, 2.0), DomainError, DomainError),
    "sample.n": (lambda v: apd.sample(apd.ApdParams(0.5, 2.0), v, _rng()), DomainError, MemoryError),
    "chi2_sf.x": (numerics.chi2_sf, DomainError, DomainError),
    "chi2_quantile.p": (numerics.chi2_quantile, DomainError, DomainError),
    "noncentral_chi2_sf.x": (lambda v: numerics.noncentral_chi2_sf(v, 1.0), DomainError, DomainError),
    "noncentral_chi2_sf.ncp": (lambda v: numerics.noncentral_chi2_sf(1.0, v), DomainError, DomainError),
    "gamma_sample.shape": (lambda v: numerics.gamma_sample(v, _rng()), DomainError, DomainError),
    "gamma_sample.size": (lambda v: numerics.gamma_sample(1.0, _rng(), v), DomainError, MemoryError),
    "StudyConfig.lam": (lambda v: StudyConfig(v, 16, 100, 1), ConfigError, ConfigError),
    "StudyConfig.n": (lambda v: StudyConfig(2.0, v, 100, 1), ConfigError, None),
    "StudyConfig.reps": (lambda v: StudyConfig(2.0, 16, v, 1), ConfigError, None),
    "StudyConfig.seed": (lambda v: StudyConfig(2.0, 16, 100, v), ConfigError, ConfigError),
    "StudyConfig.alpha_grid": (
        lambda v: StudyConfig(2.0, 16, 100, 1, alpha_grid=v), ConfigError, ConfigError
    ),
    "StudyConfig.alpha_grid[0]": (
        lambda v: StudyConfig(2.0, 16, 100, 1, alpha_grid=(v,)), ConfigError, ConfigError
    ),
    "StudyConfig.delta[0]": (
        lambda v: StudyConfig(2.0, 16, 100, 1, delta=(v, 0.3)), ConfigError, ConfigError
    ),
    "StudyConfig.loc_scale": (
        lambda v: StudyConfig(2.0, 16, 100, 1, loc_scale=v), ConfigError, ConfigError
    ),
    "mc_fisher_check.n_draws": (lambda v: simulate.mc_fisher_check(2.0, v, 1), ConfigError, MemoryError),
    "run_null_study.workers": (lambda v: simulate.run_null_study(CFG, workers=v), ConfigError, None),
    "replicate_rng.seed": (lambda v: simulate.replicate_rng(v, 0), ConfigError, ConfigError),
    "replicate_rng.index": (lambda v: simulate.replicate_rng(1, v), ConfigError, None),
    "modified_score.fit": (lambda v: score.modified_score(DATA, 2.0, v), DomainError, DomainError),
}

# A size of None asks gamma_sample for a single draw, and a level of None
# asks run_test for a report without a decision.
ACCEPTS_NONE = {"gamma_sample.size", "run_test.alpha"}


@pytest.fixture
def one_cpu(monkeypatch):
    # An accepted worker count is capped at the CPUs: keep the study in this process.
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NON_REALS)
@pytest.mark.parametrize("arg", list(ARGS))
def test_non_real_is_typed_error(arg, value):
    call, error, _ = ARGS[arg]
    if value is None and arg in ACCEPTS_NONE:
        call(value)
        return
    with pytest.raises(error) as excinfo:
        call(value)
    assert repr(value) in str(excinfo.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arg", list(ARGS))
def test_int_beyond_the_double_range(arg, one_cpu):
    call, _, outcome = ARGS[arg]
    if outcome is None:
        call(10**400)
    else:
        with pytest.raises(outcome):
            call(10**400)


def test_every_scalar_argument_accepts_python_and_numpy_reals():
    # The narrowed rule keeps what it always took: a Python or numpy int or float.
    for v in (2, 2.0, np.int64(2), np.float32(2.0)):
        assert score.check_lambda(v) == 2.0
        assert numerics.chi2_sf(v) == numerics.chi2_sf(2.0)
        assert score.test_statistic([0.1, 0.0], v, 2.0).n == 2
    cfg = StudyConfig(np.int64(2), np.float64(16), 100, 1, alpha_grid=[np.float32(0.5)],
                      delta=np.array([0.5, 0.3]), loc_scale=LocationScale(np.int64(1), 2))
    assert (cfg.lam, cfg.n, cfg.alpha_grid, cfg.delta) == (2.0, 16, (0.5,), (0.5, 0.3))


def test_negative_replicate_index_is_config_error():
    # Raised numpy's ValueError from the seed sequence's spawn key.
    with pytest.raises(ConfigError, match="^index must be an integer >= 0, got -1"):
        simulate.replicate_rng(1, -1)


# Finite data in every accepted form: exact in float32 and int64, and its
# image GOOD / 32 + 0.5 in (0, 1) is exact in float32 too.
GOOD = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
FIT = LocationScale(0.5, 2.0)
APD = apd.ApdParams(0.3, 1.5, 0.5, 2.0)

# name: call with the argument set to the value, and whether its valid
# values are GOOD (else GOOD / 32 + 0.5, which no int64 array holds).
ARRAY_ARGS = {
    "run_test.data": (lambda v: score.run_test(v, 3.0), True),
    "fit_null_mle.data": (lambda v: score.fit_null_mle(v, 1.5), True),
    "modified_score.data": (lambda v: score.modified_score(v, 1.5, FIT), True),
    "stacked_scores.y": (lambda v: score.stacked_scores(v, 1.5), True),
    "test_statistic.score": (lambda v: score.test_statistic(v, 20, 1.5).t_stat, True),
    "log_pdf.x": (lambda v: apd.log_pdf(v, APD), True),
    "pdf.x": (lambda v: apd.pdf(v, APD), True),
    "cdf.x": (lambda v: apd.cdf(v, APD), True),
    "quantile.u": (lambda v: apd.quantile(v, APD), False),
    "ks_distance.values": (lambda v: simulate.ks_distance(v, lambda x: x / 32 + 0.5), True),
    "ks_distance.cdf()": (lambda v: simulate.ks_distance(GOOD, lambda x: v), False),
}

BAD_ARRAYS = [
    pytest.param("ab", id="str"),
    pytest.param([0.5, "x"], id="list-holding-str"),
    pytest.param(["0.5", "0.25"], id="numeric-str"),
    pytest.param(None, id="None"),
    pytest.param(np.array([0.5 + 0j, 0.25]), id="complex"),
    pytest.param([Fraction(1, 2), Fraction(1, 4)], id="Fraction"),
    pytest.param([[0.5], [0.25, 0.75]], id="ragged"),
    pytest.param(np.array([True, False]), id="bool"),
    pytest.param([0.5, math.nan], id="nan"),
    pytest.param([0.5, math.inf], id="inf"),
]

BIG = 10**5
BIG_BAD_ARRAYS = [
    pytest.param(np.full(BIG, "0.5"), id="big-str"),
    pytest.param([Fraction(1, 2)] * BIG, id="big-Fraction"),
    pytest.param([[0.5]] * BIG + [[0.5, 0.5]], id="big-ragged"),
    pytest.param(np.r_[np.full(BIG - 1, 0.5), math.nan], id="big-nan-last"),
    pytest.param(np.full(BIG, -math.inf), id="big-all-inf"),
]


def _bits(result) -> bytes:
    if isinstance(result, score.TestReport):
        fit = result.loc_scale
        result = [fit.mu, fit.sigma, *result.score, result.t_stat, result.p_value]
    elif isinstance(result, LocationScale):
        result = [result.mu, result.sigma]
    return np.asarray(result, dtype=float).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", BAD_ARRAYS + BIG_BAD_ARRAYS)
@pytest.mark.parametrize("arg", list(ARRAY_ARGS))
def test_bad_array_is_domain_error(arg, value):
    with pytest.raises(DomainError) as excinfo:
        ARRAY_ARGS[arg][0](value)
    assert len(str(excinfo.value)) < 200


@pytest.mark.parametrize("arg", list(ARRAY_ARGS))
def test_nonfinite_entry_is_named(arg):
    with pytest.raises(DomainError, match=r"must be finite, got nan at index 1$"):
        ARRAY_ARGS[arg][0]([0.5, math.nan])


@pytest.mark.parametrize("arg", list(ARRAY_ARGS))
def test_every_real_form_gives_the_same_bits(arg):
    call, on_good = ARRAY_ARGS[arg]
    values = GOOD if on_good else GOOD / 32 + 0.5
    if arg == "test_statistic.score":
        values = values[:2]
    forms = [values.astype(np.float32), values.tolist()] + ([values.astype(np.int64)] if on_good else [])
    expected = _bits(call(values))
    for form in forms:
        assert _bits(call(form)) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="longdouble is double here")
def test_longdouble_beyond_the_double_range_is_domain_error():
    # The cast to float64 warned "overflow encountered in cast".
    x = np.array([0.5, np.finfo(float).max], dtype=np.longdouble) * 2
    with pytest.raises(DomainError, match="^data must be finite, got inf at index 1$"):
        score.run_test(x, 2.0)
