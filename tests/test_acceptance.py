"""Acceptance suite: one test per release criterion, each printing a
``[PASS]``/``[FAIL]`` line (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete).

All tolerances and Monte Carlo bands are fixed here, together with the seeds
of every randomized study, so the whole suite is deterministic.
Criterion 5's study, :func:`mle_rmse_study`, is a helper of this suite, not
of the library; ``tests/test_simulate.py`` checks its own contract.
"""

import math

import numpy as np
import pytest

from apdgof import apd, numerics
from apdgof.apd import ApdParams, SepdParams, from_sepd, pdf
from apdgof.score import (
    check_lambda,
    fisher_information,
    fit_null_mle,
    run_test,
    score_covariance,
    stacked_scores,
)
from apdgof.simulate import (
    StudyConfig,
    quadrature_fisher,
    replicate_rng,
    run_local_alternative_study,
    run_null_study,
)
from tests.test_apd import sepd_pdf

LAM_GRID = (1.0, 1.5, 2.0, 3.0)
KS_ONE_PERCENT = 1.63  # asymptotic 1% Kolmogorov-Smirnov critical coefficient


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def mle_rmse_study(lam: float, n: int, reps: int, seed: int) -> tuple[float, float]:
    """Root-mean-square errors of the fitted location and scale under the null.

    The data have location 0 and scale 1.  Criterion 5 checks the root-n
    consistency rate with it: the RMSE at sample size ``16 n`` should be
    about a quarter of the RMSE at ``n``.  ``lam`` follows
    :func:`check_lambda`, and ``n``, ``reps`` and ``seed`` the
    :class:`StudyConfig` rules, raising :class:`ConfigError` where it would.
    """
    lam = check_lambda(lam)
    cfg = StudyConfig(lam, n, reps, seed)
    params = ApdParams(theta1=0.5, theta2=lam)
    sq_mu = 0.0
    sq_sigma = 0.0
    for r in range(cfg.reps):
        fit = fit_null_mle(apd.sample(params, cfg.n, replicate_rng(cfg.seed, r)), lam)
        sq_mu += fit.mu**2
        sq_sigma += (fit.sigma - 1.0) ** 2
    return math.sqrt(sq_mu / cfg.reps), math.sqrt(sq_sigma / cfg.reps)


def test_c01_closed_form_covariance_matches_quadrature():
    worst_entry = 0.0
    worst_sigma = 0.0
    for lam in LAM_GRID:
        j = fisher_information(lam)
        gap = np.max(np.abs(quadrature_fisher(lam) - j))
        worst_entry = max(worst_entry, float(gap))
        schur = j[:2, :2] - j[:2, 2:] ** 2 / np.diag(j[2:, 2:])
        sigma_gap = np.max(np.abs(score_covariance(lam) - schur))
        worst_sigma = max(worst_sigma, float(sigma_gap))
    check(
        "criterion 1 (closed form vs quadrature)",
        worst_entry <= 1e-6 and worst_sigma <= 1e-12,
        f"max covariance gap {worst_entry:.2e} (tol 1e-6), "
        f"max Sigma gap {worst_sigma:.2e} (tol 1e-12)",
    )


def test_c02_scores_have_zero_mean():
    worst = 0.0
    for lam in LAM_GRID:
        norm = 1.0 / (2.0 ** (1.0 + 1.0 / lam) * math.gamma(1.0 + 1.0 / lam))
        for component in range(4):

            def integrand(y, a=component):
                return float(stacked_scores(y, lam)[a]) * norm * math.exp(
                    -0.5 * abs(y) ** lam
                )

            mean = numerics.integrate(integrand, (-math.inf, 0.0)) + numerics.integrate(
                integrand, (0.0, math.inf)
            )
            worst = max(worst, abs(mean))
    check(
        "criterion 2 (zero-mean scores)",
        worst < 1e-8,
        f"max |E[score]| = {worst:.2e} (tol 1e-8)",
    )


@pytest.mark.parametrize("lam", [1.0, 2.0, 1.5])
def test_c03_null_law(lam):
    cfg = StudyConfig(lam=lam, n=2000, reps=5000, seed=42, alpha_grid=(0.05,))
    report = run_null_study(cfg)
    rate = report.rejections[0].rate
    ks_crit = KS_ONE_PERCENT / math.sqrt(cfg.reps)
    ok = abs(rate - 0.05) <= 0.01 and report.ks_stat < ks_crit
    check(
        f"criterion 3 (null law, lam={lam:g})",
        ok,
        f"rejection {rate:.4f} (band 0.04..0.06), "
        f"KS {report.ks_stat:.4f} (crit {ks_crit:.4f}), "
        f"failures {report.replicate_failures}",
    )


@pytest.mark.parametrize("lam", [2.0, 1.0])
def test_c04_local_power(lam):
    cfg = StudyConfig(
        lam=lam, n=2000, reps=2000, seed=7, alpha_grid=(0.05,), delta=(0.5, 0.3)
    )
    report = run_local_alternative_study(cfg)
    row = report.rejections[0]
    gap = abs(row.rate - row.predicted)
    check(
        f"criterion 4 (local power, lam={lam:g})",
        gap <= 0.03,
        f"empirical {row.rate:.4f} vs predicted {row.predicted:.4f}, "
        f"|gap| {gap:.4f} (tol 0.03)",
    )


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
def test_c05_consistency_rate(lam):
    rmse_small = mle_rmse_study(lam, 400, 1000, seed=11)
    rmse_large = mle_rmse_study(lam, 6400, 1000, seed=13)
    ratios = (rmse_small[0] / rmse_large[0], rmse_small[1] / rmse_large[1])
    ok = all(2.67 <= r <= 6.0 for r in ratios)
    check(
        f"criterion 5 (root-n consistency, lam={lam:g})",
        ok,
        f"RMSE ratios mu {ratios[0]:.3f}, sigma {ratios[1]:.3f} (band [2.67, 6])",
    )


@pytest.mark.parametrize(
    "theta1,theta2", [(0.5, 1.0), (0.5, 2.0), (0.3, 1.5), (0.7, 3.0)]
)
def test_c06_sampler_correctness(theta1, theta2):
    n = 10**5
    params = ApdParams(theta1, theta2, mu=0.5, sigma=1.5)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(1000 * theta1 + theta2)))
    draws = apd.sample(params, n, rng)
    from apdgof.simulate import ks_distance

    ks = ks_distance(draws, lambda v: apd.cdf(v, params))
    ks_crit = KS_ONE_PERCENT / math.sqrt(n)
    mass_left = float(np.mean(draws < params.mu))
    band = 4.0 * math.sqrt(theta1 * (1 - theta1) / n)
    ok = ks < ks_crit and abs(mass_left - theta1) < band
    check(
        f"criterion 6 (sampler, theta=({theta1:g},{theta2:g}))",
        ok,
        f"KS {ks:.5f} (crit {ks_crit:.5f}), "
        f"mode mass {mass_left:.4f} vs {theta1:g} (band {band:.4f})",
    )


def test_c07_laplace_odd_n_edge_case():
    n, reps = 101, 1000
    params = ApdParams(0.5, 1.0)
    bad_finite = 0
    bad_balance = 0
    for r in range(reps):
        data = apd.sample(params, n, replicate_rng(99, r))
        fit = fit_null_mle(data, 1.0)
        z = (data - fit.mu) / fit.sigma
        report = run_test(data, 1.0)
        values = [report.t_stat, report.p_value, fit.mu, fit.sigma, *report.score]
        if not all(math.isfinite(v) for v in values):
            bad_finite += 1
        if abs(float(np.sign(z).sum())) > 1.0:
            bad_balance += 1
    check(
        "criterion 7 (Laplace odd-n edge case)",
        bad_finite == 0 and bad_balance == 0,
        f"{reps} replicates: {bad_finite} non-finite, "
        f"{bad_balance} sign-balance violations",
    )


def test_c08_affine_invariance():
    rng = np.random.default_rng(2718281828)
    worst = 0.0
    for _ in range(100):
        lam = float(rng.choice([1.0, 1.3, 2.0, 2.6, 3.0]))
        n = int(rng.integers(50, 500))
        data = apd.sample(ApdParams(0.5, lam), n, rng)
        a = float(np.exp(rng.uniform(-3.0, 3.0)))
        b = float(rng.uniform(-100.0, 100.0))
        t0 = run_test(data, lam).t_stat
        t1 = run_test(a * data + b, lam).t_stat
        worst = max(worst, abs(t0 - t1))
    check(
        "criterion 8 (affine invariance)",
        worst <= 1e-10,
        f"max |T(aX+b) - T(X)| = {worst:.2e} (tol 1e-10)",
    )


def test_c09_deterministic_reports():
    cfg = StudyConfig(lam=1.5, n=100, reps=300, seed=5, alpha_grid=(0.05, 0.1))
    baseline = run_null_study(cfg).to_json()
    rerun = run_null_study(cfg).to_json()
    with_workers = [run_null_study(cfg, workers=w).to_json() for w in (2, 3)]
    ok = rerun == baseline and all(r == baseline for r in with_workers)
    check(
        "criterion 9 (deterministic reports)",
        ok,
        "rerun and worker counts {1, 2, 3} byte-identical"
        if ok
        else "reports differ across reruns/worker counts",
    )


def test_c10_sepd_reparametrization():
    rng = np.random.default_rng(5550123)
    worst = 0.0
    for _ in range(5):
        sp = SepdParams(
            gamma=float(rng.uniform(0.4, 2.5)),
            q=float(rng.uniform(0.8, 4.0)),
            m=float(rng.uniform(-3.0, 3.0)),
            s=float(rng.uniform(0.5, 2.0)),
        )
        params = from_sepd(sp)
        x = np.linspace(sp.m - 5 * sp.s, sp.m + 5 * sp.s, 50)
        worst = max(worst, float(np.max(np.abs(pdf(x, params) - sepd_pdf(x, sp)))))
    check(
        "criterion 10 (SEPD reparametrization)",
        worst <= 1e-12,
        f"max pointwise density gap {worst:.2e} (tol 1e-12)",
    )
