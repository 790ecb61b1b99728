"""Tests for the Monte Carlo harness: configs, determinism, cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from apdgof import apd
from apdgof.errors import ApdGofError, ConfigError, DomainError
from apdgof.numerics import _chi2_cdf
from apdgof.score import LocationScale, asymptotic_power, fisher_information
from apdgof.simulate import (
    StudyConfig,
    ks_distance,
    mc_fisher_check,
    quadrature_fisher,
    replicate_rng,
    run_local_alternative_study,
    run_null_study,
)
from tests.test_acceptance import mle_rmse_study
from tests.test_numerics import poisson_series_sf


class TestStudyConfig:
    def test_valid(self):
        cfg = StudyConfig(lam=1.0, n=100, reps=100, seed=0, alpha_grid=(0.01, 0.05))
        assert cfg.alpha_grid == (0.01, 0.05)
        assert cfg.delta is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.5, n=100, reps=100, seed=0),
            dict(lam=1.0, n=9, reps=100, seed=0),
            dict(lam=1.0, n=100, reps=99, seed=0),
            dict(lam=1.0, n=100, reps=100, seed=-1),
            dict(lam=1.0, n=100, reps=100, seed=2**64),
            dict(lam=1.0, n=100, reps=100, seed=0, alpha_grid=()),
            dict(lam=1.0, n=100, reps=100, seed=0, alpha_grid=(0.05, 0.05)),
            dict(lam=1.0, n=100, reps=100, seed=0, alpha_grid=(0.0,)),
            dict(lam=1.0, n=100, reps=100, seed=0, alpha_grid=(1.5,)),
            dict(lam=1.0, n=100, reps=100, seed=0, delta=(1.0,)),
            dict(lam=1.0, n=100, reps=100, seed=0, delta=(math.nan, 0.0)),
            # NaN and inf raised a builtin ValueError / OverflowError from int().
            dict(lam=1.0, n=math.nan, reps=100, seed=0),
            dict(lam=1.0, n=math.inf, reps=100, seed=0),
            dict(lam=1.0, n=100, reps=math.nan, seed=0),
            dict(lam=1.0, n=100, reps=math.inf, seed=0),
            dict(lam=1.0, n=100, reps=100, seed=math.nan),
            dict(lam=1.0, n=100, reps=100, seed=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            StudyConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reps", 100.0),
            ("seed", 3.0),
            ("n", 100.0),
            ("lam", 2),
            ("n", np.int64(100)),
        ],
    )
    def test_stores_validated_values(self, field, value):
        # integral floats, an int lambda and numpy integers used to reach the
        # study (a bare TypeError) or the report (other bytes) as given
        base = dict(lam=2.0, n=100, reps=100, seed=3)
        cfg = StudyConfig(**{**base, field: value})
        assert type(cfg.lam) is float
        assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.seed))
        assert run_null_study(cfg).to_json() == run_null_study(StudyConfig(**base)).to_json()

    @pytest.mark.parametrize(
        "kwargs",
        [
            # a bare TypeError or OverflowError before
            dict(alpha_grid=0.05),
            dict(delta=0.5),
            dict(alpha_grid=(10**400,)),
            dict(delta=(10**400, 0.0)),
            # constructed, then the study raised AttributeError
            dict(loc_scale=(0.0, 1.0)),
        ],
    )
    def test_malformed_field_fails_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            StudyConfig(2.0, 100, 100, 1, **kwargs)

    def test_numpy_int_loc_scale_matches_floats(self):
        # numpy ints reached ApdParams as given, and every replicate failed
        ints = StudyConfig(2.0, 100, 100, 7, loc_scale=LocationScale(np.int64(5), np.int64(2)))
        floats = StudyConfig(2.0, 100, 100, 7, loc_scale=LocationScale(5.0, 2.0))
        assert run_null_study(ints).to_json() == run_null_study(floats).to_json()

    def test_shifted_shape_leaving_space(self):
        # theta1 drift of -6/sqrt(100) pushes the asymmetry below 0
        cfg = StudyConfig(lam=1.0, n=100, reps=100, seed=0, delta=(-6.0, 0.0))
        with pytest.raises(ConfigError):
            cfg.shifted_shape()

    def test_shifted_shape_of_a_null_config(self):
        with pytest.raises(ConfigError, match="^delta is not set$"):
            StudyConfig(lam=2.0, n=100, reps=100, seed=0).shifted_shape()

    def test_shifted_shape_value(self):
        cfg = StudyConfig(lam=2.0, n=400, reps=100, seed=0, delta=(0.5, 0.3))
        t1, t2 = cfg.shifted_shape()
        assert_allclose((t1, t2), (0.5 + 0.025, 2.0 + 0.015), rtol=0, atol=1e-15)


class TestReplicateRng:
    def test_pure_function_of_seed_and_index(self):
        a = replicate_rng(5, 7).random(4)
        b = replicate_rng(5, 7).random(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_give_distinct_streams(self):
        a = replicate_rng(5, 0).random(4)
        b = replicate_rng(5, 1).random(4)
        assert not np.array_equal(a, b)

    # The package hashes (seed, index) itself: each stream must stay numpy's own.
    @staticmethod
    def numpy_rng(seed, index):
        return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**70))
    @settings(max_examples=300, deadline=None)
    def test_state_is_numpy_spawn_key_stream(self, seed, index):
        assert replicate_rng(seed, index).bit_generator.state == self.numpy_rng(seed, index).bit_generator.state

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2**64-1"])
    @pytest.mark.parametrize("index", [0, 2**32 - 1, 2**32, 10**400], ids=["0", "2**32-1", "2**32", "10**400"])
    def test_state_at_the_word_edges(self, seed, index):
        ours, numpys = replicate_rng(seed, index), self.numpy_rng(seed, index)
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert ours.random(3).tolist() == numpys.random(3).tolist()

    def test_seed_object_gives_only_the_pcg64_words(self):
        # The stream's seed object is not numpy's SeedSequence: it holds PCG64's four words.
        rng = replicate_rng(5, 7)
        seed = rng.bit_generator.seed_seq
        assert seed.generate_state(4, "u8").tolist() == self.numpy_rng(5, 7).bit_generator.seed_seq.generate_state(
            4, np.uint64).tolist()
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            seed.generate_state(8)
        with pytest.raises(TypeError):
            rng.spawn(1)


class TestKsDistance:
    def test_hand_example(self):
        # sample {0.1, 0.5} against the uniform CDF:
        # gaps are max(0.5-0.1, 0.1-0) = 0.4 and max(1-0.5, 0.5-0.5) = 0.5
        assert ks_distance([0.1, 0.5], lambda x: x) == pytest.approx(0.5)

    def test_perfect_fit_quantiles(self):
        u = (np.arange(100) + 0.5) / 100
        assert ks_distance(u, lambda x: x) == pytest.approx(0.005)

    def test_empty(self):
        with pytest.raises(ConfigError):
            ks_distance([], lambda x: x)

    def test_values_must_be_one_dimensional(self):
        # numpy raised a bare ValueError on the 2-d sample.
        with pytest.raises(DomainError, match=r"^values must be 1-d, got shape \(2, 2\)$"):
            ks_distance([[0.9, 0.1], [0.5, 0.2]], lambda x: x)

    def test_cdf_must_keep_the_shape(self):
        # The one CDF value was broadcast over both order statistics: 0.9.
        with pytest.raises(DomainError, match=r"^cdf\(values\) must have the shape of values \(2,\), got \(1,\)$"):
            ks_distance([0.9, 0.1], lambda v: v[:1])


class TestChi2TwoCdf:
    """The reference CDF of both KS steps, against the Poisson-series oracle."""

    X = np.linspace(0.0, 60.0, 241)

    @pytest.mark.parametrize("ncp", [0.0, 0.3, 4.0, 40.0])
    def test_against_series(self, ncp):
        ref = np.array([1.0 - poisson_series_sf(x, 2, ncp) for x in self.X])
        assert np.max(np.abs(_chi2_cdf(self.X, ncp) - ref)) <= 1e-11


class TestNullStudy:
    CFG = StudyConfig(lam=2.0, n=400, reps=600, seed=42, alpha_grid=(0.05, 0.2))

    def test_rate_near_level(self):
        report = run_null_study(self.CFG)
        assert report.kind == "size"
        assert report.replicate_failures == 0
        by_alpha = {r.alpha: r for r in report.rejections}
        assert abs(by_alpha[0.05].rate - 0.05) < 0.035
        assert abs(by_alpha[0.2].rate - 0.2) < 0.06
        assert by_alpha[0.05].predicted is None

    def test_p_values_uniform(self):
        # the KS distance of T against chi-square(2) equals the KS distance
        # of the p-values against the uniform law; both must be small
        report = run_null_study(self.CFG)
        assert report.ks_stat < 1.63 / math.sqrt(self.CFG.reps)

    def test_rerun_identical(self):
        a = run_null_study(self.CFG)
        b = run_null_study(self.CFG)
        assert a.to_json() == b.to_json()

    def test_worker_count_invariance(self):
        a = run_null_study(self.CFG)
        b = run_null_study(self.CFG, workers=3)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("cpus,pools", [(1, []), (4, [4]), (512, [100])])
    def test_pool_is_capped_at_cpus_and_chunks(self, monkeypatch, cpus, pools):
        # A pool that forks starts all max_workers processes on its first
        # submit, so a recording stand-in takes the pool's place here.
        import concurrent.futures

        from apdgof import simulate

        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        cfg = StudyConfig(lam=2.0, n=16, reps=100, seed=1)
        assert run_null_study(cfg, workers=10**6).to_json() == run_null_study(cfg).to_json()
        assert seen == pools

    @pytest.mark.parametrize("workers", [0, -3, 1.5, math.nan, "2", None, np.float64(math.inf)])
    def test_bad_worker_count(self, workers):
        # 0 and -3 ran serially; "2" and None raised TypeError, nan ValueError,
        # and a numpy inf warned in inf % 1.
        cfg = StudyConfig(lam=2.0, n=16, reps=100, seed=1)
        with pytest.raises(ConfigError, match="^workers must be an integer >= 1"):
            run_null_study(cfg, workers=workers)

    def test_delta_rejected(self):
        cfg = StudyConfig(lam=2.0, n=100, reps=100, seed=0, delta=(0.1, 0.1))
        with pytest.raises(ConfigError):
            run_null_study(cfg)

    def test_report_round_trip(self):
        import json

        report = run_null_study(
            StudyConfig(lam=1.0, n=50, reps=100, seed=3)
        )
        text = report.to_json()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text


class TestReplicateBlock:
    """A replicate is ``run_test`` on its draws, with the arguments checked once per study."""

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 8.0])
    def test_matches_run_test(self, lam):
        from apdgof.score import run_test
        from apdgof.simulate import _replicate_block

        params = apd.ApdParams(0.5, lam, 1000.0, 50.0)
        t, p = _replicate_block(params, lam, 50, 7, range(5))
        expected = [run_test(apd.sample(params, 50, replicate_rng(7, r)), lam) for r in range(5)]
        assert t.tolist() == [rep.t_stat for rep in expected]
        assert p.tolist() == [rep.p_value for rep in expected]

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_working_memory_is_three_arrays(self, lam):
        # The fit's x, d and p at most (at lam = 2 two of them, see below).
        # The sampler's temporaries made that four.
        from apdgof.simulate import _replicate_block

        n = 2000
        params = apd.ApdParams(0.5, lam)
        _replicate_block(params, lam, n, 5, range(1))  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            _replicate_block(params, lam, n, 5, range(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * 8 * n

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_working_memory_is_two_arrays_at_closed_form_nulls(self, lam):
        # The draws are handed over: the fit writes x - mu over them and
        # allocates only p, and they are released before the next replicate
        # draws.  At lam = 1 np.median's copy of x comes and goes before p.
        from apdgof.simulate import _replicate_block

        n = 2000
        params = apd.ApdParams(0.5, lam)
        _replicate_block(params, lam, n, 5, range(1))  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            _replicate_block(params, lam, n, 5, range(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 8 * n

    def test_lambda_is_checked_once_per_study(self, monkeypatch):
        from apdgof import score, simulate

        calls = []
        check = score.check_lambda
        for module in (score, simulate):
            monkeypatch.setattr(module, "check_lambda", lambda lam: calls.append(lam) or check(lam))
        report = run_null_study(StudyConfig(lam=3.0, n=20, reps=100, seed=1))
        assert report.replicate_failures == 0
        assert calls == [3.0]


class TestLocalAlternativeStudy:
    def test_requires_delta(self):
        cfg = StudyConfig(lam=2.0, n=100, reps=100, seed=0)
        with pytest.raises(ConfigError):
            run_local_alternative_study(cfg)

    def test_zero_delta_degenerates_to_null(self):
        base = dict(lam=2.0, n=200, reps=200, seed=9, alpha_grid=(0.05,))
        null_report = run_null_study(StudyConfig(**base))
        alt_report = run_local_alternative_study(StudyConfig(delta=(0.0, 0.0), **base))
        assert alt_report.rejections[0].rate == null_report.rejections[0].rate
        assert alt_report.ks_stat == null_report.ks_stat
        assert alt_report.rejections[0].predicted == pytest.approx(0.05, abs=1e-12)

    def test_small_level_predicts_its_power(self):
        # A level below 2**-54 was refused: its critical value was taken at 1 - alpha, which rounds to 1.
        delta = (0.5, 0.3)
        cfg = StudyConfig(lam=2.0, n=100, reps=100, seed=3, alpha_grid=(1e-20, 0.05), delta=delta)
        report = run_local_alternative_study(cfg)
        assert [r.predicted for r in report.rejections] == [asymptotic_power(delta, 2.0, a) for a in cfg.alpha_grid]

    def test_worker_count_invariance(self):
        cfg = StudyConfig(
            lam=2.0, n=200, reps=200, seed=5, alpha_grid=(0.05, 0.2), delta=(0.5, 0.3)
        )
        a = run_local_alternative_study(cfg)
        b = run_local_alternative_study(cfg, workers=3)
        assert a.to_json() == b.to_json()

    def test_prediction_columns_present(self):
        cfg = StudyConfig(lam=2.0, n=400, reps=200, seed=1, delta=(0.8, 0.4))
        report = run_local_alternative_study(cfg)
        assert report.kind == "power"
        r = report.rejections[0]
        assert r.predicted is not None and r.predicted > 0.05
        assert 0.0 <= r.rate <= 1.0

    def test_power_grows_with_direction_norm(self):
        base = dict(lam=2.0, n=400, reps=300, seed=4, alpha_grid=(0.05,))
        small = run_local_alternative_study(StudyConfig(delta=(0.5, 0.3), **base))
        large = run_local_alternative_study(StudyConfig(delta=(1.5, 0.9), **base))
        assert large.rejections[0].rate >= small.rejections[0].rate


class TestMcFisherCheck:
    def test_requires_enough_draws(self):
        with pytest.raises(ConfigError):
            mc_fisher_check(1.0, 10**4, seed=0)

    @pytest.mark.parametrize(
        "n_draws, seed",
        [(10**5, -1), (10**5, 1.5), (100000.5, 0), (math.nan, 0), (math.inf, 0)],
    )
    def test_counts_and_seeds_follow_study_rules(self, n_draws, seed):
        with pytest.raises(ConfigError):
            mc_fisher_check(2.0, n_draws, seed)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_within_four_standard_errors(self, lam):
        check = mc_fisher_check(lam, 2 * 10**5, seed=23)
        ref = fisher_information(lam)
        gap = np.abs(check.estimate - ref)
        assert np.all(gap <= 4.0 * check.std_error)

    def test_zero_pattern_entries_small(self):
        check = mc_fisher_check(1.5, 2 * 10**5, seed=29)
        for a, b in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            assert abs(check.estimate[a, b]) <= 4.0 * check.std_error[a, b]


class TestQuadratureFisher:
    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_matches_closed_form(self, lam):
        qf = quadrature_fisher(lam)
        assert_allclose(qf, fisher_information(lam), rtol=0, atol=1e-6)

    def test_zero_entries_tiny(self):
        qf = quadrature_fisher(2.0)
        for a, b in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            assert abs(qf[a, b]) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the contract is on what it returns or raises
    @pytest.mark.parametrize(
        "lam",
        [pytest.param(70.0, id="70")]
        + [
            pytest.param(
                lam,
                id=name,
                marks=pytest.mark.xfail(strict=True, raises=OverflowError, reason="ROADMAP item 6"),
            )
            for name, lam in [("100", 100.0), ("1e3", 1e3)]
        ],
    )
    def test_large_lambda_gives_a_value_or_a_typed_error(self, lam):
        try:
            qf = quadrature_fisher(lam)
        except ApdGofError:
            return
        assert_allclose(qf, fisher_information(lam), rtol=1e-6, atol=1e-6)


class TestMleRmseStudy:
    """The acceptance suite's criterion-5 helper, ``tests.test_acceptance.mle_rmse_study``."""

    def test_deterministic(self):
        a = mle_rmse_study(2.0, 100, 100, seed=17)
        b = mle_rmse_study(2.0, 100, 100, seed=17)
        assert a == b

    def test_shrinks_with_n(self):
        small = mle_rmse_study(2.0, 100, 200, seed=17)
        large = mle_rmse_study(2.0, 1600, 200, seed=19)
        assert large[0] < small[0]
        assert large[1] < small[1]

    @pytest.mark.parametrize(
        "n, reps, seed",
        [(100, 0, 17), (100.5, 100, 17), (100, 100, -1), (100, 99.5, 17)],
    )
    def test_invalid_counts_are_config_errors(self, n, reps, seed):
        with pytest.raises(ConfigError):
            mle_rmse_study(2.0, n, reps, seed)

    def test_integral_float_reps_is_accepted(self):
        # StudyConfig accepts an integral float and stores int(reps).
        assert mle_rmse_study(2.0, 100, 100.0, 17) == mle_rmse_study(2.0, 100, 100, 17)


class TestFailureCounting:
    def test_degenerate_replicate_is_counted(self, monkeypatch):
        real_sample = apd.sample
        calls = {"i": 0}

        def flaky_sample(params, n, rng):
            calls["i"] += 1
            if calls["i"] == 3:
                return np.zeros(n)
            return real_sample(params, n, rng)

        monkeypatch.setattr("apdgof.simulate.apd.sample", flaky_sample)
        cfg = StudyConfig(lam=2.0, n=50, reps=100, seed=2)
        report = run_null_study(cfg)
        assert report.replicate_failures == 1
        total = report.config.reps - report.replicate_failures
        assert total == 99

    def test_every_replicate_failing_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr("apdgof.simulate.apd.sample", lambda params, n, rng: np.zeros(n))
        cfg = StudyConfig(lam=2.0, n=50, reps=100, seed=2)
        with pytest.raises(DomainError, match="all 100 replicates failed"):
            run_null_study(cfg)
