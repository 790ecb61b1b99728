"""The benchmark's workloads: inputs made from a seed, one closed-loop call, output checks.

Each workload is a closed loop with a single caller: the next call starts
when the previous one returns.  ``input(i)`` builds the arguments of call
``i`` outside the timed region; ``call(arg)`` is the timed call into the
public API; ``checks(results)`` verifies the outputs after the loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apdgof import apd, cli, score, simulate

# The acceptance suite runs its studies once, at fixed seeds, with 1% bands.
# The benchmark runs studies at fresh seeds on every run, so its pooled
# checks keep the c03/c04 bands but never tighten them below a
# one-in-a-million false-alarm level.
_Z = 5.0  # normal quantile, two-sided tail ~6e-7
_KS_COEFF = math.sqrt(math.log(2e6) / 2.0)  # P(sqrt(M) D_M > c) ~ 2 exp(-2 c^2) = 1e-6
_NULL_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))  # 0.05 first: the c03 level


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run."""

    n: int = 2000  # sample size of each study replicate
    reps: int = 100  # replicates per study; many short studies give latency percentiles
    file_n: int = 100_000  # values in the test-file input
    min_calls: int = 100  # calls per run, so that ten latency samples lie beyond p90
    setup_repeats: int = 3  # fresh interpreters timed for setup_s, before and again after the loop
    import_repeats: int = 3  # fresh interpreters timed for the import split


FULL = Sizes()
# Tiny sizes for the benchmark's own tests; every metric is still emitted.
SMOKE = Sizes(n=200, file_n=2000, min_calls=4, setup_repeats=1, import_repeats=1)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _study_seed(seed: int, index: int) -> int:
    """64-bit study seed derived from the benchmark seed and the call index."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class StudyWorkload:
    """Back-to-back Monte Carlo studies with ``workers=1``; one call is one study."""

    unit = "study"

    def __init__(self, run, lam, delta, alpha_grid, seed, sizes):
        self.run = run
        self.entry = f"simulate.{run.__name__}"  # span name of the public call
        self.lam = lam
        self.delta = delta
        self.alpha_grid = alpha_grid
        self.seed = seed
        self.sizes = sizes
        seeds = [_study_seed(seed, i) for i in range(8)]
        self.digest = _sha256(json.dumps(seeds).encode())

    def input(self, index: int) -> simulate.StudyConfig:
        return simulate.StudyConfig(
            lam=self.lam,
            n=self.sizes.n,
            reps=self.sizes.reps,
            seed=_study_seed(self.seed, index),
            alpha_grid=self.alpha_grid,
            delta=self.delta,
        )

    def call(self, cfg: simulate.StudyConfig) -> simulate.StudyReport:
        return self.run(cfg)

    def attempted(self, cfg: simulate.StudyConfig) -> int:
        return cfg.reps

    @staticmethod
    def failed(report: simulate.StudyReport) -> int:
        return report.replicate_failures

    def checks(self, reports) -> list[Check]:
        first = reports[0]
        rerun = self.run(first.config).to_json()
        out = [
            Check(
                "deterministic report",
                rerun == first.to_json(),
                "rerun of the first study is byte-identical (c09)",
            )
        ]
        return out + self._band_checks(reports)

    @staticmethod
    def _pooled_hits(reports, level: int) -> tuple[int, int]:
        """Rejections at ``alpha_grid[level]`` and successful replicates, summed over studies."""
        hits = total = 0
        for r in reports:
            m = r.config.reps - r.replicate_failures
            hits += round(r.rejections[level].rate * m)
            total += m
        return hits, total


class NullRootWorkload(StudyWorkload):
    def __init__(self, seed, sizes):
        super().__init__(simulate.run_null_study, 3.0, None, _NULL_GRID, seed, sizes)

    def _band_checks(self, reports) -> list[Check]:
        # The grid of levels gives the pooled empirical law of the p-values at
        # 19 points: |rate(a) - a| is the KS distance of T from chi-square(2)
        # at its (1 - a) quantile, a lower bound of the full pooled KS.
        pooled = [self._pooled_hits(reports, k) for k in range(len(_NULL_GRID))]
        m = pooled[0][1]
        rate = pooled[0][0] / m
        tol = max(0.01, _Z * math.sqrt(0.05 * 0.95 / m))
        ks = max(abs(h / m - a) for (h, _), a in zip(pooled, _NULL_GRID))
        crit = max(1.63 / math.sqrt(5000), _KS_COEFF / math.sqrt(m))
        return [
            Check(
                "null rejection rate",
                abs(rate - 0.05) <= tol,
                f"pooled rate {rate:.4f} over {m} replicates (0.05 +- {tol:.4f})",
            ),
            Check(
                "null law",
                ks < crit,
                f"pooled KS on the level grid {ks:.4f} (crit {crit:.4f})",
            ),
        ]


class PowerClosedWorkload(StudyWorkload):
    def __init__(self, seed, sizes):
        super().__init__(
            simulate.run_local_alternative_study, 2.0, (0.5, 0.3), (0.05,), seed, sizes
        )

    def _band_checks(self, reports) -> list[Check]:
        hits, m = self._pooled_hits(reports, 0)
        rate = hits / m
        predicted = reports[0].rejections[0].predicted
        tol = max(0.03, _Z * math.sqrt(predicted * (1.0 - predicted) / m))
        return [
            Check(
                "local power",
                abs(rate - predicted) <= tol,
                f"pooled rate {rate:.4f} over {m} replicates vs predicted "
                f"{predicted:.4f} (tol {tol:.4f})",
            )
        ]


class TestFileWorkload:
    """Repeated in-process ``apdgof test --json`` on one data file; one call is one test."""

    entry = "cli.main"
    unit = "test"
    lam = 1.5
    # Non-null APD data at a location and scale far from (0, 1).
    params = apd.ApdParams(theta1=0.45, theta2=1.5, mu=1000.0, sigma=50.0)

    def __init__(self, seed, sizes, workdir: Path):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        values = apd.sample(self.params, sizes.file_n, rng)
        self.path = workdir / "values.txt"
        digest = hashlib.sha256()
        # Written in chunks, so that making the input raises the peak memory
        # less than a call does.
        with self.path.open("w", encoding="utf-8") as fh:
            for chunk in np.array_split(values, 100):
                text = "".join(f"{v:.17g}\n" for v in chunk)
                fh.write(text)
                digest.update(text.encode())
        self.digest = digest.hexdigest()
        self.argv = ["test", "--input", str(self.path), "--lambda", str(self.lam), "--json"]
        self.values = cli.read_values(str(self.path))
        self.reference = score.run_test(self.values, self.lam)

    def input(self, index: int) -> list[str]:
        return self.argv

    @staticmethod
    def call(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def attempted(argv) -> int:
        return 1

    def failed(self, result: tuple[int, str]) -> int:
        """A call fails on a non-zero exit or a t_stat other than the in-process one."""
        code, text = result
        if code != 0:
            return 1
        return int(json.loads(text)["results"]["t_stat"] != self.reference.t_stat)

    def checks(self, results) -> list[Check]:
        x = self.values
        standardized = score.run_test((x - x.mean()) / x.std(), self.lam).t_stat
        gap = abs(standardized - self.reference.t_stat)
        return [
            Check(
                "affine invariance",
                gap <= 1e-10,
                f"|T(standardized) - T| = {gap:.2e} (tol 1e-10, c08)",
            )
        ]


def make(name: str, seed: int, sizes: Sizes, workdir: Path):
    if name == "null-root":
        return NullRootWorkload(seed, sizes)
    if name == "power-closed":
        return PowerClosedWorkload(seed, sizes)
    return TestFileWorkload(seed, sizes, workdir)
