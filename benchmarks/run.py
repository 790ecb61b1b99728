"""apdgof benchmark: one workload, one run, one JSON result on the last line.

    python3 benchmarks/run.py --workload null-root --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``null-root`` (lambda=3 null studies, MLE root
solve), ``power-closed`` (lambda=2 local-power studies, sampler and
noncentral KS step) and ``test-file`` (in-process ``apdgof test --json`` on
a 1e5-value file).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans around the calls into each
module.  The package is imported from ``src/`` next to this directory; the
run fails (exit 2, no result) when that source is missing.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP for this process and the interpreters it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MAX_LOOP_S = 120.0  # the loop stops here even if it has not reached min_calls; a check fails

# A first test on a tiny sample, as every CLI invocation pays it.
SETUP_CODE = "import apdgof; apdgof.run_test([-2.1, -1.2, -0.4, 0.1, 0.3, 0.9, 1.7, 2.4], 1.5)"


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )


def measure_setup(repeats: int, probe) -> list[tuple[float, float]]:
    """Fresh interpreters importing apdgof and testing a tiny sample.

    Returns each one's wall time in s and the mean probe time in ms around it.
    """
    times = []
    for _ in range(repeats):
        before = probe.calibration_ms(10)
        t0 = perf_counter()
        _child(["-c", SETUP_CODE])
        wall = perf_counter() - t0
        times.append((wall, 0.5 * (before + probe.calibration_ms(10))))
    return times


def measure_imports(modules, repeats: int) -> dict[str, float]:
    """Cumulative import time of each apdgof module in a fresh interpreter (``-X importtime``)."""
    seen = {m: [] for m in modules}
    for _ in range(repeats):
        err = _child(["-X", "importtime", "-c", "import apdgof.cli"]).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            if module.startswith("apdgof.") and module[7:] in seen:
                seen[module[7:]].append(int(parts[1]) / 1e3)
    return {f"{m}.import_ms": statistics.median(v) for m, v in seen.items()}


class Probe:
    """Fixed host-speed probe: small-array numpy and interpreter work, like a replicate's.

    The host runs this process at speeds that drift by up to ~1.8x over
    seconds to minutes (other tenants share the cores).  Timing this fixed
    work next to every call measures that drift, so the time metrics can be
    reported at a nominal host speed: on a host where one probe takes
    NOMINAL_MS.  The probe runs no apdgof code, so a change to the package
    moves the scaled metrics exactly as it moves the raw ones.
    """

    NOMINAL_MS = 1.5

    def __init__(self):
        self.x = np.random.default_rng(0).standard_normal(2000)

    def __call__(self) -> float:
        """Seconds taken by one probe."""
        x = self.x
        t0 = perf_counter()
        for k in range(20):
            m = 0.01 * k
            float(np.sum(np.abs(x - m) ** 1.7 * np.sign(x - m)))
        acc = 0
        for i in range(10_000):
            acc += i * i
        return perf_counter() - t0

    def calibration_ms(self, repeats: int = 20) -> float:
        """Median probe time in ms over a short burst."""
        return statistics.median(self() for _ in range(repeats)) * 1e3


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return models[0] if models else platform.processor()


def run_record(args, wl) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "apdgof").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "inputs_sha256": wl.digest,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Call(NamedTuple):
    latency: float  # seconds in the public call
    probe: float  # seconds of the host-speed probe run just before the call
    attempted: int  # operations the call attempted (replicates or tests)
    succeeded: int  # operations that succeeded
    result: object  # the call's return value, None if it raised
    traced: bool


def closed_loop(wl, probe, seconds: float, min_calls: int, tracer=None):
    """Call the workload back to back; with a tracer, every other call is traced.

    Call inputs are built, and the probe run, outside the timed region.
    Returns the calls, the time of a last probe after them, and the wall
    time of the loop.
    """
    from apdgof.errors import ApdGofError

    calls = []
    start = perf_counter()
    while True:
        arg = wl.input(len(calls))
        traced = tracer is not None and len(calls) % 2 == 1
        probe_s = probe()
        with tracer.patched() if traced else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                with tracer.span(wl.entry) if traced else contextlib.nullcontext():
                    result = wl.call(arg)
            except ApdGofError:
                result = None
            t1 = perf_counter()
        attempted = wl.attempted(arg)
        succeeded = 0 if result is None else attempted - wl.failed(result)
        calls.append(Call(t1 - t0, probe_s, attempted, succeeded, result, traced))
        elapsed = t1 - start
        if (elapsed >= seconds and len(calls) >= min_calls) or elapsed >= MAX_LOOP_S:
            return calls, probe(), perf_counter() - start


def _rate_and_p50(calls) -> tuple[float, float]:
    """Raw successful replicates per second of call time, and median call time in ms."""
    latency = [c.latency for c in calls]
    return sum(c.succeeded for c in calls) / sum(latency), statistics.median(latency) * 1e3


def call_memory_mb(wl) -> float:
    """Peak memory that one call allocates, Python objects and numpy buffers, in MB.

    Unlike the process's peak RSS, which the imports dominate, this sees the
    call's own working memory; tracemalloc slows the call, so it is never timed.
    """
    tracemalloc.start()
    try:
        wl.call(wl.input(0))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def unit_of(metric: str) -> str:
    fixed = {"setup_s": "s", "replicates_per_s": "1/s", "peak_rss_mb": "MB", "call_mem_mb": "MB"}
    if metric in fixed:
        return fixed[metric]
    if metric.endswith("_pct") or metric.endswith(".share"):
        return "%"
    if metric.endswith(".failures"):
        return "count"
    if ".us_" in metric:
        return "us"
    return "ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("null-root", "power-closed", "test-file"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "apdgof" / "__init__.py").is_file():
        _fail(f"no apdgof source at {SRC}")
    sys.path.insert(0, str(SRC))
    import apdgof
    import tracing
    import workloads

    if Path(apdgof.__file__).resolve().parent != SRC / "apdgof":
        _fail(f"imported apdgof from {apdgof.__file__}, not from {SRC}")

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    probe = Probe()
    metrics: dict[str, float] = {}
    setup_times: list[tuple[float, float]] = []
    if args.trace:
        metrics.update(measure_imports(tracing.MODULES, sizes.import_repeats))
    else:
        _child(["-c", SETUP_CODE])  # writes the bytecode caches, as an install does
        setup_times += measure_setup(sizes.setup_repeats, probe)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, sizes, Path(workdir))
        record = run_record(args, wl)
        wl.call(wl.input(0))  # warm-up: lazy imports and first-call set-up are not timed
        probe_before = probe.calibration_ms()
        tracer = tracing.Tracer() if args.trace else None
        calls, last_probe, wall = closed_loop(wl, probe, args.seconds, sizes.min_calls, tracer)
        probe_after = probe.calibration_ms()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            call_mem_mb = call_memory_mb(wl)
            # Half the set-up samples after the loop, so they span the host's drift.
            setup_times += measure_setup(sizes.setup_repeats, probe)

        # Output checks, outside the timed region.
        results = [c.result for c in calls if c.result is not None]
        attempted = sum(c.attempted for c in calls)
        failed = attempted - sum(c.succeeded for c in calls)
        checks = [
            workloads.Check(
                "calls for p90",
                len(calls) >= sizes.min_calls,
                f"{len(calls)} calls (at least {sizes.min_calls}, so that a tenth lie beyond p90)",
            )
        ]
        checks += wl.checks(results) if results else []
        attempted += len(checks)
        failed += sum(not c.ok for c in checks)

    raw_rate, raw_p50 = _rate_and_p50(calls)
    latency_ms = np.array([c.latency for c in calls]) * 1e3
    probe_ms = np.array([c.probe for c in calls] + [last_probe]) * 1e3
    # Host speed during a call: the mean of the probes just before and after it.
    scaled_ms = latency_ms * Probe.NOMINAL_MS / (0.5 * (probe_ms[:-1] + probe_ms[1:]))
    record.update(
        calls=len(calls),
        wall_s=wall,
        calibration_ms={"before": probe_before, "during": float(np.median(probe_ms)), "after": probe_after},
        raw={
            "replicates_per_s": raw_rate,
            "call_ms_p50": raw_p50,
            "call_ms_p90": float(np.percentile(latency_ms, 90)),
        },
        setup_s=[{"wall_s": wall, "probe_ms": probe_ms} for wall, probe_ms in setup_times],
        checks=[{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    )
    if args.trace:
        rate0, p50_0 = _rate_and_p50([c for c in calls if not c.traced])
        rate1, p50_1 = _rate_and_p50([c for c in calls if c.traced])
        metrics.update(tracer.layer_metrics())
        metrics["simulate.failures"] = float(sum(getattr(r, "replicate_failures", 0) for r in results))
        metrics["trace.overhead.replicates_per_s_pct"] = 100.0 * (rate0 - rate1) / rate0
        metrics["trace.overhead.call_ms_p50_pct"] = 100.0 * (p50_1 - p50_0) / p50_0
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        record["raw"]["setup_s"] = statistics.median(wall for wall, _ in setup_times)
        metrics["setup_s"] = statistics.median(
            wall * Probe.NOMINAL_MS / probe_ms for wall, probe_ms in setup_times
        )
        metrics["replicates_per_s"] = 1e3 * sum(c.succeeded for c in calls) / float(scaled_ms.sum())
        metrics["call_ms_p50"] = float(np.percentile(scaled_ms, 50))
        metrics["call_ms_p90"] = float(np.percentile(scaled_ms, 90))
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["call_mem_mb"] = call_mem_mb

    print(f"record {json.dumps(record, sort_keys=True)}")
    for c in checks:
        print(f"check [{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    print(f"calls = {len(calls)} {wl.unit} calls in {wall:.2f} s")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, value in record["raw"].items():
        print(f"raw {name} = {value:.6g} {unit_of(name)} (host's own speed, probe {record['calibration_ms']['during']:.3g} ms)")
    result_metrics = {}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
        result_metrics[name] = {"value": value, "unit": unit_of(name)}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
