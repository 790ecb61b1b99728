"""Run the benchmark over several seeds and summarize each metric per workload.

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/baseline.json

For every workload of BENCHMARK.json and every seed, runs ``run.py`` once, one run at a time: with ``--trace 0``,
or with ``--trace 1`` when ``--trace`` is given.  The summary
holds, per workload and metric, the values in seed order, their median,
and the spread ``(q3 - q1) / median`` from ``statistics.quantiles(n=4)``,
the figure the end-to-end bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return record, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", action="store_true", help="make traced runs (per-layer metrics)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        ok = True
        hosts = []
        for seed in args.seeds:
            record, result = run(workload, seed, spec["run_seconds"], int(args.trace))
            ok = ok and result["correct"]
            hosts.append({k: record[k] for k in ("seed", "calibration_ms", "raw", "calls", "wall_s")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        summary["workloads"][workload] = {
            "correct": ok,
            "metrics": {name: {"unit": units[name], **summarize(v)} for name, v in values.items()},
            "runs": hosts,
        }
        summary["host"] = {k: record[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit", "src_sha256")}
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            s = summary["workloads"][workload]["metrics"][metric["name"]]
            bound = f" (bound {metric['bound']})" if "bound" in metric else ""
            print(f"  {metric['name']}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.3f}{bound}")


if __name__ == "__main__":
    main()
