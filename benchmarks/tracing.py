"""Spans around the calls into each apdgof module, recorded from outside the package.

While a :class:`Tracer` is patched in, every function named in ``TRACED`` is
replaced, in every apdgof module that refers to it, by a wrapper that
records a span (name, start, end, parent).  The program looks these names
up at call time, so the spans sit at the boundaries the workload really
crosses: ``simulate`` calling ``apd.sample``, ``apd.sample`` calling
``numerics.gamma_sample``, ``cli.main`` calling ``score.run_test`` and so
on.  Nothing inside the package is edited; patching is undone on exit.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("simulate", "apd", "numerics", "score", "cli")

TRACED = (
    "simulate.replicate_rng",
    "simulate.ks_distance",
    "apd.sample",
    "numerics.gamma_sample",
    "numerics.chi2_sf",
    "numerics.noncentral_chi2_sf",
    "score.fit_null_mle",
    "score.modified_score",
    "score.test_statistic",
    "score.score_covariance",
    "score.run_test",
    "cli.read_values",
)

# One study replicate, from its stream derivation to its statistic.  Opened
# when ``replicate_rng`` is called; closed when the replicate's
# ``test_statistic`` returns, or when its parent closes (a failed replicate).
REPLICATE = "simulate.replicate"


class Tracer:
    """In-memory span store; spans are written out by :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        now = perf_counter()
        while self._stack[-1] != sid:  # replicate spans left open by a failure
            self.end[self._stack.pop()] = now
        self.end[self._stack.pop()] = now

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def _top_is_replicate(self) -> bool:
        return bool(self._stack) and self.names[self.name[self._stack[-1]]] == REPLICATE

    def _wrap(self, name: str, fn):
        opens_replicate = name == "simulate.replicate_rng"
        closes_replicate = name == "score.test_statistic"

        def traced(*args, **kwargs):
            if opens_replicate:
                if self._top_is_replicate():
                    self.close(self._stack[-1])
                self.open(REPLICATE)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if closes_replicate and self._top_is_replicate():
                    self.close(self._stack[-1])

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every traced function through a span-recording wrapper."""
        modules = [importlib.import_module(f"apdgof.{m}") for m in MODULES]
        undo = []
        try:
            for name in TRACED:
                home, attr = name.split(".")
                original = getattr(importlib.import_module(f"apdgof.{home}"), attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        Self time is a span's duration minus the time its children cover.
        Module self times are per closed-loop call; shares are of the total
        time of those calls.  A function the workload never calls reports 0.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        roots = ~nested
        calls = int(np.count_nonzero(roots))
        total = float(dur[roots].sum())
        module = np.array([n.split(".")[0] for n in self.names])[name]

        def pct(span: str, q: float, scale: float, values=dur) -> float:
            if span not in self._ids:
                return 0.0
            return float(np.percentile(values[name == self._ids[span]], q)) * scale

        us, ms = 1e6, 1e3
        out = {
            "score.fit_null_mle.us_p50": pct("score.fit_null_mle", 50, us),
            "score.fit_null_mle.us_p99": pct("score.fit_null_mle", 99, us),
            "apd.sample.us_p50": pct("apd.sample", 50, us),
            "apd.sample.us_p99": pct("apd.sample", 99, us),
            "numerics.gamma_sample.us_p50": pct("numerics.gamma_sample", 50, us),
            "score.test_statistic.us_p50": pct("score.test_statistic", 50, us),
            "score.score_covariance.us_p50": pct("score.score_covariance", 50, us),
            "score.modified_score.us_p50": pct("score.modified_score", 50, us),
            "simulate.replicate_rng.us_p50": pct("simulate.replicate_rng", 50, us),
            "simulate.ks_distance.ms": pct("simulate.ks_distance", 50, ms),
            "numerics.noncentral_chi2_sf.us_p50": pct("numerics.noncentral_chi2_sf", 50, us),
            "score.run_test.ms_p50": pct("score.run_test", 50, ms),
            "cli.read_values.ms_p50": pct("cli.read_values", 50, ms),
            "cli.main.self_ms_p50": pct("cli.main", 50, ms, own),
            "simulate.replicate.us_p50": pct(REPLICATE, 50, us),
            "simulate.replicate.us_p99": pct(REPLICATE, 99, us),
        }
        for m in MODULES:
            mine = float(own[module == m].sum())
            out[f"{m}.self_ms"] = mine / calls * ms
            out[f"{m}.share"] = 100.0 * mine / total
        return out
