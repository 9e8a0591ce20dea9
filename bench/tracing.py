"""Layer tracing for the benchmark, installed from outside the package.

`Tracer.installed()` replaces public functions of the multitruth modules
with wrappers for the duration of one traced operation and restores the
originals afterwards, so untraced operations run the unmodified code.

Every layer time is CPU time of the calling thread (`time.thread_time`).
The `compare` harness runs repetitions on two threads that take turns on
the interpreter lock; CPU time charges each layer only for the time it
ran, so layer times summed over both threads stay within the wall time.

Coarse boundaries (file I/O, `iterate`, each engine call, each quality
update, data generation and scoring) are kept as spans: name, start, end,
parent and thread.  The hot inner functions (vote counts, stop votes,
likelihoods, clamping, `ClaimSet.restrict`) are only counted and timed in
aggregate, since a span per call would cost more than the call.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.thread_time

# Backend names whose engine time is reported on its own.
COMPARE_METHODS = ("hybrid", "precrec", "twostep", "accu", "majority")

# Counters that are functions of the input alone; they must repeat exactly.
EXACT_COUNTS = ("engine.calls", "approx.vote_calls", "exact.likelihood_calls",
                "model.clamped_calls", "quality.iterations", "approx.termination_steps")

PER_LAYER_UNITS = {
    "io.load_s": "s", "io.group_s": "s", "io.parse_s": "s", "io.rows": "count",
    "io.write_s": "s",
    "engine.calls": "count", "engine.busy_s": "s",
    "engine.item_ms_p50": "ms", "engine.item_ms_p99": "ms",
    **{f"engine.{m}_s": "s" for m in COMPARE_METHODS},
    "approx.vote_calls": "count", "approx.vote_s": "s",
    "approx.bot_calls": "count", "approx.bot_s": "s", "approx.step_s": "s",
    "approx.candidates": "count", "approx.termination_steps": "count",
    "exact.likelihood_calls": "count",
    "model.clamped_calls": "count", "model.restrict_calls": "count",
    "model.restrict_s": "s",
    "quality.update_s": "s", "quality.update_calls": "count", "quality.self_s": "s",
    "quality.iterations": "count", "quality.active_sources": "count",
    "synth.generate_s": "s", "synth.evaluate_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """Counts, busy times and spans of one traced operation."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.engine_ms = []
        self.spans = []  # (id, name, start, end, parent id, thread id)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, on_result=None):
        """Wrap `fn` so each call is kept as a span and added to `name`'s
        count and busy time; `on_result(args, result, seconds)` runs under
        the lock."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            with self._lock:
                self.spans[sid] = (sid, name, t0, t1, parent, threading.get_ident())
                self.counts[name] += 1
                self.busy[name] += t1 - t0
                if on_result is not None:
                    on_result(args, result, t1 - t0)
            return result
        return wrapper

    def timed(self, name, fn):
        """Wrap `fn` so its calls are counted and timed in aggregate."""
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                with self._lock:
                    self.counts[name] += 1
                    self.busy[name] += dt
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def engine(self, method, backend):
        """Wrap a fusion backend, the callable `iterate` calls per item."""
        def on_result(args, result, seconds):
            self.busy[f"engine.{method}"] += seconds
            self.engine_ms.append(seconds * 1000.0)
            if method == "hybrid":
                self.counts["approx.candidates"] += len(args[0].candidates)
                self.counts["approx.termination_steps"] += result.diagnostics.termination_step
        wrapper = self.span("engine", backend, on_result)
        wrapper.method = method
        return wrapper

    def _iterated(self, args, result, seconds):
        records = result[2]
        last = max((r.iteration for r in records), default=0)
        self.counts["quality.iterations"] += last
        self.counts["quality.active_sources"] += sum(
            1 for r in records if r.iteration == last and r.good)

    @contextmanager
    def installed(self):
        """Install the wrappers on the package modules; restore on exit."""
        from multitruth import approx, exact, io, model, quality, synth

        backend_of = synth.fusion_backend
        targets = [
            (io, "load_claims", self.span("io.load_claims", io.load_claims)),
            (io, "claims_by_item", self.span("io.claims_by_item", io.claims_by_item)),
            (io, "write_probabilities",
             self.span("io.write", io.write_probabilities)),
            (io, "write_run_summary", self.span("io.write", io.write_run_summary)),
            (quality, "iterate",
             self.span("quality.iterate", quality.iterate, self._iterated)),
            (synth, "iterate", self.span("quality.iterate", synth.iterate, self._iterated)),
            (synth, "fusion_backend", lambda name: self.engine(name, backend_of(name))),
            (synth, "generate", self.span("synth.generate", synth.generate)),
            (synth, "evaluate", self.span("synth.evaluate", synth.evaluate)),
            (approx, "vote_count", self.timed("approx.vote", approx.vote_count)),
            (approx, "bot_vote_count", self.timed("approx.bot", approx.bot_vote_count)),
            (exact, "source_likelihood",
             self.counted("exact.likelihood", exact.source_likelihood)),
            (model.SourceQuality, "clamped",
             self.counted("model.clamped", model.SourceQuality.clamped)),
            (model.ClaimSet, "restrict", self.timed("model.restrict", model.ClaimSet.restrict)),
        ]
        for name in ("update_accuracy", "update_precision", "update_recall"):
            targets.append((quality, name, self.span("quality.update", getattr(quality, name))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, wall_s, rows):
        """Per-layer metrics of the traced operation; `rows` is the claim
        row count the operation read from file (0 without file I/O)."""
        c, b = self.counts, self.busy
        ms = sorted(self.engine_ms)
        pct = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
        out = {
            "io.load_s": b["io.load_claims"],
            "io.group_s": b["io.claims_by_item"],
            "io.parse_s": b["io.load_claims"] - b["io.claims_by_item"],
            "io.rows": rows,
            "io.write_s": b["io.write"],
            "engine.calls": c["engine"],
            "engine.busy_s": b["engine"],
            "engine.item_ms_p50": pct[49] if pct else 0.0,
            "engine.item_ms_p99": pct[98] if pct else 0.0,
            **{f"engine.{m}_s": b[f"engine.{m}"] for m in COMPARE_METHODS},
            "approx.vote_calls": c["approx.vote"],
            "approx.vote_s": b["approx.vote"],
            "approx.bot_calls": c["approx.bot"],
            "approx.bot_s": b["approx.bot"],
            "approx.step_s": b["engine.hybrid"] - b["approx.vote"] - b["approx.bot"],
            "approx.candidates": c["approx.candidates"],
            "approx.termination_steps": c["approx.termination_steps"],
            "exact.likelihood_calls": c["exact.likelihood"],
            "model.clamped_calls": c["model.clamped"],
            "model.restrict_calls": c["model.restrict"],
            "model.restrict_s": b["model.restrict"],
            "quality.update_s": b["quality.update"],
            "quality.update_calls": c["quality.update"],
            "quality.self_s": b["quality.iterate"] - b["engine"] - b["model.restrict"],
            "quality.iterations": c["quality.iterations"],
            "quality.active_sources": c["quality.active_sources"],
            "synth.generate_s": b["synth.generate"],
            "synth.evaluate_s": b["synth.evaluate"],
            "trace.wall_s": wall_s,
        }
        return out
