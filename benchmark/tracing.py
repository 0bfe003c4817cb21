"""Traced run: spans around calls into each layer's public functions.

Each traced function is replaced, at the module attribute the program looks
it up by, with a wrapper that records a span (name, start, end, parent,
thread) and the counts taken from its arguments and result.  Spans stay in
memory and are written out when the run ends.  Parents are tracked per
thread; a span opened on a worker thread with nothing open on that thread
(``pipeline.simulate``'s block pool) takes the main thread's innermost open
span as its parent, the call that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field


def _events(batch) -> dict:
    return {"events": int(batch.pair_pulse.size + batch.single_probe_pulse.size
                          + batch.single_herald_pulse.size)}


def _dead_time(args, result) -> dict:
    return {"tags_in": int(args[0].size), "tags_kept": int(result.size)}


def _folded(result) -> dict:
    return {"events": int(result.herald_rel.size + result.probe_rel.size)}


# (module, attribute the program calls through, span name, counter).  A
# counter maps (positional args, result) to counts recorded on the span.
TRACED = (
    ("qeplidar.rng", "uniforms", "rng.uniforms",
     lambda a, r: {"draws": int(r.size)}),
    ("qeplidar.pipeline", "sample_pulse_range", "source.sample_pulse_range",
     lambda a, r: _events(r)),
    ("qeplidar.pipeline", "propagate_herald_batch", "channel.propagate", None),
    ("qeplidar.pipeline", "propagate_probe_batch", "channel.propagate", None),
    ("qeplidar.pipeline", "sample_noise_arrivals",
     "channel.sample_noise_arrivals", None),
    ("qeplidar.pipeline", "detect_channel", "detect.detect_channel", None),
    ("qeplidar.pipeline", "merge_streams", "detect.merge_streams", None),
    ("qeplidar.pipeline", "apply_dead_time", "detect.apply_dead_time",
     _dead_time),
    ("qeplidar.detect", "apply_dead_time", "detect.apply_dead_time",
     _dead_time),
    ("qeplidar.detect", "write_tags", "detect.write_tags", None),
    ("qeplidar.detect", "read_tags", "detect.read_tags",
     lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("qeplidar.analysis", "fold_to_pulse_frame",
     "analysis.fold_to_pulse_frame", lambda a, r: _folded(r)),
    ("qeplidar.analysis", "car_per_herald_bin", "analysis.car_per_herald_bin",
     None),
    ("qeplidar.analysis", "fit_gaussian_peak", "analysis.fit_gaussian_peak",
     None),
    ("qeplidar.analysis", "snr_quantum", "analysis.snr_quantum", None),
    ("qeplidar.analysis", "snr_classical", "analysis.snr_classical", None),
    ("qeplidar.analysis", "reconstruct_targets",
     "analysis.reconstruct_targets", None),
    ("qeplidar.analysis", "randomness_report", "analysis.randomness_report",
     None),
    ("qeplidar.pipeline", "simulate", "pipeline.simulate", None),
    ("qeplidar.pipeline", "analyze", "pipeline.analyze", None),
    ("qeplidar.pipeline", "sweep", "pipeline.sweep", None),
)

# Per-layer metrics: name -> unit.  Times are busy seconds summed over the
# calls of one round; "_self_s" is a span minus the part its children cover.
METRICS = {
    "rng.uniforms_s": "s",
    "rng.uniform_draws": "count",
    "source.sample_pulse_range_s": "s",
    "source.sample_pulse_range_self_s": "s",
    "source.draws_per_event": "draws/event",
    "channel.propagate_s": "s",
    "channel.sample_noise_arrivals_s": "s",
    "detect.detect_channel_s": "s",
    "detect.merge_streams_s": "s",
    "detect.apply_dead_time_s": "s",
    "detect.dead_time_tags_in": "count",
    "detect.dead_time_tags_kept": "count",
    "detect.write_tags_s": "s",
    "detect.read_tags_s": "s",
    "detect.read_mb_per_s": "MB/s",
    "analysis.fold_to_pulse_frame_s": "s",
    "analysis.fold_events_per_s": "events/s",
    "analysis.car_per_herald_bin_self_s": "s",
    "analysis.snr_quantum_s": "s",
    "analysis.snr_classical_s": "s",
    "analysis.fit_gaussian_peak_s": "s",
    "analysis.fit_ms_per_call": "ms",
    "analysis.reconstruct_targets_s": "s",
    "analysis.randomness_report_s": "s",
    "pipeline.simulate_s": "s",
    "pipeline.simulate_self_s": "s",
    "pipeline.analyze_s": "s",
    "pipeline.analyze_self_s": "s",
    "pipeline.sweep_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    round: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers for the rounds it traces and keeps the spans."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.round = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            with tracer._lock:
                span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, name, parent, threading.get_ident(),
                        tracer.round, start, end,
                        counter(args, result) if counter else {})
            with tracer._lock:
                tracer.spans.append(span)
            return result

        return traced

    def install(self, round_index: int) -> None:
        """Wrap every traced function that exists; note the ones that don't."""
        self.round = round_index
        for module_name, attr, name, counter in TRACED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                where = f"{module_name}.{attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def round_metrics(self, round_index: int) -> dict:
        """Per-layer metrics of one traced round (trace.overhead_s excluded)."""
        spans = [s for s in self.spans if s.round == round_index]
        children: dict = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)

        def busy(name):
            return sum(s.end - s.start for s in spans if s.name == name)

        def self_time(name):
            total = 0.0
            for s in spans:
                if s.name == name:
                    total += (s.end - s.start) - _covered(
                        s, children.get(s.id, []))
            return total

        def count(name, key):
            return sum(s.counts.get(key, 0) for s in spans if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        source_ids = {s.id for s in spans
                      if s.name == "source.sample_pulse_range"}
        source_draws = sum(s.counts["draws"] for s in spans
                           if s.name == "rng.uniforms" and s.parent in source_ids)
        return {
            "rng.uniforms_s": busy("rng.uniforms"),
            "rng.uniform_draws": count("rng.uniforms", "draws"),
            "source.sample_pulse_range_s": busy("source.sample_pulse_range"),
            "source.sample_pulse_range_self_s":
                self_time("source.sample_pulse_range"),
            "source.draws_per_event": ratio(
                source_draws, count("source.sample_pulse_range", "events")),
            "channel.propagate_s": busy("channel.propagate"),
            "channel.sample_noise_arrivals_s":
                busy("channel.sample_noise_arrivals"),
            "detect.detect_channel_s": busy("detect.detect_channel"),
            "detect.merge_streams_s": busy("detect.merge_streams"),
            "detect.apply_dead_time_s": busy("detect.apply_dead_time"),
            "detect.dead_time_tags_in":
                count("detect.apply_dead_time", "tags_in"),
            "detect.dead_time_tags_kept":
                count("detect.apply_dead_time", "tags_kept"),
            "detect.write_tags_s": busy("detect.write_tags"),
            "detect.read_tags_s": busy("detect.read_tags"),
            "detect.read_mb_per_s": ratio(
                count("detect.read_tags", "bytes") / 1e6,
                busy("detect.read_tags")),
            "analysis.fold_to_pulse_frame_s":
                busy("analysis.fold_to_pulse_frame"),
            "analysis.fold_events_per_s": ratio(
                count("analysis.fold_to_pulse_frame", "events"),
                busy("analysis.fold_to_pulse_frame")),
            "analysis.car_per_herald_bin_self_s":
                self_time("analysis.car_per_herald_bin"),
            "analysis.snr_quantum_s": busy("analysis.snr_quantum"),
            "analysis.snr_classical_s": busy("analysis.snr_classical"),
            "analysis.fit_gaussian_peak_s": busy("analysis.fit_gaussian_peak"),
            "analysis.fit_ms_per_call": 1e3 * ratio(
                busy("analysis.fit_gaussian_peak"),
                calls("analysis.fit_gaussian_peak")),
            "analysis.reconstruct_targets_s":
                busy("analysis.reconstruct_targets"),
            "analysis.randomness_report_s": busy("analysis.randomness_report"),
            "pipeline.simulate_s": busy("pipeline.simulate"),
            "pipeline.simulate_self_s": self_time("pipeline.simulate"),
            "pipeline.analyze_s": busy("pipeline.analyze"),
            "pipeline.analyze_self_s": self_time("pipeline.analyze"),
            "pipeline.sweep_s": busy("pipeline.sweep"),
        }

    def metrics(self, traced_rounds: list, overhead_s: float) -> dict:
        """Median over the traced rounds of each per-layer metric."""
        per_round = [self.round_metrics(r) for r in traced_rounds]
        out = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
        out["trace.overhead_s"] = overhead_s
        return out

    def to_dict(self) -> dict:
        return {"missing": self.missing,
                "spans": [vars(s) for s in self.spans]}


def _covered(span: Span, children: list) -> float:
    """Length of the union of the children's intervals inside the span."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
