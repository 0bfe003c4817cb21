"""Self-tests of the traced run's wrapping and self-time accounting.

Run from the repository root:  python3 -m pytest benchmark
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from qeplidar import rng  # noqa: E402


def test_missing_function_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        ("qeplidar.pipeline", "no_such_function", "pipeline.gone", None),
        ("qeplidar.no_such_module", "f", "gone.f", None)))
    tracer = tracing.Tracer()
    tracer.install(0)
    tracer.uninstall()
    assert tracer.missing == ["qeplidar.pipeline.no_such_function",
                              "qeplidar.no_such_module.f"]


def test_wrappers_record_counts_and_are_removed():
    original = rng.uniforms
    tracer = tracing.Tracer()
    tracer.install(0)
    assert rng.uniforms is not original
    rng.uniforms(1, [0, 1, 2], 0, 0)
    tracer.uninstall()
    assert rng.uniforms is original
    assert tracer.round_metrics(0)["rng.uniform_draws"] == 3


def test_self_time_subtracts_union_of_children():
    parent = tracing.Span(0, "p", None, 0, 0, 0.0, 10.0)
    kids = [tracing.Span(1, "c", 0, 0, 0, 1.0, 4.0),
            tracing.Span(2, "c", 0, 1, 0, 3.0, 5.0),    # overlaps the first
            tracing.Span(3, "c", 0, 0, 0, 9.0, 12.0)]   # runs past the parent
    assert tracing._covered(parent, kids) == 5.0
