"""The calls that the benchmark's traced run counts and times still happen.

``perfbench/layers.py`` divides by the number of ``montecarlo.hybrid_detect``
calls a sweep makes, and wraps each name of ``perfbench/cold.py``'s
``DETECTOR_PARTS`` in ``joltlab.detector``'s globals to time it inside
``hybrid_detect``. A call that bypasses those names would leave the traced
run without its metrics.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from joltlab import detector, montecarlo
from joltlab.detector import DetectorConfig
from joltlab.growth import GridSpec
from joltlab.timeseries import TimeSeries

COLD = Path(__file__).resolve().parents[1] / "perfbench" / "cold.py"


def _detector_parts():
    """``DETECTOR_PARTS`` as perfbench/cold.py defines it, read without importing it."""
    for node in ast.parse(COLD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "DETECTOR_PARTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{COLD} defines no DETECTOR_PARTS")


def test_sweep_calls_montecarlo_hybrid_detect(monkeypatch):
    real_detect = montecarlo.hybrid_detect
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "hybrid_detect", counted)
    cell = montecarlo.MCCell(detector=DetectorConfig(n_perm=99), n_trials=3,
                             grid=GridSpec(0.0, 20.0, 64))
    report = montecarlo.sweep({"window": [7, 11], "decision_threshold": [0.3, 0.5]},
                              cell, jobs=1)
    assert len(report.cells) == 4
    assert calls >= 1


@pytest.mark.parametrize("rows", [None, 3], ids=["single", "batch"])
def test_hybrid_detect_calls_each_part_through_the_module(monkeypatch, rows):
    parts = _detector_parts()
    assert parts
    called = []
    for name in parts:
        real = getattr(detector, name)
        monkeypatch.setattr(detector, name, lambda *args, _name=name, _real=real, **kwargs:
                            called.append(_name) or _real(*args, **kwargs))
    t = np.linspace(0.0, 20.0, 200)
    series = TimeSeries(t, np.exp(0.01 * t**2))
    if rows is None:
        detector.hybrid_detect(series, DetectorConfig())
    else:
        detector.hybrid_detect([(DetectorConfig(), [series] * rows, list(range(rows)))])
    assert set(called) == set(parts)
