"""The calls that the benchmark's traced run counts and times still happen.

``perfbench/layers.py`` divides by the number of ``montecarlo.hybrid_detect``
calls a sweep makes, wraps each name of ``perfbench/cold.py``'s
``DETECTOR_PARTS`` in ``joltlab.detector``'s globals to time it inside
``hybrid_detect``, and wraps the ``joltlab.cli`` names its ``_pipeline``
lists to time ``joltlab detect``. A call that bypasses those names would
leave the traced run without its metrics.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from joltlab import cli, detector, montecarlo
from joltlab.detector import DetectorConfig
from joltlab.growth import GridSpec
from joltlab.timeseries import TimeSeries, write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COLD = PERFBENCH / "cold.py"


def _detector_parts():
    """``DETECTOR_PARTS`` as perfbench/cold.py defines it, read without importing it."""
    for node in ast.parse(COLD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "DETECTOR_PARTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{COLD} defines no DETECTOR_PARTS")


def _pipeline_cli_names():
    """The names of the ``(cli, "<name>", ...)`` targets of perfbench/layers.py's
    ``_pipeline``, read without importing it."""
    for node in ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_pipeline":
            return [
                target.elts[1].value for target in ast.walk(node)
                if isinstance(target, ast.Tuple) and len(target.elts) > 1
                and isinstance(target.elts[0], ast.Name) and target.elts[0].id == "cli"
                and isinstance(target.elts[1], ast.Constant)
            ]
    raise AssertionError("perfbench/layers.py defines no _pipeline")


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


def test_detect_calls_each_traced_name_through_the_cli_module(monkeypatch, tmp_path):
    names = _pipeline_cli_names()
    assert "cmd_detect" in names
    called = []
    for name in names:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _name=name, _real=real, **kwargs:
                            called.append(_name) or _real(*args, **kwargs))
    t = np.linspace(0.0, 20.0, 200)
    write_csv(TimeSeries(t, np.exp(0.01 * t**2)), tmp_path / "series.csv")
    assert cli.main(["detect", str(tmp_path / "series.csv"), "--out", str(tmp_path / "out")]) == 0
    assert set(called) == set(names)
