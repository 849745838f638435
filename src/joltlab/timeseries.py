"""Canonical time-series container, validation and CSV I/O.

A TimeSeries is the currency of the whole pipeline: a strictly increasing
time grid plus finite capability values. Instances are immutable after
construction and safe to share across threads/processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteValue,
    NonMonotonicTime,
    NonPositiveValue,
    NonUniformGrid,
    ParseError,
    SchemaError,
)

CSV_HEADER = "t,value"


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing time grid with real-valued measurements."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1:
            raise NonFiniteValue("times and values must be one-dimensional")
        if t.size != v.size:
            raise NonFiniteValue(
                f"length mismatch: {t.size} times vs {v.size} values"
            )
        if t.size < 1:
            raise NonFiniteValue("series must contain at least one point")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(self.times, np.asarray(values, dtype=float))


def validate(series: TimeSeries, require_positive: bool = False) -> TimeSeries:
    """Return ``series`` unchanged iff all invariants hold.

    Raises NonMonotonicTime, NonFiniteValue or (when ``require_positive``)
    NonPositiveValue. Idempotent by construction.
    """
    t, v = series.times, series.values
    if not np.all(np.isfinite(t)):
        raise NonFiniteValue("non-finite timestamp")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise NonMonotonicTime("timestamps must be strictly increasing")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("non-finite value in series")
    if require_positive and not np.all(v > 0):
        raise NonPositiveValue("series values must be strictly positive")
    return series


def log_transform(series: TimeSeries) -> TimeSeries:
    """Natural log of the values; times unchanged. Requires values > 0."""
    validate(series, require_positive=True)
    return series.with_values(np.log(series.values))


def uniform_spacing(series: TimeSeries, rel_tol: float = 1e-9) -> float:
    """Mean grid spacing; raises NonUniformGrid beyond ``rel_tol`` relative."""
    t = series.times
    if t.size < 2:
        raise NonUniformGrid("need at least two points to define a spacing")
    d = np.diff(t)
    dt = d.mean()
    worst = float(np.max(np.abs(d - dt)))
    if worst > rel_tol * abs(dt):
        raise NonUniformGrid(
            f"grid spacing deviates from uniform by {worst / abs(dt):.3g} of dt, "
            f"beyond rel_tol {rel_tol:g}"
        )
    return float(dt)


def read_csv(path) -> TimeSeries:
    """Read a ``t,value`` CSV file (see module contract) into a TimeSeries."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file, expected header '{CSV_HEADER}'")
    if lines[0].strip() != CSV_HEADER:
        raise SchemaError(
            f"{path}: missing or malformed header, expected '{CSV_HEADER}'"
        )
    times, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 comma-separated fields", line=lineno)
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not times:
        raise SchemaError(f"{path}: no data records")
    return validate(TimeSeries(np.array(times), np.array(values)))


def write_csv(series: TimeSeries, path) -> None:
    """Write ``series`` as ``t,value`` CSV with LF line endings.

    Values use 17 significant digits so a read/write round trip is exact.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{t:.17g},{v:.17g}\n")
