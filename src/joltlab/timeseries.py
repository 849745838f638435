"""Canonical time-series container and CSV I/O.

A TimeSeries is the currency of the whole pipeline and owns its contract.
Construction rejects non-finite times or values (NonFiniteValue) and times
that do not strictly increase (NonMonotonicTime). Cached read-only properties
give the grid spacing ``dt`` (else NonUniformGrid) and ln C, ``log_values``
(else NonPositiveValue), once per series. Instances are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

GRID_REL_TOL = 1e-9  # largest deviation of a step from dt, relative to dt


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing time grid with finite real-valued measurements."""

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
        if not np.all(np.isfinite(t)):
            raise NonFiniteValue("non-finite timestamp")
        if not np.all(np.diff(t) > 0):
            raise NonMonotonicTime("timestamps must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("non-finite value in series")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size

    @cached_property
    def dt(self) -> float:
        """Mean grid spacing; raises NonUniformGrid beyond ``GRID_REL_TOL``."""
        if self.times.size < 2:
            raise NonUniformGrid("need at least two points to define a spacing")
        d = np.diff(self.times)
        dt = d.mean()
        worst = float(np.max(np.abs(d - dt)))
        if worst > GRID_REL_TOL * dt:
            raise NonUniformGrid(
                f"grid spacing deviates from uniform by {worst / dt:.3g} of dt, "
                f"beyond rel_tol {GRID_REL_TOL:g}"
            )
        return float(dt)

    @cached_property
    def log_values(self) -> np.ndarray:
        """Read-only ln C; raises NonPositiveValue unless every value is > 0."""
        if not np.all(self.values > 0):
            raise NonPositiveValue("series values must be strictly positive")
        logv = np.log(self.values)
        logv.setflags(write=False)
        return logv

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(self.times, np.asarray(values, dtype=float))


def log_transform(series: TimeSeries) -> TimeSeries:
    """Natural log of the values; times unchanged. Requires values > 0."""
    return series.with_values(series.log_values)


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
    return TimeSeries(np.array(times), np.array(values))


def write_csv(series: TimeSeries, path) -> None:
    """Write ``series`` as ``t,value`` CSV with LF line endings.

    Values use 17 significant digits so a read/write round trip is exact.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{t:.17g},{v:.17g}\n")
