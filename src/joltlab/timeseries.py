"""Canonical time-series container, CSV I/O and the format of every output.

A TimeSeries is the currency of the whole pipeline and owns its contract.
Construction raises a DataError for times and values that are not two 1-D
arrays of one non-zero length, non-finite times or values and times that do
not strictly increase. Cached read-only properties give the grid spacing
``dt`` and ln C, ``log_values``, once per series; each raises a DataError
for a grid that is not uniform or whose step is outside ``DT_RANGE``, and
for a value that is not positive. Instances are immutable: a writable input
array is copied, so the caller's stays writable. A malformed CSV file raises
a ParseError, and one of more than ``MAX_POINTS`` records a DataError.

Every file joltlab writes goes through the three writers at the end of this
module, so each is UTF-8 with LF line endings: ``write_table`` formats a
header and one line per row, ``write_exact`` writes float columns with 17
significant digits (a read back is exact; a bool column writes 1/0), and
``write_json`` writes sorted keys indented by 2, with a final newline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ParseError

CSV_HEADER = "t,value"

GRID_REL_TOL = 1e-9  # largest deviation of a step from dt, relative to dt
# the time steps a result holds for in any time unit: a third derivative
# divides by dt**3, which stays within float range for these
DT_RANGE = (1e-30, 1e30)
# the most points of a series read or generated: a default detection holds
# about 1.6 KB a point (n_perm 499, window n/10), 160 MB at the ceiling
MAX_POINTS = 100_000


def _read_only(x) -> np.ndarray:
    """``x`` as a read-only float array: a copy unless ``x`` is read-only."""
    a = np.asarray(x, dtype=float)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing time grid with finite real-valued measurements."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _read_only(self.times)
        v = _read_only(self.values)
        if t.ndim != 1 or v.ndim != 1:
            raise DataError("times and values must be one-dimensional")
        if t.size != v.size:
            raise DataError(
                f"length mismatch: {t.size} times vs {v.size} values"
            )
        if t.size < 1:
            raise DataError("series must contain at least one point")
        if not np.all(np.isfinite(t)):
            raise DataError("non-finite timestamp")
        if not np.all(np.diff(t) > 0):
            raise DataError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise DataError("non-finite value in series")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.times.size

    @cached_property
    def dt(self) -> float:
        """Mean grid spacing; raises a DataError for a mean outside
        ``DT_RANGE``, or for a step beyond ``GRID_REL_TOL`` of it."""
        if self.times.size < 2:
            raise DataError("need at least two points to define a spacing")
        d = np.diff(self.times)
        dt = d.mean()
        if not DT_RANGE[0] <= dt <= DT_RANGE[1]:
            raise DataError(f"time step {dt:g} is outside [{DT_RANGE[0]:g}, {DT_RANGE[1]:g}]")
        worst = float(np.max(np.abs(d - dt)))
        if worst > GRID_REL_TOL * dt:
            raise DataError(
                f"grid spacing deviates from uniform by {worst / dt:.3g} of dt, "
                f"beyond rel_tol {GRID_REL_TOL:g}"
            )
        return float(dt)

    @cached_property
    def log_values(self) -> np.ndarray:
        """Read-only ln C; raises a DataError unless every value is > 0."""
        if not np.all(self.values > 0):
            raise DataError("series values must be strictly positive")
        logv = np.log(self.values)
        logv.setflags(write=False)
        return logv

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(self.times, np.asarray(values, dtype=float))


def read_csv(path) -> TimeSeries:
    """Read a ``t,value`` CSV file (see module contract) into a TimeSeries.
    A UTF-8 byte-order mark, as spreadsheet tools write one, is skipped."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected header '{CSV_HEADER}'")
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(
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
        raise ParseError(f"{path}: no data records")
    if len(times) > MAX_POINTS:
        raise DataError(f"{path}: {len(times)} data records exceed the ceiling of {MAX_POINTS}")
    return TimeSeries(np.array(times), np.array(values))


def write_csv(series: TimeSeries, path) -> None:
    """Write ``series`` as exact ``t,value`` CSV (see ``write_exact``)."""
    write_exact(path, CSV_HEADER, series.times, series.values)


def write_table(path, header: str, rows, row_format: str) -> None:
    """Write ``header`` and then ``row_format.format(*row)`` for each of
    ``rows``, one line each, UTF-8 with LF line endings."""
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line.format(*row) for row in rows)


def write_exact(path, header: str, *columns) -> None:
    """Write equal-length columns as CSV rows with 17 significant digits, so
    a read back gives the same floats; a bool column writes as 1/0."""
    row_format = ",".join(["{:.17g}"] * len(columns))
    write_table(path, header, zip(*(np.asarray(c).tolist() for c in columns)), row_format)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys, indented by 2, and a final
    newline, UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
