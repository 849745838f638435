import functools
import math
import re
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from joltlab.errors import ConfigError, DataError, ParseError
from joltlab.cli import main
from joltlab.detector import DetectorConfig
from joltlab.estimation import DERIVATIVE_CSV_HEADER, DerivativeEstimate
from joltlab.growth import GridSpec
from joltlab.metrics import METRICS_CSV_HEADER, JoltMetrics
from joltlab.montecarlo import MCCell, run_cells
from joltlab.timeseries import (
    DT_RANGE,
    GRID_REL_TOL,
    MAX_POINTS,
    TimeSeries,
    read_csv,
    write_csv,
)


def test_well_formed_series_validates():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    assert len(s) == 3


def test_duplicate_timestamp_rejected():
    with pytest.raises(DataError, match="timestamps must be strictly increasing"):
        TimeSeries([0, 1, 1], [1, 2, 3])


def test_decreasing_timestamps_rejected():
    with pytest.raises(DataError, match="timestamps must be strictly increasing"):
        TimeSeries([0, 2, 1], [1, 2, 3])


def test_positivity_violation():
    s = TimeSeries([0, 1], [1, -1])  # fine until ln C is asked for
    with pytest.raises(DataError, match="series values must be strictly positive"):
        s.log_values


def test_non_finite_value_rejected():
    with pytest.raises(DataError, match="non-finite value in series"):
        TimeSeries([0, 1], [1, np.nan])
    with pytest.raises(DataError, match="non-finite timestamp"):
        TimeSeries([0, np.inf], [1, 2])


def test_length_mismatch_rejected():
    with pytest.raises(DataError, match="length mismatch: 3 times vs 2 values"):
        TimeSeries([0, 1, 2], [1, 2])


@pytest.mark.parametrize("times, values, message", [
    ([[0, 1], [2, 3]], [[1, 2], [3, 4]], "one-dimensional"),
    ([], [], "at least one point"),
])
def test_bad_shape_rejected_as_data_error(times, values, message):
    # a DataError, so the CLI exits 3
    with pytest.raises(DataError, match=message):
        TimeSeries(times, values)


def test_arrays_are_immutable():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_callers_arrays_stay_writable():
    t, v = np.arange(5.0), np.ones(5)
    s = TimeSeries(t, v)
    v[0] = 2
    t[0] = -1
    assert s.values[0] == 1.0 and s.times[0] == 0.0


def test_read_only_arrays_are_shared():
    s = TimeSeries(np.arange(5.0), np.ones(5))
    moved = s.with_values(s.log_values)
    assert moved.times is s.times and moved.values is s.log_values


def _log_series(series):
    """ln C on the same grid, as the detector and the estimators read it."""
    return series.with_values(series.log_values)


def test_log_of_ones_is_zero():
    out = _log_series(TimeSeries([0, 1, 2], [1, 1, 1]))
    np.testing.assert_array_equal(out.values, [0, 0, 0])


def test_log_of_exponential_is_linear():
    out = _log_series(TimeSeries([0, 1, 2], [1, math.e, math.e**2]))
    np.testing.assert_allclose(out.values, [0, 1, 2], atol=1e-12)


def test_log_of_half():
    out = _log_series(TimeSeries([0, 1], [1, 0.5]))
    np.testing.assert_allclose(out.values, [0, -0.6931], atol=1e-4)
    assert abs(out.values[1] + math.log(2)) < 1e-9


def test_log_requires_positive():
    # zero is the boundary case; test_positivity_violation covers a negative
    with pytest.raises(DataError, match="series values must be strictly positive"):
        _log_series(TimeSeries([0, 1], [1, 0]))


def test_uniform_spacing():
    assert TimeSeries([0, 0.5, 1.0], [1, 1, 1]).dt == pytest.approx(0.5)


def test_nonuniform_grid_rejected():
    with pytest.raises(DataError, match="grid spacing deviates from uniform"):
        TimeSeries([0, 1, 3], [1, 1, 1]).dt


@pytest.mark.parametrize("step", [DT_RANGE[0], 1.0, DT_RANGE[1]])
def test_a_step_within_the_stated_range_is_taken(step):
    assert TimeSeries(step * np.arange(40.0), np.ones(40)).dt == pytest.approx(step)


@pytest.mark.parametrize("step, shown", [(1e103, "1e+103"), (1e-31, "1e-31"), (1e31, "1e+31")])
def test_a_step_outside_the_stated_range_is_a_data_error_naming_it(step, shown):
    series = TimeSeries(step * np.arange(40.0), np.ones(40))
    with pytest.raises(DataError, match=re.escape(f"time step {shown} is outside [1e-30, 1e+30]")):
        series.dt


def test_nonuniform_grid_message_names_deviation_and_tolerance():
    # a uniform grid shifted by 1e9 keeps its spacing only to float precision
    t = np.linspace(0.0, 20.0, 200) + 1e9
    d = np.diff(t)
    deviation = np.max(np.abs(d - d.mean())) / d.mean()
    with pytest.raises(DataError) as info:
        TimeSeries(t, np.ones_like(t)).dt
    message = str(info.value)
    assert f"by {deviation:.3g} of dt" in message
    assert "rel_tol 1e-09" in message


def test_read_csv_direct_parse(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,value\n0,1\n1,2\n")
    s = read_csv(path)
    np.testing.assert_array_equal(s.times, [0, 1])
    np.testing.assert_array_equal(s.values, [1, 2])


def test_read_csv_takes_max_points_records_and_no_more(tmp_path):
    # the one ceiling on a series' length, which GridSpec.n_points reads too
    n_points = GridSpec.__dataclass_fields__["n_points"].metadata["contract"]
    assert n_points(MAX_POINTS) is None and n_points(MAX_POINTS + 1) == f"be <= {MAX_POINTS}"
    path = tmp_path / "in.csv"
    path.write_text("t,value\n" + "".join(f"{i},2\n" for i in range(MAX_POINTS)))
    assert len(read_csv(path)) == MAX_POINTS
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{MAX_POINTS},2\n")
    with pytest.raises(DataError, match=f"{MAX_POINTS + 1} data records exceed the ceiling"):
        read_csv(path)


def test_csv_round_trip(tmp_path):
    t = np.linspace(0, 10, 100)
    s = TimeSeries(t, np.exp(0.3 * t))
    path = tmp_path / "series.csv"
    write_csv(s, path)
    back = read_csv(path)
    np.testing.assert_allclose(back.times, s.times, rtol=1e-12)
    np.testing.assert_allclose(back.values, s.values, rtol=1e-12)


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet tools save UTF-8 CSVs with a byte-order mark before the header
    t = np.linspace(0.0, 20.0, 200)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(TimeSeries(t, np.exp(0.01 * t**2)), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = read_csv(marked), read_csv(plain)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.values, want.values)
    assert main(["detect", str(marked), "--out", str(tmp_path / "out")]) == 0


# the per-row loops that wrote derivatives.csv and metrics.csv before both
# went through write_exact; the shared writer must give their exact bytes

def _row_loop_derivatives(d, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DERIVATIVE_CSV_HEADER + "\n")
        for i in range(d.times.size):
            fh.write(
                f"{d.times[i]:.17g},{d.c[i]:.17g},{d.c1[i]:.17g},"
                f"{d.c2[i]:.17g},{d.c3[i]:.17g},{d.c3_lo[i]:.17g},"
                f"{d.c3_hi[i]:.17g},{int(d.edge_mask[i])}\n"
            )


def _row_loop_metrics(m, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_CSV_HEADER + "\n")
        for i in range(m.times.size):
            fh.write(
                f"{m.times[i]:.17g},{m.jolt[i]:.17g},"
                f"{m.jolt_dimensionless[i]:.17g},{m.alpha[i]:.17g},"
                f"{m.doubling_time[i]:.17g},{int(m.singular_mask[i])}\n"
            )


# any float64, with NaN, infinities, signed zeros and subnormals drawn often
_ANY_FLOAT = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 40))
def test_per_point_writers_match_the_row_loop(tmp_path_factory, data, n):
    floats = [data.draw(arrays(np.float64, n, elements=_ANY_FLOAT)) for _ in range(7)]
    mask = data.draw(arrays(np.bool_, n))
    out = tmp_path_factory.mktemp("writers")
    for obj, reference in [
        (DerivativeEstimate(*floats, mask), _row_loop_derivatives),
        (JoltMetrics(*floats[:5], mask), _row_loop_metrics),
    ]:
        got, want = out / "got.csv", out / "want.csv"
        obj.write_csv(got)
        reference(obj, want)
        assert got.read_bytes() == want.read_bytes()


def test_write_csv_round_trip_is_byte_identical(tmp_path):
    t = np.linspace(0.0, 20.0, 200)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(TimeSeries(t, np.exp(0.01 * t**2) * (1 + 1e-3 * np.sin(7 * t))), first)
    write_csv(read_csv(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,2\n")
    with pytest.raises(ParseError, match="missing or malformed header"):
        read_csv(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0,1\nnope\n")
    with pytest.raises(ParseError, match="line 3: ") as err:
        read_csv(path)
    assert err.value.line == 3
    assert isinstance(err.value, ConfigError)  # a malformed file exits 2


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        read_csv(path)


# --- the series contract --------------------------------------------------------

_NON_FINITE = {"times": "non-finite timestamp", "values": "non-finite value in series"}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), data=st.data(), column=st.sampled_from(sorted(_NON_FINITE)),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_construction_rejects_a_non_finite_entry_anywhere(n, data, column, bad):
    arrays = {"times": np.arange(n, dtype=float), "values": np.ones(n)}
    arrays[column][data.draw(st.integers(0, n - 1), label="position")] = bad
    with pytest.raises(DataError, match=_NON_FINITE[column]):
        TimeSeries(arrays["times"], arrays["values"])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), data=st.data(), back=st.sampled_from([0.0, 0.5, 1.0, 1e6]))
def test_construction_rejects_a_time_that_does_not_increase(n, data, back):
    t = np.arange(n, dtype=float)
    i = data.draw(st.integers(1, n - 1), label="position")
    t[i] = t[i - 1] - back
    with pytest.raises(DataError, match="timestamps must be strictly increasing"):
        TimeSeries(t, np.ones(n))


def _reference_spacing(t: np.ndarray) -> float:
    """Mean spacing by the formula ``dt`` replaced, raising where it raised."""
    if t.size < 2:
        raise DataError("need at least two points to define a spacing")
    d = np.diff(t)
    dt = d.mean()
    if float(np.max(np.abs(d - dt))) > GRID_REL_TOL * abs(dt):
        raise DataError("grid spacing deviates from uniform")
    return float(dt)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=200),
       t0=st.floats(-1e9, 1e9), step=st.floats(1e-3, 1e6))
def test_dt_and_log_values_match_their_formulas_and_are_read_only(values, t0, step):
    t = t0 + step * np.arange(len(values))
    s = TimeSeries(t, values)
    try:
        expected = _reference_spacing(t)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            s.dt
    else:
        assert s.dt == expected
        with pytest.raises(FrozenInstanceError):
            s.dt = 2 * expected
        assert s.dt == expected
    assert s.log_values.tobytes() == np.log(np.asarray(values)).tobytes()
    assert s.log_values is s.log_values
    with pytest.raises(ValueError):
        s.log_values[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        s.log_values = np.zeros(len(values))


def _count_computations(monkeypatch, calls: Counter) -> None:
    """Count in ``calls`` each computation of ``dt`` and ``log_values``."""
    for name in ("dt", "log_values"):
        compute = getattr(TimeSeries, name).func

        def spy(self, name=name, compute=compute):
            calls[name] += 1
            return compute(self)

        prop = functools.cached_property(spy)
        prop.__set_name__(TimeSeries, name)
        monkeypatch.setattr(TimeSeries, name, prop)


def test_detect_takes_log_and_spacing_once_per_series(tmp_path, monkeypatch):
    t = np.linspace(0.0, 20.0, 200)
    path = tmp_path / "series.csv"
    write_csv(TimeSeries(t, np.exp(0.01 * t**2)), path)
    calls = Counter()
    _count_computations(monkeypatch, calls)
    # the signal, the permutation test and the derivative estimates share them
    assert main(["detect", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"dt": 1, "log_values": 1}


def test_detections_of_one_series_share_its_log_and_spacing(monkeypatch):
    # one window or four, the trials generate the same series, and every
    # detection of a series reuses the log C and dt computed for it
    counts = []
    for windows in ((11,), (7, 11, 15, 21)):
        calls = Counter()
        with monkeypatch.context() as patch:
            _count_computations(patch, calls)
            run_cells([MCCell(noise="low", n_trials=2, grid=GridSpec(n_points=100),
                              detector=DetectorConfig(n_perm=99, window=w))
                       for w in windows])
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["dt"] > 0
