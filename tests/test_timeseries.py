import functools
import math
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joltlab.errors import (
    NonFiniteValue,
    NonMonotonicTime,
    NonPositiveValue,
    NonUniformGrid,
    ParseError,
    SchemaError,
)
from joltlab.cli import main
from joltlab.detector import DetectorConfig
from joltlab.estimation import SavitzkyGolay
from joltlab.growth import GridSpec
from joltlab.montecarlo import MCCell, run_cells
from joltlab.timeseries import (
    GRID_REL_TOL,
    TimeSeries,
    log_transform,
    read_csv,
    write_csv,
)


def test_well_formed_series_validates():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    assert len(s) == 3


def test_duplicate_timestamp_rejected():
    with pytest.raises(NonMonotonicTime):
        TimeSeries([0, 1, 1], [1, 2, 3])


def test_decreasing_timestamps_rejected():
    with pytest.raises(NonMonotonicTime):
        TimeSeries([0, 2, 1], [1, 2, 3])


def test_positivity_violation():
    s = TimeSeries([0, 1], [1, -1])  # fine until ln C is asked for
    with pytest.raises(NonPositiveValue):
        s.log_values


def test_non_finite_value_rejected():
    with pytest.raises(NonFiniteValue):
        TimeSeries([0, 1], [1, np.nan])
    with pytest.raises(NonFiniteValue):
        TimeSeries([0, np.inf], [1, 2])


def test_length_mismatch_rejected():
    with pytest.raises(NonFiniteValue):
        TimeSeries([0, 1, 2], [1, 2])


def test_arrays_are_immutable():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_log_of_ones_is_zero():
    out = log_transform(TimeSeries([0, 1, 2], [1, 1, 1]))
    np.testing.assert_array_equal(out.values, [0, 0, 0])


def test_log_of_exponential_is_linear():
    out = log_transform(TimeSeries([0, 1, 2], [1, math.e, math.e**2]))
    np.testing.assert_allclose(out.values, [0, 1, 2], atol=1e-12)


def test_log_of_half():
    out = log_transform(TimeSeries([0, 1], [1, 0.5]))
    np.testing.assert_allclose(out.values, [0, -0.6931], atol=1e-4)
    assert abs(out.values[1] + math.log(2)) < 1e-9


def test_log_requires_positive():
    with pytest.raises(NonPositiveValue):
        log_transform(TimeSeries([0, 1], [1, 0]))


def test_uniform_spacing():
    assert TimeSeries([0, 0.5, 1.0], [1, 1, 1]).dt == pytest.approx(0.5)


def test_nonuniform_grid_rejected():
    with pytest.raises(NonUniformGrid):
        TimeSeries([0, 1, 3], [1, 1, 1]).dt


def test_nonuniform_grid_message_names_deviation_and_tolerance():
    # a uniform grid shifted by 1e9 keeps its spacing only to float precision
    t = np.linspace(0.0, 20.0, 200) + 1e9
    d = np.diff(t)
    deviation = np.max(np.abs(d - d.mean())) / d.mean()
    with pytest.raises(NonUniformGrid) as info:
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


def test_csv_round_trip(tmp_path):
    t = np.linspace(0, 10, 100)
    s = TimeSeries(t, np.exp(0.3 * t))
    path = tmp_path / "series.csv"
    write_csv(s, path)
    back = read_csv(path)
    np.testing.assert_allclose(back.times, s.times, rtol=1e-12)
    np.testing.assert_allclose(back.values, s.values, rtol=1e-12)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,2\n")
    with pytest.raises(SchemaError):
        read_csv(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0,1\nnope\n")
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert err.value.line == 3


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_csv(path)


# --- the series contract --------------------------------------------------------

_NON_FINITE = {
    "times": (NonFiniteValue, "non-finite timestamp"),
    "values": (NonFiniteValue, "non-finite value in series"),
}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), data=st.data(), column=st.sampled_from(sorted(_NON_FINITE)),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_construction_rejects_a_non_finite_entry_anywhere(n, data, column, bad):
    arrays = {"times": np.arange(n, dtype=float), "values": np.ones(n)}
    arrays[column][data.draw(st.integers(0, n - 1), label="position")] = bad
    error, message = _NON_FINITE[column]
    with pytest.raises(error, match=message):
        TimeSeries(arrays["times"], arrays["values"])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), data=st.data(), back=st.sampled_from([0.0, 0.5, 1.0, 1e6]))
def test_construction_rejects_a_time_that_does_not_increase(n, data, back):
    t = np.arange(n, dtype=float)
    i = data.draw(st.integers(1, n - 1), label="position")
    t[i] = t[i - 1] - back
    with pytest.raises(NonMonotonicTime, match="timestamps must be strictly increasing"):
        TimeSeries(t, np.ones(n))


def _reference_spacing(t: np.ndarray) -> float:
    """Mean spacing by the formula ``dt`` replaced, raising where it raised."""
    if t.size < 2:
        raise NonUniformGrid("need at least two points to define a spacing")
    d = np.diff(t)
    dt = d.mean()
    if float(np.max(np.abs(d - dt))) > GRID_REL_TOL * abs(dt):
        raise NonUniformGrid("grid spacing deviates from uniform")
    return float(dt)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=200),
       t0=st.floats(-1e9, 1e9), step=st.floats(1e-3, 1e6))
def test_dt_and_log_values_match_their_formulas_and_are_read_only(values, t0, step):
    t = t0 + step * np.arange(len(values))
    s = TimeSeries(t, values)
    try:
        expected = _reference_spacing(t)
    except NonUniformGrid:
        with pytest.raises(NonUniformGrid):
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
                              detector=DetectorConfig(n_perm=99, smoother=SavitzkyGolay(w, 2)))
                       for w in windows])
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["dt"] > 0
