import math

import numpy as np
import pytest

from joltlab.errors import (
    NonFiniteValue,
    NonMonotonicTime,
    NonPositiveValue,
    NonUniformGrid,
    ParseError,
    SchemaError,
)
from joltlab.timeseries import (
    TimeSeries,
    log_transform,
    read_csv,
    uniform_spacing,
    validate,
    write_csv,
)


def test_well_formed_series_validates():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    assert validate(s) is s
    assert len(s) == 3


def test_duplicate_timestamp_rejected():
    with pytest.raises(NonMonotonicTime):
        validate(TimeSeries([0, 1, 1], [1, 2, 3]))


def test_decreasing_timestamps_rejected():
    with pytest.raises(NonMonotonicTime):
        validate(TimeSeries([0, 2, 1], [1, 2, 3]))


def test_positivity_violation():
    s = TimeSeries([0, 1], [1, -1])
    validate(s)  # fine without the positivity requirement
    with pytest.raises(NonPositiveValue):
        validate(s, require_positive=True)


def test_non_finite_value_rejected():
    with pytest.raises(NonFiniteValue):
        validate(TimeSeries([0, 1], [1, np.nan]))
    with pytest.raises(NonFiniteValue):
        validate(TimeSeries([0, np.inf], [1, 2]))


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
    assert uniform_spacing(TimeSeries([0, 0.5, 1.0], [1, 1, 1])) == pytest.approx(0.5)


def test_nonuniform_grid_rejected():
    with pytest.raises(NonUniformGrid):
        uniform_spacing(TimeSeries([0, 1, 3], [1, 1, 1]))


def test_nonuniform_grid_message_names_deviation_and_tolerance():
    # a uniform grid shifted by 1e9 keeps its spacing only to float precision
    t = np.linspace(0.0, 20.0, 200) + 1e9
    d = np.diff(t)
    deviation = np.max(np.abs(d - d.mean())) / d.mean()
    with pytest.raises(NonUniformGrid) as info:
        uniform_spacing(TimeSeries(t, np.ones_like(t)))
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
