"""Every spec field's contract, checked at construction: a value outside it
raises a ConfigError naming the field, before any cross-field rule."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joltlab.detector import DetectorConfig
from joltlab.errors import ConfigError
from joltlab.estimation import SavitzkyGolay
from joltlab.growth import (
    Exponential,
    GridSpec,
    InjectedJolt,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    ResourceSchedule,
)
from joltlab.montecarlo import MCCell, TrialMix

NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_NUMBER = st.sampled_from(["", "0.5", "x", None, [1.0]])
NOT_REAL = st.one_of(NOT_FINITE, NOT_NUMBER, st.booleans())
NOT_WHOLE = st.one_of(NOT_FINITE, NOT_NUMBER, st.booleans(),
                      st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
                      st.integers(0, 10**6).map(float))  # a float, however whole


def below(bound, strict=False):
    """Reals under ``bound`` (at it too, unless ``strict``)."""
    return st.floats(max_value=bound, exclude_max=strict, allow_nan=False, allow_infinity=False)


def above(bound, strict=False):
    return st.floats(min_value=bound, exclude_min=strict, allow_nan=False, allow_infinity=False)


def real(bad_range=st.nothing()):
    return st.one_of(NOT_REAL, bad_range)


def whole(ge, le=None):
    above_le = st.nothing() if le is None else st.integers(min_value=le + 1)
    return st.one_of(NOT_WHOLE, st.integers(max_value=ge - 1), above_le)


def reals(n, bad_element):
    """Sequences of ``n`` entries, one of them out of contract, or of
    another length, or not a sequence at all."""
    good = st.floats(0, 1)
    one_bad = st.integers(0, n - 1).flatmap(lambda k: st.tuples(
        *[bad_element if j == k else good for j in range(n)]))
    return st.one_of(one_bad, st.lists(good, max_size=5).filter(lambda x: len(x) != n),
                     st.floats(0, 1))


UNIT_OPEN = real(st.one_of(below(0.0), above(1.0)))
PAIR = st.one_of(
    reals(2, st.one_of(NOT_FINITE, NOT_NUMBER)),
    st.tuples(above(0.0, strict=True), st.just(0.0)),  # lo > hi
)

# per spec: a factory from keyword arguments, and per contracted field the
# values its contract refuses
SPECS = {
    "GridSpec": (GridSpec, {
        "t_start": real(), "t_end": real(), "n_points": whole(8, le=100_000)}),
    "NoiseSpec": (lambda **kw: NoiseSpec(**{"level": "low", **kw}), {
        "level": st.one_of(st.just(""), NOT_FINITE, st.booleans(), st.integers()),
        "sigma_rel": st.one_of(NOT_FINITE, st.sampled_from(["", "0.5", [1.0]]), st.booleans(),
                               below(0.0, strict=True)),
        "seed": whole(0)}),
    "Exponential": (Exponential, {
        "c0": real(below(0.0)), "k": real()}),
    "Logistic": (Logistic, {
        "l": real(below(0.0)), "r": real(below(0.0)), "t0": real()}),
    "LogQuadratic": (LogQuadratic, {
        "c0": real(below(0.0)), "a": real(), "b": real()}),
    "InjectedJolt": (InjectedJolt, {
        "jolt_start": real(), "jolt_end": real(),
        "ramp_strength": real(below(0.0, strict=True))}),
    "ResourceSchedule": (
        lambda **kw: ResourceSchedule(**{"times": np.arange(3.0), "utilization": np.zeros(3),
                                         "r_max": 1.0, **kw}),
        {"r_max": real(below(0.0))}),
    "TrialMix": (TrialMix, {
        **{name: PAIR for name in ("b_range", "k_range", "r_range", "t0_range",
                                   "ramp_strength_range", "ramp_start_range",
                                   "ramp_len_range")},
        "logistic_l": real(below(0.0)),
        "injected_fraction": real(st.one_of(below(0.0, strict=True), above(1.0, strict=True))),
        "logistic_fraction": real(st.one_of(below(0.0, strict=True), above(1.0, strict=True))),
    }),
    "MCCell": (lambda **kw: MCCell(detector=DetectorConfig(n_perm=99), **kw), {
        "n_trials": whole(1, le=100_000), "master_seed": whole(0)}),
    "DetectorConfig": (DetectorConfig, {
        "window": whole(5).filter(lambda x: x is not None),  # null: the default for n
        "poly_order": whole(2),
        "threshold_peak": real(below(0.0)),
        "min_duration_frac": real(st.one_of(below(0.0), above(1.0, strict=True))),
        "combine_weights": reals(3, st.one_of(NOT_FINITE, NOT_NUMBER, below(0.0, strict=True))),
        "decision_threshold": UNIT_OPEN,
        "n_perm": whole(99, le=10_000),
        "alpha_sig": UNIT_OPEN,
        "seed": whole(0)}),
    "SavitzkyGolay": (SavitzkyGolay, {
        "window": whole(5), "poly_order": whole(0)}),
}
FIELDS = [(spec, name) for spec, (_, fields) in SPECS.items() for name in fields]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_value_outside_its_field_contract_is_refused_naming_the_field(data):
    spec, name = data.draw(st.sampled_from(FIELDS), label="field")
    build, fields = SPECS[spec]
    value = data.draw(fields[name], label=name)
    with pytest.raises(ConfigError, match=rf"\b{name} must \w") as info:
        build(**{name: value})
    assert str(info.value).endswith(f", got {value!r}")


def test_every_spec_builds_from_its_defaults():
    # the bad values above are bad for the field's contract, not for want of
    # another field
    for build, _ in SPECS.values():
        build()


@pytest.mark.parametrize("build, named", [
    (lambda: Exponential(c0=math.nan), "Exponential c0 must be a finite number, got nan"),
    (lambda: Logistic(l=math.nan), "Logistic l must be a finite number, got nan"),
    (lambda: LogQuadratic(b=math.nan), "LogQuadratic b must be a finite number, got nan"),
    (lambda: InjectedJolt(ramp_strength=math.nan),
     "InjectedJolt ramp_strength must be a finite number, got nan"),
    (lambda: GridSpec(t_end=True), "grid t_end must be a finite number, got True"),
    (lambda: NoiseSpec(sigma_rel=True), "noise sigma_rel must be a finite number, got True"),
    (lambda: TrialMix(injected_fraction=True),
     "mc injected_fraction must be a finite number, got True"),
    (lambda: ResourceSchedule(np.arange(3.0), np.zeros(3), r_max=math.nan),
     "ResourceSchedule r_max must be a finite number, got nan"),
    (lambda: DetectorConfig(decision_threshold="0.5"),
     "detector decision_threshold must be a finite number, got '0.5'"),
    # an int past float range raised OverflowError in the finiteness check
    (lambda: Exponential(c0=10**400), "Exponential c0 must be a finite number"),
    (lambda: TrialMix(k_range=(0.03, 10**400)), "mc k_range must be two finite numbers lo <= hi"),
    (lambda: DetectorConfig(combine_weights=(10**400, 0, 0)),
     "detector combine_weights must be 3 finite numbers >= 0"),
    # a SavitzkyGolay(7, 1) smoother failed in the detection signal, naming no field
    (lambda: DetectorConfig(poly_order=1), "detector poly_order must be >= 2, got 1"),
], ids=["Exponential c0", "Logistic l", "LogQuadratic b", "InjectedJolt ramp_strength",
        "GridSpec t_end", "NoiseSpec sigma_rel", "TrialMix injected_fraction",
        "ResourceSchedule r_max", "DetectorConfig decision_threshold",
        "Exponential c0 past float", "TrialMix k_range past float",
        "DetectorConfig combine_weights past float", "DetectorConfig poly_order 1"])
def test_values_that_once_passed_construction_are_refused(build, named):
    # each of these was built, and failed later or ran on: NaN rates blamed
    # the trajectory's sign, a string threshold raised a bare TypeError
    with pytest.raises(ConfigError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("kwargs, named", [
    ({"window": 21.0}, "SavitzkyGolay window must be a whole number, got 21.0"),
    ({"window": math.nan}, "SavitzkyGolay window must be a whole number, got nan"),
    ({"poly_order": True}, "SavitzkyGolay poly_order must be a whole number, got True"),
    ({"window": 12}, "SavitzkyGolay needs an odd window and poly_order < window, "
                     "got window 12, poly_order 4"),
    ({"window": 5, "poly_order": 5}, "SavitzkyGolay needs an odd window and poly_order < window, "
                                     "got window 5, poly_order 5"),
])
def test_savgol_names_the_field_at_fault(kwargs, named):
    # a NaN window blamed poly_order, and a float one failed in the detection
    with pytest.raises(ConfigError, match=re.escape(named)):
        SavitzkyGolay(**kwargs)


def test_a_set_detector_window_keeps_the_smoother_rule():
    # SavitzkyGolay's rule on a set window; a null one follows n, whatever the order
    for window, poly_order in ((12, 2), (5, 5)):
        with pytest.raises(ConfigError, match=f"got window {window}, poly_order {poly_order}"):
            DetectorConfig(window=window, poly_order=poly_order)
    assert DetectorConfig(window=5, poly_order=4).smoother == SavitzkyGolay(5, 4)
    assert DetectorConfig(poly_order=6).smoother is None


def test_bools_count_as_weights_and_numpy_scalars_pass():
    assert DetectorConfig(combine_weights=(True, False, False)).combine_weights[0] is True
    assert SavitzkyGolay(np.int64(7), np.int32(2)).window == 7
    assert NoiseSpec(sigma_rel=np.float32(0.5), seed=np.uint64(1)).sigma == 0.5
    assert TrialMix(k_range=np.array([0.01, 0.02]), logistic_l=np.float64(3.0)).logistic_l == 3.0
