import logging
import math
import os
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from joltlab import montecarlo
from joltlab.detector import DETECTION_POLY_ORDER, DetectorConfig, hybrid_detect
from joltlab.errors import (
    BudgetExceeded,
    EmptyCell,
    InvalidSpec,
    NumericalError,
    SeriesTooShort,
    WindowTooLarge,
)
from joltlab.estimation import SavitzkyGolay
from joltlab.growth import (
    Exponential,
    GridSpec,
    InjectedJolt,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    generate,
)
from joltlab.montecarlo import (
    CellResult,
    ConfusionCounts,
    MCCell,
    TrialMix,
    _outcomes,
    _tally,
    apply_axes,
    best_configuration,
    run_cell,
    run_cells,
    sample_trial_spec,
    summarize,
    sweep,
    sweeps,
    wilson_interval,
    write_heatmap,
    write_table1,
)

FAST = DetectorConfig(n_perm=99)


def small_cell(**kw):
    defaults = dict(
        noise="low",
        detector=FAST,
        n_trials=20,
        master_seed=7,
        grid=GridSpec(0.0, 20.0, 100),
    )
    defaults.update(kw)
    return MCCell(**defaults)


# --- rate arithmetic ----------------------------------------------------------

def test_rate_arithmetic():
    r = summarize(ConfusionCounts(tp=95, fn=5, fp=5, tn=95))
    assert r.tpr == pytest.approx(0.95)
    assert r.fpr == pytest.approx(0.05)
    assert r.accuracy == pytest.approx(0.95)
    assert r.error_rate == pytest.approx(0.05)


def test_rate_arithmetic_medium_row():
    r = summarize(ConfusionCounts(tp=92, fn=8, fp=8, tn=92))
    assert r.tpr == pytest.approx(0.92)
    assert r.fpr == pytest.approx(0.08)


def test_empty_cell_rejected():
    with pytest.raises(EmptyCell):
        summarize(ConfusionCounts(tp=0, fn=0, fp=5, tn=95))


def test_wilson_interval_contains_point():
    lo, hi = wilson_interval(95, 100)
    assert lo < 0.95 < hi
    assert 0.0 <= lo and hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


# --- degenerate detectors via tallying ----------------------------------------

def test_always_positive_detector():
    outcomes = {
        True: (np.ones(50), np.zeros(50)),
        False: (np.ones(50), np.zeros(50)),
    }
    r = summarize(_tally(outcomes, DetectorConfig()))
    assert r.tpr == 1.0 and r.fpr == 1.0


def test_always_negative_detector():
    outcomes = {
        True: (np.zeros(50), np.ones(50)),
        False: (np.zeros(50), np.ones(50)),
    }
    r = summarize(_tally(outcomes, DetectorConfig()))
    assert r.tpr == 0.0 and r.fpr == 0.0


# --- trial sampling -----------------------------------------------------------

def test_sample_trial_spec_families_and_determinism():
    cell = small_cell(n_trials=50)
    pos_families = set()
    neg_families = set()
    for i in range(50):
        spec, _ = sample_trial_spec(cell, True, i)
        pos_families.add(type(spec.family))
        assert spec.label is True
        spec, _ = sample_trial_spec(cell, False, i)
        neg_families.add(type(spec.family))
        assert spec.label is False
    assert pos_families == {LogQuadratic, InjectedJolt}
    assert neg_families == {Exponential, Logistic}
    a = sample_trial_spec(cell, True, 3)
    b = sample_trial_spec(cell, True, 3)
    assert a == b


def test_trial_seeds_differ_across_indices():
    cell = small_cell()
    seeds = {sample_trial_spec(cell, True, i)[1] for i in range(20)}
    assert len(seeds) == 20


# --- cell execution -----------------------------------------------------------

def test_run_cell_deterministic_and_schedule_invariant():
    cell = small_cell()
    serial = run_cell(cell, jobs=1)
    parallel = run_cell(cell, jobs=4)
    assert serial == parallel
    assert serial == run_cell(cell, jobs=1)


def test_run_cell_counts_partition_trials():
    cell = small_cell()
    c = run_cell(cell)
    assert c.tp + c.fn == cell.n_trials
    assert c.fp + c.tn == cell.n_trials


def test_trial_mix_with_list_ranges():
    # a TrialMix built in code may hold lists where the CLI builds tuples
    mix = TrialMix(k_range=[0.03, 0.12], b_range=[0.005, 0.02])
    assert run_cell(small_cell(mix=mix)) == run_cell(small_cell())


@pytest.mark.parametrize("kwargs, named", [
    ({"k_range": (0.03, math.inf)}, "k_range must be two finite numbers lo <= hi, got (0.03, inf)"),
    ({"k_range": (0.03,)}, "k_range must be two finite numbers lo <= hi, got (0.03,)"),
    ({"b_range": (0.02, 0.005)}, "b_range must be two finite numbers lo <= hi"),
    ({"t0_range": (math.nan, 12.0)}, "t0_range must be two finite numbers lo <= hi"),
    ({"ramp_len_range": ("4", "8")}, "ramp_len_range must be two finite numbers lo <= hi"),
    ({"r_range": 1.0}, "r_range must be two finite numbers lo <= hi, got 1.0"),
    ({"injected_fraction": 1.5}, "injected_fraction must lie in [0, 1], got 1.5"),
    ({"logistic_fraction": -0.1}, "logistic_fraction must lie in [0, 1], got -0.1"),
    ({"logistic_fraction": math.nan}, "logistic_fraction must lie in [0, 1], got nan"),
    ({"logistic_l": -1.0}, "logistic_l must be a finite number > 0, got -1.0"),
    ({"logistic_l": math.inf}, "logistic_l must be a finite number > 0, got inf"),
])
def test_trial_mix_rejects_bad_ranges_and_fractions(kwargs, named):
    # an infinite bound raised OverflowError and a one-element range
    # IndexError, each from inside the trials
    with pytest.raises(InvalidSpec, match=re.escape(named)):
        TrialMix(**kwargs)


def test_trial_mix_takes_point_ranges_and_end_fractions():
    mix = TrialMix(k_range=(0.05, 0.05), injected_fraction=0.0, logistic_fraction=1.0)
    assert mix.k_range == (0.05, 0.05)


def test_numeric_noise_level():
    cell = small_cell(noise=0.02)
    c = run_cell(cell)
    assert c.tp + c.fn == cell.n_trials


def test_cell_resolves_default_smoother_for_its_grid():
    assert MCCell().detector.smoother == SavitzkyGolay(21, DETECTION_POLY_ORDER)
    assert small_cell().detector.smoother == SavitzkyGolay(11, DETECTION_POLY_ORDER)
    own = DetectorConfig(smoother=SavitzkyGolay(7, 3), n_perm=99)
    assert small_cell(detector=own).detector == own


def test_cell_on_grid_below_default_window_rejected():
    # trials on a grid under 11 points could not resolve a smoother; the
    # cell says so at construction instead of failing every trial
    with pytest.raises(SeriesTooShort, match="10 points"):
        small_cell(grid=GridSpec(0.0, 20.0, 10))


@pytest.mark.parametrize("build, named", [
    (lambda: DetectorConfig(seed=-1), "seed must be >= 0, got -1"),
    (lambda: NoiseSpec(level="low", seed=-1), "noise seed must be >= 0, got -1"),
    (lambda: small_cell(master_seed=-1), "master_seed must be >= 0, got -1"),
    (lambda: run_cell(small_cell(), jobs=0), "jobs must be >= 1, got 0"),
], ids=["DetectorConfig.seed", "NoiseSpec.seed", "MCCell.master_seed", "run_cell.jobs"])
def test_negative_seed_or_no_jobs_rejected(build, named):
    with pytest.raises(InvalidSpec, match=named):
        build()


@pytest.mark.parametrize("build, named", [
    (lambda: small_cell(n_trials=2.5), "n_trials must be a whole number, got 2.5"),
    (lambda: small_cell(n_trials=True), "n_trials must be a whole number, got True"),
    (lambda: small_cell(master_seed=1.5), "master_seed must be a whole number, got 1.5"),
    (lambda: small_cell(master_seed=math.nan), "master_seed must be a whole number, got nan"),
    (lambda: NoiseSpec(level="low", seed=1.5), "noise seed must be a whole number, got 1.5"),
    (lambda: NoiseSpec(level="low", seed=math.nan), "noise seed must be a whole number, got nan"),
])
def test_seed_or_trial_count_that_is_not_a_whole_number_rejected(build, named):
    # each passed construction, then raised TypeError from the trial loop
    # or from SeedSequence, or (nan) ran on
    with pytest.raises(InvalidSpec, match=named):
        build()
    assert small_cell(n_trials=np.int64(2), master_seed=np.uint64(3)).n_trials == 2


def _reference_outcomes(cells):
    """Per cell, (scores, p_values) per class, one detection at a time."""
    outcomes = []
    for cell in cells:
        per_class = {}
        for is_positive in (True, False):
            rows = []
            for i in range(cell.n_trials):
                spec, det_seed = sample_trial_spec(cell, is_positive, i)
                series, _label = generate(spec)
                result = hybrid_detect(series, replace(cell.detector, seed=det_seed))
                rows.append((result.score, result.p_value))
            per_class[is_positive] = (np.array([r[0] for r in rows]),
                                      np.array([r[1] for r in rows]))
        outcomes.append(per_class)
    return outcomes


def _mixed_cells():
    """2 noise levels x 2 windows of unequal trial counts, and one cell on
    another master seed."""
    cells = [
        small_cell(noise=noise, n_trials=n_trials,
                   detector=replace(FAST, smoother=SavitzkyGolay(window, DETECTION_POLY_ORDER)))
        for noise, window, n_trials in [("low", 7, 6), ("low", 11, 4),
                                        (0.05, 7, 5), (0.05, 11, 3)]
    ]
    cells.insert(2, replace(cells[1], master_seed=8, n_trials=5))
    return cells


def _assert_outcomes_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for is_positive in (True, False):
            for g_col, w_col in zip(g[is_positive], w[is_positive]):
                np.testing.assert_array_equal(g_col, w_col)


@pytest.mark.parametrize("jobs", [1, 2])
def test_trial_major_outcomes_match_per_detection_reference(jobs):
    cells = _mixed_cells()
    _assert_outcomes_equal(_outcomes(cells, jobs), _reference_outcomes(cells))


def test_equal_detector_configs_share_a_group(monkeypatch):
    # each window's config appears at both noise levels: one group per
    # window, not one per cell, keeps a sweep's scoring matrices large
    cells = [cell for cell in _mixed_cells() if cell.master_seed == 7]
    real_detect = montecarlo.hybrid_detect
    sizes = []

    def counted(groups):
        sizes.append(len(groups))
        return real_detect(groups)

    monkeypatch.setattr(montecarlo, "hybrid_detect", counted)
    got = _outcomes(cells, jobs=1)
    assert len(cells) == 4
    assert sizes == [2, 2]  # one call per class
    _assert_outcomes_equal(got, _reference_outcomes(cells))


def test_failed_generation_logged_once_per_affected_cell(monkeypatch, caplog):
    cells = _mixed_cells()
    want = _reference_outcomes(cells)
    real_generate = montecarlo.generate

    def generate_fails_at_5_percent(spec):
        if spec.noise.sigma_rel == 0.05:
            raise NumericalError("noise draw failed")
        return real_generate(spec)

    monkeypatch.setattr(montecarlo, "generate", generate_fails_at_5_percent)
    with caplog.at_level(logging.WARNING, logger=montecarlo.__name__):
        got = _outcomes(cells)
    failed = [c for c in cells if c.noise == 0.05]
    warnings = [r for r in caplog.records if "trial failed" in r.getMessage()]
    assert len(warnings) == 2 * sum(c.n_trials for c in failed)
    for cell, g, w in zip(cells, got, want):
        if cell.noise == 0.05:
            for is_positive in (True, False):
                np.testing.assert_array_equal(g[is_positive][0], 0.0)
                np.testing.assert_array_equal(g[is_positive][1], 1.0)
            counts = _tally(g, cell.detector)
            assert counts == ConfusionCounts(fn=cell.n_trials, tn=cell.n_trials)
        else:
            _assert_outcomes_equal([g], [w])


def test_failed_detection_logged_once_and_counted_negative(monkeypatch, caplog):
    # a series whose log C cannot be taken fails only its own rows of the
    # batch, and the rest of the batch is detected as it is on its own
    cells = _mixed_cells()
    want = _reference_outcomes(cells)
    real_generate = montecarlo.generate

    def hit(spec):
        return spec.noise.sigma_rel == 0.05 and spec.noise.seed % 2 == 1

    def generate_nonpositive_at_5_percent(spec):
        series, label = real_generate(spec)
        if hit(spec):
            values = series.values.copy()
            values[50] = -values[50]
            series = series.with_values(values)
        return series, label

    monkeypatch.setattr(montecarlo, "generate", generate_nonpositive_at_5_percent)
    with caplog.at_level(logging.WARNING, logger=montecarlo.__name__):
        got = _outcomes(cells)
    n_failed = 0
    for cell, g, w in zip(cells, got, want):
        for is_positive in (True, False):
            hits = np.array([hit(sample_trial_spec(cell, is_positive, i)[0])
                             for i in range(cell.n_trials)])
            n_failed += int(hits.sum())
            w_scores, w_p = w[is_positive]
            np.testing.assert_array_equal(g[is_positive][0], np.where(hits, 0.0, w_scores))
            np.testing.assert_array_equal(g[is_positive][1], np.where(hits, 1.0, w_p))
    warnings = [r for r in caplog.records if "trial failed" in r.getMessage()]
    assert n_failed > 0
    assert len(warnings) == n_failed


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad, error", [
    ({"detector": replace(FAST, smoother=SavitzkyGolay(101, DETECTION_POLY_ORDER))},
     WindowTooLarge),
    ({"detector": replace(FAST, smoother=SavitzkyGolay(7, 1))}, InvalidSpec),
    ({"grid": GridSpec(0.0, 20.0, 20)}, SeriesTooShort),
], ids=["window 101 on 100 points", "poly_order 1", "20-point grid"])
def test_cell_the_detector_cannot_run_fails_the_run(caplog, jobs, bad, error):
    # no trial of such a cell is evidence, so the run raises the detector's
    # own error instead of counting its rows as negative verdicts
    cells = [small_cell(n_trials=4), small_cell(n_trials=4, **bad)]
    with caplog.at_level(logging.WARNING, logger=montecarlo.__name__):
        with pytest.raises(error):
            run_cells(cells, jobs=jobs)
    assert not [r for r in caplog.records if "trial failed" in r.getMessage()]


@pytest.mark.parametrize("noise, named", [
    ("bogus", "unknown noise level 'bogus'"),
    (-0.5, "sigma_rel must be >= 0, got -0.5"),
])
def test_cell_with_unknown_noise_level_rejected(noise, named):
    with pytest.raises(InvalidSpec, match=named):
        small_cell(noise=noise)


@pytest.mark.parametrize("base, field, values", [
    (FAST, "decision_threshold", (0.3, 0.6)),
    (replace(FAST, decision_threshold=0.1), "alpha_sig", (0.01, 0.5)),
])
def test_cells_differing_only_in_verdict_share_one_detection(monkeypatch, base, field, values):
    cells = [small_cell(n_trials=6, detector=replace(base, **{field: v})) for v in values]
    standalone = [run_cell(cell) for cell in cells]
    assert standalone[0] != standalone[1]  # each cell tallies with its own verdict
    real_detect = montecarlo.hybrid_detect
    rows = 0

    def counted(groups):
        nonlocal rows
        rows += sum(len(series) for _, series, _ in groups)
        return real_detect(groups)

    monkeypatch.setattr(montecarlo, "hybrid_detect", counted)
    assert run_cells(cells, jobs=1) == standalone
    assert rows == 2 * cells[0].n_trials


# --- sweep --------------------------------------------------------------------

def test_apply_axes():
    # a cell's resolved config: the axes replace fields of its own smoother
    base = small_cell().detector
    cfg = apply_axes(base, {"window": 21, "decision_threshold": 0.4})
    assert cfg.smoother == SavitzkyGolay(window=21, poly_order=DETECTION_POLY_ORDER)
    assert cfg.decision_threshold == 0.4
    assert apply_axes(base, {"poly_order": 3}).smoother == SavitzkyGolay(11, 3)
    # without a smoother there is no window or poly order to start from
    for axis in ("window", "poly_order"):
        with pytest.raises(InvalidSpec, match="smoother=None"):
            apply_axes(DetectorConfig(), {axis: 3})


def test_sweep_2x2_shape():
    axes = {"decision_threshold": [0.3, 0.5], "alpha_sig": [0.05, 0.1]}
    report = sweep(axes, small_cell(), budget=4)
    assert len(report.cells) == 4
    for cell in report.cells:
        assert {"decision_threshold", "alpha_sig"} == set(cell.params)
        assert 0.0 <= cell.rates.tpr <= 1.0
        assert 0.0 <= cell.rates.fpr <= 1.0
    assert report.best in report.cells


def test_sweep_cell_matches_standalone_run():
    template = small_cell()
    axes = {"decision_threshold": [0.3, 0.5]}
    report = sweep(axes, template)
    standalone = run_cell(template)  # default decision_threshold is 0.5
    matching = [c for c in report.cells if c.params["decision_threshold"] == 0.5]
    assert matching[0].counts == standalone


def test_sweeps_schedule_invariant_and_match_run_cell():
    # two templates x two windows: four outcome groups share one pool
    templates = [small_cell(n_trials=10), small_cell(n_trials=10, noise="high")]
    axes = {"window": [7, 11], "decision_threshold": [0.3, 0.5]}
    serial = [sweep(axes, template, jobs=1) for template in templates]
    parallel = sweeps(axes, templates, jobs=2)
    assert parallel.cells == [cell for report in serial for cell in report.cells]
    for template, report in zip(templates, serial):
        for cell in report.cells:
            config = apply_axes(template.detector, cell.params)
            assert cell.counts == run_cell(replace(template, detector=config))


def test_sweeps_is_one_report_with_one_best():
    # on this seed the noisier template errs more, and the best of both
    # templates is not the best of the first template on its own
    templates = [small_cell(n_trials=10, master_seed=8),
                 small_cell(n_trials=10, master_seed=8, noise="high")]
    axes = {"decision_threshold": [0.3, 0.5]}
    report = sweeps(axes, templates)
    errors = [sum(c.rates.error_rate for c in report.cells[k:k + 2]) for k in (0, 2)]
    assert errors[0] < errors[1]
    assert [c.noise for c in report.cells] == ["low", "low", "high", "high"]
    assert report.best is best_configuration(report.cells, list(axes))
    assert report.best.params != sweep(axes, templates[0]).best.params
    assert [run["noise"] for run in report.metadata["runs"]] == ["low", "high"]


def test_sweeps_with_no_axes_is_one_result_per_cell():
    # as joltlab mc runs it: one cell per noise level, no assignment
    cells = [small_cell(n_trials=6), small_cell(n_trials=4, noise="high")]
    report = sweeps({}, cells)
    assert [c.params for c in report.cells] == [{}, {}]
    assert [c.noise for c in report.cells] == ["low", "high"]
    assert [c.counts for c in report.cells] == run_cells(cells)
    assert report.best is report.cells[0]


def test_sweep_budget_enforced():
    axes = {"decision_threshold": [0.3, 0.4, 0.5], "alpha_sig": [0.01, 0.05]}
    with pytest.raises(BudgetExceeded):
        sweep(axes, small_cell(), budget=5)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(InvalidSpec):
        sweep({"mystery": [1, 2]}, small_cell())


@pytest.mark.parametrize("axes", [
    {"window": [7.5, 11]},
    {"poly_order": [2, 2.5]},
    {"n_perm": [99, 199.5]},
    {"n_perm": [True, 199]},
    {"decision_threshold": ["0.5", 0.6]},
    {"alpha_sig": [None, 0.05]},
])
def test_sweep_rejects_values_their_field_cannot_hold(axes):
    with pytest.raises(InvalidSpec, match="value"):
        sweep(axes, small_cell())


def test_sweep_rejects_single_value_axis():
    with pytest.raises(InvalidSpec):
        sweep({"decision_threshold": [0.5]}, small_cell())


# --- report emission ----------------------------------------------------------

def test_table1_and_heatmap_outputs(tmp_path):
    axes = {"decision_threshold": [0.3, 0.5]}
    report = sweep(axes, small_cell())
    t1 = tmp_path / "table1.csv"
    write_table1(report.cells, t1)
    lines = t1.read_text().splitlines()
    assert lines[0] == "noise_level,TPR,FPR,TPR_lo,TPR_hi,FPR_lo,FPR_hi"
    assert len(lines) == 3

    hm = tmp_path / "heatmap.csv"
    write_heatmap(report.cells, ["decision_threshold"], hm)
    lines = hm.read_text().splitlines()
    assert lines[0] == "noise_level,decision_threshold,tpr,fpr,error_rate"
    assert len(lines) == 3


def _row_loop_table1(results, path):
    # how table1.csv was written before it went through write_table
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("noise_level,TPR,FPR,TPR_lo,TPR_hi,FPR_lo,FPR_hi\n")
        for res in results:
            r = res.rates
            fh.write(
                f"{res.noise},{r.tpr:.6f},{r.fpr:.6f},"
                f"{r.tpr_ci[0]:.6f},{r.tpr_ci[1]:.6f},"
                f"{r.fpr_ci[0]:.6f},{r.fpr_ci[1]:.6f}\n"
            )


def _row_loop_heatmap(results, axis_names, path):
    # how heatmap.csv was written before it went through write_table
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["noise_level"] + list(axis_names) + ["tpr", "fpr", "error_rate"]
        fh.write(",".join(header) + "\n")
        for res in results:
            row = [str(res.noise)]
            row += [f"{res.params[a]:g}" for a in axis_names]
            r = res.rates
            row += [f"{r.tpr:.6f}", f"{r.fpr:.6f}", f"{r.error_rate:.6f}"]
            fh.write(",".join(row) + "\n")


def test_table1_and_heatmap_write_the_row_loops_bytes(tmp_path):
    counts = [ConfusionCounts(tp, fp, tn, fn) for tp, fp, tn, fn in
              [(7, 2, 1, 3), (0, 0, 3, 3), (3, 3, 0, 0), (1000, 1, 999, 0)]]
    noises = ["low", 0.03, "high", 1e-05]
    params = [{"window": 7, "decision_threshold": 0.35}, {"window": 11, "decision_threshold": 0.5},
              {"window": 21, "decision_threshold": 1 / 3}, {"window": 301, "decision_threshold": 1e-7}]
    results = [CellResult(noise=noise, params=p, counts=c, rates=summarize(c))
               for noise, p, c in zip(noises, params, counts)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table1(results, got)
    _row_loop_table1(results, want)
    assert got.read_bytes() == want.read_bytes()
    for axis_names in (["window", "decision_threshold"], []):
        write_heatmap(results, axis_names, got)
        _row_loop_heatmap(results, axis_names, want)
        assert got.read_bytes() == want.read_bytes(), axis_names


def _map_in_process(monkeypatch):
    """Stand in for ``_forked_map``: record each worker count and map in
    process. Returns the list of recorded counts."""
    started = []

    def in_process(fn, tasks, workers):
        started.append(workers)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(montecarlo, "_forked_map", in_process)
    return started


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # the map forks every worker it is given, so its worker count is what
    # the run pays for
    cell = small_cell(n_trials=2)
    serial = _outcomes([cell], jobs=1)
    started = _map_in_process(monkeypatch)
    # nor more workers than CPUs; an unknown CPU count runs serially
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    for cpus, jobs, workers in [(8, 8, 4), (2, 8, 2), (3, 5000, 3), (None, 8, None)]:
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        started.clear()
        pooled = _outcomes([cell], jobs=jobs)
        assert started == ([workers] if workers else [])
        _assert_outcomes_equal(pooled, serial)


@pytest.mark.parametrize("affinity, workers", [({0}, None), ({0, 1, 2}, 3)])
def test_workers_are_capped_at_the_cpus_the_process_may_run_on(monkeypatch, affinity, workers):
    # under `taskset -c 0` on a 2-CPU host, os.cpu_count() is 2 but one CPU
    # is usable, so --jobs 8 runs serially
    started = _map_in_process(monkeypatch)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    _outcomes([small_cell(n_trials=2)], jobs=8)
    assert started == ([workers] if workers else [])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Interrupt a map still waiting on its workers after 30 s, so that a
    hang fails the test instead of holding the suite."""
    def expire(signum, frame):
        raise TimeoutError("the forked map was still waiting after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_forked_map_returns_results_in_task_order(deadline):
    assert montecarlo._forked_map(lambda t: (t, os.getpid()), [], 2) == []
    results = montecarlo._forked_map(lambda t: (t, os.getpid()), list(range(7)), 3)
    assert [t for t, _ in results] == list(range(7))
    # worker k runs tasks k, k + 3, ..., each in a process of its own
    pids = [pid for _, pid in results]
    assert all(len(set(pids[k::3])) == 1 for k in range(3))
    assert len(set(pids)) == 3 and os.getpid() not in pids
    _assert_no_child_left()


def test_forked_map_reraises_a_workers_error_as_it_is(deadline):
    def fail_on_3(task):
        if task == 3:
            raise WindowTooLarge("window 301 exceeds series length 200")
        return task

    with pytest.raises(WindowTooLarge) as info:
        montecarlo._forked_map(fail_on_3, list(range(6)), 2)
    assert type(info.value) is WindowTooLarge
    assert str(info.value) == "window 301 exceeds series length 200"
    _assert_no_child_left()


def test_forked_map_names_a_worker_that_died_without_a_result(deadline):
    def die_on_1(task):
        if task == 1:
            os._exit(3)
        return task

    with pytest.raises(RuntimeError, match="worker 1 exited with status 3 and sent no result"):
        montecarlo._forked_map(die_on_1, list(range(4)), 2)
    _assert_no_child_left()


@pytest.mark.parametrize("first", ["raises", "interrupts"])
def test_forked_map_kills_the_workers_still_running(deadline, first):
    # worker 0 fails, or interrupts the parent, while worker 1 would run for
    # a minute; the map kills worker 1 and returns well before the deadline
    def task(k):
        if k == 1:
            time.sleep(60)
        elif first == "raises":
            raise InvalidSpec("worker 0 failed")
        else:
            time.sleep(0.2)  # the parent is reading worker 0's pipe by now
            os.kill(os.getppid(), signal.SIGINT)
        return k

    with pytest.raises(InvalidSpec if first == "raises" else KeyboardInterrupt):
        montecarlo._forked_map(task, [0, 1], 2)
    _assert_no_child_left()


def test_forked_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(montecarlo.os, "fork")
    assert montecarlo._forked_map(lambda t: (t, os.getpid()), [0, 1, 2], 2) == [
        (t, os.getpid()) for t in range(3)]
