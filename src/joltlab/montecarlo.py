"""Monte Carlo validation harness for the hybrid jolt detector.

Generates labeled synthetic trajectories (jolting positives vs exponential /
logistic negatives), runs the detector on each, and tallies confusion counts
into TPR/FPR summaries and hyperparameter-sweep heatmap data.

Per-trial seeds are pure functions of (master seed, class, trial index),
and tallies are commutative sums, so results are independent of the
degree of parallelism. Trials run trial-major: the cells that share (master
seed, mix, grid) share each trial's inputs and permutation draw (common
random numbers), so a result depends on neither ``--jobs`` nor the other
cells run with it. On 2 cores this cut the acceptance-1 sweep from 51 to 29 s.
Cells equal up to the verdict's fields share scores and p-values too; as
``_outcomes`` owns that, ``run_cells`` gets it as well as ``sweeps``.

Each task (about one per worker and class, within a memory budget) sends
all its detections through one ``hybrid_detect`` call in its group form:
cells with equal detector configs form one (config, series, seeds) group,
scored as one matrix, and each trial's permutation draw is made once for
all its cells. Only scores and p-values come back, and each row has the
bits it would get on its own. A trial whose series cannot be generated,
or whose log C cannot be taken, counts as a negative verdict with a warning; a
cell the detector cannot run fails the whole run with the detector's error.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import numbers
from datetime import datetime, timezone
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.random  # noqa: F401  loaded once here, not in each forked worker

from .detector import DetectorConfig, _resolve_smoother, hybrid_detect
from .errors import BudgetExceeded, EmptyCell, InvalidSpec, JoltlabError
from .estimation import SavitzkyGolay
from .growth import (
    Exponential,
    GridSpec,
    GrowthModelSpec,
    InjectedJolt,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    generate,
)

log = logging.getLogger(__name__)

Z95 = 1.959963984540054
ACCURACY_CLASS_WEIGHTS = (0.5, 0.5)  # of TPR and TNR in balanced accuracy


@dataclass(frozen=True)
class TrialMix:
    """Parameter ranges for per-trial sampling of positive/negative specs."""

    b_range: tuple = (0.005, 0.02)
    k_range: tuple = (0.03, 0.12)
    r_range: tuple = (0.5, 1.5)
    t0_range: tuple = (8.0, 12.0)
    logistic_l: float = Logistic.l
    injected_fraction: float = 0.5
    logistic_fraction: float = 0.5
    ramp_strength_range: tuple = (0.10, 0.35)
    ramp_start_range: tuple = (5.0, 10.0)
    ramp_len_range: tuple = (4.0, 8.0)


@dataclass(frozen=True)
class MCCell:
    """One Monte Carlo cell: noise level, detector config and trial budget."""

    noise: str | float = "low"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    n_trials: int = 1000
    master_seed: int = 0
    mix: TrialMix = field(default_factory=TrialMix)
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidSpec("n_trials must be >= 1")
        if self.master_seed < 0:
            raise InvalidSpec(f"master_seed must be >= 0, got {self.master_seed}")
        _noise_spec(self, 0)  # a bad noise level fails here, not in every trial
        # resolve the smoother hybrid_detect would, so that sweeps over window
        # or poly_order start from the one the trials run
        smoother = _resolve_smoother(self.grid.n_points, self.detector.smoother)
        object.__setattr__(self, "detector", replace(self.detector, smoother=smoother))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


@dataclass
class RateSummary:
    tpr: float
    fpr: float
    tnr: float
    accuracy: float
    error_rate: float
    tpr_ci: tuple
    fpr_ci: tuple


@dataclass
class CellResult:
    noise: str | float
    params: dict
    counts: ConfusionCounts
    rates: RateSummary


@dataclass
class MCReport:
    cells: list
    best: CellResult | None
    metadata: dict


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return ((center - half) / denom, (center + half) / denom)


# --- per-trial machinery ------------------------------------------------------

def _trial_children(cell: MCCell, is_positive: bool, trial_idx: int):
    ss = np.random.SeedSequence(
        entropy=cell.master_seed,
        # the leading 0 stays so that each trial keeps the stream its results came from
        spawn_key=(0, 1 if is_positive else 0, trial_idx),
    )
    return ss.spawn(3)


def _noise_spec(cell: MCCell, seed: int) -> NoiseSpec:
    if isinstance(cell.noise, str):
        return NoiseSpec(level=cell.noise, seed=seed)
    return NoiseSpec(level="none", sigma_rel=float(cell.noise), seed=seed)


def _uniform(rng, lo_hi):
    return float(rng.uniform(lo_hi[0], lo_hi[1]))


def sample_trial_spec(cell: MCCell, is_positive: bool, trial_idx: int):
    """Deterministic (spec, detector seed) for one trial."""
    param_ss, noise_ss, det_ss = _trial_children(cell, is_positive, trial_idx)
    rng = np.random.default_rng(param_ss)
    noise_seed = int(noise_ss.generate_state(1, np.uint64)[0])
    det_seed = int(det_ss.generate_state(1, np.uint64)[0])
    mix = cell.mix
    if is_positive:
        if rng.random() < mix.injected_fraction:
            start = _uniform(rng, mix.ramp_start_range)
            family = InjectedJolt(
                base=Exponential(c0=1.0, k=_uniform(rng, mix.k_range)),
                jolt_start=start,
                jolt_end=start + _uniform(rng, mix.ramp_len_range),
                ramp_strength=_uniform(rng, mix.ramp_strength_range),
            )
        else:
            family = LogQuadratic(
                c0=1.0, a=_uniform(rng, mix.k_range), b=_uniform(rng, mix.b_range)
            )
    else:
        if rng.random() < mix.logistic_fraction:
            family = Logistic(
                l=mix.logistic_l,
                r=_uniform(rng, mix.r_range),
                t0=_uniform(rng, mix.t0_range),
            )
        else:
            family = Exponential(c0=1.0, k=_uniform(rng, mix.k_range))
    spec = GrowthModelSpec(
        family=family, grid=cell.grid, noise=_noise_spec(cell, noise_seed)
    )
    return spec, det_seed


# The outcome a failed trial counts as: score 0 and p 1, a negative verdict.
_FAILED = (0.0, 1.0)

# rows x n items of one task's detection batch at most, in whole trials; each
# (rows, n) float array of the batch then stays within 256 KB
_TASK_BUDGET = 1 << 15


def _run_trials(task):
    """Per cell of ``cells``, which share (master_seed, mix, grid), the (score,
    p_value) rows of one class's trials. Each trial is sampled once and each
    noise level generated once. Cells with equal detector configs form one
    group, and all the task's groups go through one :func:`hybrid_detect`
    call, whose errors propagate. A series that cannot be generated, or whose
    log C cannot be taken, stays out of its group and counts as (0, 1) for
    its own cell and trial, with a warning."""
    cells, is_positive, indices = task
    rows = [[] for _ in cells]
    # cells are compared once per task: equal detector configs share a group
    configs = [cell.detector for cell in cells]
    group = [configs.index(config) for config in configs]
    members = {g: ([], [], []) for g in group}  # per group: series, seeds, (rows, slot)
    for i in indices:
        spec, det_seed = sample_trial_spec(cells[0], is_positive, i)
        series = {}
        for cell, cell_rows, g in zip(cells, rows, group):
            if i >= cell.n_trials:
                continue
            cell_rows.append(_FAILED)
            try:
                if cell.noise not in series:
                    noise = _noise_spec(cell, spec.noise.seed)
                    series[cell.noise] = generate(replace(spec, noise=noise))[0]
                series[cell.noise].log_values  # a data error fails this row only
            except JoltlabError as exc:
                log.warning(
                    "trial failed (class=%s idx=%d): %s; counted as negative verdict",
                    "pos" if is_positive else "neg", i, exc,
                )
                continue
            batch, seeds, slots = members[g]
            batch.append(series[cell.noise])
            seeds.append(det_seed)
            slots.append((cell_rows, len(cell_rows) - 1))
    used = [g for g, (batch, _, _) in members.items() if batch]
    outcomes = hybrid_detect([(configs[g], *members[g][:2]) for g in used]) if used else []
    for g, (scores, p_values) in zip(used, outcomes):
        for (cell_rows, slot), score, p in zip(members[g][2], scores.tolist(), p_values.tolist()):
            cell_rows[slot] = (score, p)
    return rows


def _outcomes(cells, jobs: int = 1) -> list:
    """Per cell, (scores, p_values) arrays per class, ordered by trial index.

    Cells equal up to the verdict's fields (decision_threshold, alpha_sig)
    have the same rows, so only the first of them runs. Each group of running
    cells sharing (master_seed, mix, grid) splits each class's trials into
    about one task per worker, each of whole trials and at most
    ``_TASK_BUDGET`` rows x n items, so memory stays bounded in trials and in
    n. All tasks go through one ``pool.map`` on one worker pool. A task's
    rows are detected as one batch, bit for bit as one by one, so the
    outcome does not depend on ``jobs``.
    """
    if jobs < 1:
        raise InvalidSpec(f"jobs must be >= 1, got {jobs}")
    # compared by ==, not by hash: a TrialMix built in code may hold lists
    verdict_free = [replace(c, detector=replace(c.detector, decision_threshold=0.5, alpha_sig=0.5))
                    for c in cells]
    first = [verdict_free.index(cell) for cell in verdict_free]
    shared = [(cell.master_seed, cell.mix, cell.grid) for cell in cells]
    groups = [[j for j, other in enumerate(shared) if other == key and first[j] == j]
              for k, key in enumerate(shared) if shared.index(key) == k]
    keys, tasks = [], []
    for members in groups:
        n_trials = max(cells[k].n_trials for k in members)
        per_task = max(1, _TASK_BUDGET // (len(members) * cells[members[0]].grid.n_points))
        n_tasks = max(min(jobs, n_trials), -(-n_trials // per_task))
        for is_positive in (True, False):
            for chunk in np.array_split(np.arange(n_trials), n_tasks):
                keys.append((members, is_positive))
                tasks.append(([cells[k] for k in members], is_positive, chunk.tolist()))
    if jobs == 1:
        chunk_results = [_run_trials(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunk_results = list(pool.map(_run_trials, tasks))
    # map keeps task order and chunks ascend, so each class's rows are
    # already ordered by trial index
    rows = [{True: [], False: []} for _ in cells]
    for (members, is_positive), results in zip(keys, chunk_results):
        for k, cell_rows in zip(members, results):
            rows[k][is_positive].extend(cell_rows)
    return [{c: tuple(np.array(col) for col in zip(*r[c])) for c in r}
            for r in (rows[k] for k in first)]


def _tally(outcomes, config: DetectorConfig) -> ConfusionCounts:
    pos_verdicts = config.verdict(*outcomes[True])
    neg_verdicts = config.verdict(*outcomes[False])
    return ConfusionCounts(
        tp=int(pos_verdicts.sum()),
        fn=int((~pos_verdicts).sum()),
        fp=int(neg_verdicts.sum()),
        tn=int((~neg_verdicts).sum()),
    )


def run_cells(cells, jobs: int = 1) -> list:
    """Confusion counts of several Monte Carlo cells, run on one worker pool;
    deterministic for fixed master seeds and independent of ``jobs``."""
    return [
        _tally(outcomes, cell.detector)
        for cell, outcomes in zip(cells, _outcomes(cells, jobs))
    ]


def run_cell(cell: MCCell, jobs: int = 1) -> ConfusionCounts:
    """Run one Monte Carlo cell; deterministic for a fixed master seed."""
    return run_cells([cell], jobs)[0]


def summarize(counts: ConfusionCounts) -> RateSummary:
    """Rates, balanced accuracy, error rate and Wilson CIs for one cell."""
    n_pos = counts.tp + counts.fn
    n_neg = counts.fp + counts.tn
    if n_pos == 0 or n_neg == 0:
        raise EmptyCell("cell has no trials in one of the classes")
    tpr = counts.tp / n_pos
    fpr = counts.fp / n_neg
    tnr = 1.0 - fpr
    accuracy = ACCURACY_CLASS_WEIGHTS[0] * tpr + ACCURACY_CLASS_WEIGHTS[1] * tnr
    return RateSummary(
        tpr=tpr,
        fpr=fpr,
        tnr=tnr,
        accuracy=accuracy,
        error_rate=1.0 - accuracy,
        tpr_ci=wilson_interval(counts.tp, n_pos),
        fpr_ci=wilson_interval(counts.fp, n_neg),
    )


# --- hyperparameter sweep -----------------------------------------------------

_CONFIG_AXES = {
    "window", "poly_order", "threshold_peak", "min_duration_frac",
    "decision_threshold", "n_perm", "alpha_sig",
}
_WHOLE_AXES = {"window", "poly_order", "n_perm"}


def apply_axes(config: DetectorConfig, assignment: dict) -> DetectorConfig:
    """Return ``config`` with sweep-axis values applied. A window or
    poly_order value changes ``config.smoother``, so it must not be None."""
    kwargs = {}
    smoother = config.smoother
    if "window" in assignment or "poly_order" in assignment:
        if smoother is None:
            raise InvalidSpec("window and poly_order axes need a smoother, got smoother=None")
        kwargs["smoother"] = SavitzkyGolay(
            window=int(assignment.get("window", smoother.window)),
            poly_order=int(assignment.get("poly_order", smoother.poly_order)),
        )
    for name in ("threshold_peak", "min_duration_frac", "decision_threshold", "alpha_sig"):
        if name in assignment:
            kwargs[name] = float(assignment[name])
    if "n_perm" in assignment:
        kwargs["n_perm"] = int(assignment["n_perm"])
    return replace(config, **kwargs)


def sweeps(axes: dict, templates, budget: int = 64, jobs: int = 1) -> list:
    """Grid sweeps over detector hyperparameters, one report per cell template.

    Every (template, assignment) cell goes to one :func:`run_cells` call, so
    all of them run through one worker pool, and cells differing only in
    decision_threshold / alpha_sig share their trial outcomes there.
    """
    for name, values in axes.items():
        if name not in _CONFIG_AXES:
            raise InvalidSpec(f"unknown sweep axis {name!r}")
        if len(values) < 2:
            raise InvalidSpec(f"sweep axis {name!r} needs at least 2 values")
        # apply_axes converts with int()/float(), which would truncate 7.5
        # to 7 or take the string "0.5"; reject what the field cannot hold
        kind = "a whole number" if name in _WHOLE_AXES else "a number"
        for value in values:
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not number or (name in _WHOLE_AXES and not float(value).is_integer()):
                raise InvalidSpec(f"sweep axis {name!r} value {value!r} is not {kind}")
    names = list(axes.keys())
    combos = [dict(zip(names, combo)) for combo in itertools.product(*axes.values())]
    if len(combos) > budget:
        raise BudgetExceeded(f"{len(combos)} cells exceed budget {budget}")

    cells = [
        replace(template, detector=apply_axes(template.detector, assignment))
        for template in templates
        for assignment in combos
    ]
    counts = iter(run_cells(cells, jobs))
    return [
        _sweep_report(axes, template, combos, [next(counts) for _ in combos])
        for template in templates
    ]


def _sweep_report(axes: dict, template: MCCell, combos, counts) -> MCReport:
    """One template's sweep report from the confusion counts of its cells."""
    cells = [
        CellResult(noise=template.noise, params=dict(assignment),
                   counts=cell_counts, rates=summarize(cell_counts))
        for assignment, cell_counts in zip(combos, counts)
    ]
    metadata = {
        "master_seed": template.master_seed,
        "n_trials": template.n_trials,
        "noise": template.noise,
        "axes": {k: list(v) for k, v in axes.items()},
        "grid": dataclasses.asdict(template.grid),
        "mix": dataclasses.asdict(template.mix),
    }
    return MCReport(cells=cells, best=best_configuration(cells, list(axes)), metadata=metadata)


def best_configuration(cells, axis_names):
    """Cell of the configuration with the lowest mean error rate across noise
    levels; ties go to the lower mean FPR, then the lower first-axis value,
    then the first in order."""
    by_params = {}
    for cell in cells:
        by_params.setdefault(tuple(cell.params[a] for a in axis_names), []).append(cell)

    def key(item):
        params, group = item
        mean_err = sum(c.rates.error_rate for c in group) / len(group)
        mean_fpr = sum(c.rates.fpr for c in group) / len(group)
        return (mean_err, mean_fpr, params[0] if axis_names else 0)

    if not by_params:
        return None
    return min(by_params.items(), key=key)[1][0]


def sweep(axes: dict, template: MCCell, budget: int = 64, jobs: int = 1) -> MCReport:
    """Grid sweep over detector hyperparameters for one cell template; see
    :func:`sweeps`."""
    return sweeps(axes, [template], budget, jobs)[0]


# --- report emission ----------------------------------------------------------

def write_table1(results, path) -> None:
    """CSV of per-noise-level detector rates with Wilson CIs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("noise_level,TPR,FPR,TPR_lo,TPR_hi,FPR_lo,FPR_hi\n")
        for res in results:
            r = res.rates
            fh.write(
                f"{res.noise},{r.tpr:.6f},{r.fpr:.6f},"
                f"{r.tpr_ci[0]:.6f},{r.tpr_ci[1]:.6f},"
                f"{r.fpr_ci[0]:.6f},{r.fpr_ci[1]:.6f}\n"
            )


def write_heatmap(results, axis_names, path) -> None:
    """Long-format CSV: one row per grid cell, for external heatmap tools."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["noise_level"] + list(axis_names) + ["tpr", "fpr", "error_rate"]
        fh.write(",".join(header) + "\n")
        for res in results:
            row = [str(res.noise)]
            row += [f"{res.params[a]:g}" for a in axis_names]
            r = res.rates
            row += [f"{r.tpr:.6f}", f"{r.fpr:.6f}", f"{r.error_rate:.6f}"]
            fh.write(",".join(row) + "\n")


def _cell_payload(res: CellResult) -> dict:
    return {
        "noise": res.noise,
        "params": res.params,
        "counts": dataclasses.asdict(res.counts),
        "tpr": res.rates.tpr,
        "fpr": res.rates.fpr,
        "tnr": res.rates.tnr,
        "accuracy": res.rates.accuracy,
        "error_rate": res.rates.error_rate,
        "tpr_ci": list(res.rates.tpr_ci),
        "fpr_ci": list(res.rates.fpr_ci),
    }


def write_report_json(results, metadata, path, best=None) -> None:
    from . import __version__

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "accuracy_class_weights": ACCURACY_CLASS_WEIGHTS,
        "metadata": metadata,
        "cells": [_cell_payload(r) for r in results],
        "best": _cell_payload(best) if best is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
