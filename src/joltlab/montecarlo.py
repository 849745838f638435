"""Monte Carlo validation harness for the hybrid jolt detector.

Generates labeled synthetic trajectories (jolting positives vs exponential /
logistic negatives), runs the detector on each, and tallies confusion counts
into TPR/FPR summaries and sweep heatmap data.

Per-trial seeds are pure functions of (master seed, class, trial index),
and tallies are commutative sums, so results are independent of the
degree of parallelism. Trials run trial-major: the cells that share (master
seed, mix, grid) share each trial's inputs and permutation draw (common
random numbers), so a result depends on neither ``--jobs`` nor the other
cells run with it. On 2 cores this cut the acceptance-1 sweep from 51 to 29 s.
Cells equal up to the verdict's fields and the detector seed share scores
and p-values too; as ``_outcomes`` owns that, ``run_cells`` gets it as well
as ``sweeps``.

Each task (about one per worker and class, within a memory budget) sends
all its detections through one ``hybrid_detect`` call in its group form:
cells with equal detector configs form one (config, series, seeds) group,
scored as one matrix, and each trial's permutation draw is made once for
all its cells. Only scores and p-values come back, and each row has the
bits it would get on its own. A trial whose series cannot be generated,
or whose log C cannot be taken, counts as a negative verdict with a warning; a
cell the detector cannot run fails the whole run with the detector's error.
A sweep is one report with one best; ``joltlab mc`` is a sweep with no axes
and so no best.
At ``jobs`` above 1 the tasks run in worker processes forked directly, one
pipe each, no more of them than tasks or usable CPUs; see :func:`_forked_map`.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import numbers
import os
import pickle
import signal
from datetime import datetime, timezone
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.random  # noqa: F401  loaded once here, not in each forked worker

from .detector import DetectorConfig, hybrid_detect
from .errors import ConfigError, DataError, JoltlabError, Spec, pair, real, whole
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
from .timeseries import write_json, write_table

log = logging.getLogger(__name__)

Z95 = 1.959963984540054
ACCURACY_CLASS_WEIGHTS = (0.5, 0.5)  # of TPR and TNR in balanced accuracy
# the most cells a sweep makes per template unless its caller sets a budget
SWEEP_BUDGET = 64


@dataclass(frozen=True)
class TrialMix(Spec, section="mc"):
    """Parameter ranges for per-trial sampling of positive/negative specs."""

    b_range: tuple = pair((0.005, 0.02))
    k_range: tuple = pair((0.03, 0.12))
    r_range: tuple = pair((0.5, 1.5))
    t0_range: tuple = pair((8.0, 12.0))
    logistic_l: float = real(Logistic.l, gt=0)
    injected_fraction: float = real(0.5, ge=0, le=1)
    logistic_fraction: float = real(0.5, ge=0, le=1)
    ramp_strength_range: tuple = pair((0.10, 0.35))
    ramp_start_range: tuple = pair((5.0, 10.0))
    ramp_len_range: tuple = pair((4.0, 8.0))


@dataclass(frozen=True)
class MCCell(Spec, section="mc"):
    """One Monte Carlo cell: noise level, detector config and trial budget.
    A detector's null window runs as the default for the cell's grid."""

    noise: str | float = "low"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    # a rate's Wilson interval is within +-0.0031 at the ceiling, where a cell
    # runs 200,000 detections: about 6 minutes on one CPU at n=200
    n_trials: int = whole(1000, ge=1, le=100_000)
    master_seed: int = whole(0, ge=0)
    mix: TrialMix = field(default_factory=TrialMix)
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        super().__post_init__()
        _noise_spec(self, 0)  # a bad noise level fails here, not in every trial


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
    """One sweep's results: a :class:`CellResult` per (template, assignment),
    in that order, and the best of them, None when no axis was swept."""

    cells: list
    best: CellResult | None


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
    """A named level, else a relative sigma, which ``sigma_rel``'s contract checks."""
    if isinstance(cell.noise, str):
        return NoiseSpec(level=cell.noise, seed=seed)
    if cell.noise is None:  # a null sigma_rel would fall back to the level "none"
        raise ConfigError("mc noise must be a noise level or a sigma_rel, got None")
    return NoiseSpec(level="none", sigma_rel=cell.noise, seed=seed)


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


# rows x n items of one task's detection batch at most, in whole trials; each
# (rows, n) float array of the batch then stays within 256 KB
_TASK_BUDGET = 1 << 15


def _run_trials(task):
    """(scores, p_values), two (cells x trials) arrays of one class's trials
    for ``cells``, which share (master_seed, mix, grid), pre-filled with a
    failed trial's outcome: score 0 and p 1. Each trial is sampled once and
    each noise level generated once. Cells with equal detector configs form
    one group, all groups go through one :func:`hybrid_detect` call, whose
    errors propagate, and each group's outcomes are scattered into place. A
    series that cannot be generated, or whose log C cannot be taken, stays
    out of its group with a warning, so its row keeps (0, 1)."""
    cells, is_positive, indices = task
    scores = np.zeros((len(cells), len(indices)))
    p_values = np.ones((len(cells), len(indices)))
    # cells are compared once per task: equal detector configs share a group
    configs = [cell.detector for cell in cells]
    group = [configs.index(config) for config in configs]
    members = {g: ([], [], []) for g in group}  # per group: series, seeds, (row, column)
    for column, i in enumerate(indices):
        spec, det_seed = sample_trial_spec(cells[0], is_positive, i)
        series = {}
        for row, (cell, g) in enumerate(zip(cells, group)):
            if i >= cell.n_trials:
                continue
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
            slots.append((row, column))
    used = [g for g, (batch, _, _) in members.items() if batch]
    outcomes = hybrid_detect([(configs[g], *members[g][:2]) for g in used]) if used else []
    for g, (group_scores, group_p_values) in zip(used, outcomes):
        slots = tuple(zip(*members[g][2]))
        scores[slots], p_values[slots] = group_scores, group_p_values
    return scores, p_values


def _work(fn, tasks, write, pipes):
    """In a forked child: send ``[fn(task) for task in tasks]``, or the first
    exception it raises, as one pickle to the file descriptor ``write``, and
    exit. The child never returns into its caller."""
    try:
        for pipe in pipes:  # the read ends the parent holds
            pipe.close()
        try:
            outcome = [fn(task) for task in tasks]
        except Exception as exc:  # the parent re-raises it
            outcome = exc
        payload = pickle.dumps(outcome)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)  # failed before its result was sent, which the parent reports


def _forked_map(fn, tasks, workers: int) -> list:
    """``[fn(task) for task in tasks]``, computed in ``workers`` forked children.

    Child k runs tasks k, k + workers, ... and writes one pickle to a pipe of
    its own (:func:`_work`). The parent reads the pipes in worker order,
    reaps every child and returns the results in task order. It re-raises a
    child's exception as it is, with its type and message, so an exit code
    does not depend on the worker count; a child that ends without a result
    raises ``RuntimeError`` naming it and its exit status. On an error or an
    interrupt the children still running are killed before they are reaped.

    Forking here, not through ``multiprocessing``, starts no executor threads
    and keeps the children on the parent's frozen heap whatever the default
    start method. Where ``os.fork`` does not exist the map runs serially.
    Python 3.12 and later warn (``DeprecationWarning``) from ``os.fork`` in a
    process that runs other OS threads: a CLI process runs none unless the
    user sets a BLAS thread count, and a library caller's may run OpenBLAS's.
    """
    if not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    pids, pipes = [], []
    try:
        for k in range(workers):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _work(fn, tasks[k::workers], write, pipes)
            finally:
                os.close(write)
        results = [None] * len(tasks)
        for k, pipe in enumerate(pipes):
            payload = pipe.read()
            status = os.waitpid(pids[k], 0)[1]
            pids[k] = None
            if not payload:
                raise RuntimeError(f"Monte Carlo worker {k} exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} and sent no result")
            outcome = pickle.loads(payload)
            if isinstance(outcome, BaseException):
                raise outcome
            results[k::workers] = outcome
        return results
    finally:
        running = [pid for pid in pids if pid]
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _outcomes(cells, jobs: int = 1) -> list:
    """Per cell, (scores, p_values) arrays per class, ordered by trial index.

    Cells equal up to the fields their verdict reads and the detector seed,
    which every trial replaces (equal once their detectors are
    :meth:`~joltlab.detector.DetectorConfig.scoring` at the default seed),
    have the same rows, so only the first of them runs. Each group of running
    cells sharing (master_seed, mix, grid) splits each class's trials into
    about one task per worker, each of whole trials and at most
    ``_TASK_BUDGET`` rows x n items, so memory stays bounded in trials and in
    n. At ``jobs`` above 1 all tasks go through one :func:`_forked_map`, on no
    more forked workers than tasks or CPUs this process may run on (its
    affinity mask, else ``os.cpu_count()``); the map returns the results in
    task order. A task's rows are detected as one batch, bit for bit as one
    by one, so the outcome does not depend on ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # no more workers than the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    # compared by ==, not by hash: a TrialMix built in code may hold lists
    seed = DetectorConfig.seed
    scoring = [replace(c, detector=replace(c.detector.scoring(), seed=seed)) for c in cells]
    first = [scoring.index(cell) for cell in scoring]
    shared = [(cell.master_seed, cell.mix, cell.grid) for cell in cells]
    groups = [[j for j, other in enumerate(shared) if other == key and first[j] == j]
              for k, key in enumerate(shared) if shared.index(key) == k]
    keys, tasks = [], []
    for g, members in enumerate(groups):
        n_trials = max(cells[k].n_trials for k in members)
        per_task = max(1, _TASK_BUDGET // (len(members) * cells[members[0]].grid.n_points))
        n_tasks = max(min(jobs, n_trials), -(-n_trials // per_task))
        for is_positive in (True, False):
            for chunk in np.array_split(np.arange(n_trials), n_tasks):
                keys.append((g, is_positive))
                tasks.append(([scoring[k] for k in members], is_positive, chunk.tolist()))
    if jobs == 1:
        chunk_results = [_run_trials(task) for task in tasks]
    else:
        chunk_results = _forked_map(_run_trials, tasks, min(jobs, len(tasks)))
    # the map keeps task order, and the chunks of a (group, class) are adjacent
    # and ascend, so they join in trial order; each cell keeps its own trials
    outcomes = [{} for _ in cells]
    for (g, is_positive), parts in itertools.groupby(zip(keys, chunk_results), lambda p: p[0]):
        scores, p_values = (np.concatenate(col, axis=1) for col in zip(*(r for _, r in parts)))
        for row, k in enumerate(groups[g]):
            n = cells[k].n_trials
            outcomes[k][is_positive] = (scores[row, :n], p_values[row, :n])
    return [outcomes[k] for k in first]


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
    """Confusion counts of several Monte Carlo cells, run on one set of workers;
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
        raise DataError("cell has no trials in one of the classes")
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


# --- sweep over cell fields ---------------------------------------------------

# the cell fields whose specs hold axis fields
_AXIS_SPECS = {"detector": DetectorConfig, "mix": TrialMix, "grid": GridSpec}


def axis_paths(names) -> dict:
    """The cell field holding the spec of each sweep axis in ``names``: a scalar
    field (or the null window) of its detector, mix or grid, named bare. Any other
    name, such as the detector's seed, which each trial replaces, raises a ConfigError."""
    paths = {f.name: path for path, spec in _AXIS_SPECS.items() for f in dataclasses.fields(spec)
             if (f.default is None or isinstance(f.default, numbers.Real)) and f.name != "seed"}
    for name in names:
        if name not in paths:
            raise ConfigError(f"unknown sweep axis {name!r}")
    return {name: paths[name] for name in names}


def apply_axes(template: MCCell, assignment: dict, paths: dict) -> MCCell:
    """``template`` with each axis value of ``assignment`` set, uncast, in the
    spec that ``paths`` names: one ``replace`` per spec."""
    changes = {}
    for name, value in assignment.items():
        changes.setdefault(paths[name], {})[name] = value
    return replace(template, **{path: replace(getattr(template, path), **fields)
                                for path, fields in changes.items()})


def sweeps(axes: dict, templates, budget: int = SWEEP_BUDGET, jobs: int = 1) -> MCReport:
    """Grid sweep over cell fields (see :func:`axis_paths`) for several cell
    templates: one :class:`MCReport` of a :class:`CellResult` per (template,
    assignment), in that order, and their :func:`best_configuration`. With no
    axes each template is one cell, ``params == {}``, and the report has no
    best, as ``joltlab mc`` runs it. A value its field refuses, or a null
    one, raises a ConfigError naming the axis and the value, before the
    budget check; values that conflict inside one spec raise one naming
    every axis and value of the cell, before any trial. An n_points axis
    moves a null window with n.

    Every cell goes to one :func:`run_cells` call, so all of them run
    on one set of workers, and cells differing only in the fields their
    verdict reads share their trial outcomes there.
    """
    paths = axis_paths(axes)
    for name, values in axes.items():
        if len(values) < 2:
            raise ConfigError(f"sweep axis {name!r} needs at least 2 values")
        for template, value in itertools.product(templates, values):
            try:  # the field's contract, or the detector's window rule
                if value is None:  # the heatmap and the best cell read each value as a number
                    raise ConfigError("an axis value cannot be null")
                replace(getattr(template, paths[name]), **{name: value})
            except JoltlabError as exc:
                raise ConfigError(f"sweep axis {name!r} value {value!r} "
                                  f"is not valid: {exc}") from None
    count = math.prod(len(values) for values in axes.values())  # before any cell is made
    if count > budget:
        raise ConfigError(f"{count} cells exceed budget {budget}")
    combos = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]

    pairs = list(itertools.product(templates, combos))
    cells = []
    for template, assignment in pairs:
        try:  # values valid alone may conflict inside one spec
            cells.append(apply_axes(template, assignment, paths))
        except JoltlabError as exc:
            named = ", ".join(f"{name}={value!r}" for name, value in assignment.items())
            raise ConfigError(f"sweep cell {named} is not valid: {exc}") from None
    results = [
        CellResult(noise=template.noise, params=dict(assignment),
                   counts=counts, rates=summarize(counts))
        for (template, assignment), counts in zip(pairs, run_cells(cells, jobs))
    ]
    return MCReport(cells=results, best=best_configuration(results, list(axes)))


def best_configuration(cells, axis_names):
    """Cell of the configuration with the lowest mean error rate across noise
    levels; ties go to the lower mean FPR, then the lower first-axis value,
    then the first in order. None when no axis was swept or no cell ran."""
    if not axis_names or not cells:
        return None
    by_params = {}
    for cell in cells:
        by_params.setdefault(tuple(cell.params[a] for a in axis_names), []).append(cell)

    def key(item):
        params, group = item
        mean_err = sum(c.rates.error_rate for c in group) / len(group)
        mean_fpr = sum(c.rates.fpr for c in group) / len(group)
        return (mean_err, mean_fpr, params[0])

    return min(by_params.items(), key=key)[1][0]


def sweep(axes: dict, template: MCCell, budget: int = SWEEP_BUDGET, jobs: int = 1) -> MCReport:
    """Grid sweep over cell fields for one cell template; see :func:`sweeps`."""
    return sweeps(axes, [template], budget, jobs)


# --- report emission ----------------------------------------------------------

def write_table1(results, path) -> None:
    """CSV of per-noise-level detector rates with Wilson CIs."""
    rows = ((res.noise, res.rates.tpr, res.rates.fpr, *res.rates.tpr_ci, *res.rates.fpr_ci)
            for res in results)
    write_table(path, "noise_level,TPR,FPR,TPR_lo,TPR_hi,FPR_lo,FPR_hi", rows,
                "{}" + ",{:.6f}" * 6)


def write_heatmap(results, axis_names, path) -> None:
    """Long-format CSV: one row per grid cell, for external heatmap tools."""
    header = ",".join(["noise_level", *axis_names, "tpr", "fpr", "error_rate"])
    rows = ((res.noise, *(res.params[a] for a in axis_names),
             res.rates.tpr, res.rates.fpr, res.rates.error_rate) for res in results)
    write_table(path, header, rows, "{}" + ",{:g}" * len(axis_names) + ",{:.6f}" * 3)


def _cell_payload(res: CellResult) -> dict:
    return {"noise": res.noise, "params": res.params,
            "counts": dataclasses.asdict(res.counts), **dataclasses.asdict(res.rates)}


def write_report_json(report: MCReport, metadata: dict, path) -> None:
    """``report`` as JSON, with ``metadata``, the version, the accuracy weights and a timestamp."""
    from . import __version__

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "accuracy_class_weights": ACCURACY_CLASS_WEIGHTS,
        "metadata": metadata,
        "cells": [_cell_payload(r) for r in report.cells],
        "best": _cell_payload(report.best) if report.best is not None else None,
    }
    write_json(path, payload)
