"""Per-layer measurements: the benchmark's traced run (``--trace 1``).

Each layer is measured from outside, by timing calls into the public
functions of its module. Cold calls run in fresh child interpreters
(``cold.py``), one at a time; warm calls, the traced ``detect`` pipeline and
the Monte Carlo harness run in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from cold import DETECTOR_PARTS
from spans import duration, median, median_call_s, self_times
from workloads import input_rng, make_series, write_inputs

HERE = Path(__file__).resolve().parent
SIZES = (200, 1000, 4000)
COLD_KINDS = ("savgol_apply", "estimate_derivatives", "detection_signal", "hybrid_detect")
CLI_IMPORTS = 3
CHILD_TIMEOUT_S = 150
PIPELINE_REPS = 30
MC_TRIALS = 40      # per class, per run_cell
TRACE_SWEEP_TRIALS = 5    # per class, per outcome group
SWEEP_AXES = {"window": [7, 11, 15, 21],
              "decision_threshold": [0.3, 0.4, 0.5, 0.6, 0.7]}
# every traced run measures the same family and noise tier, so that layer
# times do not depend on which family a seed happens to draw first
TRACE_SERIES = "injected_jolt-medium"


class Run:
    """Metrics, details and failures gathered by one traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics = {}
        self.details = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


class _FailedTrials(logging.Handler):
    """Counts the Monte Carlo harness's ``trial failed`` warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "trial failed" in record.getMessage():
            self.count += 1


def _cold_child(kind, csv, work, env, root):
    out = work / f"cold-{kind}-{csv.stem}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), kind, str(csv), str(out)],
        env=env, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold {kind} {csv.name}: {proc.stderr.strip()[-300:]}")
    return json.loads(out.read_text())


def _cold_layers(run: Run, csvs, work, env, root):
    children = {}
    jobs = [("cli", work / "none.csv")] * CLI_IMPORTS
    jobs += [(kind, csvs[n]) for n in SIZES for kind in COLD_KINDS]
    for kind, csv in jobs:
        run.attempted += 1
        try:
            res = _cold_child(kind, csv, work, env, root)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            run.failed += 1
            run.problems.append(str(exc))
            continue
        run.tracer.spans.extend(res.pop("spans"))
        children.setdefault(kind, []).append(res)
    if run.problems:
        return

    def imports(*kinds):
        return median([c["import_s"] for k in kinds for c in children[k]])

    run.put("cli.import_s", imports("cli"), "s")
    run.put("estimation.import_s", imports("savgol_apply", "estimate_derivatives"), "s")
    run.put("detector.import_s", imports("detection_signal", "hybrid_detect"), "s")
    for i, n in enumerate(SIZES):
        sa, ed, ds, hd = (children[k][i] for k in COLD_KINDS)
        sfx = f".n{n}"
        run.put("estimation.savgol_apply_cold_s" + sfx, sa["cold_s"], "s")
        run.put("estimation.savgol_apply_warm_s" + sfx, ed["savgol_apply_warm_s"], "s")
        run.put("estimation.estimate_derivatives_cold_s" + sfx, ed["cold_s"], "s")
        run.put("estimation.estimate_derivatives_warm_s" + sfx, ed["warm_s"], "s")
        run.put("estimation.cold_peak_mb" + sfx, ed["cold_peak_mb"], "MB")
        run.put("metrics.compute_metrics_s" + sfx, ed["compute_metrics_s"], "s")
        run.put("detector.detection_signal_cold_s" + sfx, ds["cold_s"], "s")
        run.put("detector.detection_signal_warm_s" + sfx, hd["detection_signal_warm_s"], "s")
        for part in ("peak", "pattern", "duration", "permutation_test"):
            run.put(f"detector.{part}_s" + sfx, hd[f"{part}_s"], "s")
        run.put("detector.hybrid_detect_cold_s" + sfx, hd["cold_s"], "s")
        run.put("detector.hybrid_detect_warm_s" + sfx, hd["warm_s"], "s")
        run.put("detector.unattributed_frac" + sfx, hd["unattributed_frac"], "ratio")
    run.details["permutation_test_n_perm"] = children["hybrid_detect"][0]["n_perm"]


def _io_layers(run: Run, series, work):
    from joltlab.growth import GrowthModelSpec, LogQuadratic, NoiseSpec, generate
    from joltlab.timeseries import read_csv, write_csv

    for n in SIZES:
        path = work / f"io-n{n}.csv"
        run.put(f"timeseries.write_csv_s.n{n}",
                median_call_s(lambda: write_csv(series[n], path)), "s")
        run.put(f"timeseries.read_csv_s.n{n}", median_call_s(lambda: read_csv(path)), "s")
    spec = GrowthModelSpec(family=LogQuadratic(), noise=NoiseSpec(level="medium", seed=1))
    run.put("growth.generate_s.n200", median_call_s(lambda: generate(spec)), "s")


def _pipeline(run: Run, csv, work):
    """``joltlab detect`` in process, untraced and traced in alternation."""
    from joltlab import cli, detector, estimation, metrics

    argv = ["detect", str(csv), "--out", str(work / "pipeline")]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("in-process detect failed")

    targets = [
        (cli, "cmd_detect", "cli.cmd_detect"),
        (cli, "read_csv", "timeseries.read_csv"),
        (cli, "build_detector", "cli.build_detector"),
        (cli, "hybrid_detect", "detector.hybrid_detect"),
        (cli, "estimate_derivatives", "estimation.estimate_derivatives"),
        (cli, "compute_metrics", "metrics.compute_metrics"),
        (detector.DetectionResult, "to_json", "detector.DetectionResult.to_json"),
        (metrics.JoltMetrics, "write_csv", "metrics.JoltMetrics.write_csv"),
        (estimation.DerivativeEstimate, "write_csv", "estimation.DerivativeEstimate.write_csv"),
    ] + [(detector, name, f"detector.{name}") for name in DETECTOR_PARTS]
    tracer = run.tracer
    call()  # builds the operators: the pipeline is measured warm
    plain, traced = [], []
    for rep in range(PIPELINE_REPS):
        run.attempted += 2
        t0 = time.perf_counter()
        call()
        plain.append(time.perf_counter() - t0)
        tracer.request = f"cmd_detect#{rep}"
        with tracer.patched(targets), tracer.span("cli.main") as root:
            call()
        traced.append(duration(root))
    tracer.request = None
    run.put("trace.pipeline_s", median(plain), "s")
    run.put("trace.overhead_frac", median(traced) / median(plain) - 1.0, "ratio")
    spans = [s for s in tracer.spans if str(s["request"]).startswith("cmd_detect#")]
    for name, values in sorted(self_times(spans).items()):
        run.put(f"trace.self_s.{name}", median(values), "s")


def _montecarlo(run: Run, seed, jobs):
    from joltlab import cli, montecarlo
    from joltlab.growth import GridSpec

    grid = GridSpec()
    cell = montecarlo.MCCell(
        noise="medium",
        detector=cli.build_detector(cli.load_config(None), grid.n_points),
        n_trials=MC_TRIALS, master_seed=seed, grid=grid,
    )
    tracer = run.tracer
    failures = _FailedTrials()
    logger = logging.getLogger(montecarlo.__name__)
    logger.addHandler(failures)
    real_detect = montecarlo.hybrid_detect
    detections = 0

    def counted(*args, **kwargs):
        nonlocal detections
        detections += 1
        return real_detect(*args, **kwargs)

    try:
        walls, counts = {}, {}
        for j in (1, jobs):
            tracer.request = f"run_cell-j{j}"
            with tracer.span("montecarlo.run_cell") as sp:
                counts[j] = montecarlo.run_cell(cell, jobs=j)
            walls[j] = duration(sp)
        template = replace(cell, n_trials=TRACE_SWEEP_TRIALS)
        montecarlo.hybrid_detect = counted
        tracer.request = "sweep-j1"
        with tracer.span("montecarlo.sweep"):
            report = montecarlo.sweep(SWEEP_AXES, template, jobs=1)
    finally:
        montecarlo.hybrid_detect = real_detect
        logger.removeHandler(failures)
        tracer.request = None

    trials = 2 * MC_TRIALS
    run.attempted += 2 * trials + detections
    run.failed += failures.count
    if counts[1] != counts[jobs]:
        run.problems.append(f"run_cell jobs=1 {counts[1]} != jobs={jobs} {counts[jobs]}")
        run.failed += trials
    for c in report.cells:
        k = c.counts
        if k.tp + k.fn != TRACE_SWEEP_TRIALS or k.fp + k.tn != TRACE_SWEEP_TRIALS:
            run.problems.append(f"sweep cell {c.params}: counts {k}")
    rate1, rate_n = trials / walls[1], trials / walls[jobs]
    groups = detections / (2 * TRACE_SWEEP_TRIALS)
    run.put("montecarlo.trial_s", walls[1] / trials, "s")
    run.put("montecarlo.trials_per_s.j1", rate1, "1/s")
    run.put("montecarlo.trials_per_s.jN", rate_n, "1/s")
    run.put("montecarlo.scaling_eff", rate_n / (jobs * rate1), "ratio")
    run.put("montecarlo.dispatch_overhead_s", walls[jobs] - walls[1] / jobs, "s")
    run.put("montecarlo.failed_trials", failures.count, "count")
    run.put("montecarlo.outcome_share", len(report.cells) / groups, "ratio")
    run.details.update({
        "montecarlo_jobs_N": jobs,
        "montecarlo_trials_per_run_cell": trials,
        "montecarlo_counts": {f"j{j}": vars(c) for j, c in counts.items()},
        "montecarlo_outcome_share_base_groups": groups,
        "montecarlo_sweep_cells": len(report.cells),
    })


def run_traced(seed, holdout, env, root: Path, work: Path, jobs: int, tracer):
    """The traced run: returns (metrics, details, attempted, failed, correct)."""
    rng = input_rng(seed, holdout)
    series, csvs = {}, {}
    for n in SIZES:
        named = dict(make_series(rng, n))
        series[n] = named[TRACE_SERIES]
        (csvs[n],) = write_inputs([(TRACE_SERIES + f"-n{n}", series[n])], work)
    run = Run(tracer)
    _cold_layers(run, csvs, work, env, root)
    _io_layers(run, series, work)
    try:
        _pipeline(run, csvs[200], work)
    except RuntimeError as exc:
        run.problems.append(str(exc))
        run.failed += 1
    _montecarlo(run, seed, jobs)
    run.details["problems"] = run.problems
    return run.metrics, run.details, run.attempted, run.failed, not run.problems
