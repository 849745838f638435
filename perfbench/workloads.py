"""End-to-end workloads: the joltlab CLI driven the way its users drive it.

Every workload is a closed loop with one client: the next CLI process is
spawned when the previous one has exited, and no new one is started once
``seconds`` have passed. The program only ever receives generated CSVs or a
``--seed``; its config is left at the defaults.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import median

HERE = Path(__file__).resolve().parent

FAMILIES = ("logquadratic", "injected_jolt", "exponential", "logistic")
TIERS = ("none", "low", "medium", "high")

DETECTION_KEYS = {"verdict", "score", "sub_scores", "intervals", "p_value"}
SUB_SCORE_KEYS = {"peak", "pattern", "duration"}

# sweep-n200: default axes (window {7,11,15,21} x decision_threshold
# {0.3..0.7}) over the default noise tiers {low, medium, high}. Thresholds
# share trial outcomes, so the sweep runs 3 x 4 outcome groups of
# 2 x SWEEP_TRIALS detections each.
SWEEP_TRIALS = 12
SWEEP_ROWS = 60
SWEEP_GROUPS = 12
SWEEP_DETECTIONS = SWEEP_GROUPS * 2 * SWEEP_TRIALS


def input_rng(seed: int, holdout: int | None):
    """Generator for a workload's inputs. A held-out seed draws from a
    stream disjoint from every development seed's stream."""
    import numpy as np

    key = (0,) if holdout is None else (1, holdout)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def make_series(rng, n: int):
    """One series per family x noise tier (16), in a seeded order.

    Parameters are drawn from the Monte Carlo harness's default ranges, and
    every series is made by the public ``growth.generate``.
    """
    from joltlab.growth import (
        Exponential, GridSpec, GrowthModelSpec, InjectedJolt, Logistic,
        LogQuadratic, NoiseSpec, generate,
    )
    from joltlab.montecarlo import TrialMix

    mix = TrialMix()

    def u(lo_hi):
        return float(rng.uniform(*lo_hi))

    def family(name):
        if name == "logquadratic":
            return LogQuadratic(c0=1.0, a=u(mix.k_range), b=u(mix.b_range))
        if name == "injected_jolt":
            start = u(mix.ramp_start_range)
            return InjectedJolt(
                base=Exponential(c0=1.0, k=u(mix.k_range)),
                jolt_start=start,
                jolt_end=start + u(mix.ramp_len_range),
                ramp_strength=u(mix.ramp_strength_range),
            )
        if name == "exponential":
            return Exponential(c0=1.0, k=u(mix.k_range))
        return Logistic(l=mix.logistic_l, r=u(mix.r_range), t0=u(mix.t0_range))

    out = []
    for name in FAMILIES:
        for tier in TIERS:
            spec = GrowthModelSpec(
                family=family(name),
                grid=GridSpec(n_points=n),
                noise=NoiseSpec(level=tier, seed=int(rng.integers(2**32))),
            )
            out.append((f"{name}-{tier}", generate(spec)[0]))
    return [out[i] for i in rng.permutation(len(out))]


def write_inputs(series, directory: Path):
    from joltlab.timeseries import write_csv

    paths = []
    for i, (name, s) in enumerate(series):
        path = directory / f"in{i:02d}-{name}.csv"
        write_csv(s, path)
        paths.append(path)
    return paths


@dataclass
class Request:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stderr: str
    problems: list = field(default_factory=list)


def spawn_cli(args, env, cwd: Path, log_prefix: Path) -> Request:
    """Run ``python -m joltlab.cli ARGS`` through ``launch.py``, which times it
    from spawn to exit and reads its peak RSS from wait4.

    The launcher leads a new process group, so an aborted benchmark kills
    the CLI and its pool workers along with it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), f"{log_prefix}.out", f"{log_prefix}.err",
         sys.executable, "-m", "joltlab.cli", *args],
        env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited {proc.returncode}")
    res = json.loads(stdout)
    stderr = Path(f"{log_prefix}.err").read_text(errors="replace")
    return Request(res["wall_s"], res["exit_code"], res["maxrss_mb"], stderr)


def setup_s(env, cwd: Path, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``import joltlab.cli``."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import joltlab.cli"],
                       env=env, cwd=cwd, check=True)
        walls.append(time.perf_counter() - t0)
    return median(walls)


def closed_loop(seconds: float, request):
    """Call ``request(i)`` back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    done = []
    while not done or time.perf_counter() < deadline:
        done.append(request(len(done)))
    return done


def tail(samples):
    """(value, percentile): the highest percentile, from p90 up, with >= 10
    samples above it. Below 100 samples there is none, and the maximum is
    reported instead."""
    xs = sorted(samples)
    if len(xs) >= 100:
        rank = len(xs) - 10
        return xs[rank - 1], 100.0 * rank / len(xs)
    return xs[-1], 100.0


def _data_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


def _check_detect(req: Request, out: Path, n: int, expected) -> None:
    p = req.problems
    if req.exit_code != 0:
        p.append(f"exit code {req.exit_code}: {req.stderr.strip()[-200:]}")
        return
    try:
        det = json.loads((out / "detection.json").read_text())
    except (OSError, ValueError) as exc:
        p.append(f"detection.json unreadable: {exc}")
        return
    if set(det) != DETECTION_KEYS or set(det["sub_scores"]) != SUB_SCORE_KEYS:
        p.append(f"detection.json keys {sorted(det)}")
        return
    verdict, score, p_value, threshold, alpha = expected
    if det["verdict"] != (det["score"] >= threshold and det["p_value"] <= alpha):
        p.append("verdict != (score >= threshold and p <= alpha)")
    if (det["verdict"], det["score"], det["p_value"]) != (verdict, score, p_value):
        p.append(f"detection {det['verdict'], det['score'], det['p_value']} != "
                 f"in-process {verdict, score, p_value}")
    for name in ("metrics.csv", "derivatives.csv"):
        rows = _data_rows(out / name)
        if rows != n:
            p.append(f"{name} has {rows} rows, expected {n}")


def _reference(path: Path):
    """(verdict, score, p, threshold, alpha) of an in-process hybrid_detect
    of one CSV, with the detector the CLI builds from its default config."""
    from joltlab import cli
    from joltlab.detector import hybrid_detect
    from joltlab.errors import JoltlabError
    from joltlab.timeseries import read_csv

    try:
        series = read_csv(path)
        config = cli.build_detector(cli.load_config(None), len(series))
        res = hybrid_detect(series, config)
    except JoltlabError as exc:
        return exc
    return (bool(res.verdict), float(res.score), float(res.p_value),
            config.decision_threshold, config.alpha_sig)


def run_detect(n, seed, holdout, seconds, env, root: Path, work: Path):
    """detect-nN: fresh ``joltlab detect`` processes on seeded n-point CSVs."""
    inputs = write_inputs(make_series(input_rng(seed, holdout), n), work)
    setup = setup_s(env, root)

    def request(i):
        out = work / f"req{i:03d}"
        return spawn_cli(["detect", str(inputs[i % len(inputs)]), "--out", str(out)],
                         env, root, out)

    requests = closed_loop(seconds, request)
    # correctness is checked after the timed loop
    expected = {}
    for i, req in enumerate(requests):
        path = inputs[i % len(inputs)]
        if path not in expected:
            expected[path] = _reference(path)
        if isinstance(expected[path], Exception):
            req.problems.append(f"in-process hybrid_detect failed: {expected[path]}")
        else:
            _check_detect(req, work / f"req{i:03d}", n, expected[path])
    completed = sum(1 for r in requests if r.exit_code == 0)
    return _summary(requests, setup, completed, attempted=len(requests),
                    failed=sum(1 for r in requests if r.problems))


def _check_sweep(req: Request, out: Path) -> None:
    p = req.problems
    if req.exit_code != 0:
        p.append(f"exit code {req.exit_code}: {req.stderr.strip()[-200:]}")
        return
    lines = (out / "heatmap.csv").read_text().splitlines()
    if len(lines) - 1 != SWEEP_ROWS:
        p.append(f"heatmap.csv has {len(lines) - 1} rows, expected {SWEEP_ROWS}")
    header = lines[0].split(",")
    groups = {(row.split(",")[header.index("noise_level")],
               row.split(",")[header.index("window")]) for row in lines[1:]}
    if len(groups) != SWEEP_GROUPS:
        p.append(f"{len(groups)} (noise, window) groups, expected {SWEEP_GROUPS}")
    report = json.loads((out / "report.json").read_text())
    for cell in report["cells"]:
        c = cell["counts"]
        if c["tp"] + c["fn"] != SWEEP_TRIALS or c["fp"] + c["tn"] != SWEEP_TRIALS:
            p.append(f"cell {cell['noise']} {cell['params']}: counts {c}")


def failed_trials(stderr: str) -> int:
    """MC trial failures, from the harness's ``trial failed`` warnings."""
    return sum("trial failed" in line for line in stderr.splitlines())


def run_sweep(seed, holdout, seconds, env, root: Path, work: Path, jobs: int):
    """sweep-n200: ``joltlab sweep --jobs nproc`` with default axes, seeded."""
    rng = input_rng(seed, holdout)
    setup = setup_s(env, root)

    def request(i):
        out = work / f"sweep{i:03d}"
        return spawn_cli(
            ["sweep", "--trials", str(SWEEP_TRIALS), "--jobs", str(jobs),
             "--seed", str(int(rng.integers(2**31))), "--out", str(out)],
            env, root, out)

    requests = closed_loop(seconds, request)
    failed = 0
    for i, req in enumerate(requests):
        _check_sweep(req, work / f"sweep{i:03d}")
        failed += SWEEP_DETECTIONS if req.problems else failed_trials(req.stderr)
    completed = SWEEP_DETECTIONS * sum(1 for r in requests if r.exit_code == 0)
    return _summary(requests, setup, completed,
                    attempted=SWEEP_DETECTIONS * len(requests), failed=failed)


def _summary(requests, setup, detections, attempted, failed):
    walls = [r.wall_s for r in requests]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_s": (median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
        "trials_per_s": (detections / sum(walls), "1/s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in requests), "MB"),
    }
    details = {
        "requests": len(requests),
        "latency_tail_percentile": tail_pct,
        "fail_frac": failed / attempted,
        "walls_s": walls,
        "problems": [p for r in requests for p in r.problems],
    }
    correct = all(not r.problems for r in requests)
    return metrics, details, attempted, failed, correct
