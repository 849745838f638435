"""Command-line front end.

Subcommands: generate, detect, metrics, mc, sweep. Runs are declarative: a
YAML config file holds model specs, noise, detector settings, Monte Carlo
grids and seeds; CLI flags override config keys one-to-one. Unknown config
keys, and values whose type differs from the default's, are rejected
(fail-closed).

Exit codes: 0 success, 2 usage/config error, 3 data contract violation,
4 internal numerical failure. Detection verdicts never drive exit codes.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import yaml

from .detector import DetectorConfig, hybrid_detect
from .errors import (
    ConfigError,
    DataError,
    JoltlabError,
    NumericalError,
    ParseError,
    SchemaError,
)
from .estimation import SavitzkyGolay, default_savgol, estimate_derivatives
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
from .metrics import compute_metrics
from .montecarlo import (
    MCCell,
    TrialMix,
    run_cells,
    summarize,
    sweeps,
    write_heatmap,
    write_report_json,
    write_table1,
)
from .timeseries import read_csv, write_csv

DEFAULT_CONFIG = {
    "seed": 0,
    "out": ".",
    "jobs": 1,
    "model": {
        "family": "logquadratic",
        "c0": 1.0,
        "a": 0.0,
        "b": 0.01,
        "k": 0.1,
        "l": 100.0,
        "r": 1.0,
        "t0": 10.0,
        "jolt_start": 5.0,
        "jolt_end": 10.0,
        "ramp_strength": 0.1,
    },
    "grid": {"t_start": 0.0, "t_end": 20.0, "n_points": 200},
    "noise": {"level": "none", "sigma_rel": None},
    "detector": {
        "window": None,
        "poly_order": 2,
        "threshold_peak": 3.0,
        "min_duration_frac": 0.25,
        "combine_weights": [1 / 3, 1 / 3, 1 / 3],
        "decision_threshold": 0.5,
        "n_perm": 499,
        "alpha_sig": 0.05,
    },
    "mc": {
        "n_trials": 1000,
        "noise_levels": ["low", "medium", "high"],
        "b_range": [0.005, 0.02],
        "k_range": [0.03, 0.12],
        "r_range": [0.5, 1.5],
        "t0_range": [8.0, 12.0],
        "injected_fraction": 0.5,
        "logistic_fraction": 0.5,
        "ramp_strength_range": [0.10, 0.35],
        "ramp_start_range": [5.0, 10.0],
        "ramp_len_range": [4.0, 8.0],
    },
    "sweep": {
        "window": [7, 11, 15, 21],
        "decision_threshold": [0.3, 0.4, 0.5, 0.6, 0.7],
        "budget": 64,
    },
}


def _check_type(full: str, default, value) -> None:
    # a None default takes a number or null, a float default any number, and
    # any other default exactly its own type (so a bool is not an int)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None:
        ok, expected = number or value is None, "a number or null"
    elif isinstance(default, float):
        ok, expected = number, "a number"
    else:
        ok, expected = type(value) is type(default), type(default).__name__
    if not ok:
        raise ConfigError(f"config key {full} must be {expected}, got {value!r}")


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        full = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {full}")
        if isinstance(defaults[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {full} must be a mapping")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, f"{full}.")
        else:
            _check_type(full, defaults[key], value)
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config file must contain a mapping")
    return _merge(DEFAULT_CONFIG, user)


def build_family(model: dict):
    family = model["family"]
    if family == "exponential":
        return Exponential(c0=model["c0"], k=model["k"])
    if family == "logistic":
        return Logistic(l=model["l"], r=model["r"], t0=model["t0"])
    if family == "logquadratic":
        return LogQuadratic(c0=model["c0"], a=model["a"], b=model["b"])
    if family == "injected_jolt":
        return InjectedJolt(
            base=Exponential(c0=model["c0"], k=model["k"]),
            jolt_start=model["jolt_start"],
            jolt_end=model["jolt_end"],
            ramp_strength=model["ramp_strength"],
        )
    raise ConfigError(f"unknown config key: model.family value {family!r}")


def build_spec(cfg: dict) -> GrowthModelSpec:
    grid = GridSpec(**cfg["grid"])
    noise = NoiseSpec(
        level=cfg["noise"]["level"],
        sigma_rel=cfg["noise"]["sigma_rel"],
        seed=cfg["seed"],
    )
    return GrowthModelSpec(family=build_family(cfg["model"]), grid=grid, noise=noise)


def build_detector(cfg: dict, n_points: int | None = None) -> DetectorConfig:
    d = cfg["detector"]
    smoother = None
    if d["window"] is not None:
        smoother = SavitzkyGolay(window=int(d["window"]), poly_order=int(d["poly_order"]))
    elif n_points is not None:
        smoother = default_savgol(n_points, poly_order=int(d["poly_order"]))
    return DetectorConfig(
        smoother=smoother,
        threshold_peak=d["threshold_peak"],
        min_duration_frac=d["min_duration_frac"],
        combine_weights=tuple(d["combine_weights"]),
        decision_threshold=d["decision_threshold"],
        n_perm=int(d["n_perm"]),
        alpha_sig=d["alpha_sig"],
        seed=cfg["seed"],
    )


def build_mix(cfg: dict) -> TrialMix:
    m = cfg["mc"]
    return TrialMix(
        b_range=tuple(m["b_range"]),
        k_range=tuple(m["k_range"]),
        r_range=tuple(m["r_range"]),
        t0_range=tuple(m["t0_range"]),
        injected_fraction=m["injected_fraction"],
        logistic_fraction=m["logistic_fraction"],
        ramp_strength_range=tuple(m["ramp_strength_range"]),
        ramp_start_range=tuple(m["ramp_start_range"]),
        ramp_len_range=tuple(m["ramp_len_range"]),
    )


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


class _OutputTracker:
    """Deletes partially written outputs if a command fails."""

    def __init__(self):
        self.paths = []

    def declare(self, path: Path) -> Path:
        self.paths.append(path)
        return path

    def cleanup(self):
        for path in self.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def _spec_payload(spec: GrowthModelSpec) -> dict:
    return {
        "family": type(spec.family).__name__,
        "params": dataclasses.asdict(spec.family),
        "grid": dataclasses.asdict(spec.grid),
        "noise": dataclasses.asdict(spec.noise),
    }


# --- subcommands --------------------------------------------------------------

def cmd_generate(cfg: dict) -> int:
    out = _out_dir(cfg)
    spec = build_spec(cfg)
    series, label = generate(spec)
    write_csv(series, out / "series.csv")
    sidecar = {"spec": _spec_payload(spec), "seed": cfg["seed"], "label": label}
    with open(out / "series.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out / 'series.csv'} (label={label})")
    return 0


def _load_input(path: str):
    try:
        return read_csv(path)
    except (ParseError, SchemaError, OSError) as exc:
        # malformed input file is a usage-level error for the CLI
        raise ConfigError(str(exc)) from None


def cmd_detect(cfg: dict, input_csv: str) -> int:
    series = _load_input(input_csv)
    config = build_detector(cfg, len(series))
    result = hybrid_detect(series, config)
    # derivative estimation needs poly_order >= 4; independent of the
    # detection smoother, which only takes a second derivative of log-values
    estimate = estimate_derivatives(series, None)
    metrics = compute_metrics(estimate)
    # every output is computed before any is written, so a failure leaves none
    out = _out_dir(cfg)
    result.to_json(out / "detection.json")
    metrics.write_csv(out / "metrics.csv")
    estimate.write_csv(out / "derivatives.csv")
    print(
        f"verdict={result.verdict} score={result.score:.3f} "
        f"p={result.p_value:.4f} -> {out / 'detection.json'}"
    )
    return 0


def cmd_metrics(cfg: dict, input_csv: str) -> int:
    out = _out_dir(cfg)
    series = _load_input(input_csv)
    estimate = estimate_derivatives(series, None)
    compute_metrics(estimate).write_csv(out / "metrics.csv")
    estimate.write_csv(out / "derivatives.csv")
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def _mc_cells(cfg: dict):
    grid = GridSpec(**cfg["grid"])
    mix = build_mix(cfg)
    detector = build_detector(cfg, grid.n_points)
    for noise in cfg["mc"]["noise_levels"]:
        yield MCCell(
            noise=noise,
            detector=detector,
            n_trials=int(cfg["mc"]["n_trials"]),
            master_seed=int(cfg["seed"]),
            mix=mix,
            grid=grid,
        )


def cmd_mc(cfg: dict) -> int:
    from .montecarlo import CellResult

    out = _out_dir(cfg)
    tracker = _OutputTracker()
    try:
        cells = list(_mc_cells(cfg))
        results = [
            CellResult(noise=cell.noise, params={}, counts=counts,
                       rates=summarize(counts))
            for cell, counts in zip(cells, run_cells(cells, jobs=int(cfg["jobs"])))
        ]
        write_table1(results, tracker.declare(out / "table1.csv"))
        metadata = {
            "master_seed": cfg["seed"],
            "n_trials": cfg["mc"]["n_trials"],
            "noise_levels": list(cfg["mc"]["noise_levels"]),
            "grid": cfg["grid"],
            "detector": cfg["detector"],
            "mix": cfg["mc"],
        }
        write_report_json(results, metadata, tracker.declare(out / "report.json"))
    except Exception:
        tracker.cleanup()
        raise
    print(f"wrote {out / 'table1.csv'} and {out / 'report.json'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    out = _out_dir(cfg)
    tracker = _OutputTracker()
    axes = {
        k: list(v)
        for k, v in cfg["sweep"].items()
        if k != "budget"
    }
    axis_names = list(axes.keys())
    try:
        reports = sweeps(
            axes, list(_mc_cells(cfg)), budget=int(cfg["sweep"]["budget"]),
            jobs=int(cfg["jobs"]),
        )
        all_cells = [cell for report in reports for cell in report.cells]
        metadata_runs = [report.metadata for report in reports]
        write_heatmap(all_cells, axis_names, tracker.declare(out / "heatmap.csv"))
        best = best_joint_configuration(all_cells, axis_names)
        metadata = {"runs": metadata_runs, "detector": cfg["detector"]}
        write_report_json(
            all_cells, metadata, tracker.declare(out / "report.json"), best=best
        )
    except Exception:
        tracker.cleanup()
        raise
    print(f"wrote {out / 'heatmap.csv'} and {out / 'report.json'}")
    return 0


def best_joint_configuration(cells, axis_names):
    """Cell whose configuration minimizes mean error rate across noise levels."""
    by_params = {}
    for cell in cells:
        key = tuple(cell.params[a] for a in axis_names)
        by_params.setdefault(key, []).append(cell)
    def keyfun(item):
        _, group = item
        mean_err = sum(c.rates.error_rate for c in group) / len(group)
        mean_fpr = sum(c.rates.fpr for c in group) / len(group)
        first = item[0][0] if axis_names else 0
        return (mean_err, mean_fpr, first)
    if not by_params:
        return None
    _, group = min(by_params.items(), key=keyfun)
    return group[0]


# --- entry point --------------------------------------------------------------

def _common_flags(parser):
    parser.add_argument("--config", default=None, help="YAML run config")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers")
    parser.add_argument("--trials", type=int, default=None,
                        help="override Monte Carlo trials per class")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="joltlab",
        description="Generate, analyze and detect superexponential capability growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic series CSV + sidecar")
    _common_flags(p)

    p = sub.add_parser("detect", help="run the hybrid jolt detector on a CSV")
    p.add_argument("input", help="input CSV (header 't,value')")
    _common_flags(p)

    p = sub.add_parser("metrics", help="compute jolt metrics for a CSV")
    p.add_argument("input", help="input CSV (header 't,value')")
    _common_flags(p)

    p = sub.add_parser("mc", help="Monte Carlo TPR/FPR table across noise levels")
    _common_flags(p)

    p = sub.add_parser("sweep", help="hyperparameter sweep with heatmap output")
    _common_flags(p)

    return parser


def _apply_overrides(cfg: dict, args) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.jobs is not None:
        cfg["jobs"] = args.jobs
    if args.trials is not None:
        cfg["mc"]["n_trials"] = args.trials
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "detect":
            return cmd_detect(cfg, args.input)
        if args.command == "metrics":
            return cmd_metrics(cfg, args.input)
        if args.command == "mc":
            return cmd_mc(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except JoltlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
