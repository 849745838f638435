"""Command-line front end.

Subcommands: generate, detect, metrics, mc, sweep. Runs are declarative: a
YAML config file holds model specs, noise, detector settings, Monte Carlo
grids and seeds; CLI flags override config keys one-to-one. Each command is
declared once, in ``_COMMANDS`` (its help, input CSV, flags and config
sections), and each flag in ``_FLAGS`` (the config key it overrides and its
help). Unknown config keys, and values whose type differs from the
default's, are rejected (fail-closed).

Exit codes: 0 success, 2 usage/config error, 3 data contract violation.
Detection verdicts never drive exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import gc
import os
import sys
from pathlib import Path

# One BLAS thread unless the user set a count: OpenBLAS's helper thread spins
# on a spare CPU, joltlab's largest product is one (window - 1) x n_perm gemv,
# and mc and sweep fork processes instead. OpenBLAS reads these variables
# once, when numpy loads, so a process that loaded numpy first is left as it is.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ["OMP_NUM_THREADS"] = "1"

from .detector import DETECTION_POLY_ORDER, DetectorConfig, hybrid_detect
from .errors import ConfigError, DataError, JoltlabError, ParseError, SchemaError
from .estimation import SavitzkyGolay, default_savgol, estimate_derivatives
from .metrics import compute_metrics
from .timeseries import read_csv, write_csv, write_json


def _families() -> dict:
    from .growth import Exponential, InjectedJolt, Logistic, LogQuadratic

    return {
        "exponential": Exponential,
        "logistic": Logistic,
        "logquadratic": LogQuadratic,
        "injected_jolt": InjectedJolt,
    }


def _defaults(*classes, skip=()) -> dict:
    """Config section of the field defaults of ``classes``. Tuples become
    lists, the type YAML gives them, so that ``_check_type`` accepts them."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }


# the library dataclasses own every default; seed, out, jobs, the Monte Carlo
# trial count and noise levels, and the sweep grid belong to the CLI alone.
# These sections need no module that detection does not import.
_BASE_CONFIG = {
    "seed": 0,
    "out": ".",
    "jobs": 1,
    "detector": {
        "window": None,
        "poly_order": DETECTION_POLY_ORDER,
        **_defaults(DetectorConfig, skip={"smoother", "seed"}),
    },
    "sweep": {
        "window": [7, 11, 15, 21],
        "decision_threshold": [0.3, 0.4, 0.5, 0.6, 0.7],
        "budget": 64,
    },
}


def _growth_sections() -> dict:
    from .growth import GridSpec, NoiseSpec

    return {
        "model": {"family": "logquadratic", **_defaults(*_families().values(), skip={"base"})},
        "grid": _defaults(GridSpec),
        "noise": _defaults(NoiseSpec, skip={"seed"}),
    }


def _mc_section() -> dict:
    from .montecarlo import MCCell, TrialMix

    return {"mc": {
        "n_trials": MCCell.n_trials,
        "noise_levels": ["low", "medium", "high"],
        **_defaults(TrialMix, skip={"logistic_l"}),
    }}


_ALL_SECTIONS = (_growth_sections, _mc_section)

# each command: its help, whether it reads an input CSV, its flags beyond
# --config and --out, and the config sections it reads beyond the base ones.
# Building a section imports its module, so detect and metrics load neither
# the generators nor the Monte Carlo harness.
_COMMANDS = {
    "generate": ("generate a synthetic series CSV + sidecar", False, ("--seed",),
                 (_growth_sections,)),
    "detect": ("run the hybrid jolt detector on a CSV", True, ("--seed",), ()),
    "metrics": ("compute jolt metrics for a CSV", True, (), ()),
    "mc": ("Monte Carlo TPR/FPR table across noise levels", False,
           ("--seed", "--jobs", "--trials"), _ALL_SECTIONS),
    "sweep": ("hyperparameter sweep with heatmap output", False,
              ("--seed", "--jobs", "--trials"), _ALL_SECTIONS),
}

# each flag that overrides a config key: the key, the flag's type and its help
_FLAGS = {
    "--out": ("out", str, "output directory override"),
    "--seed": ("seed", int, "master seed override"),
    "--jobs": ("jobs", int, "parallel workers"),
    "--trials": ("mc.n_trials", int, "override Monte Carlo trials per class"),
}


def _default_config(command: str | None = None) -> dict:
    """A fresh copy of the defaults of the sections ``command`` reads (all
    of them when None)."""
    cfg = copy.deepcopy(_BASE_CONFIG)
    for section in _COMMANDS[command][3] if command else _ALL_SECTIONS:
        cfg.update(section())
    return cfg


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
        if key not in defaults and path != "sweep.":  # sweep axes: the library checks them
            raise ConfigError(f"unknown config key: {full}")
        default = defaults.get(key, [])
        if isinstance(default, dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {full} must be a mapping")
        if isinstance(default, dict):
            out[key] = _merge(default, value, f"{full}.")
        else:
            _check_type(full, default, value)
            out[key] = value
    return out


def load_config(path: str | None, command: str | None = None) -> dict:
    """The defaults merged with the YAML mapping at ``path``, which is checked
    against every section. Without a file, only the defaults of the sections
    ``command`` reads (all of them when None)."""
    if path is None:
        return _default_config(command)
    import yaml  # only a config file needs it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config file must contain a mapping")
    return _merge(_default_config(), user)


def _build(cls, section: dict, **extra):
    """``cls`` from the keys of ``section`` that are its fields, with lists
    turned back into tuples, plus ``extra``."""
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in section.items() if k in names
    }
    return cls(**kwargs, **extra)


def build_family(model: dict):
    family, families = model["family"], _families()
    if family not in families:
        raise ConfigError(f"unknown config key: model.family value {family!r}")
    extra = {"base": _build(families["exponential"], model)} if family == "injected_jolt" else {}
    return _build(families[family], model, **extra)


def build_spec(cfg: dict) -> GrowthModelSpec:
    from .growth import GridSpec, GrowthModelSpec, NoiseSpec

    grid = _build(GridSpec, cfg["grid"])
    noise = _build(NoiseSpec, cfg["noise"], seed=cfg["seed"])
    return GrowthModelSpec(family=build_family(cfg["model"]), grid=grid, noise=noise)


def build_detector(cfg: dict, n_points: int) -> DetectorConfig:
    d = cfg["detector"]
    window = d["window"]
    if window is not None:
        if not float(window).is_integer():
            raise ConfigError(
                f"config key detector.window must be a whole number or null, got {window!r}"
            )
        smoother = SavitzkyGolay(window=int(window), poly_order=d["poly_order"])
    else:
        smoother = default_savgol(n_points, poly_order=d["poly_order"])
    return _build(DetectorConfig, d, smoother=smoother, seed=cfg["seed"])


def _write_outputs(cfg: dict, writers: dict) -> Path:
    """Create the ``out`` directory and call each ``writers[name]`` with the
    path of ``name`` there. A command writes all of its outputs or none: on
    a failure the files already written are removed, and an OSError becomes
    a ConfigError naming the path that could not be written."""
    target = out = Path(cfg["out"])
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            target = out / name
            written.append(target)
            write(target)
    except Exception as exc:
        for path in written:
            with contextlib.suppress(OSError):  # e.g. a directory of that name
                path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from None
        raise
    return out


def _spec_payload(spec: GrowthModelSpec) -> dict:
    return {
        "family": type(spec.family).__name__,
        "params": dataclasses.asdict(spec.family),
        "grid": dataclasses.asdict(spec.grid),
        "noise": dataclasses.asdict(spec.noise),
    }


# --- subcommands --------------------------------------------------------------

def cmd_generate(cfg: dict) -> int:
    from .growth import generate

    spec = build_spec(cfg)
    series, label = generate(spec)
    sidecar = {"spec": _spec_payload(spec), "seed": cfg["seed"], "label": label}
    out = _write_outputs(cfg, {
        "series.csv": lambda path: write_csv(series, path),
        "series.json": lambda path: write_json(path, sidecar),
    })
    print(f"wrote {out / 'series.csv'} (label={label})")
    return 0


def _load_input(path: str):
    try:
        return read_csv(path)
    except (ParseError, SchemaError, OSError) as exc:
        # malformed input file is a usage-level error for the CLI
        raise ConfigError(str(exc)) from None


def _metric_writers(series) -> dict:
    """Writers of ``metrics.csv`` and ``derivatives.csv``, with the metrics'
    own default smoother (poly_order 4), not the detection smoother."""
    estimate = estimate_derivatives(series)
    return {"metrics.csv": compute_metrics(estimate).write_csv,
            "derivatives.csv": estimate.write_csv}


def cmd_detect(cfg: dict, input_csv: str) -> int:
    series = _load_input(input_csv)
    result = hybrid_detect(series, build_detector(cfg, len(series)))
    # every output is computed before any is written, so a failure leaves none
    out = _write_outputs(cfg, {"detection.json": result.to_json, **_metric_writers(series)})
    print(
        f"verdict={result.verdict} score={result.score:.3f} "
        f"p={result.p_value:.4f} -> {out / 'detection.json'}"
    )
    return 0


def cmd_metrics(cfg: dict, input_csv: str) -> int:
    out = _write_outputs(cfg, _metric_writers(_load_input(input_csv)))
    print(f"wrote {out / 'metrics.csv'}")
    return 0


def _mc_cells(cfg: dict) -> list:
    from .growth import GridSpec
    from .montecarlo import MCCell, TrialMix

    if not cfg["mc"]["noise_levels"]:
        raise ConfigError("config key mc.noise_levels must list at least one noise level")
    grid = _build(GridSpec, cfg["grid"])
    detector, mix = build_detector(cfg, grid.n_points), _build(TrialMix, cfg["mc"])
    return [
        _build(MCCell, cfg["mc"], noise=noise, detector=detector,
               master_seed=cfg["seed"], mix=mix, grid=grid)
        for noise in cfg["mc"]["noise_levels"]
    ]


def cmd_mc(cfg: dict) -> int:
    from .montecarlo import sweeps, write_report_json, write_table1

    # a sweep with no axes: one cell per noise level
    results = sweeps({}, _mc_cells(cfg), jobs=cfg["jobs"]).cells
    metadata = {
        "master_seed": cfg["seed"],
        "n_trials": cfg["mc"]["n_trials"],
        "noise_levels": list(cfg["mc"]["noise_levels"]),
        "grid": cfg["grid"],
        "detector": cfg["detector"],
        "mix": cfg["mc"],
    }
    out = _write_outputs(cfg, {
        "table1.csv": lambda path: write_table1(results, path),
        "report.json": lambda path: write_report_json(results, metadata, path),
    })
    print(f"wrote {out / 'table1.csv'} and {out / 'report.json'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    from .montecarlo import axis_paths, sweeps, write_heatmap, write_report_json

    axes = {k: list(v) for k, v in cfg["sweep"].items() if k != "budget"}
    axis_paths(axes)  # an unknown axis fails first, not as a key it would replace
    cells, defaults = _mc_cells(cfg), _default_config()
    # every row runs its own axis value, never that of a section a cell is built from
    for section, name in ((s, n) for s in ("detector", "mc", "grid") for n in axes):
        if name in cfg[section] and cfg[section][name] != defaults[section][name]:
            raise ConfigError(f"config key {section}.{name} is replaced by the axis sweep.{name}")
    report = sweeps(axes, cells, budget=cfg["sweep"]["budget"], jobs=cfg["jobs"])
    metadata = {**report.metadata, "detector": cfg["detector"]}
    out = _write_outputs(cfg, {
        "heatmap.csv": lambda path: write_heatmap(report.cells, list(axes), path),
        "report.json": lambda path: write_report_json(report.cells, metadata, path,
                                                      best=report.best),
    })
    print(f"wrote {out / 'heatmap.csv'} and {out / 'report.json'}")
    return 0


# --- entry point --------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="joltlab",
        description="Generate, analyze and detect superexponential capability growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, reads_input, flags, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        if reads_input:
            p.add_argument("input", help="input CSV (header 't,value')")
        # only the flags the command reads are registered; any other exits 2
        p.add_argument("--config", help="YAML run config")
        for flag in ("--out", *flags):
            _, kind, text = _FLAGS[flag]
            p.add_argument(flag, type=kind, help=text)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Once the command's config is built, it freezes the garbage collector's
    heap (``gc.freeze``). Building the config imports every joltlab module
    the command runs, so what exists then, the modules and their import-time
    objects, lives until the process exits. Frozen objects are never scanned
    again, so interpreter exit neither walks nor frees that heap, and the
    Monte Carlo workers forked later do not copy its pages when they collect.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        for flag, (key, _, _) in _FLAGS.items():
            value = getattr(args, flag[2:], None)  # None: not given, or not the command's
            if value is not None:
                section, _, name = key.rpartition(".")
                (cfg[section] if section else cfg)[name] = value
        # the import-time heap lives until exit, so no collection need ever scan it
        gc.freeze()
        # looked up when it runs, so that a patched cli.cmd_<command> is called
        cmd = globals()[f"cmd_{args.command}"]
        return cmd(cfg, args.input) if "input" in args else cmd(cfg)
    except JoltlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DataError) else 2


if __name__ == "__main__":
    sys.exit(main())
