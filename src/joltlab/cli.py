"""Command-line front end.

Subcommands: generate, detect, metrics, mc, sweep. Runs are declarative: a
YAML config file holds model specs, noise, detector settings, Monte Carlo
grids and seeds; CLI flags override config keys one-to-one. Each command is
declared once, in ``_COMMANDS`` (its help, input CSV, flags and config
sections), and each flag in ``_FLAGS`` (the config key it overrides and its
help). Unknown config keys are rejected (fail-closed). Once the file and the
flags are merged, every key of every section is checked once, whatever the
command, by the contract of the spec field it sets: a section is its spec's
own fields, and ``_Keys`` declares the keys of the CLI alone. The error names
the key, or the flag that set it.

Exit codes: 0 success, 2 usage/config error, 3 data contract violation.
Detection verdicts never drive exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
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

from .detector import DetectorConfig, hybrid_detect
from .errors import ConfigError, DataError, JoltlabError, Spec, real, text, whole
from .estimation import estimate_derivatives
from .metrics import compute_metrics
from .timeseries import read_csv, write_csv, write_json

_FAMILIES = ("exponential", "logistic", "logquadratic", "injected_jolt")


def _families() -> dict:
    from .growth import Exponential, InjectedJolt, Logistic, LogQuadratic

    return dict(zip(_FAMILIES, (Exponential, Logistic, LogQuadratic, InjectedJolt)))


def _listing(least: int, wording: str, each=lambda value: True):
    """The test of a list of at least ``least`` values, each passing ``each``."""
    return lambda x: (None if isinstance(x, list) and len(x) >= least and all(map(each, x))
                      else wording)


# an axis's values are checked where they are used
_AXIS = _listing(2, "list at least two values")  # any sweep key but budget
# a noise level is a name, which NoiseSpec checks when its cell is built
# (detection does not import growth), or a relative sigma
_NAME, _SIGMA = text("low").metadata["contract"], real(ge=0).metadata["contract"]


@dataclasses.dataclass(init=False, repr=False, eq=False)  # never built: its fields are read
class _Keys(Spec):
    """The config keys of the CLI alone, by last name (sweep.budget, ...)."""

    seed: int = whole(0, ge=0)
    out: str = text(".")
    # at most 256 forked workers, each a copy of this process (about 40 MB
    # resident); workers beyond the usable CPUs never start
    jobs: int = whole(1, ge=1, le=256)
    # each cell runs mc.n_trials trials a class: up to 8.2 million detections
    # at the ceiling and the default 1000 trials
    budget: int = whole(64, ge=1, le=4096)
    noise_levels: tuple = dataclasses.field(default=("low", "medium", "high"), metadata={
        "contract": _listing(1, "list at least one noise level, each a name or a finite "
                                "number >= 0", lambda v: _NAME(v) is None or _SIGMA(v) is None)})
    family: str = text("logquadratic", among=_FAMILIES)


def _section(*specs, skip=()) -> dict:
    """Config section of the contracted fields of ``specs`` not in ``skip``:
    each key's default and contract test."""
    return {f.name: (f.default, f.metadata["contract"])
            for spec in specs for f in dataclasses.fields(spec)
            if "contract" in f.metadata and f.name not in skip}


_OWN = _section(_Keys)

# the library specs own every other default; a seed field skipped here is set
# by the top-level seed. These sections need no module that detection does
# not import.
_BASE_CONFIG = {
    **{key: _OWN[key] for key in ("seed", "out", "jobs")},
    "detector": _section(DetectorConfig, skip={"seed"}),
    "sweep": {
        "window": ((7, 11, 15, 21), _AXIS),
        "decision_threshold": ((0.3, 0.4, 0.5, 0.6, 0.7), _AXIS),
        "budget": _OWN["budget"],
    },
}


def _growth_sections() -> dict:
    from .growth import GridSpec, NoiseSpec

    return {
        "model": {"family": _OWN["family"], **_section(*_families().values())},
        "grid": _section(GridSpec),
        "noise": _section(NoiseSpec, skip={"seed"}),
    }


def _mc_section() -> dict:
    from .montecarlo import MCCell, TrialMix

    return {"mc": {"noise_levels": _OWN["noise_levels"],
                   **_section(MCCell, TrialMix, skip={"master_seed"})}}


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


def _schema(command: str | None) -> dict:
    """The default and contract test of each key of the sections ``command``
    reads (all of them when None)."""
    schema = dict(_BASE_CONFIG)
    for section in _COMMANDS[command][3] if command else _ALL_SECTIONS:
        schema.update(section())
    return schema


def _values(schema: dict) -> dict:
    """Fresh defaults of ``schema``, each tuple as a list: the type YAML gives."""
    return {key: _values(entry) if isinstance(entry, dict)
            else list(entry[0]) if isinstance(entry[0], tuple) else entry[0]
            for key, entry in schema.items()}


def _merge(cfg: dict, user: dict, path: str = "") -> None:
    for key, value in user.items():
        full = f"{path}{key}"
        if key not in cfg and path != "sweep.":  # any sweep key but budget is an axis
            raise ConfigError(f"unknown config key: {full}")
        if isinstance(cfg.get(key), dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {full} must be a mapping")
        if isinstance(cfg.get(key), dict):
            _merge(cfg[key], value, f"{full}.")
        else:
            cfg[key] = value


def _check(cfg: dict, schema: dict, flags: dict, path: str = "") -> None:
    """Check each value of ``cfg`` by the contract test of its key in
    ``schema``; an error names the key, or the flag in ``flags`` that set it."""
    for key, value in cfg.items():
        full, entry = f"{path}{key}", schema.get(key, (None, _AXIS))
        if isinstance(entry, dict):
            _check(value, entry, flags, f"{full}.")
        elif (wrong := entry[1](value)) is not None:
            name = flags.get(full, f"config key {full}")
            raise ConfigError(f"{name} must {wrong}, got {value!r}")


def load_config(path: str | None, command: str | None = None, flags: dict | None = None) -> dict:
    """The defaults merged with the YAML mapping at ``path``, then with
    ``flags`` ({flag: value}), every key checked by its contract. A file is
    merged with every section; without one, only the sections ``command``
    reads are built (all of them when None)."""
    schema = _schema(command if path is None else None)
    cfg = _values(schema)
    if path is not None:
        import yaml  # only a config file needs it

        from .montecarlo import axis_paths

        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a mapping")
        _merge(cfg, user)
        # an unknown axis fails first, not as a flag or a key it would replace
        axis_paths([key for key in cfg["sweep"] if key != "budget"])
    for flag, value in (flags or {}).items():
        section, _, name = _FLAGS[flag][0].rpartition(".")
        (cfg[section] if section else cfg)[name] = value
    _check(cfg, schema, {_FLAGS[flag][0]: flag for flag in flags or {}})
    return cfg


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
    extra = {"base": _build(families["exponential"], model)} if family == "injected_jolt" else {}
    return _build(families[family], model, **extra)


def build_spec(cfg: dict) -> GrowthModelSpec:
    from .growth import GridSpec, GrowthModelSpec, NoiseSpec

    grid = _build(GridSpec, cfg["grid"])
    noise = _build(NoiseSpec, cfg["noise"], seed=cfg["seed"])
    return GrowthModelSpec(family=build_family(cfg["model"]), grid=grid, noise=noise)


def build_detector(cfg: dict, n_points: int) -> DetectorConfig:
    """The detector of ``cfg``; a null window is the default for each series.
    ``n_points`` is unused: ``perfbench/`` calls ``build_detector(cfg, n)`` by name."""
    return _build(DetectorConfig, cfg["detector"], seed=cfg["seed"])


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
    except OSError as exc:  # an unreadable input file is a usage error
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
    from .montecarlo import sweeps, write_heatmap, write_report_json

    axes = {k: list(v) for k, v in cfg["sweep"].items() if k != "budget"}
    cells, defaults = _mc_cells(cfg), load_config(None)
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
            _, kind, about = _FLAGS[flag]
            p.add_argument(flag, type=kind, help=about)
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
    # a flag not given is None, and one the command does not read is missing
    flags = {f: getattr(args, f[2:]) for f in _FLAGS if getattr(args, f[2:], None) is not None}
    try:
        cfg = load_config(args.config, args.command, flags)
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
