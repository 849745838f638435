import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import joltlab
from joltlab import cli, montecarlo
from joltlab.cli import build_detector, load_config, main
from joltlab.detector import DetectorConfig
from joltlab.errors import DataError
from joltlab.montecarlo import MCCell, sweep
from joltlab.timeseries import MAX_POINTS, read_csv


def run(argv):
    return main(argv)


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


@pytest.fixture
def fast_mc(tmp_path):
    return write_config(tmp_path, {
        "mc": {"n_trials": 10},
        "detector": {"n_perm": 99},
        "grid": {"n_points": 100},
    })


# --- generate -----------------------------------------------------------------

def test_generate_exponential_log_affine(tmp_path):
    cfg = write_config(tmp_path, {"model": {"family": "exponential", "k": 0.1}})
    out = tmp_path / "out"
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    series = read_csv(out / "series.csv")
    logv = np.log(series.values)
    fit = np.polynomial.Polynomial.fit(series.times, logv, 1)
    np.testing.assert_allclose(logv, fit(series.times), atol=1e-9)
    sidecar = json.loads((out / "series.json").read_text())
    assert sidecar["label"] is False
    assert sidecar["spec"]["family"] == "Exponential"


def test_generate_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"noise": {"level": "medium"}, "seed": 3})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["generate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"detektor": {"window": 11}})
    assert run(["generate", "--config", cfg]) == 2
    assert "unknown config key: detektor" in capsys.readouterr().err


def test_unknown_nested_key_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"detector": {"windw": 11}})
    assert run(["generate", "--config", cfg]) == 2
    assert "detector.windw" in capsys.readouterr().err


# at least one value outside each config key's contract, and one for each
# flag; a key of load_config(None) without a row, or a row whose key has no
# contract, fails the tests below
BIG = 10**400  # past float range, and past every ceiling
OUTSIDE = [
    ("seed", -1), ("seed", "abc"), ("seed", True), ("out", ""), ("out", 5), ("jobs", 0),
    ("jobs", 257),
    ("detector.window", 7.0), ("detector.window", "x"), ("detector.window", 3),
    ("detector.poly_order", -1), ("detector.poly_order", 1), ("detector.threshold_peak", 0),
    ("detector.min_duration_frac", 1.5), ("detector.combine_weights", 1),
    ("detector.decision_threshold", 1), ("detector.n_perm", 199.5), ("detector.n_perm", "abc"),
    ("detector.n_perm", BIG), ("detector.alpha_sig", 0),
    ("sweep.window", 7), ("sweep.decision_threshold", [0.5]), ("sweep.budget", -1),
    ("sweep.budget", BIG),
    ("model.family", "nope"), ("model.c0", 0), ("model.k", math.nan), ("model.l", -1),
    ("model.r", 0), ("model.t0", "10"), ("model.a", None), ("model.b", math.inf),
    ("model.jolt_start", True), ("model.jolt_end", [10]), ("model.ramp_strength", -0.1),
    ("grid.t_start", None), ("grid.t_end", "20"), ("grid.n_points", 5), ("grid.n_points", "a"),
    ("grid.n_points", BIG),
    ("noise.level", 3), ("noise.sigma_rel", -0.1),
    ("mc.n_trials", 0), ("mc.n_trials", BIG), ("mc.noise_levels", []), ("mc.noise_levels", "low"),
    ("mc.noise_levels", [None]), ("mc.noise_levels", [True]), ("mc.noise_levels", [-0.1]),
    ("mc.b_range", [0.02, 0.005]), ("mc.k_range", [0.03]), ("mc.r_range", "x"),
    ("mc.t0_range", [8, math.inf]), ("mc.logistic_l", 0), ("mc.injected_fraction", 1.5),
    ("mc.logistic_fraction", -0.5), ("mc.ramp_strength_range", 1),
    ("mc.ramp_start_range", [10, 5]), ("mc.ramp_len_range", None),
]
FLAGS_OUTSIDE = {"--out": "", "--seed": "-1", "--jobs": "0", "--trials": "100001"}
COMMANDS = ("generate", "detect", "metrics", "mc", "sweep")


def _keys(cfg, path=""):
    for key, value in cfg.items():
        yield from _keys(value, f"{path}{key}.") if isinstance(value, dict) else [path + key]


def _label(value):
    return "10**400" if value is BIG else repr(value)


def test_every_config_key_and_flag_has_a_value_outside_its_contract():
    assert {key for key, _ in OUTSIDE} == set(_keys(load_config(None)))
    assert set(FLAGS_OUTSIDE) == set(cli._FLAGS)


@pytest.fixture(scope="module")
def input_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "series.csv"
    path.write_text("t,value\n" + "".join(f"{i},{1.05 ** i}\n" for i in range(100)))
    return str(path)


def _refused(argv, command, input_csv, workdir, monkeypatch, capsys):
    """Run ``command`` with ``argv`` in ``workdir`` and return its stderr; it
    must exit 2 and leave ``workdir`` as it was."""
    monkeypatch.chdir(workdir)
    before = sorted(os.listdir(workdir))
    inputs = [input_csv] if command in ("detect", "metrics") else []
    assert run([command, *inputs, *argv]) == 2
    assert sorted(os.listdir(workdir)) == before  # no --out directory, no output
    return capsys.readouterr().err


@pytest.mark.parametrize("key, value", OUTSIDE, ids=[f"{k}={_label(v)}" for k, v in OUTSIDE])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_config_key_outside_its_contract_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                            input_csv, command, key, value):
    # every section is checked whatever the command; out is the working directory
    payload = value
    for part in reversed(key.split(".")):
        payload = {part: payload}
    argv = ["--config", write_config(tmp_path, payload)]
    err = _refused(argv, command, input_csv, tmp_path, monkeypatch, capsys)
    assert err.startswith(f"error: config key {key} must "), err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in COMMANDS for flag in FLAGS_OUTSIDE
    if flag == "--out" or flag in cli._COMMANDS[command][2]
])
def test_a_flag_outside_its_contract_exits_2_naming_it(tmp_path, monkeypatch, capsys, input_csv,
                                                       command, flag):
    argv = ["--out", "out", flag, FLAGS_OUTSIDE[flag]]
    err = _refused(argv, command, input_csv, tmp_path, monkeypatch, capsys)
    assert err.startswith(f"error: {flag} must "), err


@pytest.mark.parametrize("command, payload, ceiling", [
    ("detect", {"detector": {"n_perm": BIG}}, "config key detector.n_perm must be <= 10000"),
    ("generate", {"grid": {"n_points": BIG}}, "config key grid.n_points must be <= 100000"),
    ("mc", {"mc": {"n_trials": BIG}}, "config key mc.n_trials must be <= 100000"),
], ids=["detect n_perm", "generate n_points", "mc n_trials"])
def test_a_size_past_its_ceiling_exits_2_naming_it(tmp_path, monkeypatch, capsys, input_csv,
                                                   command, payload, ceiling):
    # each exited 1 with a ValueError traceback from the array it allocated
    argv = ["--config", write_config(tmp_path, payload), "--out", "out"]
    assert ceiling in _refused(argv, command, input_csv, tmp_path, monkeypatch, capsys)


def test_config_accepts_numbers_for_float_and_null_defaults(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"t_end": 20, "n_points": 50},
        "noise": {"sigma_rel": 0},
        "detector": {"window": 11},
    })
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


# --- detect / metrics ---------------------------------------------------------

def test_detect_logquadratic_true(tmp_path):
    gen = write_config(tmp_path, {"model": {"family": "logquadratic", "b": 0.01}})
    out = tmp_path / "out"
    assert run(["generate", "--config", gen, "--out", str(out)]) == 0
    assert run(["detect", str(out / "series.csv"), "--out", str(out)]) == 0
    payload = json.loads((out / "detection.json").read_text())
    assert payload["verdict"] is True
    assert (out / "metrics.csv").exists()
    assert (out / "derivatives.csv").exists()


def test_detect_exponential_false(tmp_path):
    gen = write_config(tmp_path, {"model": {"family": "exponential"}})
    out = tmp_path / "out"
    assert run(["generate", "--config", gen, "--out", str(out)]) == 0
    assert run(["detect", str(out / "series.csv"), "--out", str(out)]) == 0
    payload = json.loads((out / "detection.json").read_text())
    assert payload["verdict"] is False


def test_detect_short_series_exit_3(tmp_path, capsys):
    # the detector's own floor; the CLI's default smoother named 11 points
    path = tmp_path / "short.csv"
    rows = "\n".join(f"{i},{np.exp(0.1 * i)}" for i in range(10))
    path.write_text("t,value\n" + rows + "\n")
    assert run(["detect", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "need >= 32 points, got 10" in capsys.readouterr().err


@pytest.mark.parametrize("n_points", [4, 7])
def test_metrics_short_series_exit_3_names_length(tmp_path, capsys, n_points):
    path = tmp_path / "short.csv"
    rows = "\n".join(f"{i},{2.0 ** i}" for i in range(n_points))
    path.write_text("t,value\n" + rows + "\n")
    out = tmp_path / "o"
    assert run(["metrics", str(path), "--out", str(out)]) == 3
    assert f"series has {n_points} points" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_detect_window_larger_than_series_exit_2(tmp_path, capsys):
    path = tmp_path / "series.csv"
    rows = "\n".join(f"{i},{np.exp(0.1 * i)}" for i in range(35))
    path.write_text("t,value\n" + rows + "\n")
    cfg = write_config(tmp_path, {"detector": {"window": 41}})
    assert run(["detect", str(path), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "window 41" in err and "length 35" in err


def test_detect_too_few_interior_points_names_count(tmp_path, capsys):
    path = tmp_path / "series.csv"
    rows = "\n".join(f"{i},{np.exp(0.1 * i)}" for i in range(35))
    path.write_text("t,value\n" + rows + "\n")
    cfg = write_config(tmp_path, {"detector": {"window": 31}})
    assert run(["detect", str(path), "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "need at least 8 unmasked signal points, got 5" in capsys.readouterr().err


def test_detect_failure_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    # detection succeeds and a later stage fails: nothing may be written
    def fail(estimate):
        raise DataError("metrics stage failed")

    monkeypatch.setattr("joltlab.cli.compute_metrics", fail)
    path = tmp_path / "series.csv"
    rows = "\n".join(f"{i},{np.exp(0.1 * i)}" for i in range(200))
    path.write_text("t,value\n" + rows + "\n")
    out = tmp_path / "o"
    assert run(["detect", str(path), "--out", str(out)]) == 3
    assert "metrics stage failed" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("values", [
    np.exp(3.4 * np.linspace(0, 20, 200)),
    np.where(np.arange(200) < 100, 1.0, 100.0),
], ids=["exp(3.4t)", "step 1 to 100"])
def test_detect_steep_or_stepped_growth_exit_0(tmp_path, values):
    # positive input on which a smoother of raw C goes negative
    path = tmp_path / "series.csv"
    t = np.linspace(0, 20, 200)
    path.write_text("t,value\n" + "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(t, values)))
    out = tmp_path / "o"
    assert run(["detect", str(path), "--out", str(out)]) == 0
    for name in ("detection.json", "metrics.csv", "derivatives.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("command", ["detect", "metrics"])
def test_a_time_step_outside_the_stated_range_exits_3_naming_it(tmp_path, capsys, command):
    # a step of 1e103 exited 1 with an OverflowError traceback from dt**3
    path = tmp_path / "series.csv"
    path.write_text("t,value\n" + "".join(f"{i * 1e103!r},{1.05 ** i!r}\n" for i in range(100)))
    out = tmp_path / "out"
    assert run([command, str(path), "--out", str(out)]) == 3
    assert "error: time step 1e+103 is outside [1e-30, 1e+30]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "metrics"])
def test_a_csv_past_the_point_ceiling_exits_3_naming_it(tmp_path, capsys, command):
    # a CSV's length had no ceiling, though a detection holds about 1.6 KB a point
    path = tmp_path / "series.csv"
    path.write_text("t,value\n" + "".join(f"{i},1\n" for i in range(MAX_POINTS + 1)))
    out = tmp_path / "out"
    assert run([command, str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"more than {MAX_POINTS} data records, the ceiling" in err
    assert not out.exists()


def test_detect_malformed_csv_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time;value\n0;1\n")
    assert run(["detect", str(path), "--out", str(tmp_path / "o")]) == 2


DIRECTORY = object()  # the file is a directory


@pytest.mark.parametrize("command, name, contents, named", [
    ("detect", "config.yaml", None,
     "cannot read config file: [Errno 2] No such file or directory: 'config.yaml'"),
    ("detect", "config.yaml", "a: [1\n", "malformed config file: while parsing a flow sequence"),
    ("detect", "config.yaml", "- 1\n- 2\n", "config file must contain a mapping"),
    ("detect", "config.yaml", "detector: 5\n", "config key detector must be a mapping"),
    ("detect", "input", DIRECTORY, "[Errno 21] Is a directory: 'input'"),
    ("detect", "input", "t,value\n", "input: no data records"),
    ("metrics", "input", "t,value\n", "input: no data records"),
], ids=["missing config", "malformed config", "config a list", "detector not a mapping",
        "input a directory", "detect header only", "metrics header only"])
def test_an_unreadable_or_malformed_file_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                           input_csv, command, name, contents,
                                                           named):
    # a YAML file is the --config of a command on a good input; any other is the input
    if contents is DIRECTORY:
        (tmp_path / name).mkdir()
    elif contents is not None:
        (tmp_path / name).write_text(contents)
    argv = [input_csv, "--config", name] if name.endswith(".yaml") else [name]
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert run([command, *argv, "--out", "out"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert sorted(os.listdir(tmp_path)) == before  # no --out directory


def test_metrics_csv_columns(tmp_path):
    gen = write_config(tmp_path, {"model": {"family": "exponential"}})
    out = tmp_path / "out"
    assert run(["generate", "--config", gen, "--out", str(out)]) == 0
    assert run(["metrics", str(out / "series.csv"), "--out", str(out)]) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "t,J,JN,alpha,t_double,singular"


# --- mc / sweep ---------------------------------------------------------------

def test_mc_small_shape(tmp_path, fast_mc):
    out = tmp_path / "mc"
    assert run(["mc", "--config", fast_mc, "--out", str(out), "--trials", "10"]) == 0
    lines = (out / "table1.csv").read_text().splitlines()
    assert lines[0] == "noise_level,TPR,FPR,TPR_lo,TPR_hi,FPR_lo,FPR_hi"
    assert [row.split(",")[0] for row in lines[1:]] == ["low", "medium", "high"]
    for row in lines[1:]:
        rates = [float(x) for x in row.split(",")[1:]]
        assert all(0.0 <= r <= 1.0 for r in rates)
    report = json.loads((out / "report.json").read_text())
    assert len(report["cells"]) == 3


def test_mc_report_deterministic_modulo_timestamp(tmp_path, fast_mc):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        assert run(["mc", "--config", fast_mc, "--out", str(out), "--seed", "5"]) == 0
    assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    assert r1 == r2


def test_sweep_small(tmp_path):
    cfg = write_config(tmp_path, {
        "mc": {"n_trials": 8, "noise_levels": ["low"]},
        "detector": {"n_perm": 99},
        "grid": {"n_points": 100},
        "sweep": {"window": [7, 11], "decision_threshold": [0.3, 0.5]},
    })
    out = tmp_path / "sw"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "heatmap.csv").read_text().splitlines()
    assert lines[0] == "noise_level,window,decision_threshold,tpr,fpr,error_rate"
    assert len(lines) == 5  # 2x2 grid, one noise level
    report = json.loads((out / "report.json").read_text())
    assert report["best"] is not None
    assert set(report["best"]["params"]) == {"window", "decision_threshold"}


def test_sweep_outputs_do_not_depend_on_jobs(tmp_path):
    # --jobs sets how each class's trials are chunked into detection batches;
    # no output may move with it
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = ["sweep", "--seed", "42", "--trials", "40", "--jobs", str(jobs), "--out", str(out)]
        assert run(argv) == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timestamp")
        outputs[jobs] = ((out / "heatmap.csv").read_bytes(), report)
    assert outputs[1] == outputs[2]


def test_detector_section_is_the_detector_configs_own_fields():
    # window and poly_order too: no CLI key restates the detector's defaults
    want = {f.name: f.default for f in dataclasses.fields(DetectorConfig) if f.name != "seed"}
    got = load_config(None)["detector"]
    assert {k: tuple(v) if isinstance(v, list) else v for k, v in got.items()} == want


def test_the_sweep_budget_default_is_the_librarys():
    defaults = {inspect.signature(f).parameters["budget"].default
                for f in (montecarlo.sweeps, montecarlo.sweep)}
    assert defaults == {load_config(None)["sweep"]["budget"]}


def test_library_sweep_matches_cli_template():
    # joltlab sweep builds the library's default detector, whose null window
    # each window axis value replaces
    library = MCCell(noise="medium", detector=DetectorConfig(n_perm=99),
                     n_trials=40, master_seed=3)
    cfg = load_config(None)
    cfg["detector"]["n_perm"] = 99
    template = MCCell(noise="medium", detector=build_detector(cfg, 200),
                      n_trials=40, master_seed=3)
    axes = {"window": [11, 21]}
    assert ([c.counts for c in sweep(axes, library).cells]
            == [c.counts for c in sweep(axes, template).cells])


SMALL_SWEEP = {
    "mc": {"n_trials": 2, "noise_levels": ["low"]},
    "detector": {"n_perm": 99},
    "grid": {"n_points": 100},
}


@pytest.mark.parametrize("payload, named", [
    ({"sweep": {"window": [7.5, 11]}}, "sweep axis 'window' value 7.5 is not valid: "
     "detector window must be a whole number or null, got 7.5"),
    ({"sweep": {"window": ["a", 11]}}, "sweep axis 'window' value 'a' is not valid: "
     "detector window must be a whole number or null, got 'a'"),
    ({"sweep": {"decision_threshold": ["x", 0.5]}}, "sweep axis 'decision_threshold' value 'x' "
     "is not valid: detector decision_threshold must be a finite number, got 'x'"),
    ({"detector": {"n_perm": 99, "window": 21.5}},
     "config key detector.window must be a whole number or null, got 21.5"),
    # the window field admits null, the default for n; an axis value may not
    ({"sweep": {"window": [None, 21]}}, "sweep axis 'window' value None is not valid: "
     "an axis value cannot be null"),
], ids=["window axis 7.5", "window axis 'a'", "decision_threshold axis 'x'",
        "detector.window 21.5", "window axis null"])
def test_inexact_window_or_axis_value_exit_2(tmp_path, capsys, payload, named):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, **payload})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axes, named", [
    ({"window": [21, 25], "decision_threshold": [0.5, 0.6], "t_start": [0, 1],
      "t_end": [0.5, 30]}, ("t_start=1", "t_end=0.5", "grid needs t_end > t_start")),
    ({"window": [5, 7], "poly_order": [4, 6], "decision_threshold": [0.5, 0.6]},
     ("window=5", "poly_order=6", "got window 5, poly_order 6")),
], ids=["grid t_start t_end", "smoother window poly_order"])
def test_axis_values_that_conflict_in_one_spec_exit_2(tmp_path, capsys, axes, named):
    # each value is valid alone; the cell they make together is not
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "sweep": axes})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "is not valid" in err and all(part in err for part in named), err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, values, code", [
    ("generate", {"model": {"family": "exponential", "c0": -1.0}}, None, 2),
    ("metrics", {}, [2.0 ** i for i in range(5)], 3),
    ("metrics", {}, [1.0] * 99 + [0.0] + [1.0] * 100, 3),
    ("mc", {"detector": {"n_perm": 10}}, None, 2),
    ("sweep", {**SMALL_SWEEP, "sweep": {"window": [7.5, 11]}}, None, 2),
])
def test_failed_command_creates_no_out_dir(tmp_path, command, payload, values, code):
    argv = [command, "--config", write_config(tmp_path, payload)]
    if values is not None:
        path = tmp_path / "input.csv"
        rows = "\n".join(f"{i},{v}" for i, v in enumerate(values))
        path.write_text("t,value\n" + rows + "\n")
        argv.insert(1, str(path))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, payload, code, named", [
    ("sweep", {"sweep": {"window": [7, 301]}}, 2, "window 301 exceeds series length 200"),
    ("mc", {"grid": {"n_points": 20}}, 3, "need >= 32 points, got 20"),
], ids=["sweep window 301", "mc 20-point grid"])
def test_cell_the_detector_cannot_run_fails_the_command(tmp_path, capsys, jobs, command,
                                                        payload, code, named):
    payload = {"mc": {"n_trials": 2, "noise_levels": ["low"]}, "detector": {"n_perm": 99},
               **payload}
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, payload), "--jobs", jobs]
    assert run(argv + ["--out", str(out)]) == code
    assert named in capsys.readouterr().err
    assert not out.exists()


LEVELS = ("config key mc.noise_levels must list at least one noise level, each a name or a "
          "finite number >= 0")


@pytest.mark.parametrize("command, levels, named", [
    ("mc", ["low", "bogus"], "unknown noise level 'bogus'"),
    ("mc", ["bogus", "low"], "unknown noise level 'bogus'"),
    ("mc", ["low", -0.5], f"{LEVELS}, got ['low', -0.5]"),
    ("mc", [], "config key mc.noise_levels must list at least one noise level"),
    ("sweep", [], "config key mc.noise_levels must list at least one noise level"),
    # each exited 1 with a TypeError from float(), or (true) ran as sigma 1.0
    ("mc", [None], f"{LEVELS}, got [None]"),
    ("mc", [[1]], f"{LEVELS}, got [[1]]"),
    ("mc", [{"a": 1}], f"{LEVELS}, got [{{'a': 1}}]"),
    ("mc", ["low", True], f"{LEVELS}, got ['low', True]"),
    ("sweep", [""], f"{LEVELS}, got ['']"),
], ids=["mc bogus last", "mc bogus first", "mc negative sigma", "mc empty", "sweep empty",
        "mc null", "mc list", "mc mapping", "mc bool", "sweep empty name"])
def test_bad_or_empty_noise_levels_exit_2(tmp_path, capsys, command, levels, named):
    payload = {**SMALL_SWEEP, "mc": {"n_trials": 2, "noise_levels": levels}}
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, named", [
    ("detect", {"detector": {"threshold_peak": float("nan")}}, "threshold_peak"),
    ("detect", {"detector": {"threshold_peak": float("inf")}}, "threshold_peak"),
    ("detect", {"detector": {"combine_weights": [float("nan"), 0.5, 0.5]}}, "combine_weights"),
    ("detect", {"detector": {"combine_weights": ["0.2", "0.3", "0.5"]}}, "combine_weights"),
    ("mc", {**SMALL_SWEEP, "mc": {"n_trials": 2, "noise_levels": ["low", float("nan")]}},
     f"{LEVELS}, got ['low', nan]"),
], ids=["threshold_peak nan", "threshold_peak inf", "combine_weights nan",
        "combine_weights strings", "noise_levels nan"])
def test_non_finite_or_non_numeric_setting_exit_2(tmp_path, capsys, command, payload, named):
    # NaN slips through every comparison-based range check; each of these
    # exited 0 with a NaN score or rows of zeros, or died in the detector
    argv = [command, "--config", write_config(tmp_path, payload)]
    if command == "detect":
        assert run(["generate", "--out", str(tmp_path / "gen")]) == 0
        argv.insert(1, str(tmp_path / "gen" / "series.csv"))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, named", [
    ("mc", {"grid": {"t_end": float("inf")}},
     "config key grid.t_end must be a finite number, got inf"),
    ("generate", {"grid": {"t_end": float("inf")}},
     "config key grid.t_end must be a finite number, got inf"),
    ("mc", {"mc": {"k_range": [0.03, float("inf")]}},
     "config key mc.k_range must be two finite numbers lo <= hi, got [0.03, inf]"),
    ("mc", {"mc": {"k_range": [0.03]}},
     "config key mc.k_range must be two finite numbers lo <= hi, got [0.03]"),
    ("mc", {"mc": {"injected_fraction": 1.5}}, "injected_fraction must lie in [0, 1], got 1.5"),
    ("mc", {"detector": {"n_perm": 199.5}},
     "config key detector.n_perm must be a whole number, got 199.5"),
    # poly_order 1 failed in a worker's first trial, naming no key
    ("mc", {"detector": {"poly_order": 1}}, "config key detector.poly_order must be >= 2, got 1"),
    # t_end 1e200 exited 1 with an OverflowError traceback from dt**k
    ("mc", {"grid": {"t_end": 1.0e200}}, "grid step (t_end - t_start) / (n_points - 1) must lie "
                                        "in [1e-30, 1e+30], got 5.02513e+197"),
], ids=["mc t_end inf", "generate t_end inf", "k_range inf", "k_range one bound",
        "injected_fraction 1.5", "n_perm 199.5", "poly_order 1", "t_end 1e200"])
def test_bad_grid_mix_or_detector_setting_exits_2_before_any_trial(tmp_path, capsys, monkeypatch,
                                                                   command, payload, named):
    # an infinite t_end exited 0 with a TPR of 0 and a warning per trial; a
    # bad k_range exited 1 with a traceback from inside the trials
    def trials_ran(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("joltlab.montecarlo.run_cells", trials_ran)
    argv = [command, "--config", write_config(tmp_path, payload)]
    if command == "mc":
        argv += ["--trials", "2"]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, named", [
    ("generate", {"model": {"family": "exponential", "k": math.nan}},
     "config key model.k must be a finite number, got nan"),
    ("generate", {"model": {"family": "logistic", "r": math.inf}},
     "config key model.r must be a finite number, got inf"),
    ("generate", {"model": {"family": "logquadratic", "b": math.nan}},
     "config key model.b must be a finite number, got nan"),
    ("generate", {"model": {"family": "exponential", "c0": math.inf}},
     "config key model.c0 must be a finite number, got inf"),
    ("generate", {"model": {"family": "injected_jolt", "ramp_strength": math.nan}},
     "config key model.ramp_strength must be a finite number, got nan"),
    ("generate", {"grid": {"t_end": True}},
     "config key grid.t_end must be a finite number, got True"),
    ("generate", {"noise": {"sigma_rel": True}},
     "config key noise.sigma_rel must be a finite number, got True"),
    ("mc", {"mc": {"injected_fraction": True}},
     "config key mc.injected_fraction must be a finite number, got True"),
    ("mc", {"detector": {"decision_threshold": "0.5"}},
     "config key detector.decision_threshold must be a finite number, got '0.5'"),
    # an int past float range exited 1 with an OverflowError traceback
    ("generate", {"model": {"family": "exponential", "c0": 10**400}},
     "config key model.c0 must be a finite number"),
    ("generate", {"model": {"family": "exponential", "k": 10**400}},
     "config key model.k must be a finite number"),
    ("mc", {"mc": {"k_range": [0.03, 10**400]}},
     "config key mc.k_range must be two finite numbers lo <= hi"),
], ids=["exponential k nan", "logistic r inf", "logquadratic b nan", "exponential c0 inf",
        "injected_jolt ramp_strength nan", "grid t_end true", "noise sigma_rel true",
        "injected_fraction true", "decision_threshold string", "exponential c0 past float",
        "exponential k past float", "k_range past float"])
def test_spec_value_outside_its_contract_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                                           command, payload, named):
    # a NaN or infinite rate blamed "generated trajectory is not strictly
    # positive", and an infinite c0 exited 3 as if the data were at fault
    def trials_ran(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("joltlab.montecarlo.run_cells", trials_ran)
    argv = [command, "--config", write_config(tmp_path, payload)]
    if command == "mc":
        argv += ["--trials", "2"]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("detector, name", [
    ({"window": 301}, "window"),
    ({"window": 21}, "window"),
    ({"decision_threshold": 0.6}, "decision_threshold"),
])
def test_sweep_rejects_a_detector_setting_an_axis_replaces(tmp_path, capsys, monkeypatch,
                                                           detector, name):
    # the default window and decision_threshold axes replaced these without
    # a word, and report.json still gave the detector value no row ran
    def trials_ran(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("joltlab.montecarlo.run_cells", trials_ran)
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "detector": {"n_perm": 99, **detector}})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key detector.{name} is replaced by the axis sweep.{name}" in err
    assert not out.exists()


@pytest.mark.parametrize("payload, axis", [
    ({"sweep": {"alpha_sig": [0.01, 0.05]}}, "alpha_sig"),
    ({"sweep": {"logistic_fraction": [0.0, 1.0]}}, "logistic_fraction"),
    ({"grid": {}, "sweep": {"n_points": [64, 100]}}, "n_points"),
])
def test_sweep_takes_an_axis_of_the_mix_grid_or_detector(tmp_path, payload, axis):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, **payload})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "heatmap.csv").read_text().splitlines()
    assert lines[0] == f"noise_level,window,decision_threshold,{axis},tpr,fpr,error_rate"
    assert len(lines) == 1 + 4 * 5 * 2  # the default axes stay
    values = payload["sweep"][axis]
    assert {row.split(",")[3] for row in lines[1:]} == {f"{v:g}" for v in values}


@pytest.mark.parametrize("payload, flags, named", [
    ({"sweep": {"n_trials": [1, 2]}}, ["--trials", "2"], "unknown sweep axis 'n_trials'"),
    ({"sweep": {"k_range": [[0.03, 0.1], [0.05, 0.2]]}}, [], "unknown sweep axis 'k_range'"),
    ({"sweep": {"noise_levels": [["low"], ["high"]]}}, [], "unknown sweep axis 'noise_levels'"),
    ({"grid": {"n_points": 64}, "sweep": {"n_points": [64, 100]}}, [],
     "config key grid.n_points is replaced by the axis sweep.n_points"),
    ({"mc": {"logistic_l": 2.0}, "sweep": {"logistic_l": [1.0, 2.0]}}, [],
     "config key mc.logistic_l is replaced by the axis sweep.logistic_l"),
], ids=["n_trials", "k_range", "noise_levels", "grid.n_points replaced",
        "mc.logistic_l replaced"])
def test_sweep_rejects_a_non_axis_or_a_key_its_axis_replaces(tmp_path, capsys, monkeypatch,
                                                             payload, flags, named):
    # the unknown axis is named first: --trials 2 is not blamed on the
    # n_trials axis that would replace it
    def trials_ran(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("joltlab.montecarlo.run_cells", trials_ran)
    cfg = write_config(tmp_path, {**SMALL_SWEEP, **payload})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_mc_takes_the_logistic_capacity_of_its_mix(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "mc": {
        "n_trials": 2, "noise_levels": ["low"], "logistic_l": 2.0}})
    out = tmp_path / "out"
    assert run(["mc", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["metadata"]["mc"]["logistic_l"] == 2.0


@pytest.mark.parametrize("command, sections", [
    ("mc", ["detector", "grid", "mc", "seed"]),
    ("sweep", ["detector", "grid", "mc", "seed", "sweep"]),
])
def test_report_metadata_is_the_resolved_config_of_the_sections_run(tmp_path, command, sections):
    # model and noise are not read, and out and jobs move no result: the
    # reports at --jobs 1 and 2, in two directories, differ in the timestamp alone
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "seed": 3, "mc": {
        "noise_levels": ["low", 0.03], "logistic_l": 2.0},
        "sweep": {"window": [7, 11], "alpha_sig": [0.01, 0.05]}})
    reports = []
    for jobs in (1, 2):
        flags = {"--seed": 4, "--trials": 2, "--jobs": jobs, "--out": str(tmp_path / f"j{jobs}")}
        argv = [command, "--config", cfg, *(str(x) for pair in flags.items() for x in pair)]
        assert run(argv) == 0
        reports.append(json.loads((tmp_path / f"j{jobs}" / "report.json").read_text()))
        reports[-1].pop("timestamp")
        resolved = load_config(cfg, command, flags)
        assert reports[-1]["metadata"] == {key: resolved[key] for key in sections}
    assert reports[0] == reports[1]
    assert reports[0]["metadata"]["seed"] == 4 and reports[0]["metadata"]["mc"]["n_trials"] == 2


def test_sweep_takes_a_detector_setting_at_its_default(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "detector": {
        "n_perm": 99, "window": None, "decision_threshold": 0.5}})
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, flags, payload, named", [
    ("detect", ["--seed", "-1"], {}, "seed must be >= 0, got -1"),
    ("detect", [], {"seed": -2}, "seed must be >= 0, got -2"),
    ("mc", ["--seed", "-3"], SMALL_SWEEP, "seed must be >= 0, got -3"),
    ("sweep", ["--seed", "-3"], SMALL_SWEEP, "seed must be >= 0, got -3"),
    ("generate", ["--seed", "-5"], {"noise": {"level": "low"}}, "--seed must be >= 0, got -5"),
    ("generate", ["--seed", "-5"], {}, "--seed must be >= 0, got -5"),
    ("mc", ["--jobs", "0"], SMALL_SWEEP, "jobs must be >= 1, got 0"),
    ("sweep", ["--jobs", "-4"], SMALL_SWEEP, "jobs must be >= 1, got -4"),
], ids=["detect --seed", "detect config seed", "mc --seed", "sweep --seed",
        "generate --seed noisy", "generate --seed noiseless", "mc --jobs", "sweep --jobs"])
def test_negative_seed_or_no_jobs_exit_2(tmp_path, capsys, command, flags, payload, named):
    argv = [command, "--config", write_config(tmp_path, payload), *flags]
    if command == "detect":
        path = tmp_path / "input.csv"
        path.write_text("t,value\n" + "".join(f"{i},{1.05 ** i}\n" for i in range(100)))
        argv.insert(1, str(path))
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


OUTPUTS = {
    "generate": ["series.csv", "series.json"],
    "detect": ["detection.json", "metrics.csv", "derivatives.csv"],
    "metrics": ["metrics.csv", "derivatives.csv"],
    "mc": ["table1.csv", "report.json"],
    "sweep": ["heatmap.csv", "report.json"],
}


@pytest.mark.parametrize("blocked", ["last output", "out"])
@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_unwritable_output_exit_2_leaves_no_outputs(tmp_path, capsys, command, blocked):
    argv = [command, "--config", write_config(tmp_path, SMALL_SWEEP)]
    if command in ("detect", "metrics"):
        path = tmp_path / "input.csv"
        path.write_text("t,value\n" + "".join(f"{i},{1.05 ** i}\n" for i in range(100)))
        argv.insert(1, str(path))
    if blocked == "out":
        # --out lies beneath a regular file, so it cannot be created
        (tmp_path / "file").write_text("")
        out = unwritable = tmp_path / "file" / "out"
    else:
        # a directory in place of the last output: the others are written first
        out = tmp_path / "out"
        unwritable = out / OUTPUTS[command][-1]
        unwritable.mkdir(parents=True)
    assert run(argv + ["--out", str(out)]) == 2
    assert f"cannot write {unwritable}: " in capsys.readouterr().err
    left = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    assert left == ([] if blocked == "out" else [unwritable.name])


@pytest.mark.parametrize("command", COMMANDS)
def test_each_commands_help_exits_0(capsys, command):
    # argparse formats every help string only when --help asks for it
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: joltlab {command} ")


@pytest.mark.parametrize("argv", [
    ["generate", "--jobs", "2"],
    ["generate", "--trials", "5"],
    ["detect", "in.csv", "--jobs", "2"],
    ["detect", "in.csv", "--trials", "5"],
    ["metrics", "in.csv", "--jobs", "2"],
    ["metrics", "in.csv", "--trials", "5"],
    ["metrics", "in.csv", "--seed", "1"],
], ids=" ".join)
def test_flag_the_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# --- import path --------------------------------------------------------------

def _thread_free_env(**variables):
    """This environment with joltlab's sources on the path, no
    ``*_NUM_THREADS`` variable, and then ``variables``."""
    src = Path(joltlab.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    return {**env, "PYTHONPATH": str(src), **variables}


_THREADS = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None"


def test_package_import_loads_no_numpy_and_sets_no_thread_variable():
    code = (
        "import json, os, sys, joltlab\n"
        "before = ['numpy' in sys.modules,\n"
        "          sorted(k for k in os.environ if k.endswith('_NUM_THREADS'))]\n"
        "missing = [n for n in dir(joltlab) if not hasattr(joltlab, n)]\n"
        "print(json.dumps([*before, missing]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_thread_free_env(),
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [], []]


@pytest.mark.parametrize("variables, expected", [
    ({}, {"OMP_NUM_THREADS": "1"}),
    ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
], ids=["default", "OMP_NUM_THREADS=2", "OPENBLAS_NUM_THREADS=2"])
def test_cli_runs_blas_on_one_thread_unless_the_user_sets_a_count(variables, expected):
    # importing the CLI sets OMP_NUM_THREADS=1 before numpy loads, so OpenBLAS
    # starts no helper thread; a count the user set is left as it is
    code = (
        "import json, os, joltlab.cli\n"
        "print(json.dumps([{k: v for k, v in os.environ.items()\n"
        f"                   if k.endswith('_NUM_THREADS')}}, {_THREADS}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_thread_free_env(**variables),
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    env, threads = json.loads(proc.stdout)
    assert env == expected
    if variables:
        return  # the user's count then sets the threads
    if threads is None:
        pytest.skip("no /proc/self/task to count OS threads")
    assert threads == 1


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # detect at n=200 (window 21) and at n=1000 (window 101, one 100 x 499
    # gemv per series), and mc at --jobs 2: the same bytes at one BLAS thread
    # and at two
    series = {}
    for n in (200, 1000):
        config = write_config(tmp_path, {"grid": {"n_points": n}, "noise": {"level": "medium"}},
                              name=f"n{n}.yaml")
        assert run(["generate", "--config", config, "--out", str(tmp_path / f"n{n}")]) == 0
        series[n] = str(tmp_path / f"n{n}" / "series.csv")
    commands = {
        "detect-n200": (["detect", series[200]],
                        ("detection.json", "metrics.csv", "derivatives.csv")),
        "detect-n1000": (["detect", series[1000]],
                         ("detection.json", "metrics.csv", "derivatives.csv")),
        "mc": (["mc", "--trials", "4", "--jobs", "2"], ("table1.csv",)),
    }
    outputs = {}
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        env = _thread_free_env(**variables)
        for name, (argv, files) in commands.items():
            out = tmp_path / f"{name}-{len(variables)}"
            proc = subprocess.run(
                [sys.executable, "-m", "joltlab.cli", *argv, "--out", str(out)],
                env=env, cwd=tmp_path, timeout=300, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.setdefault(name, []).append([(out / f).read_bytes() for f in files])
    for name, (default, two_threads) in outputs.items():
        assert default == two_threads, name


def test_cli_import_leaves_out_scipy():
    src = Path(joltlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, joltlab, joltlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=120,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# modules that only the commands that run them load
_DEFERRED = ("joltlab.growth", "joltlab.montecarlo", "logging", "numpy.polynomial", "numpy.random")


def _fresh_main(argv_lists, cwd):
    """Run ``main`` on each argv in one fresh interpreter that reports two
    usable CPUs and has no ``*_NUM_THREADS`` variable. Per call: its exit
    code, whether yaml is loaded, whether ``concurrent.futures`` or
    ``multiprocessing`` is, the frozen object count and the OS thread count
    (None without ``/proc/self/task``) at each ``os.fork``, the frozen object
    count, which ``_DEFERRED`` modules are loaded and which of those are not
    frozen. Then, once: ``dir(joltlab)``, the error of
    ``joltlab.no_such_name`` and the ``_DEFERRED`` modules loaded after both."""
    code = (
        "import gc, json, os, sys, joltlab; from joltlab.cli import main\n"
        "os.cpu_count, os.sched_getaffinity = lambda: 2, lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "def counted_fork():\n"
        f"    forks.append([gc.get_freeze_count(), {_THREADS}])\n"
        "    return fork()\n"
        "os.fork = counted_fork\n"
        "def deferred():\n"
        "    live = {id(obj) for obj in gc.get_objects()}  # frozen objects are not listed\n"
        f"    names = [m for m in {_DEFERRED!r} if m in sys.modules]\n"
        "    return names, [m for m in names if id(sys.modules[m]) in live]\n"
        f"for argv in {argv_lists!r}:\n"
        "    forks.clear()\n"
        "    code = main(argv)\n"
        "    print(json.dumps([code, 'yaml' in sys.modules,\n"
        "                      any(m.split('.')[0] in ('concurrent', 'multiprocessing')\n"
        "                          for m in sys.modules),\n"
        "                      forks, gc.get_freeze_count(), *deferred()]))\n"
        "try:\n"
        "    joltlab.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps({'dir': dir(joltlab), 'error': error, 'loaded': deferred()[0]}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_thread_free_env(), cwd=cwd, timeout=300,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return [json.loads(line) for line in lines if line.startswith("[")], json.loads(lines[-1])


def test_commands_load_neither_yaml_nor_the_pool(tmp_path):
    # a command without --config needs no yaml, and one at --jobs 1 forks no
    # worker; main freezes the import-time heap before it runs the command
    assert run(["generate", "--out", str(tmp_path / "gen")]) == 0
    calls, _ = _fresh_main([
        ["detect", str(tmp_path / "gen" / "series.csv"), "--out", "d"],
        ["sweep", "--trials", "2", "--jobs", "1", "--out", "s"],
    ], tmp_path)
    assert [call[:4] for call in calls] == [[0, False, False, []], [0, False, False, []]]
    assert all(call[4] > 0 for call in calls)
    assert (tmp_path / "d" / "detection.json").exists()
    assert (tmp_path / "s" / "heatmap.csv").exists()


def test_config_file_and_pool_still_load_where_they_run(tmp_path):
    # yaml loads for a --config file; a sweep at --jobs 2 forks its two
    # workers itself, with neither concurrent.futures nor multiprocessing
    assert run(["generate", "--out", str(tmp_path / "gen")]) == 0
    cfg = write_config(tmp_path, {"detector": {"combine_weights": [1, 0, 0]}})
    calls, _ = _fresh_main([
        ["detect", str(tmp_path / "gen" / "series.csv"), "--config", cfg, "--out", "d"],
        ["sweep", "--trials", "2", "--jobs", "2", "--out", "s"],
    ], tmp_path)
    assert [call[:3] + [len(call[3])] for call in calls] == [[0, True, False, 0],
                                                            [0, True, False, 2]]
    payload = json.loads((tmp_path / "d" / "detection.json").read_text())
    assert payload["score"] == payload["sub_scores"]["peak"]  # the config's weights
    assert (tmp_path / "s" / "heatmap.csv").exists()


def test_detect_and_metrics_load_no_generator_or_monte_carlo_module(tmp_path):
    assert run(["generate", "--out", str(tmp_path / "gen")]) == 0
    csv = str(tmp_path / "gen" / "series.csv")
    calls, package = _fresh_main([
        ["detect", csv, "--out", "d"],
        ["metrics", csv, "--out", "m"],
    ], tmp_path)
    # the permutation draw loads numpy.random, the one deferred module that
    # detection runs
    assert [call[:1] + call[5:6] for call in calls] == [[0, ["numpy.random"]]] * 2
    assert (tmp_path / "d" / "detection.json").exists()
    assert (tmp_path / "m" / "metrics.csv").exists()
    # the lazy exports are listed, and neither listing them nor asking for a
    # missing name loads their modules
    lazy = {"Composite", "GridSpec", "generate", "MCCell", "TrialMix", "run_cell", "sweeps"}
    assert lazy <= set(package["dir"])
    assert package["error"] == "module 'joltlab' has no attribute 'no_such_name'"
    assert package["loaded"] == ["numpy.random"]


def test_pool_forks_after_the_monte_carlo_heap_is_frozen(tmp_path):
    assert run(["generate", "--out", str(tmp_path / "gen")]) == 0
    calls, _ = _fresh_main([
        ["metrics", str(tmp_path / "gen" / "series.csv"), "--out", "m"],
        ["sweep", "--trials", "2", "--jobs", "2", "--out", "s"],
    ], tmp_path)
    assert calls[0][5:] == [[], []]
    # sweep imports the harness, and with it numpy.random, before main
    # freezes the heap, so the workers it forks inherit both frozen
    code, _, executor, forks, frozen, loaded, unfrozen = calls[1]
    assert (code, executor) == (0, False)
    assert {"joltlab.growth", "joltlab.montecarlo", "numpy.random"} <= set(loaded)
    assert unfrozen == []
    # both forks follow this command's freeze; the command frees a few frozen
    # objects, such as its config, before it returns
    (frozen_0, threads_0), (frozen_1, threads_1) = forks
    assert frozen_0 == frozen_1 >= frozen > calls[0][4]
    # and both fork from a process that runs one OS thread, as OpenBLAS
    # starts no helper thread at the CLI's default
    if threads_0 is not None:
        assert [threads_0, threads_1] == [1, 1]
    assert (tmp_path / "s" / "heatmap.csv").exists()


def test_an_axis_value_the_detector_refuses_exits_2_before_any_fork(tmp_path, capsys):
    # poly_order 1 met SavitzkyGolay's contract (>= 0), so the sweep forked
    # and its workers failed with "detection signal needs poly_order >= 2"
    refused = {
        "order": ({"poly_order": [1, 2]}, "sweep axis 'poly_order' value 1 is not valid: "
                                          "detector poly_order must be >= 2, got 1"),
        "null": ({"window": [None, 21]}, "sweep axis 'window' value None is not valid: "),
    }
    argvs = {name: ["sweep", "--trials", "2", "--jobs", "2", "--out", str(tmp_path / name),
                    "--config", write_config(tmp_path, {
                        "mc": {"n_trials": 2, "noise_levels": ["low"]}, "sweep": axes},
                        f"{name}.yaml")]
             for name, (axes, _) in refused.items()}
    calls, _ = _fresh_main(list(argvs.values()), tmp_path)
    assert [[call[0], call[3]] for call in calls] == [[2, []], [2, []]]
    for name, (_, named) in refused.items():
        assert run(argvs[name]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / name).exists()
