import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import joltlab
from joltlab.cli import main
from joltlab.timeseries import read_csv


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


def test_detect_short_series_exit_3(tmp_path):
    path = tmp_path / "short.csv"
    rows = "\n".join(f"{i},{np.exp(0.1 * i)}" for i in range(10))
    path.write_text("t,value\n" + rows + "\n")
    assert run(["detect", str(path), "--out", str(tmp_path / "o")]) == 3


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


def test_detect_malformed_csv_exit_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time;value\n0;1\n")
    assert run(["detect", str(path), "--out", str(tmp_path / "o")]) == 2


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


# --- import path --------------------------------------------------------------

def test_cli_import_leaves_out_scipy_stats():
    src = Path(joltlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, joltlab.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
