"""Golden gate: the CLI's outputs on small fixed runs equal the committed ones.

``tests/golden/`` holds one directory of outputs per command run by
:func:`produce`, plus ``default_config.json``, the resolved default config,
and ``mc_seed42.npz``, the per-trial (score, p_value) of the Monte Carlo
harness made by :func:`trial_outcomes`. Regenerate it only for a change that
names the result it moves:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import yaml

from joltlab.cli import load_config, main
from joltlab.detector import DetectorConfig
from joltlab.montecarlo import MCCell, _outcomes

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = ("exponential", "logistic", "logquadratic", "injected_jolt")
MC_CONFIG = {
    "detector": {"n_perm": 99},
    "grid": {"n_points": 100},
    "mc": {"noise_levels": ["low", 0.03]},
}
MC_FLAGS = ["--seed", "42", "--trials", "20", "--jobs", "2"]
BYTE_EQUAL = ("series.csv", "series.json", "table1.csv", "heatmap.csv")
RTOL = 1e-12
TRIALS_NPZ = GOLDEN / "mc_seed42.npz"
TRIAL_NOISE = ("low", "medium", "high")
TRIAL_WINDOWS = (7, 11, 15, 21)
TRIALS = 50


def _config(config_dir: Path, name: str, payload: dict) -> str:
    path = config_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def produce(root: Path, config_dir: Path) -> None:
    """Run every golden command, writing its outputs under ``root``."""
    for family in FAMILIES:
        out = str(root / family)
        cfg = _config(config_dir, family,
                      {"model": {"family": family}, "noise": {"level": "medium"}})
        flags = ["--config", cfg, "--seed", "42", "--out", out]
        assert main(["generate", *flags]) == 0
        assert main(["detect", str(root / family / "series.csv"), *flags]) == 0
    cfg = _config(config_dir, "mc", MC_CONFIG)
    for command in ("mc", "sweep"):
        out = str(root / command)
        assert main([command, "--config", cfg, *MC_FLAGS, "--out", out]) == 0


def trial_outcomes(jobs: int = 2) -> dict:
    """Per-trial scores, p-values and default verdicts of the harness at
    master seed 42, default grid and n_perm, each of shape (noise, window,
    class, trial) with class 0 positive and 1 negative."""
    cells = [
        MCCell(noise=noise, n_trials=TRIALS, master_seed=42,
               detector=DetectorConfig(window=window))
        for noise in TRIAL_NOISE
        for window in TRIAL_WINDOWS
    ]
    # (cell, class, score or p_value, trial) -> (score or p_value, cell, class, trial)
    rows = np.array([[out[c] for c in (True, False)] for out in _outcomes(cells, jobs)])
    score, p_value = rows.transpose(2, 0, 1, 3).reshape(
        2, len(TRIAL_NOISE), len(TRIAL_WINDOWS), 2, TRIALS
    )
    return {"score": score, "p_value": p_value,
            "verdict": DetectorConfig().verdict(score, p_value)}


def _typed(value):
    """``value`` with each leaf paired with its type name, so 1 != 1.0 and a
    tuple differs from a list."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return (type(value).__name__, value)


def _csv_columns(path: Path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows]).T


def _assert_columns_close(got_path: Path, want_path: Path) -> None:
    got_header, got = _csv_columns(got_path)
    want_header, want = _csv_columns(want_path)
    assert got_header == want_header
    assert got.shape == want.shape
    for name, g, w in zip(want_header.split(","), got, want):
        finite = w[np.isfinite(w)]
        scale = float(np.max(np.abs(finite))) if finite.size else 0.0
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL * scale,
                                   equal_nan=True, err_msg=f"{want_path}: {name}")


def _assert_detection_equal(got_path: Path, want_path: Path) -> None:
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    assert got.keys() == want.keys()
    assert got["verdict"] == want["verdict"]
    assert got["p_value"] == want["p_value"]
    assert got["sub_scores"].keys() == want["sub_scores"].keys()
    for g, w in [(got["score"], want["score"])] + [
        (got["sub_scores"][k], want["sub_scores"][k]) for k in want["sub_scores"]
    ]:
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL)
    assert len(got["intervals"]) == len(want["intervals"])
    if want["intervals"]:
        np.testing.assert_allclose(got["intervals"], want["intervals"], rtol=RTOL)


def _assert_report_equal(got_path: Path, want_path: Path) -> None:
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    got.pop("timestamp"), want.pop("timestamp")
    assert got == want


def _outputs(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.glob("*/*"))


def test_outputs_match_golden(tmp_path):
    out = tmp_path / "out"
    produce(out, tmp_path)
    assert _outputs(out) == _outputs(GOLDEN)
    for rel in _outputs(GOLDEN):
        got, want = out / rel, GOLDEN / rel
        if rel.name in BYTE_EQUAL:
            assert got.read_bytes() == want.read_bytes(), rel
        elif rel.name in ("metrics.csv", "derivatives.csv"):
            _assert_columns_close(got, want)
        elif rel.name == "detection.json":
            _assert_detection_equal(got, want)
        elif rel.name == "report.json":
            _assert_report_equal(got, want)
        else:
            raise AssertionError(f"no comparison for golden file {rel}")


def test_default_config_matches_golden():
    # types included: the config is written into each report, so a float
    # default must stay a float
    want = json.loads((GOLDEN / "default_config.json").read_text())
    assert _typed(load_config(None)) == _typed(want)


def test_trial_outcomes_match_golden():
    got = trial_outcomes()
    with np.load(TRIALS_NPZ) as want:
        assert sorted(want.files) == sorted(got)
        np.testing.assert_array_equal(got["p_value"], want["p_value"])
        np.testing.assert_array_equal(got["verdict"], want["verdict"])
        np.testing.assert_allclose(got["score"], want["score"], rtol=0, atol=RTOL)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        produce(GOLDEN, Path(tmp))
    (GOLDEN / "default_config.json").write_text(
        json.dumps(load_config(None), indent=2, sort_keys=True) + "\n"
    )
    np.savez_compressed(TRIALS_NPZ, **trial_outcomes())
