"""Golden gate: the CLI's outputs on small fixed runs equal the committed ones.

``tests/golden/`` holds one directory of outputs per command run by
:func:`produce`, plus ``default_config.json``, the resolved default config,
and ``mc_seed42.npz``, the per-trial (score, p_value) of the Monte Carlo
harness made by :func:`trial_outcomes`. ``manifest.json`` records, per case,
the commit, the numpy version and the :func:`machine` that wrote its files.
Where the running numpy and machine are those, scores, sub-scores and CSV
columns must be equal; elsewhere they may differ by ``RTOL``. Regenerate only
the cases that a change names as moved (see ``CASES``), which also rewrites
their manifest entries; with no case named, the script lists them and writes
nothing:

    PYTHONPATH=src python tests/test_golden.py CASE ...
"""

import json
import platform
import shutil
import subprocess
import sys
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
MANIFEST = GOLDEN / "manifest.json"
TRIAL_NOISE = ("low", "medium", "high")
TRIAL_WINDOWS = (7, 11, 15, 21)
TRIALS = 50


def _config(config_dir: Path, name: str, payload: dict) -> str:
    path = config_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _run(case: str, root: Path, config_dir: Path) -> None:
    """Run the golden command(s) of one case, writing its outputs in ``root / case``."""
    out = str(root / case)
    if case in FAMILIES:
        cfg = _config(config_dir, case, {"model": {"family": case}, "noise": {"level": "medium"}})
        flags = ["--config", cfg, "--seed", "42", "--out", out]
        assert main(["generate", *flags]) == 0
        assert main(["detect", str(root / case / "series.csv"), *flags]) == 0
    else:
        cfg = _config(config_dir, "mc", MC_CONFIG)
        assert main([case, "--config", cfg, *MC_FLAGS, "--out", out]) == 0


COMMANDS = (*FAMILIES, "mc", "sweep")
CASES = (*COMMANDS, "default_config", "trials")


def produce(root: Path, config_dir: Path) -> None:
    """Run every golden command, writing its outputs under ``root``."""
    for case in COMMANDS:
        _run(case, root, config_dir)


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


def machine() -> str:
    """The machine as numpy computes on it: its architecture, its OS and the
    SIMD targets that numpy dispatches to at run time, whose kernels can round
    differently."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return f"{platform.machine()} {platform.system()} simd {' '.join(simd) or 'baseline'}"


def _writer() -> dict:
    """The commit, numpy version and machine that write golden files here."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=GOLDEN.parents[1], capture_output=True,
                              text=True)

    commit = git("rev-parse", "HEAD").stdout.strip() or "unknown"
    if git("diff", "--quiet", "HEAD", "--", "src").returncode == 1:
        commit += " with uncommitted changes to src"
    return {"commit": commit, "numpy": np.__version__, "machine": machine()}


def _tolerance(case: str) -> float:
    """0 where this numpy on this machine wrote ``case``'s files, else ``RTOL``."""
    writer = json.loads(MANIFEST.read_text())[case]
    here = {"numpy": np.__version__, "machine": machine()}
    return 0.0 if {key: writer[key] for key in here} == here else RTOL


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


def _assert_columns_close(got_path: Path, want_path: Path, tol: float) -> None:
    got_header, got = _csv_columns(got_path)
    want_header, want = _csv_columns(want_path)
    assert got_header == want_header
    assert got.shape == want.shape
    for name, g, w in zip(want_header.split(","), got, want):
        finite = w[np.isfinite(w)]
        scale = float(np.max(np.abs(finite))) if finite.size else 0.0
        np.testing.assert_allclose(g, w, rtol=tol, atol=tol * scale,
                                   equal_nan=True, err_msg=f"{want_path}: {name}")


def _assert_detection_equal(got_path: Path, want_path: Path, tol: float) -> None:
    got = json.loads(got_path.read_text())
    want = json.loads(want_path.read_text())
    assert got.keys() == want.keys()
    assert got["verdict"] == want["verdict"]
    assert got["p_value"] == want["p_value"]
    assert got["sub_scores"].keys() == want["sub_scores"].keys()
    for g, w in [(got["score"], want["score"])] + [
        (got["sub_scores"][k], want["sub_scores"][k]) for k in want["sub_scores"]
    ]:
        np.testing.assert_allclose(g, w, rtol=tol, atol=tol)
    assert len(got["intervals"]) == len(want["intervals"])
    if want["intervals"]:
        np.testing.assert_allclose(got["intervals"], want["intervals"], rtol=tol)


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
        got, want, tol = out / rel, GOLDEN / rel, _tolerance(rel.parts[0])
        if rel.name in BYTE_EQUAL:
            assert got.read_bytes() == want.read_bytes(), rel
        elif rel.name in ("metrics.csv", "derivatives.csv"):
            _assert_columns_close(got, want, tol)
        elif rel.name == "detection.json":
            _assert_detection_equal(got, want, tol)
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
        np.testing.assert_allclose(got["score"], want["score"], rtol=0, atol=_tolerance("trials"))


def test_manifest_names_the_writer_of_every_case():
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest) == sorted(CASES)
    assert all(sorted(writer) == ["commit", "machine", "numpy"] for writer in manifest.values())


def regenerate(case: str) -> None:
    """Rewrite the committed golden files of one case, and its manifest entry."""
    if case == "default_config":
        (GOLDEN / "default_config.json").write_text(
            json.dumps(load_config(None), indent=2, sort_keys=True) + "\n"
        )
    elif case == "trials":
        np.savez_compressed(TRIALS_NPZ, **trial_outcomes())
    else:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            _run(case, GOLDEN, Path(tmp))
    manifest = json.loads(MANIFEST.read_text())
    manifest[case] = _writer()
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    cases = sys.argv[1:]
    unknown = [case for case in cases if case not in CASES]
    if unknown or not cases:
        print(f"usage: {sys.argv[0]} CASE ...; the golden cases are: {' '.join(CASES)}")
        sys.exit(f"unknown golden case(s): {' '.join(unknown)}" if unknown else 0)
    for case in cases:
        regenerate(case)
