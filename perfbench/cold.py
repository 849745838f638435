"""Cold and warm calls into one joltlab layer, in a fresh interpreter.

The traced benchmark run starts one child per (kind, n):

    python3 perfbench/cold.py KIND CSV OUT_JSON

"Cold" is the first call in this interpreter; no private cache is cleared.
Nothing from numpy or joltlab is imported before the timed import, so
``import_s`` is the cumulative cost of importing the layer's module.
"""

import importlib
import json
import os
import sys
import time

from spans import Tracer, child_time, duration, median, median_call_s

MODULES = {
    "cli": "joltlab.cli",
    "savgol_apply": "joltlab.estimation",
    "estimate_derivatives": "joltlab.estimation",
    "detection_signal": "joltlab.detector",
    "hybrid_detect": "joltlab.detector",
}

# the calls hybrid_detect makes into its own module
DETECTOR_PARTS = ("detection_signal", "peak_ratio_score", "pattern_match_score",
                  "duration_score", "permutation_test")


def _status_mb(field: str) -> float:
    """VmRSS or VmHWM of this process, in MB. VmHWM belongs to this program's
    own address space, so unlike ``ru_maxrss`` it does not include the
    parent's peak that Linux carries over on exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith(field + ":"))
    return int(kb) / 1024.0


def measure_savgol_apply(series, tracer):
    from joltlab.estimation import default_savgol, savgol_apply

    config = default_savgol(len(series))
    with tracer.span("estimation.savgol_apply") as sp:
        savgol_apply(series, config, 0)
    return {"cold_s": duration(sp)}


def measure_estimate_derivatives(series, tracer):
    from joltlab.estimation import default_savgol, estimate_derivatives, savgol_apply
    from joltlab.metrics import compute_metrics

    # peak RSS during the call above the RSS at its start
    before = _status_mb("VmRSS")
    with tracer.span("estimation.estimate_derivatives") as sp:
        estimate = estimate_derivatives(series)
    config = default_savgol(len(series))
    return {
        "cold_s": duration(sp),
        "cold_peak_mb": _status_mb("VmHWM") - before,
        "warm_s": median_call_s(lambda: estimate_derivatives(series)),
        "savgol_apply_warm_s": median_call_s(lambda: savgol_apply(series, config, 0)),
        "compute_metrics_s": median_call_s(lambda: compute_metrics(estimate)),
    }


def measure_detection_signal(series, tracer):
    from joltlab.detector import detection_signal

    with tracer.span("detector.detection_signal") as sp:
        detection_signal(series)
    return {"cold_s": duration(sp)}


def measure_hybrid_detect(series, tracer):
    from joltlab import detector

    config = detector.DetectorConfig()
    with tracer.span("detector.hybrid_detect") as sp:
        detector.hybrid_detect(series, config)
    cold = duration(sp)
    warm = median_call_s(lambda: detector.hybrid_detect(series, config))

    # warm calls again, now with a span around each of hybrid_detect's parts
    targets = [(detector, name, f"detector.{name}") for name in DETECTOR_PARTS]
    roots = []
    with tracer.patched(targets):
        for rep in range(3):
            tracer.request = f"hybrid_detect#{rep}"
            with tracer.span("detector.hybrid_detect") as root:
                detector.hybrid_detect(series, config)
            roots.append(root)
    tracer.request = None
    covered = child_time(tracer.spans)
    unattributed = [1.0 - covered.get(r["id"], 0.0) / duration(r) for r in roots]

    s = detector.detection_signal(series, config.smoother).unmasked
    return {
        "cold_s": cold,
        "warm_s": warm,
        "unattributed_frac": median(unattributed),
        "detection_signal_warm_s": median_call_s(
            lambda: detector.detection_signal(series, config.smoother)),
        "peak_s": median_call_s(lambda: detector.peak_ratio_score(s, config.threshold_peak)),
        "pattern_s": median_call_s(lambda: detector.pattern_match_score(s)),
        "duration_s": median_call_s(
            lambda: detector.duration_score(s, config.min_duration_frac)),
        "permutation_test_s": median_call_s(lambda: detector.permutation_test(series, config)),
        "n_perm": config.n_perm,
    }


def main(kind: str, csv: str, out: str) -> int:
    t0 = time.perf_counter()
    importlib.import_module(MODULES[kind])
    result = {"kind": kind, "module": MODULES[kind], "import_s": time.perf_counter() - t0}
    tracer = Tracer(proc=f"{kind}@{os.path.basename(csv)}")
    tracer.request = f"cold:{kind}"
    if kind != "cli":
        from joltlab.timeseries import read_csv

        result.update(globals()[f"measure_{kind}"](read_csv(csv), tracer))
    result["spans"] = tracer.spans
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
