"""joltlab benchmark: one workload per call, or all of them.

Run from the repository root:

    python3 perfbench/run.py --workload detect-n200 --seed 1 --seconds 20 --trace 0

Workloads (closed loops, one client):
  detect-n200   fresh `joltlab detect` processes on seeded n=200 CSVs
  detect-n2000  the same with n=2000 CSVs (default window 201)
  sweep-n200    `joltlab sweep --jobs nproc` with the default axes, seeded
  all           the three above in turn

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 is the
separate traced run: per-layer metrics from spans and timed calls into each
module, written with its span file to .perfbench_out/.

The benchmark imports the program from ./src of the checkout it lives in,
writes only under .perfbench_out/ there, and exits 1 if an output check
fails, 2 if there is no program to measure. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("detect-n200", "detect-n2000", "sweep-n200")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    """What the numbers were measured on. Reads, never sets, thread variables."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None  # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_workload(name, args, work, tracer):
    import layers
    import workloads

    env = child_env()
    if args.trace:
        return layers.run_traced(args.seed, args.holdout_seed, env, ROOT, work,
                                 nproc(), tracer)
    if name == "sweep-n200":
        return workloads.run_sweep(args.seed, args.holdout_seed, args.seconds,
                                   env, ROOT, work, nproc())
    n = int(name.rsplit("-n", 1)[1])
    return workloads.run_detect(n, args.seed, args.holdout_seed, args.seconds,
                                env, ROOT, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--holdout-seed", type=int, default=None,
                        help="draw inputs from a stream disjoint from every --seed "
                             "stream, to check a claim on unseen inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: children are killed and waited for, temp dirs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "joltlab" / "cli.py").is_file():
        print(f"error: no joltlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import joltlab
    from spans import Tracer

    if Path(joltlab.__file__).resolve().parent != SRC / "joltlab":
        print(f"error: imported joltlab from {joltlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    # the traced run measures layers, not a workload: it runs once
    names = WORKLOADS if args.workload == "all" and not args.trace else (args.workload,)
    host = machine()
    print(f"machine: {json.dumps(host, sort_keys=True)}")
    tracer = Tracer()
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        started = time.time()
        try:
            metrics, details, n_att, n_fail, ok = run_workload(name, args, work, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"== {name} seed={args.seed} holdout_seed={args.holdout_seed} "
              f"trace={args.trace} ({time.time() - started:.1f} s)")
        for metric, (value, unit) in metrics.items():
            print(f"{metric:<52} {value:>14.6g} {unit}")
        for key, value in details.items():
            if key != "walls_s":
                print(f"  {key}: {value}")
        print(f"  failed/attempted: {n_fail}/{n_att}")
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        record = {"workload": name, "seed": args.seed, "holdout_seed": args.holdout_seed,
                  "seconds": args.seconds, "trace": args.trace, "machine": host,
                  "metrics": metrics, "details": details, "attempted": n_att,
                  "failed": n_fail, "correct": ok}
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
        attempted, failed, correct = attempted + n_att, failed + n_fail, correct and ok
    if args.trace:
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(tracer.spans) + "\n")
        print(f"spans: {len(tracer.spans)} written to {span_file}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
