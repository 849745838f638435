"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE COMMAND [ARG ...]

Each request of a workload is started through a fresh copy of this script.
On exec, Linux carries the spawning process's RSS high-water mark into the
new program's ``ru_maxrss``, so a command spawned straight from the benchmark
(which has numpy and joltlab loaded) would report at least the benchmark's
own peak. This script is small, so the peak it reports is the command's.
"""

import json
import os
import subprocess
import sys
import time


def main(stdout_file, stderr_file, *command) -> int:
    with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
