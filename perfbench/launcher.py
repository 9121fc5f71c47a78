"""Runs one command at a time for the benchmark and reports wall time, exit status and peak RSS.

The benchmark process grows while it reads and checks outputs. On Linux a
child's ru_maxrss includes the RSS of the address space it was forked from,
so a child spawned straight from the benchmark would report the benchmark's
own peak. This launcher is started first, stays small and never reads a
child's output: each child's reported peak is then its own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line on stdout,
``{"wall_s": ..., "exit": code, "timed_out": bool, "maxrss_kb": ...}``.
The children inherit this process's environment and working directory. The
launcher exits when stdin closes.
"""

import json
import os
import select
import subprocess
import sys
import time


def run_one(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], req["timeout"])
            timed_out = not ready
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "timed_out": timed_out,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run_one(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
