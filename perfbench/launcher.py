"""Spawn and reap the benchmark's measured processes from a small process.

    python3 perfbench/launcher.py      (run.py drives it over stdin/stdout)

The peak RSS the kernel reports for a child starts from its parent's RSS
at spawn time.  Spawned from run.py, which holds the reference tables,
every process would report at least run.py's size; this process imports
almost nothing and stays below any process that imports peakpoly.

Each request is one JSON line {"argv", "stdout", "stderr", "timeout"}; each
reply is one JSON line {"rc", "start", "wall", "maxrss_kb", "killed"}.
`start` is on the monotonic clock; `wall` runs from spawn to reaping;
`maxrss_kb` covers the process and the children it reaped (pool workers).
A process still running after `timeout` seconds is killed with its whole
process group.  Environment and working directory are this process's own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    killed = []

    def kill(proc):
        killed.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(request["timeout"], kill, args=(proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "start": start, "wall": wall,
            "maxrss_kb": usage.ru_maxrss, "killed": bool(killed)}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
