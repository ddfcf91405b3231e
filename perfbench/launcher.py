"""Starts the benchmark's child processes for run.py, one at a time.

    python perfbench/launcher.py TIMEOUT_S

Reads one request per line on stdin, a JSON list ``[argv, log]``; runs
``argv`` with stdout and stderr in ``log.out`` and ``log.err``, killing it
after TIMEOUT_S seconds; answers with one line ``[exit code, wall s, peak
RSS MB]``. Exits when stdin closes.

On Linux a child's peak RSS as ``wait4`` reports it starts at the peak
RSS of the process that spawned it. run.py holds numpy, the plans and
the reference data, so children spawned by it would report at least its
peak; this process stays small, so the RSS it reports is the child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        argv, log = json.loads(line)
        with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout_s, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
