"""Spawns the benchmark's operations from a process that stays small.

Linux charges a child, in its ``ru_maxrss``, the peak RSS of the address
space it had before ``exec``; with ``vfork`` that is the peak of the
process that spawned it.  The benchmark process parses outputs of tens of
MB, so it does not spawn operations itself: it starts this launcher once,
with the operations' environment, and sends it one JSON request per line
on stdin::

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

For each, the launcher runs ``argv`` with its output in the two files,
times it from spawn to exit, kills it past the timeout, and answers with
one JSON line ``{"wall_s", "maxrss_kb", "code"}``.  It exits at the end of
its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
