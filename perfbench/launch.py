#!/usr/bin/env python3
"""Run one command to its end, time it and report its peak resident set.

    python3 perfbench/launch.py LOG TIMEOUT_S -- CMD...

Prints one JSON object: ``wall_s``, ``status`` (exit status; negative for a
signal) and ``peak_rss_kb``.  CMD's output goes to LOG; CMD is killed after
TIMEOUT_S seconds.

The benchmark starts every operation through this small process instead of
forking it directly: a child's ``ru_maxrss`` starts from its parent's size
at fork, which for the benchmark process would exceed the operation's own
peak, and waiting here in a blocking ``wait4`` leaves the operation
undisturbed (polling it from outside slowed it by several per cent).
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    log, timeout = sys.argv[1], float(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py LOG TIMEOUT_S -- CMD...")
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(sys.argv[4:], stdout=fh, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "status": proc.returncode,
                      "peak_rss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
