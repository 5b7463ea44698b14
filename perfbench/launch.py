"""Start commands one at a time and report each one's own time and memory.

The kernel counts, in a child's peak resident set, the memory of the
process that started it: the child runs in its parent's address space
until it executes the new program.  The benchmark process holds numpy,
scipy and the reference data, so it starts spnkit through this small
process instead, which imports nothing heavy.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": "...", "log": "...", "timeout_s": 160}``;
one JSON reply per line on stdout, with ``returncode``, ``start`` and
``end`` (``time.perf_counter``, which is the same clock in every process
on Linux), ``cpu_s`` and ``peak_rss_kb``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(request["timeout_s"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "returncode": proc.returncode,
            "start": start,
            "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
