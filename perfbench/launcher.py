"""Starts the program's processes for run.py and reports what each used.

    python3 perfbench/launcher.py

Reads one JSON request a line on stdin, {"argv": [...], "log": path,
"cwd": path, "env": {...}, "timeout": seconds}; starts argv with its
output in `log`, waits for it (killing it after `timeout` seconds) and
writes one JSON line to stdout, {"exit": code, "maxrss_kb": kb,
"spawned": t, "reaped": t}, with `time.monotonic()` times. It exits when
stdin closes.

A child's ru_maxrss also counts the peak RSS of the process that started
it: the kernel records the peak of the memory map that exec replaces. So
run.py, which holds numpy, the generated inputs and the reference work,
does not start the children itself; this process, which imports nothing
heavy, does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT,
                                    env=request["env"], cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                          "spawned": spawned, "reaped": reaped}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
