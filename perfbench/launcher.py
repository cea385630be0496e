"""Launch commands one at a time and report each one's own resource usage.

    python launcher.py STDERR_LOG

Reads one JSON request per line on standard input, ``{"argv": [...],
"timeout": seconds}``, runs the command with this process's environment and
working directory, standard output discarded and standard error appended to
STDERR_LOG, reaps it with ``os.wait4`` and answers with one JSON line:
``{"code", "start", "end", "cpu_s", "rss_mb", "killed"}``.  Times are
``time.perf_counter()`` readings, which share one monotonic clock with the
process that reads the answers.  A command still running at its timeout is
killed.  The launcher exits when its standard input closes.

Why a separate process: on Linux a new process starts with the resident-size
high-water mark of the process that spawned it, and ``ru_maxrss`` carries it
across exec.  Spawned from the benchmark, which holds numpy and the generated
inputs, every command would report at least the benchmark's own peak.  This
launcher imports only the standard library, so a command's ``ru_maxrss`` is
its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(argv, timeout, stderr_log):
    with open(stderr_log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "killed": killed.is_set()}


def main(argv):
    stderr_log = argv[0]
    for line in sys.stdin:
        request = json.loads(line)
        reply = launch(request["argv"], request["timeout"], stderr_log)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
