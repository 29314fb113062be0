"""Launch and measure child processes on request, one at a time.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin, {"argv": [...], "stderr": path,
"timeout": seconds}, runs it, and answers with one JSON line {"wall",
"cpu", "rss_mb", "code"}: wall seconds from launch to exit, user + sys CPU
seconds, and peak resident set in 1e6 bytes.  Exits when stdin closes.

A child's peak RSS, as the kernel reports it, is at least the resident
set of the process it was forked from.  The benchmark itself holds numpy,
scipy and its inputs, more than the smaller CLI verbs use, so it launches
them through this small process, which imports nothing else.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stderr_path, timeout) -> dict:
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6, "code": proc.returncode}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stderr"], req["timeout"])),
              flush=True)


if __name__ == "__main__":
    main()
