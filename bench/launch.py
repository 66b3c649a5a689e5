"""Spawns the benchmark's child processes from a process that stays small.

Linux carries the peak RSS of the address space a child replaces at exec
into the child's ``ru_maxrss``.  Children spawned straight from run.py would
therefore report at least run.py's own peak, which grows while it checks
large outputs.  run.py starts this script once and sends it one JSON request
per line; the script runs the command with stdout and stderr sent to files,
reaps it with wait4, and answers with one JSON line.  It never reads the
children's output, so its own RSS stays near that of a bare interpreter.
"""

import json
import os
import select
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], req["timeout"])[0]
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss, "timed_out": timed_out}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
