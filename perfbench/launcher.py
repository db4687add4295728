"""Lean child-process launcher for the benchmark.

Linux carries a process's resident-set high-water mark across ``exec``: a
child forked from a large parent reports at least the parent's peak RSS, not
its own. The harness therefore starts this launcher first, while it is still
small, and routes every measured child through it. The launcher imports only
the standard library and never holds instance data.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``; one JSON reply per line
on stdout, ``{"rc": int, "wall_s": float, "maxrss_kb": int}``. The child's
output goes to the named files, so no pipe can fill up while it runs. The
launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run_one(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": child.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        reply = run_one(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
