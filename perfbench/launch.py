"""Run one command; record its exit code, wall time and peak RSS.

    python3 perfbench/launch.py RESULT_JSON ARGV...

Linux carries a process's high-water RSS across exec, so a child's
`ru_maxrss` is at least the peak RSS of whatever spawned it.  The benchmark
holds its expected values in memory and would inflate every measurement;
this launcher imports only the core standard library, so the command it
spawns starts from a small high-water mark.  It writes
{"code", "wall_s", "peak_rss_mb"} to RESULT_JSON, wall time measured from
spawn to exit.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    result_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall_s,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
