"""Run one command, then write its wall time, peak RSS and exit code.

    python3 perfbench/launch.py RESULT_JSON COMMAND [ARGS...]

A child's peak RSS (``ru_maxrss``) starts from the resident set of the
process that forked it.  The benchmark holds the inputs and its reference
results, so ``run.py`` starts every command through this small process;
each figure is then the command's own.  The command inherits this
process's working directory, environment and standard streams.
"""

import json
import os
import subprocess
import sys
import time


def main(result_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "exit_code": os.waitstatus_to_exitcode(status)}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
