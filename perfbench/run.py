"""Benchmark of the hmetric CLI.

    python3 perfbench/run.py --workload mixed-1e5 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program under test is
``src/hmetric`` of that checkout, run as ``python -m hmetric.cli`` in a
subprocess.  One client drives it in a closed loop: each invocation starts
after the previous one has exited and been checked.

With ``--trace 0`` the run times the end-to-end metrics with tracing off:
``--help`` (for ``setup_s``), ``evaluate``, ``compare`` and ``curves`` run
in interleaved rounds for ``--seconds``, each round bracketed by a fixed
reference job, and each time metric is the median of the command's wall
time relative to the reference (see ``timed_run``).  ``peak_rss_mb`` is
the largest peak RSS of any single child, from ``os.wait4`` on that child
(see ``launch.py``).  With ``--trace 1`` the run instead calls the library
layers in-process under the span recorder (see ``layers.py``).

Every output is checked (see ``check.py``); a non-zero exit or a failed
check counts the invocation as failed.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the environment, the inputs, every sample and every failure
goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs as inputs_mod
import layers
from spans import write_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

CLI = [sys.executable, "-m", "hmetric.cli"]
LAUNCH = Path(__file__).resolve().parent / "launch.py"
MIN_ROUNDS = 3
# The host's speed drifts by a quarter over minutes, because other tenants
# share its cores, and a drift slows every child alike.  So each round also
# times this fixed job, which does not touch hmetric: interpreter start,
# the imports the CLI needs too, a pure-Python parse and numpy work.  A
# time metric is the command's wall time on a host where the job takes
# REFERENCE_S seconds.
REFERENCE_JOB = """\
import numpy as np, scipy.integrate, scipy.special
x = np.random.default_rng(0).random(50_000)
text = "\\n".join(map(repr, x.tolist()))
y = np.array([float(v) for v in text.split("\\n")])
assert (y == x).all()
scipy.special.betainc(2.0, 3.0, np.sort(y))
"""
REFERENCE_S = 1.0
COMPARE_ARGS = ["--columns", "model_a,model_b", "--mode", "optimal", "--screen", "0.1,0.25",
                "--u-dist", "pooled", "--u-dist", "class1-ranks"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "MB" if metric.endswith("_mb") else "count"


def child_env() -> dict:
    """The caller's environment, with only this checkout's sources on the
    import path, the program's log level left at its default, and one BLAS
    thread: the host has few cores, and a thread pool in each child would
    measure the scheduler."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HMETRIC_LOG")}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "loadavg": os.getloadavg(),
    }


def invoke(argv: list[str], env: dict, work: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    The child starts through launch.py, which reaps it with os.wait4: that
    rusage covers the child alone, unlike RUSAGE_CHILDREN, which keeps the
    maximum over every child ever waited for, and its peak RSS does not
    start from this process's resident set.
    """
    result = work / "launch.json"
    result.unlink(missing_ok=True)
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        code = subprocess.call([sys.executable, str(LAUNCH), str(result), *argv],
                               stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                               env=env, cwd=work)
    if code:
        tail = (work / "stderr").read_text(encoding="utf-8", errors="replace")[-500:]
        raise RuntimeError(f"launch.py exit code {code}: {tail}")
    launched = json.loads(result.read_text(encoding="utf-8"))
    return launched["wall_s"], launched["peak_rss_mb"], launched["exit_code"]


class Session:
    """Counts and samples of one run's invocations."""

    def __init__(self, env: dict, work: Path):
        self.env = env
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[dict]] = {}
        self.peak_rss_mb = 0.0

    def record(self, command: str, errors: list[str], **sample):
        """Count one attempted operation; it failed if errors is nonempty."""
        self.attempted += 1
        self.failures += [f"{command}: {e}" for e in errors]
        self.samples.setdefault(command, []).append({**sample, "ok": not errors})

    def run(self, command: str, argv: list[str], check_output) -> float:
        """Invoke argv once and check its output with check_output(), which
        returns failure messages.  Returns the wall time."""
        wall, rss, code = invoke(argv, self.env, self.work)
        errors = [f"exit code {code}: {self.stderr_tail()}"] if code else check_output()
        self.record(command, errors, wall_s=wall, peak_rss_mb=rss, exit_code=code)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return wall

    def clear(self, output: str):
        """Remove an earlier output, so a stale one cannot pass a check."""
        path = self.work / output
        if path.is_dir():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)

    def stderr_tail(self) -> str:
        return (self.work / "stderr").read_text(encoding="utf-8", errors="replace")[-500:].strip()

    @property
    def failed(self) -> int:
        return sum(not s["ok"] for runs in self.samples.values() for s in runs)


def help_ok(session: Session) -> list[str]:
    text = (session.work / "stdout").read_text(encoding="utf-8", errors="replace")
    missing = [word for word in ("Usage:", "evaluate", "compare", "curves") if word not in text]
    return [f"--help output lacks {missing}"] if missing else []


def commands(workload, inputs, checker, work: Path) -> dict:
    """Each timed command: (CLI arguments, output path, output check)."""
    csv = str(inputs.path)
    evaluate = ["evaluate", csv, "--out", "evaluate.json"]
    prior_kw = {}
    if workload.prior_beta:
        evaluate += ["--prior", "beta", "--seed", str(inputs.program_seed)]
        prior_kw = {"prior_seed": inputs.program_seed, "draws": check.PRIOR_DRAWS}
    return {
        "evaluate": (evaluate, "evaluate.json",
                     lambda: checker.report_file(work / "evaluate.json", "calibrated", **prior_kw)),
        "compare": (["compare", csv, *COMPARE_ARGS, "--out", "compare.json"], "compare.json",
                    lambda: checker.report_file(work / "compare.json", "optimal")),
        "curves": (["curves", csv, "--column", "model_a", "--out-dir", "curves"], "curves",
                   lambda: checker.curves_dir(work / "curves", "model_a")),
    }


def timed_run(cmds: dict, session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off, and the raw times behind them.

    A warm-up round runs the reference job, ``--help`` and every command
    once, checked but not timed, so that the page cache holds the
    interpreter, the libraries and the input.  Then timed rounds run for
    about `seconds` (and at least MIN_ROUNDS rounds).  A round runs
    ``--help`` once and each command as many times as the slowest command's
    warm-up time holds its own, so that each command's metric rests on
    about the same measured time.  A block of as many reference jobs runs
    before the first round and after every round.
    A time metric is the median over its samples of the wall time over the
    mean reference time of the two reference blocks around its round,
    times REFERENCE_S.
    """
    reference = [sys.executable, "-c", REFERENCE_JOB]
    cmds = {"setup": (["--help"], "stdout", lambda: help_ok(session)), **cmds}

    def invoke_checked(command) -> float:
        args, output, check_output = cmds[command]
        session.clear(output)
        return session.run(command, CLI + args, check_output)

    def reference_block(count: int) -> float:
        """Mean wall time of `count` runs of the reference job."""
        walls = []
        for _ in range(count):
            wall, _, code = invoke(reference, session.env, session.work)
            if code:
                raise RuntimeError(f"reference job exit code {code}: {session.stderr_tail()}")
            walls.append(wall)
        return statistics.mean(walls)

    warm = {"reference": reference_block(1), **{c: invoke_checked(c) for c in cmds}}
    slowest = max(warm.values())
    repeats = {c: 1 if c == "setup" else max(1, round(slowest / w)) for c, w in warm.items()}

    walls: dict[str, list[tuple[int, float]]] = {command: [] for command in cmds}
    start = time.perf_counter()
    references = [reference_block(repeats["reference"])]
    rounds_start = time.perf_counter()
    rounds = 0
    while True:
        now = time.perf_counter()
        # stop where the expected end of the run lands nearest `seconds`
        if rounds >= MIN_ROUNDS and now - start + (now - rounds_start) / rounds / 2 > seconds:
            break
        for command in cmds:
            for _ in range(repeats[command]):
                walls[command].append((rounds, invoke_checked(command)))
        references.append(reference_block(repeats["reference"]))
        rounds += 1
    metrics = {
        f"{command}_s": REFERENCE_S * statistics.median(
            wall / ((references[r] + references[r + 1]) / 2) for r, wall in samples)
        for command, samples in walls.items()
    }
    metrics["peak_rss_mb"] = session.peak_rss_mb
    raw = {"reference_s": references, "repeats": repeats,
           "median_wall_s": {c: statistics.median(w for _, w in s) for c, s in walls.items()}}
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hmetric" / "__init__.py").is_file():
        print(f"perfbench: no hmetric sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from hmetric import REPORT_SCHEMA

    workload = inputs_mod.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(inputs_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    env_record = environment()
    raw = {}
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        inputs = inputs_mod.build(workload, args.seed, work)
        checker = check.Checker(inputs, REPORT_SCHEMA)
        session = Session(child_env(), work)
        cmds = commands(workload, inputs, checker, work)
        if args.trace:
            metrics, spans = layers.traced_run(inputs, workload.prior_beta, checker, session,
                                               cmds["curves"])
            write_json(OUT / f"spans-{workload.name}-{args.seed}.json", spans)
        else:
            metrics, raw = timed_run(cmds, session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record, "input": inputs.manifest,
        "program_seed": inputs.program_seed, "samples": session.samples,
        "failures": session.failures, "metrics": metrics, "raw": raw,
    }
    record_path = OUT / f"run-{workload.name}-{args.seed}-trace{args.trace}.json"
    write_json(record_path, record)
    for failure in session.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
