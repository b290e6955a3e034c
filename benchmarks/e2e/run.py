"""The repo benchmark: six workloads, end to end and layer by layer.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--seconds S] [--trace 0|1] [--out FILE]

One run is one workload, one seed, traced or not; ``measure.py`` says
what a run does and prints.  Without ``--workload`` every workload runs,
and without ``--trace`` each runs untraced and then traced.  The exit
code is non-zero when any run failed a check.

This file only supervises.  Each run is a child process of its own, so
that peak memory, shm segments and stray children belong to the run that
made them, and this process is the one that every process a run leaves
behind falls to (a Linux "child subreaper"): when a run has ended, on
whatever path, it waits for all of them, kills those that do not end by
themselves, and returns only when none is left, not even as a zombie.
The standard library's shared-memory resource tracker is such a process:
it outlives the run that started it by a moment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: A run measures for ``run_seconds`` and must be over within 180 s.
RUN_TIMEOUT = 170.0
#: What a run leaves behind may take this long to end by itself.
EXIT_GRACE = 5.0
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> None:
    """From now on a descendant whose parent ends becomes a child of this
    process instead of init's, so that :func:`reap_all` can wait for it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children() -> list[int]:
    """PIDs of this process's children, zombies included."""
    me, pids = str(os.getpid()), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # ended meanwhile
            continue
        if fields[1] == me:  # state, ppid, ...
            pids.append(int(stat.parent.name))
    return pids


def reap_all(grace: float) -> list[int]:
    """Wait until this process has no child left; returns the PIDs that
    did not end within ``grace`` seconds and were killed."""
    killed: set[int] = set()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return sorted(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            # Their own children fall to this process in turn.
            for pid in children():
                os.kill(pid, signal.SIGKILL)
                killed.add(pid)
        time.sleep(0.01)


def run_once(arguments: list[str]) -> int:
    """One run of ``measure.py``; returns only when the run and every
    process it started have ended.  Non-zero if the run failed a check,
    overran, or left a process that had to be killed."""
    run = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *arguments]
    )
    grace = EXIT_GRACE
    try:
        code = run.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"[e2e] run overran {RUN_TIMEOUT:.0f} s", file=sys.stderr)
        code = 1
    finally:  # also on SIGTERM and Ctrl-C
        if run.poll() is None:
            run.kill()
            run.wait()
            grace = 0.0
        killed = reap_all(grace)
    if killed:
        print(f"[e2e] killed what the run left running: {killed}",
              file=sys.stderr)
    return int(code != 0 or bool(killed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--min-repeats", type=int, default=7,
        help="floor on timed repeats (the smoke test lowers it)",
    )
    parser.add_argument(
        "--out", type=Path,
        help="result file to append to (default: results/latest.json, "
        "started afresh by every run of several workloads)",
    )
    args = parser.parse_args()

    out_path = args.out or HERE / "results" / "latest.json"
    workloads = [args.workload] if args.workload else WORKLOADS
    traces = [args.trace] if args.trace is not None else [0, 1]
    if args.out is None and len(workloads) * len(traces) > 1:
        # The default file holds one set of runs, never two commits' worth.
        out_path.unlink(missing_ok=True)

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    worst = 0
    for trace in traces:
        for workload in workloads:
            code = run_once(
                [
                    "--workload", workload, "--trace", str(trace),
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--min-repeats", str(args.min_repeats),
                    "--out", str(out_path),
                ]
            )
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
