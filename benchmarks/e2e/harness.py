"""Helpers shared by the training and serving workloads."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.shm import list_segments

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes (results, traces, the saved model)
#: goes here; the directory is git-ignored.
RESULTS_DIR = HERE / "results"


@dataclass(frozen=True)
class Budget:
    """How long one run measures: ``seconds``, but never fewer than
    ``min_repeats`` timed repeats (7 unless the smoke test lowers it)."""

    seconds: float
    min_repeats: int = 7


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` and ``per_layer`` map metric names to values;
    ``samples`` keeps the raw repeats behind a median so the result file
    can carry quartiles and N.  ``problems`` lists hygiene and
    correctness complaints; any entry makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations and say why on stderr."""
        self.failed += count
        self.problems.append(message)
        print(f"[e2e] FAILED: {message}", file=sys.stderr)

    def median(self, name: str, values: list[float]) -> float:
        """Median of ``values``, remembered as the samples of ``name``."""
        self.samples[name] = list(values)
        return statistics.median(values)

    def typical(self, name: str, values: list[float], better: str) -> float:
        """:func:`typical` of ``values``, remembered as ``name``'s samples."""
        self.samples[name] = list(values)
        return typical(values, better)


def typical(values: list[float], better: str = "lower") -> float:
    """A run's value of a timing from its repeats: the quartile on the
    fast side (the lower one of times, the upper one of rates).

    A shared host only ever slows a repeat down, in spells that last
    from a part of a run to several runs.  The median of a run's repeats
    follows such a spell as soon as it covers half the run; the quartile
    on the fast side holds until it covers three quarters.  Measured over
    three sets of ten seeds, the widest ten-seed spread of any timing
    was 26 % with medians and 16 % with this quartile, against a bound
    that may not exceed 25 %.  It is still a location of the bulk of the
    repeats, not a best case: a quarter of them are faster.
    """
    if len(values) < 2:  # the smoke test's shortest runs
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if better == "lower" else q3


def shuffled(table, seed: int):
    """``table`` with its rows in ``--seed``-chosen order.

    Every seed gives a workload the same rows in another order, so the
    trees trained and the rows served, and with them the work done, are
    the same for every seed; what differs is row order, tie order and
    request order.  Letting the seed redraw the table, or pick a sample
    of a larger one, changed the node count of the trained forest by up
    to 10 % between seeds, and every wall-clock metric with it.
    """
    return table.take(np.random.default_rng(seed).permutation(table.n_rows))


def timed(fn):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def repeat_for(budget: Budget, body) -> int:
    """Call ``body(index)`` until the budget is spent.

    A repeat is started only while the median repeat so far still fits
    before the deadline, so a run overshoots ``budget.seconds`` by less
    than one repeat once the floor is met.  Returns the repeats made.

    A full garbage collection runs before each repeat, outside its
    timing, so that no repeat inherits the previous one's garbage: left
    alone, the thousands of futures of one replay pass made every other
    pass pay a full collection and read 20-40 % slower.  The collector
    stays on during the repeat.
    """
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        gc.collect()
        began = time.perf_counter()
        body(len(walls))
        now = time.perf_counter()
        walls.append(now - began)
        fits = now + statistics.median(walls) <= start + budget.seconds
        if len(walls) >= budget.min_repeats and not fits:
            return len(walls)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def live_children() -> list[int]:
    """PIDs of this process's live (non-zombie) direct children.

    ``multiprocessing``'s resource tracker is left out: the standard
    library starts it with the first shared-memory segment and keeps it
    until this process exits.
    """
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:  # thread exited, or kernel without the file
            continue
    alive = []
    for pid in pids:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
            command = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:  # exited meanwhile
            continue
        if state.split()[0] != "Z" and b"resource_tracker" not in command:
            alive.append(pid)
    return alive


def wait_for_children(timeout: float = 5.0) -> list[int]:
    """Give exiting children ``timeout`` seconds; returns the survivors."""
    deadline = time.monotonic() + timeout
    alive = live_children()
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = live_children()
    return alive


def shm_segments() -> set[str]:
    """Names of the live ``repro`` shared-memory segments."""
    return set(list_segments())


def check_hygiene(out: Outcome, segments_before: set[str]) -> None:
    """After a workload: no shm segment left, no child still alive."""
    leaked = shm_segments() - segments_before
    out.per_layer["data.shm.leaked_segments"] = len(leaked)
    if leaked:
        out.problems.append(f"leaked shm segments: {sorted(leaked)}")
    alive = wait_for_children()
    if alive:
        out.problems.append(f"child processes still alive: {alive}")


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
