"""Compare two result files of ``run.py``, A (base) against B.

    python benchmarks/e2e/compare.py A.json B.json

For every (end-to-end metric, workload) pair that the workload measures
it prints both medians with their quartiles over the untraced runs in
each file, the ratio B/A with its base, and a label:

* ``unresolved`` — either side has fewer than two runs, or the
  run-to-run spread (q3 - q1) / median of either side is wider than the
  metric's bound, so the bound cannot be tested;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``same``       — neither.

The spread is always that of one run's value across runs; the quartiles
a single run records over its own repeats are not used, because what a
repeat is differs from metric to metric.  Metrics a workload does not
measure (``run.py`` restates them from the primary metric only in the
driver's line) are not in the result file and get no row.

``failed_share`` (failed / attempted over all runs of a set; end to end
it is reported as its complement ``succeeded_share``) has an absolute
bound: it must not rise.  Counts that
must repeat exactly (``core.master.*``, ``messages_sent``, simulated
seconds) are checked on the traced runs both files have for the same
workload and seed.  Exits 1 when anything regressed or a count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: Per-layer counts that a fixed seed must reproduce exactly.
EXACT = (
    "core.master.column_tasks",
    "core.master.subtree_tasks",
    "core.master.plans_dispatched",
    "core.master.bplan_peak",
    "runtime.transport.messages_sent",
    "cluster.events_processed",
    "cluster.sim_seconds",
)


def load(path: str) -> list[dict]:
    """The runs of one result file; all must come from one commit."""
    runs = json.loads(Path(path).read_text())["runs"]
    commits = {r["environment"]["git_commit"] for r in runs}
    if len(commits) > 1:
        raise SystemExit(
            f"{path} pools runs of several commits: {sorted(commits)}"
        )
    return runs


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, str]:
    """Label and detail for one metric on one workload.

    ``a`` and ``b`` are the metric's value in each run of the two sets.
    """
    if min(len(a), len(b)) < 2:
        return "unresolved", "needs 2 runs a side"
    (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
    spread = max((aq3 - aq1) / am, (bq3 - bq1) / bm)
    if spread > bound:
        return "unresolved", f"spread {spread:.1%}"
    worse = (bm - am) / am
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed", f"{worse:+.1%} worse"
    return "same", ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(a_runs: list[dict], b_runs: list[dict]) -> int:
    """Print the comparison; returns the number of regressions."""
    bad = unresolved = 0
    print(
        f"{'workload':22s} {'metric':15s} {'A median [q1, q3] n':>38s} "
        f"{'B median [q1, q3] n':>38s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    for workload in (w["name"] for w in SPEC["workloads"]):
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name == "succeeded_share":
                continue  # judged below as failed_share, pooled over runs
            if name not in a[0]["metrics"] or name not in b[0]["metrics"]:
                continue  # the workload does not measure it
            a_values = [r["metrics"][name]["value"] for r in a]
            b_values = [r["metrics"][name]["value"] for r in b]
            label, detail = verdict(
                a_values, b_values, metric["better"], bound
            )
            bad += label == "regressed"
            unresolved += label == "unresolved"
            (aq1, am, aq3), (bq1, bm, bq3) = (
                quartiles(a_values), quartiles(b_values)
            )
            print(
                f"{workload:22s} {name:15s} "
                f"{am:>12.5g} [{aq1:.5g}, {aq3:.5g}] {len(a):<2d} "
                f"{bm:>12.5g} [{bq1:.5g}, {bq3:.5g}] {len(b):<2d} "
                f"{bm / am:>7.3f} {bound:>6.0%}  {label}"
                + (f" ({detail})" if detail else "")
            )
        a_failed = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        b_failed = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        label = "regressed" if b_failed > a_failed else "same"
        bad += b_failed > a_failed
        print(
            f"{workload:22s} {'failed_share':15s} {a_failed:>38.6g} "
            f"{b_failed:>38.6g} {'':>7s} {'abs':>6s}  {label}"
        )

    traced_b = {
        (r["workload"], r["seed"]): r for r in b_runs if r["trace"]
    }
    for run in (r for r in a_runs if r["trace"]):
        other = traced_b.get((run["workload"], run["seed"]))
        if other is None:
            continue
        # A count only one side reports is a difference too.
        differing = [
            name for name in EXACT
            if run["metrics"].get(name, {}).get("value")
            != other["metrics"].get(name, {}).get("value")
        ]
        bad += len(differing)
        print(
            f"{run['workload']:22s} seed {run['seed']}: exact counts "
            + (f"DIFFER: {differing}" if differing else "identical")
        )
    print(f"{bad} regressed or differing, {unresolved} unresolved")
    return bad


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(load(sys.argv[1]), load(sys.argv[2])) else 0


if __name__ == "__main__":
    sys.exit(main())
