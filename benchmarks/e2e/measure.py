"""One run of the benchmark: one workload, one seed, traced or not.

``run.py`` starts this as a child process, once per run, and cleans up
after it; see there for the command line.  A run generates its inputs
from the seed, measures for ``--seconds``, checks every output, prints
each metric by name with its unit, appends a full record (with
quartiles, sample counts and the environment) to ``--out``, and ends its
standard output with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  An untraced run (``--trace 0``) reports the end-to-end
metrics of ``BENCHMARK.json``; a traced run (``--trace 1``) reports the
per-layer ones and writes ``results/trace_<workload>.json``.  The exit
code is non-zero when the run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

import serve  # noqa: E402
import train  # noqa: E402
from harness import (  # noqa: E402
    REPO_ROOT,
    RESULTS_DIR,
    Budget,
    Outcome,
    peak_rss_mb,
    usable_cores,
)
from trace import Tracer  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Declared metric names, keyed by "is this a traced run".
NAMES = {
    False: [m["name"] for m in SPEC["end_to_end"]],
    True: [m["name"] for m in SPEC["per_layer"]],
}


def environment(seed: int) -> dict:
    """Where and on what this run was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    cores = usable_cores()
    load = os.getloadavg()[0]
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "seed": seed,
        "load_average_1min": load,
        "noisy": load > cores,
    }


def measure(workload: str, seed: int, budget: Budget, trace: bool) -> dict:
    """Run one workload once; returns its result-file record."""
    env = environment(seed)
    tracer = Tracer(run=f"{workload}/seed{seed}", enabled=trace)
    if workload in train.WORKLOADS:
        out = train.run(train.WORKLOADS[workload], seed, budget, tracer)
    elif workload == "serve_inproc":
        out = serve.run_inproc(seed, budget, tracer)
    else:
        out = serve.run_http(seed, budget, tracer)
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    failed_share = out.failed / out.attempted
    # End to end the complement is reported, because the driver divides
    # by the parent's median and a failed share of 0 has no ratio.
    out.end_to_end["succeeded_share"] = 1.0 - failed_share
    out.per_layer["failed_share"] = failed_share
    if trace:
        tracer.write_chrome(RESULTS_DIR / f"trace_{workload}.json")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": budget.seconds,
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_share": failed_share,
        "problems": out.problems,
        "metrics": _metrics(out, trace),
        # Self time per span name: duration minus what child spans cover.
        "self_time_s": tracer.self_times(),
        "environment": env,
    }


def _metrics(out: Outcome, trace: bool) -> dict:
    """What the run measured, under the names and units of BENCHMARK.json.

    Only what the workload measured is recorded: a metric it has no
    value for is left out, not set to 0, so that "not exercised" and
    "measured zero" stay apart in the result file.
    """
    measured = out.per_layer if trace else out.end_to_end
    unknown = set(measured) - set(NAMES[trace])
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    records = {}
    for name in NAMES[trace]:
        if name not in measured:
            continue
        records[name] = {"value": float(measured[name]), "unit": UNITS[name]}
        samples = out.samples.get(name, ())
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            records[name].update(q1=q1, q3=q3, n=len(samples))
    return records


def driver_metrics(record: dict) -> dict:
    """Every metric of BENCHMARK.json for the run's last output line.

    The driver wants each untraced run to report every end-to-end metric
    and each traced run every per-layer metric, whatever the workload.

    * A training run times fits, not requests, and a serving run times
      no fit.  What such a run lacks is restated from its own primary
      metric — the same measurement in another unit, so it gates nothing
      the primary metric does not already gate.  ``compare.py`` never
      sees these: they are not in the result file.
    * A layer the workload does not exercise reads 0 in a traced run.
    """
    values = {name: m["value"] for name, m in record["metrics"].items()}
    if record["trace"]:
        values = {name: values.get(name, 0.0) for name in NAMES[True]}
    elif "train_wall_s" in values:
        # train_*: a fit is this system's request.
        values["p50_ms"] = 1e3 * values["train_wall_s"]
        values["rows_per_s"] = train.T24.n_rows / values["train_wall_s"]
    else:
        # serve_*: the other way round.  (Not ``setup_s``,
        # though set-up is where a serving run trains: the driver exempts
        # the spread of ``setup_s`` but not that of a copy under another
        # name, and three set-ups a run spread 12-20 % between seeds.)
        values["train_wall_s"] = 1e-3 * values["p50_ms"]
    return {
        name: {"value": values[name], "unit": UNITS[name]}
        for name in NAMES[bool(record["trace"])]
    }


def report(record: dict, out_path: Path) -> None:
    """Print the record, append it to the result file, end with JSON."""
    env = record["environment"]
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"trace={record['trace']}  cores={env['cores']}  "
        f"load={env['load_average_1min']:.2f}"
        + ("  NOISY" if env["noisy"] else "")
    )
    for name, m in record["metrics"].items():
        spread = (
            f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]"
            if "n" in m else ""
        )
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}{spread}")
    for name, seconds in sorted(
        record["self_time_s"].items(), key=lambda item: -item[1]
    ):
        print(f"self time  {name:40s} {seconds:>10.4f} s")
    print(f"failed {record['failed']} of {record['attempted']} attempted")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    previous = json.loads(out_path.read_text()) if out_path.exists() else {}
    runs = previous.get("runs", []) + [record]
    out_path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": driver_metrics(record),
            }
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-repeats", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    budget = Budget(args.seconds, args.min_repeats)
    record = measure(args.workload, args.seed, budget, bool(args.trace))
    report(record, args.out)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
