"""Smoke test of the benchmark itself, at a reduced repeat count.

Run explicitly (tier-1 collects only ``tests/``; takes a few minutes):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Counts a fixed seed must reproduce exactly (acceptance criteria).
EXACT = [
    "core.master.column_tasks", "core.master.subtree_tasks",
    "core.master.plans_dispatched", "core.master.bplan_peak",
    "runtime.transport.messages_sent", "cluster.sim_seconds",
]

#: What each workload measures: end-to-end names, and the prefixes of the
#: per-layer names.  Anything else must be absent from its result record
#: (the driver's line restates or zero-fills it, see measure.driver_metrics).
_TRAIN = (
    "core.builder.", "core.splits.", "core.master.", "runtime.startup_s",
    "runtime.speedup_vs_serial", "runtime.residual_s",
)
_PROCESS = _TRAIN + ("core.kernel.", "runtime.transport.")
_SERVE = ("serving.compiler.", "serving.batch.", "loadgen.")
MEASURES = {
    "train_subtree_mp": (["train_wall_s"], _PROCESS),
    "train_column_socket": (["train_wall_s"], _PROCESS),
    "train_hist_socket": (["train_wall_s"], _PROCESS + ("core.histogram.",)),
    "train_mixed_sim": (["train_wall_s"], _TRAIN + ("cluster.",)),
    "serve_inproc": (
        ["rows_per_s", "p50_ms"],
        _SERVE + ("serving.server.", "serving.fleet.", "serving.shm_model."),
    ),
    "serve_http": (
        ["rows_per_s", "p50_ms"],
        _SERVE + ("serving.gateway.", "serving.admission."),
    ),
}
EVERYWHERE = ("data.shm.", "trace.", "failed_share")
#: Declared under a measured prefix, yet rightly absent on one workload.
ABSENT = {
    # no subtree task runs, so there is no kernel rate to report
    "train_column_socket": {"core.kernel.nodes_per_s"},
    # a closed loop has no schedule to be late on
    "serve_inproc": {"loadgen.late_p99_ms"},
}


def run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    """One short run: the JSON object of its last output line, and the
    metrics of the record it appended to ``out``."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--trace", str(trace), "--seed", "3",
            "--seconds", "1", "--min-repeats", "2", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    return result, json.loads(out.read_text())["runs"][-1]["metrics"]


def check_line(result: dict, declared: list[dict]) -> None:
    """The driver's line names every declared metric, with its unit."""
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload, tmp_path):
    out = tmp_path / "runs.json"
    end_to_end, prefixes = MEASURES[workload]

    untraced, measured = run(workload, 0, out)
    check_line(untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert set(measured) == {
        "setup_s", "peak_rss_mb", "succeeded_share", *end_to_end
    }

    traced, layers = run(workload, 1, out)
    check_line(traced, SPEC["per_layer"])
    expected = {
        name for name in PER_LAYER if name.startswith(prefixes + EVERYWHERE)
    } - ABSENT.get(workload, set())
    assert set(layers) == expected
    # What the record leaves out reads 0 in the line, the rest agrees.
    for name, metric in traced["metrics"].items():
        assert metric["value"] == (
            layers[name]["value"] if name in layers else 0.0
        )
    assert layers["data.shm.leaked_segments"]["value"] == 0
    assert layers["failed_share"]["value"] == 0
    if workload == "train_column_socket":
        assert layers["core.kernel.subtree_s"]["value"] == 0
        assert layers["core.master.subtree_tasks"]["value"] == 0

    if workload.startswith("train_"):
        _, again = run(workload, 1, out)
        for name in EXACT:
            assert (name in again) == (name in layers), name
            if name in layers:
                assert again[name]["value"] == layers[name]["value"], name

    events = json.loads(
        (HERE / "results" / f"trace_{workload}.json").read_text()
    )["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    assert events and all(
        e["args"]["parent"] is None or e["args"]["parent"] in ids
        for e in events
    )
    records = json.loads(out.read_text())["runs"]
    assert {"cores", "python", "numpy", "git_commit", "seed",
            "load_average_1min", "noisy"} <= set(records[0]["environment"])
