"""Ablation: column replication factor ``k``.

The paper defaults to ``k = 2``: replicas give the load balancer a choice
of worker per column (better balance) and tolerate a worker crash.  This
ablation sweeps k and verifies (a) k=2 is not slower than k=1 (usually
faster on skewed load), (b) fault recovery requires k >= 2.
"""

import pytest

from repro.core import SystemConfig, TreeConfig, TreeServer, random_forest_job
from repro.evaluation import load_dataset
from repro.evaluation.tables import format_table
from repro.runtime import FaultPlan, RuntimeOptions

from conftest import save_result


def test_ablation_replication(run_once):
    results = {}

    def experiment():
        train, test = load_dataset("kdd99")
        for k in (1, 2, 3):
            system = SystemConfig(
                n_workers=8, compers_per_worker=4, column_replication=k
            ).scaled_to(train.n_rows)
            job = random_forest_job("rf", 20, TreeConfig(max_depth=10), seed=12)
            report = TreeServer(system).fit(train, [job])
            results[k] = report.sim_seconds

        # Crash tolerance: k=1 dies, k=2 survives.
        crash = RuntimeOptions(
            faults=(FaultPlan("crash", 2, at=0.01),), fault_policy="recover"
        )
        system1 = SystemConfig(
            n_workers=6, compers_per_worker=2, column_replication=1
        ).scaled_to(train.n_rows)
        with pytest.raises(RuntimeError, match="replica"):
            TreeServer(system1, runtime_options=crash).fit(
                train,
                [random_forest_job("rf", 4, TreeConfig(max_depth=8), seed=1)],
            )
        system2 = SystemConfig(
            n_workers=6, compers_per_worker=2, column_replication=2
        ).scaled_to(train.n_rows)
        crashed = TreeServer(system2, runtime_options=crash).fit(
            train,
            [random_forest_job("rf", 4, TreeConfig(max_depth=8), seed=1)],
        )
        results["crash_k2_recovered"] = crashed.counters.revoked_trees

    run_once(experiment)

    rows = [[f"k={k}", f"{results[k]:.3f}"] for k in (1, 2, 3)]
    rows.append(
        ["k=2 + crash", f"recovered ({results['crash_k2_recovered']} trees re-run)"]
    )
    save_result(
        "ablation_replication",
        format_table(
            "Ablation — column replication factor (RF-20 on kdd99)",
            ["replication", "time(s) / outcome"],
            rows,
        ),
    )

    # Replicas never hurt much and k=2 is within noise of the best.
    assert results[2] <= results[1] * 1.10
    assert results["crash_k2_recovered"] >= 1
