"""Fault tolerance: a worker crashes mid-training, the job still finishes.

TreeServer replicates every column on ``k = 2`` machines (paper Section
III), so when a worker dies the master reassigns the lost columns to the
surviving replicas, revokes affected work and re-runs it.  This example
kills one of six workers partway through a forest job and verifies the
trained model is *bit-identical* to a crash-free run — fault recovery never
changes the model, only the schedule.

Run:  python examples/fault_tolerance.py
"""

from repro import SystemConfig, TreeConfig, TreeServer, random_forest_job, trees_equal
from repro.datasets import dataset_spec, train_test
from repro.evaluation import accuracy
from repro.runtime import FaultPlan, RuntimeOptions


def main() -> None:
    train, test = train_test(dataset_spec("susy", small=True))
    system = SystemConfig(
        n_workers=6, compers_per_worker=2, column_replication=2
    ).scaled_to(train.n_rows)
    job = random_forest_job(
        "rf", n_trees=8, config=TreeConfig(max_depth=8), seed=5
    )

    clean = TreeServer(system).fit(train, [job])
    print(f"crash-free run:   {clean.sim_seconds:.3f}s simulated")

    # Worker 4 dies a third of the way in; the recover policy retrains on
    # the survivors (the default, fail_fast, would raise WorkerDiedError).
    worker_crash = RuntimeOptions(
        faults=(FaultPlan("crash", 4, at=clean.sim_seconds / 3),),
        fault_policy="recover",
    )
    crashed = TreeServer(system, runtime_options=worker_crash).fit(
        train,
        [random_forest_job("rf", n_trees=8, config=TreeConfig(max_depth=8), seed=5)],
    )
    print(f"with worker crash: {crashed.sim_seconds:.3f}s simulated "
          f"({crashed.counters.revoked_trees} trees revoked and re-run)")

    identical = all(
        trees_equal(a, b)
        for a, b in zip(clean.trees("rf"), crashed.trees("rf"))
    )
    print(f"models identical after recovery: {identical}")
    acc = accuracy(test.target, crashed.forest("rf").predict(test))
    print(f"test accuracy: {acc:.2%}")
    assert identical, "fault recovery changed the model!"

    # The master itself can die too, if a secondary master stands by
    # (paper Appendix E): completed trees were checkpointed to the standby,
    # the rest retrain under the new master.
    master_plan = RuntimeOptions(
        faults=(FaultPlan("crash", 0, at=clean.sim_seconds / 2),)
    )
    master_crash = TreeServer(system, runtime_options=master_plan).fit(
        train,
        [random_forest_job("rf", n_trees=8, config=TreeConfig(max_depth=8), seed=5)],
        secondary_master=True,
    )
    identical = all(
        trees_equal(a, b)
        for a, b in zip(clean.trees("rf"), master_crash.trees("rf"))
    )
    print(f"\nmaster crash with secondary: {master_crash.sim_seconds:.3f}s, "
          f"models identical: {identical}")
    assert identical, "master failover changed the model!"


if __name__ == "__main__":
    main()
