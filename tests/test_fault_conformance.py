"""One fault language on every backend.

A :class:`~repro.runtime.base.FaultPlan` is the only way to inject a
fault, and :func:`~repro.runtime.base.apply_fault_policy` is the only
place a worker failure meets the fault policy, so the same plan must
behave the same on ``sim``, ``mp`` and ``socket``: under ``fail_fast``
the fit raises a :class:`WorkerDiedError` naming the worker, and under
``recover`` it finishes on the survivors with the undisturbed model.
The simulator also takes what only it can model — a plan at a simulated
instant, and a master crash covered by the secondary master — and the
process backends and the serving fleet refuse those plans.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import SystemConfig, TreeConfig, TreeServer, random_forest_job
from repro.data.shm import list_segments
from repro.datasets import dataset_spec, generate
from repro.runtime import FaultPlan, RuntimeOptions, WorkerDiedError
from repro.runtime.base import FAULT_ENV
from repro.runtime.sim import DETECTION_DELAY_SECONDS
from repro.serving import ServingFleet


@pytest.fixture(scope="module")
def table():
    return generate(dataset_spec("higgs_boson", small=True))


def _jobs():
    return [random_forest_job("rf", 4, TreeConfig(max_depth=7), seed=3)]


def _fit(backend, table, **options):
    options.setdefault("message_timeout_seconds", 15.0)
    server = TreeServer(
        SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        ),
        backend=backend,
        runtime_options=RuntimeOptions(**options),
    )
    return server.fit(table, _jobs())


@pytest.fixture(scope="module")
def clean_trees(table):
    return [tree.to_dict() for tree in _fit("sim", table).trees("rf")]


@pytest.fixture(autouse=True)
def no_fault_env(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)


@pytest.mark.parametrize("kind", ["crash", "raise"])
@pytest.mark.parametrize("backend", ["sim", "mp", "socket"])
class TestOnePlanEveryBackend:
    def test_fail_fast_names_the_worker(self, backend, kind, table):
        with pytest.raises(WorkerDiedError) as info:
            _fit(backend, table, faults=(FaultPlan(kind, 2, 6),))
        assert info.value.worker_id == 2
        assert multiprocessing.active_children() == []
        assert list_segments() == []

    def test_recover_gives_the_clean_model(
        self, backend, kind, table, clean_trees
    ):
        report = _fit(
            backend,
            table,
            faults=(FaultPlan(kind, 2, 6),),
            fault_policy="recover",
        )
        assert report.counters.recovered_workers == 1
        assert [tree.to_dict() for tree in report.trees("rf")] == clean_trees
        assert multiprocessing.active_children() == []
        assert list_segments() == []


class TestSimFaults:
    def test_max_worker_failures_is_honoured(self, table):
        with pytest.raises(WorkerDiedError, match="exhausted"):
            _fit(
                "sim",
                table,
                faults=(FaultPlan("crash", 1, 6), FaultPlan("crash", 2, 6)),
                fault_policy="recover",
                max_worker_failures=1,
            )

    def test_lost_replica_is_a_worker_died_error(self, table):
        server = TreeServer(
            SystemConfig(
                n_workers=3, compers_per_worker=2, column_replication=1
            ).scaled_to(table.n_rows),
            runtime_options=RuntimeOptions(
                faults=(FaultPlan("crash", 2, 6),), fault_policy="recover"
            ),
        )
        with pytest.raises(WorkerDiedError, match="no surviving replica"):
            server.fit(table, _jobs())

    def test_crash_halts_and_notifies(self, table):
        """An ``at`` plan halts the machine and marks it dead on the
        network; the failure is detected one detection delay later, which
        a crash after the run ends makes the last event."""
        at = _fit("sim", table).sim_seconds + 1.0
        server = TreeServer(
            SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
                table.n_rows
            ),
            runtime_options=RuntimeOptions(
                faults=(FaultPlan("crash", 1, at=at),), fault_policy="recover"
            ),
        )
        report = server.fit(table, _jobs(), record_timeline=True)
        crashed = report.machines[1]
        assert crashed.halted
        assert crashed._network.is_dead(1)
        assert not report.machines[2].halted
        assert report.sim_seconds == at + DETECTION_DELAY_SECONDS
        assert report.counters.recovered_workers == 1

    def test_the_variable_drives_the_simulator(
        self, table, clean_trees, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV, "crash:2:6")
        with pytest.raises(WorkerDiedError):
            _fit("sim", table)
        report = _fit("sim", table, fault_policy="recover")
        assert report.counters.recovered_workers == 1
        assert [tree.to_dict() for tree in report.trees("rf")] == clean_trees

    def test_master_after_plan_fails_over_to_the_standby(
        self, table, clean_trees
    ):
        clean = _fit("sim", table)
        server = TreeServer(
            SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
                table.n_rows
            ),
            runtime_options=RuntimeOptions(faults=(FaultPlan("crash", 0, 50),)),
        )
        report = server.fit(table, _jobs(), secondary_master=True)
        # Failover costs time: the standby re-plans the incomplete trees.
        assert report.sim_seconds > clean.sim_seconds
        assert [tree.to_dict() for tree in report.trees("rf")] == clean_trees

    def test_plan_must_name_a_machine(self, table):
        with pytest.raises(ValueError, match="names no machine"):
            _fit("sim", table, faults=(FaultPlan("crash", 4, 6),))

    def test_no_after_plan_wraps_no_actor(self, table, monkeypatch):
        """A run without an ``after`` plan adds no per-message work: every
        actor is registered bare."""
        from repro.cluster.topology import SimulatedCluster
        from repro.runtime.sim import _MessageCounter

        registered = []
        register = SimulatedCluster.register

        def spy(self, machine_id, actor):
            registered.append(actor)
            register(self, machine_id, actor)

        monkeypatch.setattr(SimulatedCluster, "register", spy)
        _fit(
            "sim",
            table,
            faults=(FaultPlan("crash", 2, at=1e9),),
            fault_policy="recover",
        )
        assert registered
        assert not any(isinstance(a, _MessageCounter) for a in registered)


class TestPlanGrammar:
    def test_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan("crash", 1)
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan("crash", 1, 5, at=0.5)
        with pytest.raises(ValueError, match="at must be"):
            FaultPlan("crash", 1, at=-1.0)
        assert FaultPlan("crash", 0, at=0.0).at == 0.0

    @pytest.mark.parametrize("backend", ["mp", "socket"])
    @pytest.mark.parametrize(
        "plan",
        [FaultPlan("crash", 0, 6), FaultPlan("crash", 2, at=0.01)],
        ids=["master", "at"],
    )
    def test_process_backends_refuse_sim_only_plans(
        self, backend, plan, table
    ):
        with pytest.raises(ValueError, match="only the sim backend"):
            _fit(backend, table, faults=(plan,))
        assert multiprocessing.active_children() == []
        assert list_segments() == []

    def test_the_fleet_refuses_a_master_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:0:1")
        fleet = ServingFleet(n_workers=1)
        with pytest.raises(ValueError, match="only the sim backend"):
            fleet.start()
        fleet.close()
