"""The multiprocess runtime: parity, robustness, shutdown hygiene.

The headline guarantee: ``TreeServer(..., backend="mp")`` — real worker
processes exchanging pickled protocol messages over queues — trains a
forest **bit-identical** to the deterministic simulator on the same
table, config and seed.  Split arbitration is ``min (score, column)``
and all per-node randomness derives from ``(tree seed, node path)``, so
scheduling nondeterminism (which replica computes which column, message
arrival order) must never leak into the model.

The robustness edges the simulator cannot exercise are pinned here too:
a worker process hard-killed mid-run surfaces as a structured
:class:`WorkerDiedError` within the configured timeout (never a hang),
worker-side exceptions ship their traceback home, and the process pool
is always drained and joined — on success and on failure.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    extra_trees_job,
    random_forest_job,
    trees_equal,
)
from repro.datasets import dataset_spec, generate
from repro.runtime import (
    FaultPlan,
    ProcessRuntime,
    RuntimeOptions,
    SimRuntime,
    WorkerDiedError,
    create_runtime,
)
from repro.runtime.base import (
    FAULT_ENV,
    MessageTimeoutError,
    RuntimeBackendError,
)

from .reference_builder import reference_train_tree

#: CI runs this suite twice — REPRO_MP_SHM=1 and =0 — so the whole parity
#: and robustness surface is exercised with and without the shared-memory
#: data plane; locally the default (shm on) applies.
SHM_DEFAULT = os.environ.get("REPRO_MP_SHM", "1").lower() not in (
    "0", "off", "false",
)


def _options(**kw) -> RuntimeOptions:
    kw.setdefault("message_timeout_seconds", 15.0)
    kw.setdefault("use_shm", SHM_DEFAULT)
    return RuntimeOptions(**kw)


#: Tight-but-safe timeout: failure tests must finish fast, CI must not flake.
FAST = _options()


def _table(name="higgs_boson"):
    return generate(dataset_spec(name, small=True))


def _system(n_workers=3, **kw):
    table_rows = kw.pop("table_rows", 700)
    return SystemConfig(
        n_workers=n_workers, compers_per_worker=2, **kw
    ).scaled_to(table_rows)


def _fit(backend, table, jobs, n_workers=3, **kw):
    server = TreeServer(
        _system(n_workers, table_rows=table.n_rows),
        backend=backend,
        runtime_options=FAST,
    )
    return server.fit(table, jobs, **kw)


def assert_bit_identical(sim_trees, mp_trees):
    """Trees must match structurally *and* in serialized form."""
    assert len(sim_trees) == len(mp_trees)
    for a, b in zip(sim_trees, mp_trees):
        assert trees_equal(a, b)
        assert a.to_dict() == b.to_dict()


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestParity:
    def test_random_forest_bit_identical(self):
        table = _table()
        jobs = [random_forest_job("rf", 4, TreeConfig(max_depth=8), seed=5)]
        sim = _fit("sim", table, jobs)
        mp = _fit("mp", table, jobs)
        assert_bit_identical(sim.trees("rf"), mp.trees("rf"))
        assert mp.backend == "mp" and sim.backend == "sim"
        assert mp.wall_seconds > 0

    def test_extra_trees_and_bootstrap_bit_identical(self):
        """Seeded randomness (thresholds, bootstraps) replays identically."""
        table = _table("covtype")
        jobs = [
            extra_trees_job("xt", 3, TreeConfig(max_depth=6), seed=11),
            random_forest_job(
                "rf", 2, TreeConfig(max_depth=6), seed=2, bootstrap_rows=True
            ),
        ]
        sim = _fit("sim", table, jobs)
        mp = _fit("mp", table, jobs)
        assert_bit_identical(sim.trees("xt"), mp.trees("xt"))
        assert_bit_identical(sim.trees("rf"), mp.trees("rf"))

    def test_regression_single_tree_bit_identical(self):
        table = _table("allstate")
        jobs = [
            decision_tree_job(
                "dt", TreeConfig(max_depth=7, min_impurity_decrease=1e-9)
            )
        ]
        sim = _fit("sim", table, jobs)
        mp = _fit("mp", table, jobs)
        assert_bit_identical(sim.trees("dt"), mp.trees("dt"))

    def test_parity_across_worker_counts(self):
        """The model is a function of the data and seed, not the cluster."""
        table = _table("covtype")
        jobs = [random_forest_job("rf", 3, TreeConfig(max_depth=6), seed=9)]
        reference = _fit("sim", table, jobs).trees("rf")
        for n_workers in (1, 2, 4):
            got = _fit("mp", table, jobs, n_workers=n_workers).trees("rf")
            assert_bit_identical(reference, got)


# ----------------------------------------------------------------------
# training kernel
# ----------------------------------------------------------------------
class TestTrainingKernel:
    def test_vectorized_mp_matches_scalar_serial(self):
        """End to end: the forest the mp workers build with the level
        kernel is the one the frozen scalar recursion builds serially."""
        table = _table("covtype")
        jobs = [
            random_forest_job("rf", 3, TreeConfig(max_depth=8), seed=5),
            decision_tree_job("dt", TreeConfig(max_depth=None)),
        ]
        report = _fit("mp", table, jobs)
        for job in jobs:
            reference = [
                reference_train_tree(table, request.config, tree_id=i)
                for i, request in enumerate(job.stages[0].trees)
            ]
            assert_bit_identical(reference, report.trees(job.name))
        transport = report.cluster.transport
        assert transport["subtree_nodes_built"] > 0
        assert transport["subtree_kernel_s"] > 0
        for counters in transport["per_worker"].values():
            assert counters["subtree_kernel_s"] >= 0

    def test_invalid_kernel_option_rejected(self):
        """The runtime has no say in how a tree is built."""
        with pytest.raises(TypeError):
            _options(kernel="turbo")


# ----------------------------------------------------------------------
# smoke / reporting
# ----------------------------------------------------------------------
class TestReporting:
    def test_report_counters_and_metrics(self):
        table = _table("covtype")
        jobs = [random_forest_job("rf", 3, TreeConfig(max_depth=6), seed=1)]
        report = _fit("mp", table, jobs, n_workers=2)
        assert report.counters.trees_completed == 3
        assert report.counters.plans_dispatched > 0
        # Every machine reported in; the data plane actually moved bytes.
        assert len(report.cluster.machines) == 3
        assert report.cluster.total_bytes > 0
        assert report.cluster.bytes_by_kind.get("column_plan", 0) > 0
        assert report.sim_seconds == report.wall_seconds

    def test_first_subtree_dispatch_reads_the_wall_clock(self):
        """The counter reads the master host's clock, which on the
        process backends is wall time since the master started."""
        table = _table("covtype")
        jobs = [random_forest_job("rf", 4, TreeConfig(max_depth=6), seed=1)]
        server = TreeServer(
            SystemConfig(n_workers=2, tau_subtree=100),
            backend="mp",
            runtime_options=FAST,
        )
        report = server.fit(table, jobs)
        assert report.counters.subtree_tasks > 0
        assert report.counters.extra["first_subtree_dispatch_us"] > 0

    def test_no_orphan_processes_after_fit(self):
        table = _table("covtype")
        _fit("mp", table, [decision_tree_job("dt", TreeConfig(max_depth=5))])
        assert multiprocessing.active_children() == []

    def test_models_pickle_identically(self):
        """The mp-trained model is the same *bytes* once persisted."""
        table = _table("covtype")
        jobs = [decision_tree_job("dt", TreeConfig(max_depth=6))]
        sim_tree = _fit("sim", table, jobs).tree("dt")
        mp_tree = _fit("mp", table, jobs).tree("dt")
        assert pickle.dumps(sim_tree.to_dict()) == pickle.dumps(
            mp_tree.to_dict()
        )


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------
class TestFailures:
    def test_killed_worker_raises_structured_error(self):
        """A hard-killed worker surfaces as WorkerDiedError, not a hang."""
        table = _table()
        options = _options(
            message_timeout_seconds=10.0,
            faults=(FaultPlan("crash", 1, 2),),  # worker 1 dies after 2 messages
        )
        server = TreeServer(
            _system(2, table_rows=table.n_rows),
            backend="mp",
            runtime_options=options,
        )
        with pytest.raises(WorkerDiedError) as info:
            server.fit(
                table, [random_forest_job("rf", 4, TreeConfig(max_depth=8))]
            )
        assert info.value.worker_id == 1
        assert isinstance(info.value, RuntimeBackendError)
        # The pool was reaped on the error path too.
        assert multiprocessing.active_children() == []

    def test_worker_exception_ships_traceback(self):
        """A worker-side protocol error reaches the driver with its stack."""
        from repro.core.load_balance import assign_columns_to_workers
        from repro.core.tasks import MSG_ROW_REQUEST, RowRequestMsg, WorkerErrorMsg
        from repro.runtime.process import ProcessTransport

        table = _table("covtype")
        system = _system(2, table_rows=table.n_rows)
        placement = assign_columns_to_workers(table.n_columns, [1, 2], 2)
        transport = ProcessTransport(
            2, table, placement, TreeServer(system).cost, FAST
        )
        try:
            # A row_request for a task the worker never planned makes the
            # unmodified actor raise ProtocolError inside the child.
            transport.send(
                0, 1, MSG_ROW_REQUEST,
                RowRequestMsg(
                    parent_task=(99, 1), side=0, requester=2,
                    tag=("column", (99, 2)),
                ),
                0,
            )
            payload = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    payload = transport.recv_master(0.05).payload
                    break
                except queue_module.Empty:
                    continue
            assert isinstance(payload, WorkerErrorMsg)
            assert payload.worker == 1
            assert "ProtocolError" in payload.error
            assert "Traceback" in payload.traceback
        finally:
            transport.shutdown()
        assert multiprocessing.active_children() == []

    def test_liveness_check_raises_structured_error(self):
        """The pool's liveness check turns a dead worker into a
        WorkerDiedError carrying its exit code (it is what the shutdown
        phase calls while it waits for the stats replies)."""
        from repro.core.load_balance import assign_columns_to_workers
        from repro.runtime.process import ProcessTransport

        table = _table("covtype")
        system = _system(1, table_rows=table.n_rows)
        placement = assign_columns_to_workers(table.n_columns, [1], 1)
        transport = ProcessTransport(
            1, table, placement, TreeServer(system).cost, FAST
        )
        try:
            process = transport.processes[1]
            process.kill()
            process.join(timeout=10.0)
            assert not process.is_alive()
            with pytest.raises(WorkerDiedError) as info:
                transport.check_alive()
            assert info.value.worker_id == 1
            assert info.value.exitcode == -signal.SIGKILL
        finally:
            transport.shutdown()
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_sim_only_features_rejected(self):
        table = _table("covtype")
        server = TreeServer(_system(2), backend="mp", runtime_options=FAST)
        with pytest.raises(ValueError, match="sim backend"):
            server.fit(
                table,
                [decision_tree_job("dt")],
                secondary_master=True,
            )

    @pytest.mark.parametrize("backend", ["sim", "mp", "socket"])
    def test_misspelled_fit_keyword_is_a_type_error(self, backend):
        """Every runtime's ``fit`` takes one explicit keyword list: a typo
        fails before anything runs instead of being ignored."""
        table = _table("covtype")
        system = _system(2)
        runtime = create_runtime(backend, system, TreeServer(system).cost, FAST)
        with pytest.raises(TypeError, match="secondry_master"):
            runtime.fit(
                table, [decision_tree_job("dt")], secondry_master=True
            )
        assert multiprocessing.active_children() == []

    def test_fault_plan_refused_where_no_worker_process_starts(self):
        """An external-mode socket master starts no worker process, so a
        fault plan there is an error, not a no-op.  Every other backend
        runs the plan: the simulator fails the worker it names."""
        with pytest.raises(ValueError, match="listen"):
            RuntimeOptions(
                listen="127.0.0.1:7733", faults=(FaultPlan("raise", 1, 2),)
            )
        table = _table("covtype")
        server = TreeServer(
            _system(2),
            backend="sim",
            runtime_options=_options(faults=(FaultPlan("crash", 1, 2),)),
        )
        with pytest.raises(WorkerDiedError) as info:
            server.fit(table, [decision_tree_job("dt")])
        assert info.value.worker_id == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TreeServer(backend="ray")
        with pytest.raises(ValueError, match="unknown backend"):
            create_runtime("ray", _system(2), TreeServer(_system(2)).cost)

    def test_timeout_error_message_names_progress(self):
        error = MessageTimeoutError(2.5, "task results (1/4 trees done)")
        assert "2.5s" in str(error)
        assert "1/4 trees" in str(error)


# ----------------------------------------------------------------------
# shared-memory data plane
# ----------------------------------------------------------------------
def _fit_with(table, jobs, options, n_workers=3):
    server = TreeServer(
        _system(n_workers, table_rows=table.n_rows),
        backend="mp",
        runtime_options=options,
    )
    return server.fit(table, jobs)


def _repro_segments():
    from repro.data.shm import list_segments

    return list_segments()


class TestSharedMemoryDataPlane:
    def test_parity_shm_on_and_off(self):
        """One model, three substrates: sim, mp+shm, mp queues-only."""
        table = _table("covtype")
        jobs = [random_forest_job("rf", 3, TreeConfig(max_depth=6), seed=9)]
        reference = _fit("sim", table, jobs).trees("rf")
        for use_shm in (True, False):
            got = _fit_with(table, jobs, _options(use_shm=use_shm)).trees("rf")
            assert_bit_identical(reference, got)
        assert _repro_segments() == []

    def test_arena_carries_large_row_id_sets(self):
        """Row-id sets past the 8 KB arena threshold (1 024 ids) ride the
        arena in a real fit: the workers read more shared memory than
        their two mapped table images, and the forest stays bit-identical
        to sim.  With the data plane off (REPRO_MP_SHM=0) nothing is
        mapped at all."""
        table = generate(
            dataclasses.replace(
                dataset_spec("higgs_boson", small=True), n_rows=6000
            )
        )
        jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=5), seed=4)]
        reference = _fit("sim", table, jobs).trees("rf")
        report = _fit_with(table, jobs, _options(), n_workers=2)
        assert_bit_identical(reference, report.trees("rf"))
        mapped = report.cluster.transport["shm_bytes_mapped"]
        if SHM_DEFAULT:
            image = sum(c.nbytes for c in table.columns) + table.target.nbytes
            assert mapped > 2 * image
        else:
            assert mapped == 0
        assert _repro_segments() == []

    def test_parity_under_spawn(self):
        """spawn is first-class: handle-based startup, identical model."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method not available")
        table = _table("covtype")
        jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=3)]
        reference = _fit("sim", table, jobs).trees("rf")
        got = _fit_with(
            table, jobs, _options(start_method="spawn"), n_workers=2
        ).trees("rf")
        assert_bit_identical(reference, got)
        assert _repro_segments() == []

    def test_invalid_start_method_is_a_clear_error(self):
        from repro.runtime import resolve_start_method

        with pytest.raises(ValueError, match="not available"):
            resolve_start_method("bogus-method")
        table = _table("covtype")
        server = TreeServer(
            _system(2, table_rows=table.n_rows),
            backend="mp",
            runtime_options=_options(start_method="bogus-method"),
        )
        with pytest.raises(ValueError, match="not available"):
            server.fit(table, [decision_tree_job("dt", TreeConfig(max_depth=4))])
        assert _repro_segments() == []

    def test_transport_counters_reported(self):
        """worker_stats carry the data-plane counters into the report."""
        table = _table("covtype")
        jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=1)]
        report = _fit_with(table, jobs, _options(use_shm=True), n_workers=2)
        transport = report.cluster.transport
        assert transport["shm"] is True
        assert transport["start_method"] in multiprocessing.get_all_start_methods()
        assert transport["messages_sent"] > 0
        assert transport["bytes_pickled"] > 0
        assert transport["shm_bytes_mapped"] > 0  # the mapped table at least
        assert set(transport["per_worker"]) == {1, 2}
        for counters in transport["per_worker"].values():
            assert counters["messages_sent"] > 0
            assert counters["bytes_pickled"] > 0
        off = _fit_with(table, jobs, _options(use_shm=False), n_workers=2)
        assert off.cluster.transport["shm"] is False
        assert off.cluster.transport["shm_bytes_mapped"] == 0

    def test_no_segments_leaked_after_success(self):
        table = _table("covtype")
        _fit_with(
            table,
            [decision_tree_job("dt", TreeConfig(max_depth=6))],
            _options(use_shm=True),
        )
        assert _repro_segments() == []

    def test_no_segments_leaked_after_worker_death(self):
        """The parent sweep reclaims what a hard-killed worker left behind."""
        table = _table()
        options = _options(
            message_timeout_seconds=10.0,
            use_shm=True,
            faults=(FaultPlan("crash", 1, 2),),
        )
        with pytest.raises(WorkerDiedError):
            _fit_with(
                table,
                [random_forest_job("rf", 4, TreeConfig(max_depth=8))],
                options,
                n_workers=2,
            )
        assert _repro_segments() == []
        assert multiprocessing.active_children() == []

    def test_no_segments_leaked_after_sigint(self, tmp_path):
        """Ctrl-C mid-run: the finally-path shutdown still sweeps /dev/shm."""
        script = tmp_path / "train_forever.py"
        script.write_text(textwrap.dedent("""
            from repro import SystemConfig, TreeConfig, TreeServer
            from repro import random_forest_job
            from repro.datasets import dataset_spec, generate
            from repro.runtime import RuntimeOptions

            table = generate(dataset_spec("higgs_boson", small=True))
            server = TreeServer(
                SystemConfig(
                    n_workers=2, compers_per_worker=2
                ).scaled_to(table.n_rows),
                backend="mp",
                runtime_options=RuntimeOptions(use_shm=True),
            )
            print("STARTED", flush=True)
            try:
                server.fit(table, [
                    random_forest_job(
                        "rf", 500, TreeConfig(max_depth=10), seed=1
                    ),
                ])
                print("COMPLETED", flush=True)
            except KeyboardInterrupt:
                print("INTERRUPTED", flush=True)
        """))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            assert process.stdout.readline().strip() == "STARTED"
            time.sleep(0.75)  # let training get properly in flight
            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:  # pragma: no cover - wedged child
                process.kill()
                process.communicate()
        assert "INTERRUPTED" in output or "COMPLETED" in output, output
        assert _repro_segments() == []


# ----------------------------------------------------------------------
# crash recovery (fault_policy="recover")
# ----------------------------------------------------------------------
class TestCrashRecovery:
    """Losing 1 of 3 workers mid-train (k=2 replication) must complete
    with models bit-identical to an undisturbed sim run."""

    JOBS_SEED = 3

    def _jobs(self):
        return [
            random_forest_job(
                "rf", 4, TreeConfig(max_depth=7), seed=self.JOBS_SEED
            )
        ]

    @pytest.mark.parametrize("use_shm", [True, False], ids=["shm", "queues"])
    def test_recovers_and_stays_bit_identical(self, use_shm, monkeypatch):
        table = _table()
        jobs = self._jobs()
        reference = _fit("sim", table, jobs).trees("rf")
        # Fault injection through the environment, as CI uses it.
        monkeypatch.setenv(FAULT_ENV, "crash:2:6")
        report = _fit_with(
            table,
            jobs,
            _options(fault_policy="recover", use_shm=use_shm),
        )
        assert_bit_identical(reference, report.trees("rf"))
        transport = report.cluster.transport
        assert transport["fault_policy"] == "recover"
        assert transport["recovered_workers"] == 1
        assert report.counters.recovered_workers == 1
        # The dead worker neither reports stats nor lingers as a process.
        assert 2 not in transport["per_worker"]
        assert set(transport["per_worker"]) == {1, 3}
        for counters in transport["per_worker"].values():
            assert counters["revoked_trees_seen"] == report.counters.revoked_trees
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    @pytest.mark.parametrize("use_shm", [True, False], ids=["shm", "queues"])
    def test_hist_forest_recovers_to_the_serial_hist_forest(self, use_shm):
        """Hist mode under recovery: the re-admitted trees' column tasks
        are scored on the surviving replica holders, against the book
        every worker got at spawn — the master has none to lose."""
        table = _table()
        config = TreeConfig(max_depth=7, split_mode="hist", max_bins=16)
        jobs = [random_forest_job("rf", 4, config, seed=self.JOBS_SEED)]
        serial = [
            reference_train_tree(table, req.config, tree_id=i)
            for i, req in enumerate(jobs[0].stages[0].trees)
        ]
        report = _fit_with(
            table,
            jobs,
            _options(
                fault_policy="recover",
                use_shm=use_shm,
                faults=(FaultPlan("crash", 2, 6),),
            ),
        )
        assert_bit_identical(serial, report.trees("rf"))
        assert report.counters.recovered_workers == 1
        assert report.counters.column_tasks > 0
        assert set(report.cluster.transport["per_worker"]) == {1, 3}
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_explicit_option_beats_env_hook(self, monkeypatch):
        """RuntimeOptions.faults wins over REPRO_FAULT."""
        table = _table()
        monkeypatch.setenv(FAULT_ENV, "crash:1:1")
        report = _fit_with(
            table,
            self._jobs(),
            # An impossible-to-reach crash point: the run finishes first.
            _options(
                fault_policy="recover", faults=(FaultPlan("crash", 1, 10**9),)
            ),
        )
        assert report.counters.recovered_workers == 0

    def test_env_fault_is_read_per_fit(self, monkeypatch):
        """REPRO_FAULT is resolved per fit and never stored: a second fit
        on the same runtime, after the variable is unset, runs
        undisturbed."""
        table = _table()
        system = _system(3, table_rows=table.n_rows)
        runtime = create_runtime(
            "mp", system, TreeServer(system).cost,
            _options(fault_policy="recover"),
        )
        monkeypatch.setenv(FAULT_ENV, "crash:2:6")
        first = runtime.fit(table, self._jobs())
        monkeypatch.delenv(FAULT_ENV)
        second = runtime.fit(table, self._jobs())
        assert first.counters.recovered_workers == 1
        assert second.counters.recovered_workers == 0
        assert runtime.options.faults == ()
        assert_bit_identical(first.trees("rf"), second.trees("rf"))
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_kill_env_spec_validation(self):
        """A crash plan parses from ``crash:worker:after``; malformed
        specs and non-integer fields are errors.  Worker 0 is the master:
        it parses, and a process backend refuses it."""
        assert FaultPlan.parse("crash:2:20") == FaultPlan("crash", 2, 20)
        assert FaultPlan.parse("crash:0:5") == FaultPlan("crash", 0, 5)
        for bad in (
            "2", "a:b", "crash:2:0", "crash:-1:5", "boom:1:1", "crash:1.0:5",
            "crash:1:2:3", "",
        ):
            with pytest.raises(ValueError, match="kind:worker:after"):
                FaultPlan.parse(bad)
        with pytest.raises(ValueError, match="worker"):
            FaultPlan("crash", 1.0, 5)  # ints only

    def test_raise_env_spec_validation(self, monkeypatch):
        """A raise plan parses through the same grammar, and REPRO_FAULT
        is read by ``FaultPlan.from_env``."""
        assert FaultPlan.parse("raise:3:7") == FaultPlan("raise", 3, 7)
        with pytest.raises(ValueError, match="kind:worker:after"):
            FaultPlan.parse("nope")
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert FaultPlan.from_env() == ()
        monkeypatch.setenv(FAULT_ENV, "raise:1:4")
        assert FaultPlan.from_env() == (FaultPlan("raise", 1, 4),)
        monkeypatch.setenv(FAULT_ENV, "raise:1:4,crash:0:9")
        assert FaultPlan.from_env() == (
            FaultPlan("raise", 1, 4),
            FaultPlan("crash", 0, 9),
        )
        monkeypatch.setenv(FAULT_ENV, "1:4")
        with pytest.raises(ValueError, match=f"{FAULT_ENV}: invalid fault"):
            FaultPlan.from_env()

    def test_fail_fast_policy_preserves_structured_error(self):
        table = _table()
        options = _options(
            message_timeout_seconds=10.0,
            fault_policy="fail_fast",
            faults=(FaultPlan("crash", 2, 6),),
        )
        with pytest.raises(WorkerDiedError) as info:
            _fit_with(table, self._jobs(), options)
        assert info.value.worker_id == 2
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_unsurvivable_crash_degrades_to_structured_error(self):
        """replication=1: the dead worker's columns have no replica."""
        table = _table()
        server = TreeServer(
            SystemConfig(
                n_workers=3, compers_per_worker=2, column_replication=1
            ).scaled_to(table.n_rows),
            backend="mp",
            runtime_options=_options(
                message_timeout_seconds=10.0,
                fault_policy="recover",
                faults=(FaultPlan("crash", 2, 6),),
            ),
        )
        with pytest.raises(WorkerDiedError, match="no surviving replica"):
            server.fit(table, self._jobs())
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_max_worker_failures_exhausted(self):
        table = _table()
        options = _options(
            message_timeout_seconds=10.0,
            fault_policy="recover",
            max_worker_failures=0,
            faults=(FaultPlan("crash", 2, 6),),
        )
        with pytest.raises(WorkerDiedError, match="max_worker_failures"):
            _fit_with(table, self._jobs(), options)
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_invalid_fault_policy_rejected(self):
        with pytest.raises(ValueError, match="fault_policy"):
            RuntimeOptions(fault_policy="retry-forever")
        with pytest.raises(ValueError, match="max_worker_failures"):
            RuntimeOptions(max_worker_failures=-1)

    def test_runtime_options_reject_nonsense_values(self):
        """Bad knob values fail at construction, not as a mid-run hang."""
        with pytest.raises(ValueError, match="message_timeout_seconds"):
            RuntimeOptions(message_timeout_seconds=0.0)
        with pytest.raises(ValueError, match="rendezvous_timeout_seconds"):
            RuntimeOptions(rendezvous_timeout_seconds=0.0)
        with pytest.raises(ValueError, match="FaultPlan"):
            RuntimeOptions(faults="crash:1:1")  # parse it first
        with pytest.raises(ValueError, match="FaultPlan"):
            RuntimeOptions(faults=FaultPlan("crash", 1, 1))  # a tuple
        # Boundary values stay legal.
        RuntimeOptions(faults=(FaultPlan("crash", 1, 1),))

    @pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
    def test_worker_exception_recovers_like_a_crash(self, via_env, monkeypatch):
        """A worker-side logic error under fault_policy="recover" routes
        through the same reassignment/revocation path as a hard kill —
        the run completes bit-identical to the undisturbed sim model."""
        table = _table()
        jobs = self._jobs()
        reference = _fit("sim", table, jobs).trees("rf")
        monkeypatch.delenv(FAULT_ENV, raising=False)
        if via_env:
            monkeypatch.setenv(FAULT_ENV, "raise:2:6")
            options = _options(fault_policy="recover")
        else:
            options = _options(
                fault_policy="recover", faults=(FaultPlan("raise", 2, 6),)
            )
        report = _fit_with(table, jobs, options)
        assert_bit_identical(reference, report.trees("rf"))
        assert report.counters.recovered_workers == 1
        assert report.cluster.transport["recovered_workers"] == 1
        assert 2 not in report.cluster.transport["per_worker"]
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_worker_exception_fail_fast_carries_detail(self):
        """Under fail_fast a worker_error is a WorkerDiedError too — never
        a silent continuation — and it carries the remote traceback."""
        table = _table()
        options = _options(
            message_timeout_seconds=10.0,
            fault_policy="fail_fast",
            faults=(FaultPlan("raise", 2, 6),),
        )
        with pytest.raises(WorkerDiedError) as info:
            _fit_with(table, self._jobs(), options)
        assert info.value.worker_id == 2
        assert "injected worker logic error" in str(info.value)
        assert "Traceback" in str(info.value)
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_cli_recover_trains_same_model_as_sim(self, tmp_path, monkeypatch):
        """`repro train --backend mp --fault-policy recover` under
        REPRO_FAULT=crash:2:6 completes and matches the sim model bytes."""
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        base = [
            "train", "--csv", str(csv), "--target", "label",
            "--forest", "2", "--workers", "3", "--max-depth", "6",
        ]
        monkeypatch.delenv(FAULT_ENV, raising=False)
        code = main(
            base + ["--model-dir", str(tmp_path / "m_sim"), "--backend", "sim"],
            out=io.StringIO(),
        )
        assert code == 0
        monkeypatch.setenv(FAULT_ENV, "crash:2:6")
        out = io.StringIO()
        code = main(
            base + [
                "--model-dir", str(tmp_path / "m_mp"), "--backend", "mp",
                "--fault-policy", "recover",
            ],
            out=out,
        )
        assert code == 0
        assert "recovered-workers=1" in out.getvalue()
        for name in ("tree_0.json", "tree_1.json"):
            assert (tmp_path / "m_mp" / name).read_text() == (
                tmp_path / "m_sim" / name
            ).read_text()
        assert _repro_segments() == []

    def test_cli_fail_fast_prints_one_line_error(self, tmp_path, monkeypatch, capsys):
        """Default mp policy: child crash surfaces as a structured
        one-line error and exit code 1 — not a raw traceback."""
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        monkeypatch.setenv(FAULT_ENV, "crash:2:6")
        code = main(
            [
                "train", "--csv", str(csv), "--target", "label",
                "--model-dir", str(tmp_path / "m"), "--forest", "2",
                "--workers", "3", "--max-depth", "6", "--backend", "mp",
                "--mp-timeout", "10",
            ],
            out=io.StringIO(),
        )
        assert code == 1
        stderr = capsys.readouterr().err
        lines = [line for line in stderr.splitlines() if line.strip()]
        assert len(lines) == 1
        assert "worker 2 died" in lines[0]
        assert "exitcode=71" in lines[0]
        assert "fault-policy=fail_fast" in lines[0]
        assert "--fault-policy recover" in lines[0]
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []


# ----------------------------------------------------------------------
# runtime factory
# ----------------------------------------------------------------------
class TestFactory:
    def test_create_runtime_dispatch(self):
        system = _system(2)
        cost = TreeServer(system).cost
        assert isinstance(create_runtime("sim", system, cost), SimRuntime)
        assert isinstance(create_runtime("mp", system, cost), ProcessRuntime)

    def test_cli_train_mp_prints_data_plane_and_kernel_lines(self, tmp_path):
        """The process-backend summary reads its transport keys strictly:
        a renamed key fails here instead of silently dropping a line."""
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        out = io.StringIO()
        code = main(
            [
                "train", "--csv", str(csv), "--target", "label",
                "--model-dir", str(tmp_path / "m"), "--forest", "2",
                "--workers", "2", "--max-depth", "6", "--backend", "mp",
            ],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        assert sum(line.startswith("data plane: ") for line in lines) == 1
        kernel = [
            line for line in lines if line.startswith("training kernel: ")
        ]
        assert len(kernel) == 1 and "nodes=" in kernel[0]
        assert not any(line.startswith("fault recovery:") for line in lines)

    def test_cli_train_mp_backend(self, tmp_path):
        """`repro train --backend mp` end to end, identical to sim."""
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        for backend, out_dir in (("mp", "m_mp"), ("sim", "m_sim")):
            code = main(
                [
                    "train", "--csv", str(csv), "--target", "label",
                    "--model-dir", str(tmp_path / out_dir), "--forest", "2",
                    "--workers", "2", "--max-depth", "6",
                    "--backend", backend,
                ],
                out=io.StringIO(),
            )
            assert code == 0
        for name in ("tree_0.json", "tree_1.json"):
            assert (tmp_path / "m_mp" / name).read_text() == (
                tmp_path / "m_sim" / name
            ).read_text()
