"""Unit tests for task payloads and worker/master protocol edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimulatedCluster
from repro.core import SystemConfig, TreeConfig, TreeServer, decision_tree_job
from repro.core.impurity import Impurity
from repro.core.tasks import (
    MSG_EXPECT_FETCHES,
    MSG_ROW_REQUEST,
    ExpectFetchesMsg,
    NodeStatsPayload,
    PlanEntry,
    RootRows,
    RowRequestMsg,
    TreeContext,
)
from repro.core.worker import ProtocolError, WorkerActor
from repro.data.schema import ProblemKind
from repro.datasets import SyntheticSpec, generate


class TestNodeStatsPayload:
    def test_classification_stats(self):
        y = np.array([0, 1, 1, 2, 1])
        stats = NodeStatsPayload.from_labels(y, ProblemKind.CLASSIFICATION, 3)
        assert stats.n_rows == 5
        assert stats.counts.tolist() == [1, 3, 1]
        assert not stats.is_pure
        np.testing.assert_allclose(stats.prediction(), [0.2, 0.6, 0.2])

    def test_pure_classification(self):
        y = np.array([2, 2, 2])
        stats = NodeStatsPayload.from_labels(y, ProblemKind.CLASSIFICATION, 4)
        assert stats.is_pure

    def test_regression_stats(self):
        y = np.array([1.0, 3.0])
        stats = NodeStatsPayload.from_labels(y, ProblemKind.REGRESSION, 0)
        assert stats.prediction() == pytest.approx(2.0)
        assert not stats.is_pure

    def test_pure_regression_exact(self):
        y = np.full(4, 1.2345)
        stats = NodeStatsPayload.from_labels(y, ProblemKind.REGRESSION, 0)
        assert stats.is_pure

    def test_near_pure_regression_not_pure(self):
        """Purity must be exact equality, not a variance threshold — the
        serial builder and the distributed master must agree bit-for-bit."""
        y = np.array([1.0, 1.0 + 1e-15])
        stats = NodeStatsPayload.from_labels(y, ProblemKind.REGRESSION, 0)
        assert not stats.is_pure

    def test_impurity_matches_direct_computation(self):
        y = np.array([0, 0, 1, 1, 1, 2])
        stats = NodeStatsPayload.from_labels(y, ProblemKind.CLASSIFICATION, 3)
        from repro.core.impurity import classification_impurity

        expected = classification_impurity(
            np.bincount(y, minlength=3).astype(float), Impurity.GINI
        )
        assert stats.impurity(Impurity.GINI) == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=50)
    )
    def test_property_prediction_sums_to_one(self, labels):
        y = np.array(labels)
        stats = NodeStatsPayload.from_labels(y, ProblemKind.CLASSIFICATION, 5)
        assert float(np.sum(stats.prediction())) == pytest.approx(1.0)
        assert stats.is_pure == (len(set(labels)) == 1)


class TestRootRows:
    def _ctx(self, bootstrap: bool, n: int = 50, seed: int = 3) -> TreeContext:
        return TreeContext(
            tree_uid=1,
            config=TreeConfig(seed=seed),
            candidate_columns=(0,),
            bootstrap=bootstrap,
            n_table_rows=n,
        )

    def test_plain_root_is_arange(self):
        rows = RootRows(self._ctx(bootstrap=False)).materialize()
        np.testing.assert_array_equal(rows, np.arange(50))

    def test_bootstrap_root_is_seeded_sample(self):
        a = RootRows(self._ctx(bootstrap=True)).materialize()
        b = RootRows(self._ctx(bootstrap=True)).materialize()
        np.testing.assert_array_equal(a, b)  # any machine regenerates it
        assert len(a) == 50
        assert a.max() < 50

    def test_bootstrap_differs_by_seed(self):
        a = RootRows(self._ctx(bootstrap=True, seed=1)).materialize()
        b = RootRows(self._ctx(bootstrap=True, seed=2)).materialize()
        assert not np.array_equal(a, b)


class TestPlanEntry:
    def test_accessors(self):
        ctx = TreeContext(7, TreeConfig(), (0, 1), False, 100)
        entry = PlanEntry(
            task=(7, 5), n_rows=10, depth=2, parent=None, ctx=ctx,
            is_subtree=True,
        )
        assert entry.tree_uid == 7
        assert entry.path == 5


def _make_worker() -> tuple[SimulatedCluster, WorkerActor]:
    table = generate(
        SyntheticSpec(
            name="w", n_rows=40, n_numeric=2, n_categorical=0, seed=1,
            planted_depth=2,
        )
    )
    cluster = SimulatedCluster(n_workers=2, compers_per_worker=1)
    worker = WorkerActor(cluster.machines[1], table, held_columns={0, 1})
    cluster.register(1, worker)
    return cluster, worker


class TestWorkerProtocolErrors:
    def test_unheld_column_access_rejected(self):
        _, worker = _make_worker()
        with pytest.raises(ProtocolError, match="does not hold"):
            worker.column_values(99)

    def test_row_request_for_unknown_store_rejected(self):
        cluster, worker = _make_worker()
        request = RowRequestMsg(
            parent_task=(1, 1), side=0, requester=2, tag=("column", (1, 2))
        )
        cluster.send(2, 1, MSG_ROW_REQUEST, request, 10)
        with pytest.raises(ProtocolError, match="holds no such rows"):
            cluster.run()

    def test_expect_fetches_for_missing_store_rejected(self):
        cluster, worker = _make_worker()
        msg = ExpectFetchesMsg(task=(1, 1), side=0, count=0)
        cluster.send(0, 1, MSG_EXPECT_FETCHES, msg, 10)
        with pytest.raises(ProtocolError, match="missing store"):
            cluster.run()

    def test_unknown_payload_rejected(self):
        cluster, worker = _make_worker()
        cluster.send(0, 1, "garbage", object(), 10)
        with pytest.raises(ProtocolError, match="unknown payload"):
            cluster.run()

    def test_revoked_tree_messages_ignored(self):
        from repro.core.tasks import RevokeTreeMsg

        cluster, worker = _make_worker()
        cluster.send(0, 1, "revoke", RevokeTreeMsg(tree_uid=1), 10)
        request = RowRequestMsg(
            parent_task=(1, 1), side=0, requester=2, tag=("column", (1, 2))
        )
        cluster.send(2, 1, MSG_ROW_REQUEST, request, 10)
        cluster.run()  # no ProtocolError: the tree is known-revoked


class TestEnginePropertyBased:
    @settings(max_examples=6, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=6),
        tau=st.integers(min_value=4, max_value=400),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_any_configuration_is_exact(self, workers, tau, seed):
        """Hypothesis sweep of the headline invariant: any machine count,
        any tau, any dataset seed — the distributed tree is the exact one."""
        from repro.core import train_tree, trees_equal

        table = generate(
            SyntheticSpec(
                name="prop", n_rows=150, n_numeric=3, n_categorical=1,
                n_classes=2, planted_depth=3, noise=0.15, seed=seed,
            )
        )
        cfg = TreeConfig(max_depth=5)
        system = SystemConfig(
            n_workers=workers,
            compers_per_worker=2,
            tau_subtree=tau,
            tau_dfs=tau * 4,
        )
        report = TreeServer(system).fit(table, [decision_tree_job("dt", cfg)])
        assert trees_equal(train_tree(table, cfg), report.tree("dt"))
