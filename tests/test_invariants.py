"""Direct tests of DESIGN.md's numbered invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import Network
from repro.core import (
    SystemConfig,
    TreeConfig,
    TreeServer,
    decision_tree_job,
    random_forest_job,
    train_tree,
)
from repro.core.impurity import Impurity, classification_impurity
from repro.core.splits import best_split_for_column, route_training_rows
from repro.data.schema import ColumnKind
from repro.data.table import DataTable
from repro.datasets import SyntheticSpec, generate

from .reference_predict import predict_row


@pytest.fixture(scope="module")
def table():
    return generate(
        SyntheticSpec(
            name="inv", n_rows=600, n_numeric=4, n_categorical=2,
            n_classes=3, planted_depth=4, noise=0.1, seed=77,
        )
    )


class TestInvariantThree:
    """Weighted child impurity never exceeds the parent's for chosen splits."""

    def test_every_internal_node(self, table):
        tree = train_tree(table, TreeConfig(max_depth=8))
        ids = np.arange(table.n_rows, dtype=np.int64)
        stack = [(tree.root, ids)]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                continue
            y = table.target[rows]
            counts = np.bincount(
                y.astype(np.int64), minlength=table.n_classes
            ).astype(float)
            parent = classification_impurity(counts, Impurity.GINI)
            assert node.split.score < parent + 1e-12
            go_left = route_training_rows(
                table.column(node.split.column)[rows], node.split
            )
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_property_split_never_increases_impurity(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        y = np.array([c for _, c in pairs])
        split = best_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 3
        )
        if split is None:
            return
        counts = np.bincount(y, minlength=3).astype(float)
        parent = classification_impurity(counts, Impurity.GINI)
        assert split.score <= parent + 1e-9


class TestInvariantFive:
    """Section V: no master-originated message carries a row-id array."""

    def test_master_payloads_have_no_arrays(self, table, monkeypatch):
        master_payload_types: set[str] = set()
        offending: list[str] = []
        original_send = Network.send

        def spying_send(self, src, dst, kind, payload, size_bytes):
            if src == 0 and payload is not None:
                master_payload_types.add(type(payload).__name__)
                for name, value in vars(payload).items():
                    if isinstance(value, np.ndarray) and value.size > 16:
                        offending.append(f"{kind}.{name}")
            return original_send(self, src, dst, kind, payload, size_bytes)

        monkeypatch.setattr(Network, "send", spying_send)
        system = SystemConfig(n_workers=4, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        TreeServer(system).fit(
            table, [random_forest_job("rf", 3, TreeConfig(max_depth=6), seed=2)]
        )
        assert not offending
        assert "ColumnPlanMsg" in master_payload_types  # the spy saw traffic


class TestInvariantSeven:
    """Simulator determinism and message conservation (end to end)."""

    def test_two_runs_identical_event_streams(self, table):
        system = SystemConfig(n_workers=3, compers_per_worker=2).scaled_to(
            table.n_rows
        )
        job = decision_tree_job("dt", TreeConfig(max_depth=6))
        a = TreeServer(system).fit(table, [job])
        b = TreeServer(system).fit(table, [job])
        assert a.cluster.events_processed == b.cluster.events_processed
        assert a.cluster.bytes_by_kind == b.cluster.bytes_by_kind
        assert a.sim_seconds == b.sim_seconds


class TestInvariantNinePredictionStops:
    """Appendix D: missing/unseen values stop descent with a sane PMF."""

    def test_all_missing_row(self, table):
        """An all-missing row stops at the root, in the oracle and in the
        model's batch prediction, at every truncation depth."""
        tree = train_tree(table, TreeConfig(max_depth=6))
        row = []
        for spec in table.schema.columns:
            row.append(np.nan if spec.kind is ColumnKind.NUMERIC else -1)
        np.testing.assert_array_equal(
            predict_row(tree, row), tree.root.prediction
        )
        missing = DataTable(table.schema, [[value] for value in row], [0])
        for max_depth in (None, 0, 3):
            np.testing.assert_array_equal(
                tree.predict_proba(missing, max_depth)[0],
                tree.root.prediction,
            )
