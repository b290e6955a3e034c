"""Tests for configuration objects and job specifications."""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.cli import _build_parser
from repro.core import ColumnSampling, SystemConfig, TreeConfig, TreeKind
from repro.core.impurity import Impurity
from repro.core.jobs import (
    decision_tree_job,
    extra_trees_job,
    random_forest_job,
    staged_job,
)
from repro.runtime import RuntimeOptions
from repro.serving import GatewayConfig, ServerConfig


class TestTreeConfig:
    def test_defaults_match_paper(self):
        cfg = TreeConfig()
        assert cfg.max_depth == 10
        assert cfg.tau_leaf == 1
        assert cfg.tree_kind is TreeKind.DECISION

    def test_criterion_defaults(self):
        cfg = TreeConfig()
        assert cfg.resolved_criterion(True) is Impurity.GINI
        assert cfg.resolved_criterion(False) is Impurity.VARIANCE
        forced = TreeConfig(criterion=Impurity.ENTROPY)
        assert forced.resolved_criterion(True) is Impurity.ENTROPY

    def test_candidate_counts(self):
        assert TreeConfig().n_candidate_columns(100) == 100
        sqrt_cfg = TreeConfig(column_sampling=ColumnSampling.SQRT)
        assert sqrt_cfg.n_candidate_columns(100) == 10
        ratio_cfg = TreeConfig(
            column_sampling=ColumnSampling.RATIO, column_ratio=0.3
        )
        assert ratio_cfg.n_candidate_columns(100) == 30
        assert ratio_cfg.n_candidate_columns(1) == 1  # floor at 1

    def test_with_seed(self):
        cfg = TreeConfig(max_depth=5)
        other = cfg.with_seed(42)
        assert other.seed == 42
        assert other.max_depth == 5


class TestSystemConfig:
    def test_defaults_match_paper(self):
        system = SystemConfig()
        assert system.n_workers == 15
        assert system.compers_per_worker == 10
        assert system.tau_subtree == 10_000
        assert system.tau_dfs == 80_000
        assert system.n_pool == 200
        assert system.column_replication == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n_workers=0)
        with pytest.raises(ValueError):
            SystemConfig(tau_subtree=100, tau_dfs=50)
        with pytest.raises(ValueError):
            SystemConfig(column_replication=0)
        with pytest.raises(ValueError):
            SystemConfig(n_pool=0)
        with pytest.raises(ValueError):
            SystemConfig(scheduling_policy="random")

    def test_scaled_to_preserves_ratio(self):
        scaled = SystemConfig().scaled_to(50_000)
        assert scaled.tau_dfs == pytest.approx(8 * scaled.tau_subtree, rel=0.1)
        assert scaled.tau_subtree >= 32

    def test_scaled_to_has_floor(self):
        tiny = SystemConfig().scaled_to(100)
        assert tiny.tau_subtree == 32


class TestJobs:
    def test_decision_tree_job(self):
        job = decision_tree_job("dt")
        assert job.n_trees == 1
        assert len(job.stages) == 1

    def test_random_forest_job_seeds_differ(self):
        job = random_forest_job("rf", 5, seed=3)
        seeds = [t.config.seed for t in job.stages[0].trees]
        assert len(set(seeds)) == 5

    def test_random_forest_normalizes_sampling(self):
        job = random_forest_job("rf", 2, TreeConfig())  # ALL -> SQRT
        assert (
            job.stages[0].trees[0].config.column_sampling is ColumnSampling.SQRT
        )

    def test_random_forest_keeps_explicit_ratio(self):
        cfg = TreeConfig(column_sampling=ColumnSampling.RATIO, column_ratio=0.5)
        job = random_forest_job("rf", 2, cfg)
        assert (
            job.stages[0].trees[0].config.column_sampling
            is ColumnSampling.RATIO
        )

    def test_extra_trees_job_kind(self):
        job = extra_trees_job("et", 3)
        for request in job.stages[0].trees:
            assert request.config.tree_kind is TreeKind.EXTRA
            assert request.config.column_sampling is ColumnSampling.ALL

    def test_staged_job_structure(self):
        job = staged_job("b", [[TreeConfig()], [TreeConfig(), TreeConfig()]])
        assert len(job.stages) == 2
        assert job.n_trees == 3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            random_forest_job("rf", 0)
        with pytest.raises(ValueError):
            staged_job("x", [])
        with pytest.raises(ValueError):
            staged_job("x", [[]])


class TestOptionSurface:
    def test_every_settable_name_is_spelled_out_here(self):
        """One place configures a tree, one the runtime, one a prediction
        server, one its HTTP gateway, and the one env var read under
        ``src/`` is the fault plan: the next option, wherever it is added,
        is a visible diff to this test."""

        def fields(cls):
            return {field.name for field in dataclasses.fields(cls)}

        assert fields(TreeConfig) == {
            "max_depth", "tau_leaf", "criterion", "column_sampling",
            "column_ratio", "tree_kind", "min_impurity_decrease", "seed",
            "split_mode", "max_bins",
        }
        assert fields(RuntimeOptions) == {
            "message_timeout_seconds",
            "start_method", "faults", "use_shm",
            "fault_policy", "max_worker_failures", "listen",
            "expected_hosts", "rendezvous_timeout_seconds",
        }
        assert fields(ServerConfig) == {
            "max_batch_size", "max_delay_seconds", "queue_capacity",
            "max_depth",
        }
        assert fields(GatewayConfig) == {
            "host", "port", "quota", "max_body_bytes",
            "request_timeout_seconds",
        }
        env_names = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            env_names |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert env_names == {"REPRO_FAULT"}

    def test_every_cli_flag_is_spelled_out_here(self):
        """Each ``repro`` subcommand's flags, read from the parser itself:
        adding or removing a flag is a visible diff to this test."""
        (subcommands,) = (
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: {
                option
                for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            }
            for name, parser in subcommands.choices.items()
        }
        assert flags == {
            "train": {
                "--backend", "--compers", "--csv", "--extra-trees",
                "--fault-policy", "--forest", "--hosts", "--listen",
                "--max-bins", "--max-depth", "--max-worker-failures",
                "--model-dir", "--mp-timeout", "--no-shm", "--seed", "--shm",
                "--split-mode", "--target", "--tau-leaf", "--workers",
            },
            "predict": {
                "--csv", "--max-depth", "--model-dir", "--out", "--target",
            },
            "serve": {
                "--batch-size", "--client-burst", "--client-rate", "--csv",
                "--host", "--http", "--max-delay-ms", "--max-depth",
                "--max-waiters", "--model-dir", "--out", "--port",
                "--quantize", "--queue-capacity", "--request-rows",
                "--target", "--workers",
            },
            "worker": {
                "--connect", "--csv", "--host-id", "--target", "--worker-id",
            },
            "evaluate": {"--csv", "--model-dir", "--target"},
            "datasets": {"--materialize", "--out", "--small"},
        }
