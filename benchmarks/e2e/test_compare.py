"""``compare.py`` on synthetic result files: one case per verdict.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_compare.py
"""

import json

import pytest

import compare

BOUND = {m["name"]: m["bound"] for m in compare.SPEC["end_to_end"]}["p50_ms"]


def label(a, b, better="lower"):
    return compare.verdict(a, b, better, 0.1)[0]


def test_verdict_same_regressed_unresolved():
    base = [10.0, 10.1, 9.9, 10.0]
    assert label(base, base) == "same"
    # Inside the bound is the same, and so is any improvement.
    assert label(base, [v * 1.08 for v in base]) == "same"
    assert label(base, [v * 1.2 for v in base]) == "regressed"
    assert label(base, [v * 0.5 for v in base]) == "same"
    # "higher" metrics regress downwards.
    assert label(base, [v * 0.8 for v in base], "higher") == "regressed"
    assert label(base, [v * 1.2 for v in base], "higher") == "same"
    # A spread wider than the bound hides it, even with B far worse.
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert label(base, noisy) == "unresolved"
    assert label(noisy, [v * 2 for v in base]) == "unresolved"
    # One run a side says nothing about spread.
    assert label([10.0], [20.0]) == "unresolved"


def record(workload, seed, trace, metrics, failed=0, commit="abc"):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
        "environment": {"git_commit": commit},
    }


def result_file(path, scale, *, failed=0, tasks=40, commit="abc"):
    runs = [
        record(
            "serve_inproc", seed, 0,
            {"p50_ms": scale * (8.0 + 0.01 * seed), "rows_per_s": 1e5 + seed},
            failed, commit,
        )
        for seed in (1, 2, 3)
    ]
    runs.append(
        record(
            "train_subtree_mp", 1, 1,
            {"core.master.subtree_tasks": tasks}, commit=commit,
        )
    )
    path.write_text(json.dumps({"runs": runs}))
    return compare.load(str(path))


def test_compare_files(tmp_path, capsys):
    a = result_file(tmp_path / "a.json", 1.0)
    assert compare.compare(a, a) == 0
    out = capsys.readouterr().out
    assert "exact counts identical" in out and "regressed (" not in out
    # Only what the workload measures gets a row.
    assert "setup_s" not in out and "train_wall_s" not in out

    slower = result_file(tmp_path / "b.json", 1.0 + 2 * BOUND)
    assert compare.compare(a, slower) == 1
    assert "p50_ms" in capsys.readouterr().out

    failing = result_file(tmp_path / "c.json", 1.0, failed=1)
    assert compare.compare(a, failing) == 1

    reshaped = result_file(tmp_path / "d.json", 1.0, tasks=41)
    assert compare.compare(a, reshaped) == 1
    assert "DIFFER" in capsys.readouterr().out


def test_load_refuses_pooled_commits(tmp_path):
    path = tmp_path / "pooled.json"
    result_file(path, 1.0)
    pooled = json.loads(path.read_text())
    pooled["runs"][0]["environment"]["git_commit"] = "def"
    path.write_text(json.dumps(pooled))
    with pytest.raises(SystemExit):
        compare.load(str(path))
