"""Shared-memory fits on ``mp`` exit cleanly: nothing on stderr.

Before segments were opened and unlinked with ``shm_open`` /
``shm_unlink`` directly, about one shm-on ``mp`` fit in eight printed a
``KeyError`` traceback from ``multiprocessing.resource_tracker`` at exit:
several processes unregistered the same name from one shared tracker,
and the second unregister missed.  No segment was left behind, so only
stderr shows the race.  Twenty fits in a fresh interpreter would catch a
one-in-eight failure about 93 % of the time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from repro.data.shm import list_segments

N_FITS = 20

SCRIPT = textwrap.dedent(
    f"""
    from repro import SystemConfig, TreeConfig, TreeServer, random_forest_job
    from repro.datasets import dataset_spec, generate
    from repro.runtime import RuntimeOptions

    table = generate(dataset_spec("higgs_boson", small=True))
    server = TreeServer(
        SystemConfig(n_workers=2, compers_per_worker=2).scaled_to(table.n_rows),
        backend="mp",
        runtime_options=RuntimeOptions(use_shm=True),
    )
    jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=1)]
    for _ in range({N_FITS}):
        server.fit(table, jobs)
    print("FITS DONE", flush=True)
    """
)


def test_shm_fits_leave_stderr_clean():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "FITS DONE" in result.stdout
    assert "Traceback" not in result.stderr, result.stderr
    assert "KeyError" not in result.stderr, result.stderr
    assert list_segments() == []
