"""The shared-memory data plane's primitives: tables, arenas, lifecycle.

``SharedTableHandle`` and ``ShmArena`` (``repro.data.shm``) carry the
mp backend's zero-copy data plane, so their contracts are pinned directly:
attach rebuilds bit-identical *read-only* views under any start method,
descriptors stay tiny regardless of payload, arena slots recycle, and —
above all — no ``/dev/shm`` segment outlives its owner.  Every test
asserts the segments it created are gone afterwards; the suite-level
guarantee (nothing leaked even on crash paths) is pinned in
``tests/test_runtime_mp.py`` against the real runtime.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.data.shm import (
    SHM_NAME_PREFIX,
    SharedArrayPack,
    SharedTableHandle,
    ShmArena,
    ShmSlice,
    attach_segment,
    create_segment,
    list_segments,
    new_run_prefix,
    unlink_segment,
    unlink_segments,
)
from repro.datasets import dataset_spec, generate


def _table(name="covtype"):
    return generate(dataset_spec(name, small=True))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = set(list_segments())
    yield
    leaked = sorted(set(list_segments()) - before)
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


# ----------------------------------------------------------------------
# shared table
# ----------------------------------------------------------------------
class TestSharedTableHandle:
    def test_attach_rebuilds_identical_readonly_table(self):
        table = _table()
        handle = SharedTableHandle.create(table, f"{new_run_prefix()}-t")
        try:
            clone, attached = handle.attach()
            try:
                assert clone.n_rows == table.n_rows
                assert clone.n_columns == table.n_columns
                assert clone.schema == table.schema
                np.testing.assert_array_equal(clone.target, table.target)
                for mine, theirs in zip(table.columns, clone.columns):
                    np.testing.assert_array_equal(mine, theirs)
                    assert theirs.dtype == mine.dtype
                    # The view is zero-copy and immutable — the protocol
                    # treats the table as read-only for the whole run.
                    assert not theirs.flags.writeable
                    with pytest.raises((ValueError, RuntimeError)):
                        theirs[0] = theirs[0]
                # The pack's payload is exactly the table's bytes.
                payload = sum(c.nbytes for c in table.columns)
                assert attached.nbytes == handle.nbytes
                assert handle.nbytes == payload + table.target.nbytes
            finally:
                attached.close()
        finally:
            handle.unlink()

    def test_segments_exist_only_between_create_and_unlink(self):
        table = _table()
        prefix = new_run_prefix()
        handle = SharedTableHandle.create(table, f"{prefix}-t")
        # Columns and target share one segment: c0..c{n-1} and y.
        assert list_segments(prefix) == [handle.pack.segment]
        assert [spec.name for spec in handle.pack.specs] == [
            f"c{i}" for i in range(table.n_columns)
        ] + ["y"]
        handle.unlink()
        assert list_segments(prefix) == []
        handle.unlink()  # idempotent

    def test_pickled_handle_is_metadata_only(self):
        """The handle ships to workers by value; ownership must not."""
        table = _table()
        handle = SharedTableHandle.create(table, f"{new_run_prefix()}-t")
        try:
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.pack.segment == handle.pack.segment
            assert clone.nbytes == handle.nbytes
            assert len(pickle.dumps(handle)) < 8192  # no array payloads
            # An attacher calling unlink by mistake must be a no-op: the
            # segment stays alive for the real owner.
            clone.unlink()
            assert list_segments(handle.pack.segment) != []
            attached_table, attached = clone.attach()
            np.testing.assert_array_equal(attached_table.target, table.target)
            attached.close()
        finally:
            handle.unlink()

    def test_attach_under_spawn(self):
        """A spawn child (inheriting nothing) attaches purely by name."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method not available")
        table = _table()
        handle = SharedTableHandle.create(table, f"{new_run_prefix()}-t")
        try:
            ctx = multiprocessing.get_context("spawn")
            queue = ctx.Queue()
            process = ctx.Process(
                target=_spawn_child_checksums, args=(handle, queue)
            )
            process.start()
            sums = queue.get(timeout=60.0)
            process.join(timeout=60.0)
            assert process.exitcode == 0
            expected = [float(np.nansum(c)) for c in table.columns] + [
                float(np.nansum(table.target))
            ]
            assert sums == pytest.approx(expected)
        finally:
            handle.unlink()


def _spawn_child_checksums(handle, queue) -> None:
    """Spawn target: attach the shared table and report per-array sums."""
    table, attached = handle.attach()
    try:
        sums = [float(np.nansum(c)) for c in table.columns] + [
            float(np.nansum(table.target))
        ]
        queue.put(sums)
    finally:
        attached.close()


# ----------------------------------------------------------------------
# row-id arena
# ----------------------------------------------------------------------
class TestShmArena:
    def test_write_read_round_trip_and_tiny_descriptor(self):
        arena = ShmArena(new_run_prefix())
        try:
            rows = np.arange(100_000, dtype=np.int64) * 3
            ref = arena.write(rows)
            # The wire cost is the descriptor, not the payload.
            assert isinstance(ref, ShmSlice)
            assert ref.nbytes == rows.nbytes
            assert len(pickle.dumps(ref)) < 200
            out = arena.read(ref)
            np.testing.assert_array_equal(out, rows)
            assert out.dtype == rows.dtype
            # read returns a private copy: mutating it cannot corrupt the
            # arena, and the owner may recycle the slot underneath it.
            out[0] = -1
            np.testing.assert_array_equal(arena.read(ref), rows)
            arena.free(ref)
        finally:
            arena.close()

    def test_slots_recycle_after_free(self):
        arena = ShmArena(new_run_prefix(), segment_bytes=1 << 16)
        try:
            a = arena.write(np.arange(64, dtype=np.int64))
            b = arena.write(np.arange(64, dtype=np.int64))
            assert a.segment == b.segment and b.offset > a.offset
            assert arena.live_slices == 2
            arena.free(a)
            arena.free(b)
            assert arena.live_slices == 0
            # Fully-freed segment rewinds: the next write reuses offset 0
            # of the same segment instead of growing the pool.
            c = arena.write(np.arange(64, dtype=np.int64))
            assert (c.segment, c.offset) == (a.segment, a.offset)
            arena.free(c)
            assert list_segments(arena.prefix) == [a.segment]
        finally:
            arena.close()

    def test_oversized_payload_gets_dedicated_segment(self):
        arena = ShmArena(new_run_prefix(), segment_bytes=4096)
        try:
            small = arena.write(np.arange(8, dtype=np.int64))
            big = np.arange(10_000, dtype=np.int64)  # 80 KB > 4 KB pool
            ref = arena.write(big)
            assert ref.segment != small.segment
            np.testing.assert_array_equal(arena.read(ref), big)
            arena.free(small)
            arena.free(ref)
        finally:
            arena.close()

    def test_cross_process_shape_reader_attaches_by_name(self):
        """Reading another arena's slice works purely from the descriptor."""
        writer = ShmArena(new_run_prefix())
        reader = ShmArena(new_run_prefix())
        try:
            rows = np.arange(5000, dtype=np.int64) + 7
            ref = pickle.loads(pickle.dumps(writer.write(rows)))
            np.testing.assert_array_equal(reader.read(ref), rows)
            writer.free(ref)
        finally:
            reader.close()
            writer.close()

    def test_misuse_is_loud(self):
        arena = ShmArena(new_run_prefix())
        other = ShmArena(new_run_prefix())
        try:
            ref = arena.write(np.arange(4, dtype=np.int64))
            with pytest.raises(ValueError, match="does not belong"):
                other.free(ref)
            arena.free(ref)
            with pytest.raises(RuntimeError, match="double free"):
                arena.free(ref)
        finally:
            other.close()
            arena.close()

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena(new_run_prefix())
        arena.write(np.arange(16, dtype=np.int64))
        assert list_segments(arena.prefix) != []
        arena.close()
        assert list_segments(arena.prefix) == []
        arena.close()


# ----------------------------------------------------------------------
# crash sweep
# ----------------------------------------------------------------------
class TestSweep:
    def test_unlink_segments_reclaims_by_name(self):
        """The parent's post-crash sweep: reclaim segments by listing."""
        prefix = new_run_prefix()
        orphans = [create_segment(f"{prefix}-s{i}", 4096) for i in range(3)]
        for segment in orphans:
            segment.close()  # owner "died": mapping gone, file left behind
        names = list_segments(prefix)
        assert len(names) == 3
        assert all(name.startswith(SHM_NAME_PREFIX) for name in names)
        removed = unlink_segments(names)
        assert removed == names
        assert list_segments(prefix) == []
        assert unlink_segments(names) == []  # idempotent on gone names


    def test_the_resource_tracker_never_hears_of_a_segment(self, monkeypatch):
        """Create, attach, unlink and sweep send the tracker nothing: a
        REGISTER/UNREGISTER pair from each of two processes sharing one
        tracker can interleave, and the second UNREGISTER then misses
        (a ``KeyError`` traceback at exit)."""
        from multiprocessing import resource_tracker

        calls = []
        for name in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker,
                name,
                lambda *args, name=name: calls.append((name, args)),
            )
        prefix = new_run_prefix()
        owner = create_segment(f"{prefix}-a", 64)
        owner.buf[:3] = b"abc"
        reader = attach_segment(f"{prefix}-a")
        assert bytes(reader.buf[:3]) == b"abc"
        reader.close()
        unlink_segment(owner)
        owner.close()
        create_segment(f"{prefix}-b", 64).close()
        assert unlink_segments(list_segments(prefix)) == [f"{prefix}-b"]
        assert calls == []


# ----------------------------------------------------------------------
# repro.data.shm is where the shm machinery lives
# ----------------------------------------------------------------------
class TestModulePath:
    def test_shm_module_is_canonical(self):
        import repro.data.shm as shm

        assert SharedTableHandle.__module__ == "repro.data.shm"
        assert ShmArena.__module__ == "repro.data.shm"
        assert SharedArrayPack.__module__ == "repro.data.shm"
        assert shm.SHM_NAME_PREFIX == SHM_NAME_PREFIX


# ----------------------------------------------------------------------
# packed array segments (the compiled-model carrier)
# ----------------------------------------------------------------------
class TestSharedArrayPack:
    def _arrays(self):
        rng = np.random.default_rng(7)
        return [
            ("a.f64", rng.normal(size=129)),
            ("b.i16", rng.integers(-5, 5, size=(7, 3)).astype(np.int16)),
            ("c.f32", rng.normal(size=0).astype(np.float32)),  # empty ok
            ("d.bool", rng.integers(0, 2, size=33).astype(bool)),
        ]

    def test_round_trip_readonly_views(self):
        arrays = self._arrays()
        pack = SharedArrayPack.create(arrays, f"{new_run_prefix()}-pack")
        try:
            attached = pack.attach()
            try:
                assert set(attached.arrays) == {n for n, _ in arrays}
                for name, original in arrays:
                    view = attached.arrays[name]
                    assert view.dtype == original.dtype
                    assert view.shape == original.shape
                    np.testing.assert_array_equal(view, original)
                    assert not view.flags.writeable
            finally:
                attached.close()
        finally:
            pack.unlink()
        pack.unlink()  # idempotent

    def test_single_segment_and_aligned_offsets(self):
        pack = SharedArrayPack.create(self._arrays(), f"{new_run_prefix()}-p1")
        try:
            assert len(list_segments(pack.segment)) == 1
            assert all(spec.offset % 8 == 0 for spec in pack.specs)
            assert pack.nbytes == sum(s.nbytes for s in pack.specs)
        finally:
            pack.unlink()

    def test_pickled_pack_is_metadata_only(self):
        arrays = self._arrays()
        payload = sum(a.nbytes for _, a in arrays)
        pack = SharedArrayPack.create(arrays, f"{new_run_prefix()}-p2")
        try:
            blob = pickle.dumps(pack)
            assert len(blob) < max(2048, payload // 4)
            clone = pickle.loads(blob)
            attached = clone.attach()
            try:
                np.testing.assert_array_equal(
                    attached.arrays["a.f64"], arrays[0][1]
                )
            finally:
                attached.close()
        finally:
            pack.unlink()

    def test_duplicate_names_rejected(self):
        rows = np.zeros(4)
        with pytest.raises(ValueError, match="duplicate"):
            SharedArrayPack.create(
                [("x", rows), ("x", rows)], f"{new_run_prefix()}-p3"
            )


# ----------------------------------------------------------------------
# compiled models in shm (the serving fleet's carrier)
# ----------------------------------------------------------------------
def _crash_child_after_attach(handle, conn) -> None:
    """Child target: attach the model, prove it read it, die without cleanup.

    Reports through a Pipe (synchronous fd write — a Queue's feeder
    thread would lose the payload to the immediate hard exit below).
    """
    import os

    attached = handle.attach()
    conn.send(float(np.nansum(attached.forest.trees[0].threshold)))
    os._exit(9)  # simulated crash: no close(), no atexit, nothing


class TestSharedCompiledModel:
    def _compiled(self):
        from repro.core import TreeConfig, train_tree
        from repro.ensemble import ForestModel
        from repro.serving import compile_forest

        table = _table()
        forest = ForestModel(
            [train_tree(table, TreeConfig(max_depth=5, seed=i)) for i in range(2)]
        )
        return compile_forest(forest), table

    def test_attach_detach_round_trip(self):
        from repro.serving import (
            BatchPredictor,
            SharedCompiledModel,
            flat_fingerprint,
        )

        flat, table = self._compiled()
        key = flat_fingerprint(flat)
        handle = SharedCompiledModel.create(flat, key)
        try:
            assert len(handle.segment_names()) == 1  # one segment per model
            attached = handle.attach()
            try:
                assert attached.key == key
                assert attached.nbytes == handle.nbytes == flat.nbytes()
                mat = np.column_stack(
                    [c.astype(np.float64) for c in table.columns]
                )
                np.testing.assert_array_equal(
                    attached.predictor.predict_proba_matrix(mat),
                    BatchPredictor(flat).predict_proba_matrix(mat),
                )
                tree = attached.forest.trees[0]
                assert not tree.threshold.flags.writeable
                # The kernel's bulk arrays are the mapped image itself.
                for name in ("threshold", "predictions", "cat_dir"):
                    bulk = getattr(attached.predictor, f"_{name}")
                    assert bulk is attached.forest.stacked[name]
                    assert not bulk.flags.owndata
                    assert not bulk.flags.writeable
                assert np.shares_memory(
                    tree.threshold, attached.forest.stacked["threshold"]
                )
            finally:
                attached.close()
            attached.close()  # idempotent
        finally:
            handle.unlink()
        handle.unlink()  # idempotent

    def test_handle_pickles_metadata_only(self):
        from repro.serving import SharedCompiledModel, flat_fingerprint

        flat, _ = self._compiled()
        handle = SharedCompiledModel.create(flat, flat_fingerprint(flat))
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < max(4096, handle.nbytes // 4)
            clone = pickle.loads(blob)
            attached = clone.attach()
            try:
                assert attached.forest.n_trees == flat.n_trees
            finally:
                attached.close()
        finally:
            handle.unlink()

    def test_no_leak_after_attacher_crash(self):
        """A worker that dies mid-attachment leaves nothing in /dev/shm.

        The creator is the only owner: after the child hard-exits without
        closing, the parent's unlink fully reclaims the segment (the
        autouse fixture asserts the sweep-level invariant).
        """
        from repro.serving import SharedCompiledModel, flat_fingerprint

        flat, _ = self._compiled()
        handle = SharedCompiledModel.create(flat, flat_fingerprint(flat))
        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_crash_child_after_attach, args=(handle, child_conn)
            )
            process.start()
            child_conn.close()
            assert parent_conn.poll(60.0)
            checksum = parent_conn.recv()
            process.join(timeout=60.0)
            assert process.exitcode == 9
            assert checksum == pytest.approx(
                float(np.nansum(flat.trees[0].threshold))
            )
            # The segment is still alive (the crash must not take the
            # published model down with it) ...
            assert list_segments(handle.pack.segment) == [handle.pack.segment]
        finally:
            # ... and the owner reclaims it completely.
            handle.unlink()
        assert list_segments(handle.pack.segment) == []
