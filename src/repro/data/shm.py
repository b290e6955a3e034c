"""Shared-memory utility layer: immutable big arrays, mapped not copied.

Both sides of this reproduction hit the same shape: a large, *immutable*
set of NumPy arrays (the training table's columns; a compiled serving
model's flat arrays) must be visible to many OS processes at once.  POSIX
shared memory is exactly that shape — write once, map read-only
everywhere — so the primitives live here as one reusable layer, all with
*explicit* create / attach / close / unlink lifecycles so they work under
any ``multiprocessing`` start method (``fork`` inherits nothing it should
not; ``spawn`` attaches by name):

* segment lifecycle helpers — :func:`create_segment` /
  :func:`attach_segment` / :func:`unlink_segment`, plus the
  :func:`list_segments` / :func:`unlink_segments` crash sweep — every
  segment named under :data:`SHM_NAME_PREFIX` so leak checks have no
  false positives;
* :class:`SharedArrayPack` — N named arrays packed into **one** named
  segment.  The picklable pack carries only per-array
  ``(name, offset, dtype, shape)`` records; :meth:`SharedArrayPack.attach`
  rebuilds every array as a read-only zero-copy view in any process, at
  the cost of one ``shm_open`` + ``mmap`` however many arrays travel;
* :class:`SharedTableHandle` — a training table's shm image: its schema
  plus one pack holding the columns ``c0..c{n-1}`` and the target ``y``.
  :meth:`SharedTableHandle.attach` rebuilds the
  :class:`~repro.data.table.DataTable` over the pack's views.  Serving's
  ``SharedCompiledModel`` rides a pack the same way, one segment per
  published model;
* :class:`ShmArena` — a pooled bump allocator for shipping large row-id
  sets (``I_xl`` / ``I_xr``) between workers.  The owner writes an array
  once and sends only a tiny :class:`ShmSlice` descriptor on the wire;
  readers attach the segment (cached per name) and copy the slice out.
  Slots are recycled when the owner frees them — a whole segment's cursor
  rewinds once all its live slices are freed, which matches the
  protocol's lifecycle (delegate stores are freed when the master
  confirms a child side resolved, by which time causality guarantees
  every reader has consumed its copy).

CPython's ``resource_tracker`` is kept out of the loop entirely: before
3.13 ``SharedMemory`` sends it a REGISTER on create *and* attach and an
UNREGISTER on unlink, and the forked processes of a run share one
tracker whose registry is a set of names, so two processes interleaving
their register/unregister pairs make the second UNREGISTER miss (a
``KeyError`` traceback at exit).  Segments here are opened and unlinked
with ``shm_open`` / ``shm_unlink`` directly (:class:`_Segment`), so the
tracker never hears of them; ownership is explicit and the parent's
post-join sweep (``SocketTransport.shutdown`` in ``runtime/socket.py``)
covers crash paths instead.
"""

from __future__ import annotations

import mmap
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import _posixshmem
import numpy as np

from .schema import TableSchema
from .table import DataTable

#: Every segment this package creates starts with this, so leak checks and
#: crash sweeps can identify ours in ``/dev/shm`` without false positives.
SHM_NAME_PREFIX = "repro-shm-"


class _Segment(shared_memory.SharedMemory):
    """A POSIX shared-memory segment the resource tracker never hears of.

    ``size`` > 0 creates the segment (exclusively), 0 attaches to it;
    everything else — ``buf``, ``name``, ``size``, ``close`` — is the
    stdlib's.
    """

    def __init__(self, name: str, size: int = 0) -> None:
        self._name = "/" + name
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
        self._fd = _posixshmem.shm_open(self._name, flags, mode=0o600)
        try:
            if size:
                os.ftruncate(self._fd, size)
            self._size = os.fstat(self._fd).st_size
            self._mmap = mmap.mmap(self._fd, self._size)
        except OSError:
            self.close()
            if size:
                _posixshmem.shm_unlink(self._name)
            raise
        self._buf = memoryview(self._mmap)


def new_run_prefix() -> str:
    """A fresh, collision-safe name prefix for one training run.

    Short on purpose: POSIX limits shm names to ~30 chars on some
    platforms and every segment name appends ``-w<id>-s<n>`` style
    suffixes to this.
    """
    return f"{SHM_NAME_PREFIX}{secrets.token_hex(4)}"


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create an untracked shared-memory segment of at least ``size`` bytes."""
    return _Segment(name, max(1, size))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment by name, untracked."""
    return _Segment(name)


def unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Unlink without involving the resource tracker, tolerating races."""
    unlink_segments([segment.name])


def list_segments(prefix: str = SHM_NAME_PREFIX) -> list[str]:
    """Names of live shared-memory segments matching ``prefix``.

    Reads ``/dev/shm`` directly (Linux); on platforms without it there is
    no portable enumeration, so the sweep degrades to a no-op and
    lifecycle relies on the in-process teardown paths alone.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in root.glob(f"{prefix}*") if p.is_file())


def unlink_segments(names: list[str]) -> list[str]:
    """Force-unlink the named segments (crash sweep); returns those removed."""
    removed = []
    for name in names:
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:
            continue  # someone else (a sweep) beat us to it
        removed.append(name)
    return removed


# ----------------------------------------------------------------------
# shared table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedTableHandle:
    """A :class:`DataTable` living in one :class:`SharedArrayPack` segment.

    Create once in the driver (:meth:`create` packs the columns as
    ``c0..c{n-1}`` and the target as ``y``), ship the handle to workers
    under any start method — it pickles as the schema plus the pack's
    metadata — and :meth:`attach` there.  The creator, and only the
    creator, calls :meth:`unlink` after the run; attachers only
    :meth:`AttachedPack.close` their views.
    """

    schema: TableSchema
    pack: "SharedArrayPack"

    @classmethod
    def create(
        cls, table: DataTable, segment_name: str
    ) -> "SharedTableHandle":
        """Copy every array of ``table`` into one named shm segment."""
        arrays = [(f"c{i}", column) for i, column in enumerate(table.columns)]
        arrays.append(("y", table.target))
        return cls(table.schema, SharedArrayPack.create(arrays, segment_name))

    def attach(self) -> "tuple[DataTable, AttachedPack]":
        """The table as read-only zero-copy views in this process, and
        the attachment to close once the table is dropped."""
        attached = self.pack.attach()
        try:
            arrays = attached.arrays
            columns = [arrays[f"c{i}"] for i in range(self.schema.n_columns)]
            table = DataTable(self.schema, columns, arrays["y"])
        except BaseException:
            attached.close()
            raise
        return table, attached

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        self.pack.unlink()

    @property
    def nbytes(self) -> int:
        """Total shared payload bytes (columns + target)."""
        return self.pack.nbytes


# ----------------------------------------------------------------------
# single-segment array pack
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackedArraySpec:
    """One array's position inside a :class:`SharedArrayPack` segment."""

    name: str
    offset: int
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Payload bytes of the described array."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


class AttachedPack:
    """Read-only views over one attached :class:`SharedArrayPack` segment.

    Owns the attachment (not the segment): :meth:`close` unmaps it, it
    never unlinks — that is the creator's job.  The views become invalid
    after :meth:`close`; callers drop both together.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        segment: shared_memory.SharedMemory,
        nbytes: int,
    ) -> None:
        self.arrays = arrays
        self.nbytes = nbytes
        self._segment: shared_memory.SharedMemory | None = segment

    def close(self) -> None:
        """Unmap the attached segment (idempotent)."""
        if self._segment is None:
            return
        self.arrays = {}
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        self._segment = None


class SharedArrayPack:
    """N named immutable arrays packed into **one** shared-memory segment.

    Everything lands 8-byte-aligned in a single segment, so an attacher
    performs exactly one ``shm_open`` + ``mmap`` no matter how many arrays
    travel: a training table's columns and target
    (:class:`SharedTableHandle`), or a compiled serving model's dozens of
    small arrays per tree.

    The pack itself is picklable metadata only: ``(segment name,
    [(name, offset, dtype, shape), ...])``.  The creator — and only the
    creator — calls :meth:`unlink`; attachers :meth:`AttachedPack.close`
    their views.
    """

    def __init__(self, segment: str, specs: list[PackedArraySpec]) -> None:
        self.segment = segment
        self.specs = specs
        self._owned: shared_memory.SharedMemory | None = None

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: list[tuple[str, np.ndarray]], segment_name: str
    ) -> "SharedArrayPack":
        """Copy the named arrays into one fresh segment.

        Names must be unique — they are the attach-side lookup keys.
        """
        names = [name for name, _ in arrays]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate array names in pack: {names}")
        specs: list[PackedArraySpec] = []
        offset = 0
        for name, array in arrays:
            specs.append(
                PackedArraySpec(
                    name, offset, str(array.dtype), tuple(array.shape)
                )
            )
            offset += -(-array.nbytes // 8) * 8  # keep 8-byte alignment
        segment = create_segment(segment_name, max(1, offset))
        try:
            for spec, (_, array) in zip(specs, arrays):
                destination = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=segment.buf,
                    offset=spec.offset,
                )
                destination[...] = array
        except BaseException:
            unlink_segment(segment)
            segment.close()
            raise
        pack = cls(segment_name, specs)
        pack._owned = segment
        return pack

    def attach(self) -> AttachedPack:
        """Rebuild every array as a read-only zero-copy view (one mmap)."""
        segment = attach_segment(self.segment)
        try:
            arrays: dict[str, np.ndarray] = {}
            for spec in self.specs:
                view = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=segment.buf,
                    offset=spec.offset,
                )
                view.flags.writeable = False
                arrays[spec.name] = view
        except BaseException:
            segment.close()
            raise
        return AttachedPack(arrays, segment, self.nbytes)

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if self._owned is None:
            return
        unlink_segment(self._owned)
        try:
            self._owned.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        self._owned = None

    # -- introspection --------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total payload bytes across all packed arrays."""
        return sum(spec.nbytes for spec in self.specs)

    # -- pickling (metadata only; the live mapping never travels) -------
    def __getstate__(self) -> dict:
        return {"segment": self.segment, "specs": self.specs}

    def __setstate__(self, state: dict) -> None:
        self.segment = state["segment"]
        self.specs = state["specs"]
        self._owned = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedArrayPack(segment={self.segment!r}, "
            f"arrays={len(self.specs)}, nbytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
# row-id arena
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmSlice:
    """Wire descriptor of one array parked in a shared-memory arena.

    This — not the array — is what crosses the transport for large row-id
    sets: ``(segment, offset, count, dtype)``, a few dozen pickled bytes
    regardless of how many million rows it describes.
    """

    segment: str
    offset: int
    count: int
    dtype: str = "int64"

    @property
    def nbytes(self) -> int:
        """Payload bytes the descriptor points at."""
        return self.count * np.dtype(self.dtype).itemsize


class _ArenaSegment:
    """One pooled segment: a bump cursor plus a live-allocation count."""

    __slots__ = ("shm", "name", "cursor", "live")

    def __init__(self, shm: shared_memory.SharedMemory, name: str) -> None:
        self.shm = shm
        self.name = name
        self.cursor = 0
        self.live = 0


class ShmArena:
    """Pooled shared-memory writer (own segments) + reader (attach cache).

    Each worker process owns one arena.  Writes bump-allocate out of
    fixed-size segments (new segments are added on demand, oversized
    payloads get a dedicated one); :meth:`free` decrements a segment's
    live count and rewinds its cursor once it hits zero, so steady-state
    training recycles the same few segments.  Reads resolve a
    :class:`ShmSlice` against the local segment table or an attach cache
    and return a private copy — the copy is what makes the owner's
    recycling safe without any cross-process refcounting.
    """

    #: Default pooled-segment size; large enough that typical row-id sets
    #: of one delegate store fit without a dedicated segment.
    DEFAULT_SEGMENT_BYTES = 4 << 20

    def __init__(
        self, prefix: str, segment_bytes: int = DEFAULT_SEGMENT_BYTES
    ) -> None:
        self.prefix = prefix
        self.segment_bytes = int(segment_bytes)
        self._own: list[_ArenaSegment] = []
        self._by_name: dict[str, _ArenaSegment] = {}
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        #: Live (written, not yet freed) slice count — a leak detector.
        self.live_slices = 0

    # -- owner side -----------------------------------------------------
    def write(self, array: np.ndarray) -> ShmSlice:
        """Park ``array`` in the arena; returns its wire descriptor."""
        array = np.ascontiguousarray(array)
        segment = self._segment_with_room(array.nbytes)
        offset = segment.cursor
        destination = np.ndarray(
            array.shape,
            dtype=array.dtype,
            buffer=segment.shm.buf,
            offset=offset,
        )
        destination[...] = array
        segment.cursor += -(-array.nbytes // 8) * 8  # keep 8-byte alignment
        segment.live += 1
        self.live_slices += 1
        return ShmSlice(segment.name, offset, int(array.size), str(array.dtype))

    def free(self, ref: ShmSlice) -> None:
        """Release one written slice; a fully-freed segment is recycled."""
        segment = self._by_name.get(ref.segment)
        if segment is None:
            raise ValueError(f"slice {ref} does not belong to this arena")
        segment.live -= 1
        self.live_slices -= 1
        if segment.live < 0:
            raise RuntimeError(f"double free of arena segment {ref.segment}")
        if segment.live == 0:
            segment.cursor = 0

    def _segment_with_room(self, nbytes: int) -> _ArenaSegment:
        for segment in self._own:
            if segment.cursor + nbytes <= segment.shm.size:
                return segment
        size = max(self.segment_bytes, nbytes)
        name = f"{self.prefix}-s{len(self._own)}"
        segment = _ArenaSegment(create_segment(name, size), name)
        self._own.append(segment)
        self._by_name[name] = segment
        return segment

    # -- reader side ----------------------------------------------------
    def read(self, ref: ShmSlice) -> np.ndarray:
        """Copy the described array out of shared memory.

        A copy, deliberately: the receiver may retain the rows long after
        the owner recycles the slot (a column task keeps ``I_x`` until it
        learns whether it is the delegate), so zero-copy stops at the
        wire and one memcpy buys lifetime independence.
        """
        local = self._by_name.get(ref.segment)
        if local is not None:
            buffer = local.shm.buf
        else:
            segment = self._attached.get(ref.segment)
            if segment is None:
                segment = attach_segment(ref.segment)
                self._attached[ref.segment] = segment
            buffer = segment.buf
        view = np.ndarray(
            (ref.count,),
            dtype=np.dtype(ref.dtype),
            buffer=buffer,
            offset=ref.offset,
        )
        return view.copy()

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Unmap attachments, destroy owned segments (idempotent)."""
        for segment in self._attached.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        self._attached = {}
        for segment in self._own:
            unlink_segment(segment.shm)
            try:
                segment.shm.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        self._own = []
        self._by_name = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmArena(prefix={self.prefix!r}, segments={len(self._own)}, "
            f"live={self.live_slices})"
        )
