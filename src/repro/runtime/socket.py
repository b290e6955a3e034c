"""Socket transport: the TreeServer protocol over persistent TCP.

The one transport of the process backends, behind the
:class:`~repro.runtime.base.Transport` seam.  The wire format is
deliberately minimal: **length-prefixed pickled frames** over persistent
TCP connections, one connection per worker, with the master as a frame
hub.

Topology — a hub:

* the master binds ``RuntimeOptions.listen`` (or a loopback ephemeral
  port in self-launch mode) and every worker dials in once;
* a frame is ``(dst: int32, length: uint64, payload)``.  Frames with
  ``dst == 0`` are decoded by the master; frames addressed to another
  worker are **relayed verbatim at the frame layer** — the master never
  unpickles worker-to-worker traffic, so the protocol's rule that the
  master stays out of the row-id *data* path survives (Section V): it
  forwards opaque bytes, it never touches content;
* the payload of a protocol frame is exactly one
  :class:`~repro.runtime.process.QueueFabric` blob (one pickled
  ``list[Message]``): each process's fabric hands a blob for ``dst`` to
  one ``put``, which is a local inbox for the process itself and a
  framed send otherwise.

Deadlock safety: the master runs one **reader thread** per connection
which never sends — it routes frames either into the driver inbox or
into the destination's unbounded writer queue — and one **writer
thread** per connection which is the only thing that blocks on that
socket's send buffer.  A slow worker can therefore stall only its own
writer thread, never the draining of any other connection (the classic
distributed-buffer deadlock is structurally impossible).

Rendezvous (``docs/PROTOCOL.md``): a dialing worker's first frame is a
control frame (``dst == -1``) carrying a
:class:`~repro.core.tasks.WorkerHelloMsg` — worker id, protocol
version, table fingerprint, host id.  The master collects all ``n``
valid hellos (rejecting version/table/roster/duplicate mismatches with
an explanatory unwelcome), then answers every connection with a
:class:`~repro.core.tasks.WorkerWelcomeMsg` carrying the cluster shape,
the worker's held columns, the host map, the shm prefix, the cost model
and the threshold book.  The host map drives the ``ShmSlice`` rule:
descriptors are only sent to peers whose host id matches the sender's
(``WorkerActor.shm_peers``); everyone else gets inline row ids.

Trust boundary: the rendezvous control frames are **JSON** (never
pickle — they arrive from peers that have proven nothing yet, and
unpickling pre-auth bytes would hand any port scanner code execution),
but post-rendezvous protocol frames are **pickle** — this transport is
for clusters you own, exactly like the paper's deployment.  It performs
no authentication beyond the rendezvous checks (the table fingerprint
acts as a weak shared secret), must not face a hostile network, and
warns when told to bind a non-loopback address.

Two modes, one code path (:class:`SocketTransport`): **self-launch**
(``listen=None``; ``backend="mp"``, and ``backend="socket"`` without an
address) starts the workers as local processes, and **external**
(``listen="host:port"``, ``backend="socket"`` only) waits for ``repro
worker`` clients.  :class:`SocketRuntime` is
:class:`~repro.runtime.process.ProcessRuntime` under its own name, so
the driver loop and the failure semantics are one code.  A worker the
transport started is seen dead by its process exit code (so the
injected ``CRASH_EXITCODE`` surfaces as is); an external worker only by
its connection's EOF, which counts as exit 0 only when clean (orderly
FIN with an empty frame buffer) and once the driver has entered its
shutdown phase (:meth:`SocketTransport.begin_shutdown`).  An
external-mode master starts no worker, so it takes no fault plan:
``repro worker`` reads ``REPRO_FAULT`` on its own machine.

Parity: every mode trains **bit-identical** models to ``sim`` (pinned
by ``tests/test_runtime_mp.py`` and ``tests/test_runtime_socket.py``) —
same master state machine, same ``min (score, column)`` arbitration,
same seed-derived randomness.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import queue as queue_module
import select
import socket
import struct
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Sequence

from ..cluster.cost import CostModel
from ..cluster.network import Message
from ..core.histogram import book_from_wire, book_to_wire
from ..core.tasks import (
    SOCKET_PROTOCOL_VERSION,
    WorkerHelloMsg,
    WorkerWelcomeMsg,
)
from ..data.shm import (
    SharedTableHandle,
    list_segments,
    new_run_prefix,
    unlink_segments,
)
from ..data.table import DataTable, table_fingerprint
from .base import (
    FaultPlan,
    RuntimeBackendError,
    RuntimeOptions,
    WorkerDiedError,
    message_faults,
)
from .process import (
    CRASH_EXITCODE,
    POLL_INTERVAL_SECONDS,
    ProcessRuntime,
    QueueFabric,
    resolve_start_method,
    run_worker_loop,
    worker_error_message,
    worker_table,
)
from .signals import stop_processes

#: Frame header: ``(dst: int32, payload length: uint64)``, network order.
FRAME_HEADER = struct.Struct("!iQ")

#: Header ``dst`` of rendezvous control frames (hello / welcome) —
#: never a machine id, so control and protocol traffic cannot collide.
CTRL_DST = -1

#: Upper bound on a single frame's payload; anything larger is treated
#: as stream corruption (a garbage client, not a real peer).
MAX_FRAME_BYTES = 1 << 40

#: Longest the rendezvous accept loop blocks in ``accept()`` before it
#: looks at its stop flag again.  Only a fallback: the listener is shut
#: down the moment the rendezvous ends, which wakes the loop at once.
ACCEPT_POLL_SECONDS = 0.1

#: Writer-thread stop sentinel.
_STOP = object()


class HandshakeError(RuntimeBackendError):
    """The socket rendezvous failed (timeout, rejection, or bad peer)."""


class ConnectionClosed(Exception):
    """The peer closed the connection.

    ``clean`` distinguishes an orderly FIN on a frame boundary (the
    receive buffer held no partial frame) from a close mid-frame.
    """

    def __init__(self, clean: bool) -> None:
        self.clean = clean
        super().__init__(
            "connection closed "
            + ("cleanly on a frame boundary" if clean else "mid-frame")
        )


def _default_host_id() -> str:
    """Identify the physical host: hostname plus machine id.

    The hostname alone is not enough — containers routinely share one —
    so ``/etc/machine-id`` (stable per OS installation) is appended
    where readable.  Two workers may exchange shm descriptors only when
    these ids match (``docs/PROTOCOL.md``), and a false match is worse
    than a missed one: cross-host ``ShmSlice`` descriptors cannot
    attach, wedging the run, while inline row ids merely cost
    bandwidth.  So when no machine id is readable the fallback is a
    **process-unique** id (refusing shm peering entirely) rather than
    the bare hostname — two containers on different physical hosts with
    identical hostnames must not be treated as shm peers.  Co-located
    external workers in that situation can opt back in with an explicit
    ``repro worker --host-id``; self-launch workers are unaffected (the
    master hands them its own host id).
    """
    machine = ""
    try:
        machine = Path("/etc/machine-id").read_text().strip()
    except OSError:
        pass
    if not machine:
        return f"{socket.gethostname()}/pid{os.getpid()}"
    return f"{socket.gethostname()}/{machine[:12]}"


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` into a connect/bind address."""
    host, sep, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not 0 <= port <= 65535:
        raise ValueError(
            f"invalid address {text!r}; expected 'host:port', "
            f"e.g. '0.0.0.0:7733'"
        )
    return host, port


def _configure_socket(sock: socket.socket) -> None:
    """Per-connection socket options: low latency, dead-peer probing."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)


class FrameStream:
    """Buffered framed reads and locked framed writes over one socket.

    The socket is kept permanently **blocking** (any connect timeout is
    cleared on construction) and read polling is done with ``select``
    instead of ``settimeout`` — a socket timeout is per-socket state, so
    arming one for a 50ms read poll would silently apply to every later
    ``sendall`` on the same socket, and a timed-out ``sendall`` may have
    partially written its frame, permanently desyncing the stream.
    Writes therefore always run to completion (or fail hard).

    Reads keep partial bytes across poll timeouts (a timeout mid-frame
    resumes where it left off); writes serialize header + payload into
    one ``sendall`` under a lock so concurrent senders (a writer thread
    plus a handshake reply, or a worker's main loop plus its error
    path) cannot interleave frames.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        sock.settimeout(None)  # blocking forever; reads poll via select
        self._buffer = bytearray()
        self._send_lock = threading.Lock()

    def send_frame(self, dst: int, payload: bytes) -> None:
        """Write one ``(dst, payload)`` frame, fully (thread-safe)."""
        header = FRAME_HEADER.pack(dst, len(payload))
        with self._send_lock:
            self.sock.sendall(header + payload)

    def read_frame(
        self, timeout: float | None = None
    ) -> tuple[int, bytes] | None:
        """Read one frame; ``None`` on poll timeout.

        Raises :class:`ConnectionClosed` on EOF — ``clean`` iff the
        buffer held no partial frame — and, not clean, when the socket
        fails or is closed under the read.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(self._buffer) < FRAME_HEADER.size:
            if not self._fill(deadline):
                return None
        dst, length = FRAME_HEADER.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ConnectionClosed(clean=False)
        total = FRAME_HEADER.size + length
        while len(self._buffer) < total:
            if not self._fill(deadline):
                return None
        payload = bytes(self._buffer[FRAME_HEADER.size : total])
        del self._buffer[:total]
        return dst, payload

    def _fill(self, deadline: float | None) -> bool:
        """Wait until the socket is readable and append what it holds;
        ``False`` past the deadline.

        The one place a read meets a broken socket: ``recv`` failing
        raises ``OSError``, and ``select`` on a socket another thread has
        closed raises ``ValueError`` (its descriptor is -1).  Both are a
        connection closed mid-stream.
        """
        try:
            if deadline is None:
                select.select([self.sock], [], [])
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                readable, _, _ = select.select([self.sock], [], [], remaining)
                if not readable:
                    return False
            chunk = self.sock.recv(1 << 16)
        except (OSError, ValueError):
            raise ConnectionClosed(clean=False) from None
        if not chunk:
            raise ConnectionClosed(clean=not self._buffer)
        self._buffer += chunk
        return True

    def close(self) -> None:
        """Close the underlying socket (idempotent).

        ``shutdown`` first, so a reader blocked in ``select``/``recv``
        on another thread wakes with EOF instead of sleeping through
        the close.
        """
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed or never connected
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass


#: Handshake dataclasses admitted on a control frame, by wire name.
#: Control frames are **JSON, not pickle**: they are decoded before any
#: rendezvous validation has run, i.e. from a peer that has proven
#: nothing yet, and unpickling attacker-supplied bytes is arbitrary
#: code execution.  Every field of both messages is JSON (the welcome's
#: :class:`~repro.cluster.cost.CostModel` is a dataclass of floats/ints,
#: its threshold book travels as :func:`~repro.core.histogram.book_to_wire`
#: lists), so nothing is lost — and JSON round-trips Python floats
#: exactly, keeping cost model and thresholds bit-identical across hosts.
_CTRL_TYPES: dict[str, type] = {
    "WorkerHelloMsg": WorkerHelloMsg,
    "WorkerWelcomeMsg": WorkerWelcomeMsg,
}

#: Required JSON types of every hello field — checked before the hello
#: reaches validation code that assumes well-typed values.
_HELLO_FIELD_TYPES: dict[str, type] = {
    "worker_id": int,
    "protocol_version": int,
    "table_hash": str,
    "host_id": str,
    "pid": int,
}


def _send_ctrl(stream: FrameStream, message: Any) -> None:
    """Ship one handshake dataclass as a JSON control frame."""
    body = dataclasses.asdict(message)
    if body.get("threshold_book") is not None:
        body["threshold_book"] = book_to_wire(body["threshold_book"])
    blob = json.dumps(
        {"kind": type(message).__name__, "body": body}
    ).encode("utf-8")
    stream.send_frame(CTRL_DST, blob)


def _decode_ctrl(payload: bytes, expected: type) -> Any:
    """Decode one control-frame payload, or ``None`` if malformed.

    Strict by construction: unknown kinds, missing/extra/badly-typed
    fields and non-JSON payloads all come back ``None`` (the caller
    treats that as a garbage peer).  No pickle is involved.
    """
    try:
        wrapper = json.loads(payload.decode("utf-8"))
        if _CTRL_TYPES.get(wrapper["kind"]) is not expected:
            return None
        body = dict(wrapper["body"])
        if expected is WorkerHelloMsg:
            for field_name, field_type in _HELLO_FIELD_TYPES.items():
                if not isinstance(body[field_name], field_type):
                    return None
        elif expected is WorkerWelcomeMsg:
            body["held_columns"] = tuple(body["held_columns"])
            body["host_map"] = {
                int(wid): str(host) for wid, host in body["host_map"].items()
            }
            if body["cost"] is not None:
                body["cost"] = CostModel(**body["cost"])
            if body.get("threshold_book") is not None:
                body["threshold_book"] = book_from_wire(
                    body["threshold_book"]
                )
        return expected(**body)
    except Exception:
        return None


def _read_ctrl(stream: FrameStream, timeout: float, expected: type) -> Any:
    """Read one control frame of the expected handshake type, or ``None``."""
    try:
        frame = stream.read_frame(timeout=timeout)
    except ConnectionClosed:
        return None
    if frame is None or frame[0] != CTRL_DST:
        return None
    return _decode_ctrl(frame[1], expected)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _run_socket_worker(
    stream: FrameStream,
    welcome: WorkerWelcomeMsg,
    worker_id: int,
    table: DataTable,
    faults: tuple[FaultPlan, ...],
    attached_nbytes: int = 0,
) -> int:
    """Post-handshake worker; returns the process exit code.

    Runs :func:`~repro.runtime.process.run_worker_loop` on frames from
    the master hub plus the local self-send inbox, and ships any
    exception home as a ``worker_error`` frame.  A master-side EOF means
    the run is over without us (the driver died or reaped us): exit
    quietly.
    """
    local: queue_module.SimpleQueue = queue_module.SimpleQueue()

    def put(dst: int, blob: bytes) -> None:
        # A worker's messages to itself skip the wire — without that
        # every ``row_request`` it answers from its own delegate store
        # would round-trip through the master hub.  Every other
        # destination rides the one connection to the hub.  A send that
        # fails because the master vanished (a disconnect, never a
        # timeout: sends block) is dropped; the next read sees the EOF.
        if dst == worker_id:
            local.put(blob)
            return
        try:
            stream.send_frame(dst, blob)
        except ConnectionError:
            pass

    def next_messages() -> "Sequence[Message] | None":
        try:
            blob: bytes = local.get_nowait()
        except queue_module.Empty:
            try:
                frame = stream.read_frame(timeout=POLL_INTERVAL_SECONDS)
            except ConnectionClosed:
                return None  # master gone; we are orphaned
            if frame is None:
                return ()
            blob = frame[1]
        return pickle.loads(blob)

    def crash() -> None:
        # Simulated hard crash: no goodbye, no shm teardown — the
        # driver's sweep covers the arena.  A socket shares no locks or
        # byte streams with other processes: bytes already handed to the
        # kernel are delivered, buffered fabric sends die with us.
        os._exit(CRASH_EXITCODE)

    try:
        run_worker_loop(
            worker_id,
            table,
            welcome,
            QueueFabric(welcome.n_workers + 1, put),
            next_messages,
            crash,
            attached_nbytes=attached_nbytes,
            faults=faults,
        )
        return 0
    except BaseException as exc:  # noqa: BLE001 - ship any failure home
        try:
            stream.send_frame(
                0,
                pickle.dumps(
                    [worker_error_message(worker_id, exc)],
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
        except OSError:
            pass  # the master is gone too; nothing to report to
        return 1
    finally:
        table = None  # noqa: F841 - drop views before the caller unmaps
        stream.close()


def _dial_and_run(
    address: tuple[str, int],
    worker_id: int,
    table: DataTable,
    *,
    host_id: str | None = None,
    faults: tuple[FaultPlan, ...] = (),
    attached_nbytes: int = 0,
    handshake_timeout: float = 60.0,
) -> int:
    """Dial the master, run the rendezvous handshake, then the event loop.

    Raises :class:`HandshakeError` when the master rejects the hello or
    the welcome never arrives; otherwise returns the worker's exit code.
    """
    resolved_host = host_id or _default_host_id()
    sock = socket.create_connection(address, timeout=handshake_timeout)
    _configure_socket(sock)
    stream = FrameStream(sock)
    try:
        _send_ctrl(
            stream,
            WorkerHelloMsg(
                worker_id=worker_id,
                protocol_version=SOCKET_PROTOCOL_VERSION,
                table_hash=table_fingerprint(table),
                host_id=resolved_host,
                pid=os.getpid(),
            ),
        )
        welcome = _read_ctrl(stream, handshake_timeout, WorkerWelcomeMsg)
        if welcome is None:
            raise HandshakeError(
                f"worker {worker_id}: no welcome from master at "
                f"{address[0]}:{address[1]} within {handshake_timeout:.0f}s"
            )
        if not welcome.ok:
            raise HandshakeError(
                f"master rejected worker {worker_id}: {welcome.error}"
            )
    except BaseException:
        stream.close()
        raise
    return _run_socket_worker(
        stream, welcome, worker_id, table, faults, attached_nbytes
    )


def connect_worker(
    address: str | tuple[str, int],
    worker_id: int,
    table: DataTable,
    *,
    host_id: str | None = None,
    handshake_timeout: float = 60.0,
) -> int:
    """Join a listening socket master as one worker (``repro worker``).

    Dials ``address``, handshakes, runs the worker event loop until the
    shutdown broadcast, and returns the exit code.  A worker joining this
    way takes its :class:`~repro.runtime.base.FaultPlan` s from the
    ``REPRO_FAULT`` variable — read *here*, on the worker's own machine,
    because a remote master has no way to inject a local fault.
    """
    if isinstance(address, str):
        address = parse_address(address)
    return _dial_and_run(
        address,
        worker_id,
        table,
        host_id=host_id,
        faults=message_faults(FaultPlan.from_env()),
        handshake_timeout=handshake_timeout,
    )


def _run_launched_worker(
    address: tuple[str, int],
    worker_id: int,
    table_ref: "DataTable | SharedTableHandle",
    host_id: str,
    faults: tuple[FaultPlan, ...],
) -> None:
    """Process entry of a self-launched worker (``backend="mp"``, and
    ``backend="socket"`` without ``listen``).

    The same dial-in path an external ``repro worker`` takes — the
    only differences are where the table comes from
    (:func:`~repro.runtime.process.worker_table`) and that the master
    passes its *own* host id explicitly: self-launch workers share the
    master's host by construction, so shm peering must work even where
    ``_default_host_id`` would degrade to a process-unique id (no
    readable machine id).
    """
    with worker_table(table_ref) as (table, mapped_nbytes):
        code = _dial_and_run(
            address,
            worker_id,
            table,
            host_id=host_id,
            faults=faults,
            attached_nbytes=mapped_nbytes,
        )
    if code:
        raise SystemExit(code)


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class SocketTransport:
    """The driver side of the process backends: the worker processes,
    the run's shm segments, and the master hub — listener, rendezvous,
    relay threads, liveness.

    The driver-facing surface is ``send`` / ``flush`` / ``recv_master``
    (which raises ``queue.Empty`` on a quiet poll) / ``check_alive`` /
    ``reap_worker`` / ``begin_shutdown`` / ``shutdown`` / ``close``, plus
    the ``fabric`` / ``shm_prefix`` / ``start_method`` attributes the run
    report reads.

    Two modes, chosen by ``RuntimeOptions.listen``:

    * ``None`` — **self-launch**: bind a loopback ephemeral port and
      start the workers as local processes that dial back in.  The shm
      data plane works in full (one host by construction), process exit
      codes back the liveness poll, and the run's fault plans reach the
      workers.
    * ``"host:port"`` — **external**: bind the given address and wait
      ``rendezvous_timeout_seconds`` for ``n_workers`` ``repro worker``
      clients.  ``RuntimeOptions`` refuses fault plans in this mode and
      the master never reads ``REPRO_FAULT``: a remote master cannot
      reach into a worker it did not start, so the variable is set for
      ``repro worker`` on the worker's own machine.  The arena sweep on
      ``reap_worker`` only reaches same-host segments; remote hosts
      clean their own on exit.
    """

    def __init__(
        self,
        n_workers: int,
        table: DataTable,
        placement: dict[int, list[int]],
        cost: CostModel,
        options: RuntimeOptions,
        threshold_book: dict | None = None,
    ) -> None:
        launch = options.listen is None
        self.n_workers = n_workers
        self.placement = placement
        self.cost = cost
        self.options = options
        self.threshold_book = threshold_book or {}
        self.start_method = (
            resolve_start_method(options.start_method)
            if launch
            else "external"
        )
        self.processes: dict[int, Any] = {}
        self.shm_prefix: str | None = (
            new_run_prefix() if options.use_shm else None
        )
        self.table_handle: SharedTableHandle | None = None
        self.host_id = _default_host_id()
        self.table_hash = table_fingerprint(table)
        self._master_inbox: queue_module.SimpleQueue = (
            queue_module.SimpleQueue()
        )
        self._pending_master: list[Message] = []
        self._writers: dict[int, queue_module.SimpleQueue] = {}
        self._threads: list[threading.Thread] = []
        self._conns: dict[int, FrameStream] = {}
        self._closed: dict[int, bool] = {}
        self._reaped: set[int] = set()
        self._lock = threading.Lock()
        self._shutdown_started = False
        self._listener: socket.socket | None = None
        self.fabric = QueueFabric(n_workers + 1, self._put)
        if launch:
            bind_address = ("127.0.0.1", 0)
        else:
            bind_address = parse_address(options.listen)
            if bind_address[0] not in ("127.0.0.1", "::1", "localhost"):
                warnings.warn(
                    f"socket master binding non-loopback address "
                    f"{options.listen!r}: the handshake is JSON, but "
                    f"post-rendezvous protocol frames are pickled — any "
                    f"peer that passes the rendezvous checks can execute "
                    f"code in this cluster.  Bind only on networks you "
                    f"trust (docs/PROTOCOL.md, trust boundary).",
                    RuntimeWarning,
                    stacklevel=2,
                )
        try:
            self._listener = socket.create_server(
                bind_address, backlog=n_workers + 2
            )
            self.address: tuple[str, int] = self._listener.getsockname()[:2]
            if launch:
                self._start_workers(self._share_table(table))
            self._rendezvous()
        except BaseException:
            self.shutdown()
            raise

    # -- start-up -------------------------------------------------------
    def _welcome(
        self, worker_id: int, host_map: dict[int, str]
    ) -> WorkerWelcomeMsg:
        """The start-up record of worker ``worker_id``; ``host_map``
        names every machine's host."""
        return WorkerWelcomeMsg(
            ok=True,
            n_workers=self.n_workers,
            held_columns=tuple(
                sorted(
                    c for c, ws in self.placement.items() if worker_id in ws
                )
            ),
            host_map=host_map,
            shm_prefix=self.shm_prefix,
            cost=self.cost,
            threshold_book=self.threshold_book,
        )

    def _share_table(
        self, table: DataTable
    ) -> "DataTable | SharedTableHandle":
        """What a started worker gets for its table: a handle to the
        table's shm image (made here, unlinked by :meth:`shutdown`) when
        the shm data plane is on, else the table itself."""
        if self.shm_prefix is None:
            return table
        self.table_handle = SharedTableHandle.create(
            table, f"{self.shm_prefix}-t"
        )
        return self.table_handle

    def _start_workers(
        self, table_ref: "DataTable | SharedTableHandle"
    ) -> None:
        """Start each worker as a daemon process that dials back in.

        Each gets the run's :class:`~repro.runtime.base.FaultPlan` s:
        ``options.faults``, else the ``REPRO_FAULT`` variable, read here —
        once per run, and only by code that starts workers.
        """
        context = multiprocessing.get_context(self.start_method)
        faults = message_faults(self.options.faults or FaultPlan.from_env())
        for wid in range(1, self.n_workers + 1):
            process = context.Process(
                target=_run_launched_worker,
                args=(self.address, wid, table_ref, self.host_id, faults),
                name=f"repro-worker-{wid}",
                daemon=True,
            )
            process.start()
            self.processes[wid] = process

    # -- start-up -------------------------------------------------------
    def _rendezvous(self) -> None:
        """Collect ``n_workers`` valid hellos, then welcome all at once.

        The welcome is a barrier on purpose: no worker computes anything
        before the full roster is present, so a failed rendezvous can
        never leave a half-started run.  An invalid hello (wrong
        protocol version, mismatched table hash, duplicate or
        out-of-range worker id, host not on the ``expected_hosts``
        roster, or plain garbage) gets an explanatory unwelcome and its
        connection closed; it does not count towards the roster.

        Hellos are read **concurrently** — an accept thread hands every
        new connection to its own hello-reader thread — so one slow or
        stalled client only occupies its own thread and cannot burn the
        roster-wide rendezvous deadline for everyone else.  When the
        rendezvous ends (either way) the listener is shut down and
        closed, which wakes the accept thread at once; streams still
        waiting on a hello are closed, which unblocks their readers; and
        a hello that arrives too late — queued behind the one that
        completed the roster, or read after it — gets an explanatory
        unwelcome ("already joined", say) and its connection closed.
        """
        deadline = time.monotonic() + self.options.rendezvous_timeout_seconds
        hellos: dict[int, tuple[WorkerHelloMsg, FrameStream]] = {}
        expected = set(range(1, self.n_workers + 1))
        results: queue_module.SimpleQueue = queue_module.SimpleQueue()
        pending_lock = threading.Lock()
        pending: set[FrameStream] = set()
        stop_accepting = threading.Event()
        listener = self._listener

        def refuse(stream: FrameStream, error: str) -> None:
            try:
                _send_ctrl(stream, WorkerWelcomeMsg(ok=False, error=error))
            except OSError:
                pass
            stream.close()

        def turn_away(hello: WorkerHelloMsg | None, stream: FrameStream):
            """Answer a hello read after the rendezvous ended."""
            refuse(
                stream,
                self._validate_hello(hello, hellos)
                or "the rendezvous ended before this hello was admitted",
            )

        def read_hello(stream: FrameStream) -> None:
            hello = _read_ctrl(
                stream, max(0.1, deadline - time.monotonic()), WorkerHelloMsg
            )
            with pending_lock:
                pending.discard(stream)
                if not stop_accepting.is_set():
                    results.put((hello, stream))
                    return
            turn_away(hello, stream)

        def accept_loop() -> None:
            while not stop_accepting.is_set():
                try:
                    sock, _peer = listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    return  # listener shut down or closed under us
                _configure_socket(sock)
                stream = FrameStream(sock)
                with pending_lock:
                    pending.add(stream)
                threading.Thread(
                    target=read_hello,
                    args=(stream,),
                    name="repro-socket-hello",
                    daemon=True,
                ).start()

        listener.settimeout(ACCEPT_POLL_SECONDS)
        acceptor = threading.Thread(
            target=accept_loop, name="repro-socket-accept", daemon=True
        )
        acceptor.start()
        try:
            while len(hellos) < self.n_workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise HandshakeError(
                        f"rendezvous timed out after "
                        f"{self.options.rendezvous_timeout_seconds:.0f}s; "
                        f"missing workers {sorted(expected - set(hellos))}"
                    )
                try:
                    hello, stream = results.get(
                        timeout=min(remaining, POLL_INTERVAL_SECONDS)
                    )
                except queue_module.Empty:
                    # A started worker that exits before its hello will
                    # never send one: fail now, not at the deadline.
                    self.check_alive()
                    continue
                error = self._validate_hello(hello, hellos)
                if error is not None:
                    refuse(stream, error)
                    continue
                hellos[hello.worker_id] = (hello, stream)
        except BaseException:
            for _hello, stream in hellos.values():
                stream.close()
            raise
        finally:
            with pending_lock:
                stop_accepting.set()  # readers turn their hellos away
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:  # pragma: no cover - not every OS allows it
                pass
            acceptor.join(timeout=5.0)
            listener.close()
            self._listener = None
            with pending_lock:
                still_pending = list(pending)
            for stream in still_pending:
                stream.close()  # wakes its hello reader with EOF
            while not results.empty():
                turn_away(*results.get())
        host_map = {0: self.host_id} | {
            wid: hello.host_id for wid, (hello, _) in hellos.items()
        }
        # Writer queues first: a relay towards a worker whose threads are
        # not up yet must queue, never drop.
        for wid in hellos:
            self._writers[wid] = queue_module.SimpleQueue()
        for wid in sorted(hellos):
            hello, stream = hellos[wid]
            _send_ctrl(stream, self._welcome(wid, host_map))
            self._conns[wid] = stream
            writer = threading.Thread(
                target=self._writer_loop,
                args=(wid, self._writers[wid], stream),
                name=f"repro-socket-writer-{wid}",
                daemon=True,
            )
            reader = threading.Thread(
                target=self._reader_loop,
                args=(wid, stream),
                name=f"repro-socket-reader-{wid}",
                daemon=True,
            )
            writer.start()
            reader.start()
            self._threads += [writer, reader]

    def _validate_hello(
        self,
        hello: WorkerHelloMsg | None,
        hellos: dict[int, tuple[WorkerHelloMsg, FrameStream]],
    ) -> str | None:
        """Admission checks of one hello; a string is the rejection reason."""
        if hello is None:
            return "malformed or missing hello frame"
        if hello.protocol_version != SOCKET_PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: master speaks "
                f"{SOCKET_PROTOCOL_VERSION}, worker spoke "
                f"{hello.protocol_version}"
            )
        if not 1 <= hello.worker_id <= self.n_workers:
            return (
                f"worker id {hello.worker_id} out of range 1.."
                f"{self.n_workers}"
            )
        if hello.worker_id in hellos:
            return f"worker id {hello.worker_id} already joined"
        if hello.table_hash != self.table_hash:
            return (
                "table fingerprint mismatch: the worker's data is not "
                "byte-identical to the master's (exact training would "
                "silently diverge)"
            )
        roster = self.options.expected_hosts
        if roster is not None and hello.host_id not in roster:
            return (
                f"host {hello.host_id!r} is not on the expected_hosts "
                f"roster"
            )
        return None

    # -- relay threads --------------------------------------------------
    def _writer_loop(
        self, wid: int, writer: queue_module.SimpleQueue, stream: FrameStream
    ) -> None:
        """Sole sender on one connection; drains even after it breaks."""
        broken = False
        while True:
            item = writer.get()
            if item is _STOP:
                return
            if broken:
                continue  # peer is gone; drop, recovery owns the cleanup
            try:
                stream.send_frame(wid, item)
            except OSError:
                broken = True

    def _reader_loop(self, wid: int, stream: FrameStream) -> None:
        """Route frames from one worker; never blocks on a send.

        Control frames after the handshake are ignored.
        """
        try:
            while True:
                frame = stream.read_frame(timeout=None)
                if frame is None:  # pragma: no cover - None needs a timeout
                    continue
                dst, payload = frame
                if dst >= 0:
                    self._put(dst, payload)
        except ConnectionClosed as closed:
            with self._lock:
                self._closed[wid] = closed.clean

    # -- driver-side sends / receives -----------------------------------
    def _put(self, dst: int, blob: bytes) -> None:
        """The driver fabric's one ``put``: its own inbox for the master,
        else the worker's writer queue — a blob towards a reaped worker
        is dropped."""
        if dst == 0:
            self._master_inbox.put(blob)
            return
        writer = self._writers.get(dst)
        if writer is not None:
            writer.put(blob)

    def send(
        self, src: int, dst: int, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Transport interface: driver-side send towards any machine."""
        self.fabric.send(src, dst, kind, payload, size_bytes)

    def flush(self) -> None:
        """Transport interface: push buffered driver-side sends out."""
        self.fabric.flush()

    def recv_master(self, timeout: float) -> Message:
        """Blocking receive from the master inbox (raises ``queue.Empty``).

        Receiving means the driver is about to go idle, so buffered sends
        are flushed first — the other half of the flush-on-idle rule.
        """
        self.fabric.flush()
        if not self._pending_master:
            self._pending_master.extend(
                pickle.loads(self._master_inbox.get(timeout=timeout))
            )
        return self._pending_master.pop(0)

    # -- liveness -------------------------------------------------------
    def dead_workers(
        self, allow_clean_exit: bool = False
    ) -> list[tuple[int, int]]:
        """Worker ids (with exit codes) that have died.

        A worker this transport started is dead once its process has
        exited, whatever its connection shows, so a killed worker is seen
        at once and keeps its real exit code.  An external worker is dead
        once its connection has closed: a clean EOF counts as exit code 0
        in the shutdown phase (:meth:`begin_shutdown`), anything else as
        1.  ``allow_clean_exit`` tolerates exit code 0 (the shutdown
        phase, where workers legitimately finish after reporting their
        stats).  Reaped workers (see :meth:`reap_worker`) are not listed.
        """
        with self._lock:
            closed = dict(self._closed)
        dead = []
        for wid in range(1, self.n_workers + 1):
            if wid in self._reaped:
                continue
            process = self.processes.get(wid)
            if process is not None:
                code = process.exitcode
            elif wid in closed:
                code = 0 if (closed[wid] and self._shutdown_started) else 1
            else:
                code = None
            if code is None or (allow_clean_exit and code == 0):
                continue
            dead.append((wid, code))
        return dead

    def check_alive(self, allow_clean_exit: bool = False) -> None:
        """Raise :class:`WorkerDiedError` if any worker is gone."""
        dead = self.dead_workers(allow_clean_exit)
        if dead:
            raise WorkerDiedError(*dead[0])

    def reap_worker(self, worker_id: int) -> None:
        """Retire a dead worker the run is recovering from.

        Joins its process, stops its writer thread and closes its
        connection (sends towards it become silent drops in
        :meth:`_put`), and sweeps its shm arena segments immediately —
        recovery must not leak the dead worker's parked ``I_x`` slices
        for the rest of a long run.  Any live peer still holding a
        descriptor into the swept arena tolerates the vanished segment
        (see ``WorkerActor._on_row_response_shm``).  The sweep reaches
        this host only; a remote worker's host cleans its own on exit.
        """
        self._reaped.add(worker_id)
        process = self.processes.pop(worker_id, None)
        if process is not None:
            process.join(timeout=5.0)
        writer = self._writers.pop(worker_id, None)
        if writer is not None:
            writer.put(_STOP)
        stream = self._conns.pop(worker_id, None)
        if stream is not None:
            stream.close()
        if self.shm_prefix is not None:
            unlink_segments(list_segments(f"{self.shm_prefix}-w{worker_id}"))

    def begin_shutdown(self) -> None:
        """Driver hook: clean EOFs from here on count as exit code 0."""
        self._shutdown_started = True

    # -- teardown -------------------------------------------------------
    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Close everything down; escalate terminate → kill. Idempotent.

        The listener and every connection close first (workers see EOF
        and exit as orphans) and the relay threads are joined; then the
        worker processes are terminated, joined and, where needed,
        killed, and every shm segment of the run is removed: the table
        image is unlinked and the run prefix swept, which reclaims arena
        segments of workers that died without cleaning up.
        """
        self._shutdown_started = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close races are benign
                pass
            self._listener = None
        for writer in self._writers.values():
            writer.put(_STOP)
        self._writers = {}
        for stream in self._conns.values():
            stream.close()
        self._conns = {}
        for thread in self._threads:
            thread.join(timeout=join_timeout)
        self._threads = []
        stop_processes(self.processes.values(), join_timeout)
        self.processes = {}
        if self.table_handle is not None:
            self.table_handle.unlink()
            self.table_handle = None
        if self.shm_prefix is not None:
            unlink_segments(list_segments(self.shm_prefix))

    def close(self) -> None:
        """Transport interface alias for :meth:`shutdown`."""
        self.shutdown()


class SocketRuntime(ProcessRuntime):
    """Training over TCP, with workers on any host: the ``mp`` runtime
    under its own name, which also takes ``RuntimeOptions.listen``."""

    name = "socket"
