"""Socket backend: the TreeServer protocol over persistent TCP.

The third substrate behind the :class:`~repro.runtime.base.Transport`
seam — and the first that can leave one host.  The wire format is
deliberately minimal: **length-prefixed pickled frames** over persistent
TCP connections, one connection per worker, with the master as a frame
hub.

Topology — a hub, not a star of queues:

* the master binds ``RuntimeOptions.listen`` (or a loopback ephemeral
  port in self-launch mode) and every worker dials in once;
* a frame is ``(dst: int32, length: uint64, payload)``.  Frames with
  ``dst == 0`` are decoded by the master; frames addressed to another
  worker are **relayed verbatim at the frame layer** — the master never
  unpickles worker-to-worker traffic, so the protocol's rule that the
  master stays out of the row-id *data* path survives (Section V): it
  forwards opaque bytes, it never touches content;
* the payload of a protocol frame is exactly a :class:`QueueFabric`
  blob (one pickled ``list[Message]``), so the mp backend's pickle-once
  coalescing is reused unchanged — the socket shims just swap a queue
  put for one framed send.

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
:class:`~repro.core.tasks.WorkerWelcomeMsg` carrying the cluster
shape, the worker's held columns, the host map and the transport knobs.
The host map drives the ``ShmSlice`` rule: descriptors are only sent to
peers whose host id matches the sender's (``WorkerActor.shm_peers``);
everyone else gets inline row ids.

Trust boundary: the rendezvous control frames are **JSON** (never
pickle — they arrive from peers that have proven nothing yet, and
unpickling pre-auth bytes would hand any port scanner code execution),
but post-rendezvous protocol frames are **pickle** — this transport is
for clusters you own, exactly like the paper's deployment.  It performs
no authentication beyond the rendezvous checks (the table fingerprint
acts as a weak shared secret), must not face a hostile network, and
warns when told to bind a non-loopback address.

Only TCP is written here.  :class:`SocketRuntime` subclasses
:class:`~repro.runtime.process.ProcessRuntime` and only swaps the
transport, and :class:`SocketTransport` extends the mp backend's
:class:`~repro.runtime.process.WorkerPool`, so the driver loop, the
failure semantics, spawning, reaping, the terminate → join → kill
escalation and the shm sweep are the mp code: half-open or closed
sockets surface through the same liveness poll into the same
``fault_policy`` path, with ``WorkerDiedError`` / recover semantics
identical to mp.  Over TCP there are no exit codes, so a clean EOF
(orderly FIN with an empty frame buffer) counts as exit 0 only once the
driver has entered its shutdown phase
(:meth:`SocketTransport.begin_shutdown`); any earlier EOF is a death.
In self-launch mode the real subprocess exit codes are additionally
available and take precedence (so the injected ``CRASH_EXITCODE`` still
surfaces), and the pool hands each worker the run's
:class:`~repro.runtime.base.FaultPlan` exactly as on mp.  An
external-mode master starts no worker, so it takes no plan: ``repro
worker`` reads ``REPRO_FAULT`` on its own machine.

Parity: the loopback self-launch path trains **bit-identical** models
to ``sim`` and ``mp`` (pinned by ``tests/test_runtime_socket.py``) —
same master state machine, same ``min (score, column)`` arbitration,
same seed-derived randomness.
"""

from __future__ import annotations

import dataclasses
import json
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
from ..data.shm import SharedTableHandle
from ..data.table import DataTable, table_fingerprint
from .base import FaultPlan, RuntimeBackendError, RuntimeOptions
from .process import (
    CRASH_EXITCODE,
    ProcessRuntime,
    QueueFabric,
    WorkerPool,
    _decode,
    resolve_start_method,
    run_worker_loop,
    worker_error_message,
    worker_table,
)

#: Frame header: ``(dst: int32, payload length: uint64)``, network order.
FRAME_HEADER = struct.Struct("!iQ")

#: Header ``dst`` of rendezvous control frames (hello / welcome) —
#: never a machine id, so control and protocol traffic cannot collide.
CTRL_DST = -1

#: Upper bound on a single frame's payload; anything larger is treated
#: as stream corruption (a garbage client, not a real peer).
MAX_FRAME_BYTES = 1 << 40

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
        buffer held no partial frame.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(self._buffer) < FRAME_HEADER.size:
            if not self._wait_readable(deadline):
                return None
            self._recv_more()
        dst, length = FRAME_HEADER.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ConnectionClosed(clean=False)
        total = FRAME_HEADER.size + length
        while len(self._buffer) < total:
            if not self._wait_readable(deadline):
                return None
            self._recv_more()
        payload = bytes(self._buffer[FRAME_HEADER.size : total])
        del self._buffer[:total]
        return dst, payload

    def _wait_readable(self, deadline: float | None) -> bool:
        """Block until the socket is readable; ``False`` past the deadline."""
        if deadline is None:
            select.select([self.sock], [], [])
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        readable, _, _ = select.select([self.sock], [], [], remaining)
        return bool(readable)

    def _recv_more(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionClosed(clean=not self._buffer)
        self._buffer += chunk

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
#: code execution.  Every field of both messages is a JSON scalar (the
#: welcome's :class:`~repro.cluster.cost.CostModel` is a dataclass of
#: floats/ints), so nothing is lost — and JSON round-trips Python
#: floats exactly, keeping the cost model bit-identical across hosts.
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
    blob = json.dumps(
        {"kind": type(message).__name__, "body": dataclasses.asdict(message)}
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
    except (ConnectionClosed, OSError):
        return None
    if frame is None or frame[0] != CTRL_DST:
        return None
    return _decode_ctrl(frame[1], expected)


# ----------------------------------------------------------------------
# queue shims: what QueueFabric talks to on each side of the wire
# ----------------------------------------------------------------------
class _QueueShim:
    """A :class:`QueueFabric` destination that is not a ``multiprocessing``
    queue: only ``put`` does anything — there is no feeder thread to
    cancel, and the fabric's teardown closes nothing the shim owns."""

    def close(self) -> None:
        """Nothing to release."""

    def cancel_join_thread(self) -> None:
        """No feeder thread exists."""


class _SocketQueue(_QueueShim):
    """Worker-side shim: ``put(blob)`` -> one framed send towards ``dst``.

    Every destination rides the single connection to the master hub,
    which relays by header.  A send failing because the master vanished
    (a disconnect — never a timeout; sends are blocking) is dropped —
    the worker's event loop notices the EOF next time it reads and
    exits as orphaned, mirroring a dead mp queue.  Any other failure
    propagates: silently dropping protocol messages on a live
    connection would wedge the run.
    """

    def __init__(self, stream: FrameStream, dst: int) -> None:
        self._stream = stream
        self._dst = dst

    def put(self, blob: bytes) -> None:
        try:
            self._stream.send_frame(self._dst, blob)
        except ConnectionError:
            pass  # master gone; orphan exit follows on the next read


class _LocalQueue(_QueueShim):
    """In-process shim: blobs go straight into a local inbox.

    The master's messages to itself land in the driver inbox this way,
    and a worker's messages to itself skip the wire — without that every
    ``row_request`` a worker answers from its own delegate store would
    round-trip through the master hub.
    """

    def __init__(self, inbox: queue_module.SimpleQueue) -> None:
        self._inbox = inbox

    def put(self, blob: bytes) -> None:
        self._inbox.put(blob)


class _RelaySender(_QueueShim):
    """Master-side shim for a worker destination: enqueue to its writer.

    Looks the writer queue up per put so a send towards a reaped worker
    is silently dropped — the socket equivalent of mp's drained dead
    inbox.
    """

    def __init__(self, transport: "SocketTransport", dst: int) -> None:
        self._transport = transport
        self._dst = dst

    def put(self, blob: bytes) -> None:
        writer = self._transport._writers.get(self._dst)
        if writer is not None:
            writer.put(blob)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _run_socket_worker(
    stream: FrameStream,
    welcome: WorkerWelcomeMsg,
    worker_id: int,
    table: DataTable,
    host_id: str,
    fault: FaultPlan | None,
    attached_nbytes: int = 0,
) -> int:
    """Post-handshake worker; returns the process exit code.

    Runs :func:`~repro.runtime.process.run_worker_loop` on frames from
    the master hub plus the local self-send queue, and ships any
    exception home as a ``worker_error`` frame.  A master-side EOF means
    the run is over without us (driver died or reaped us) — exit quietly
    like an orphaned mp worker.
    """
    local: queue_module.SimpleQueue = queue_module.SimpleQueue()
    queues: list[Any] = [
        _LocalQueue(local) if dst == worker_id else _SocketQueue(stream, dst)
        for dst in range(welcome.n_workers + 1)
    ]

    def next_messages() -> "Sequence[Message] | None":
        try:
            blob: Any = local.get_nowait()
        except queue_module.Empty:
            try:
                frame = stream.read_frame(
                    timeout=welcome.poll_interval_seconds
                )
            except (ConnectionClosed, OSError):
                return None  # master gone; we are orphaned
            if frame is None:
                return ()
            blob = frame[1]
        return _decode(blob)

    def crash() -> None:
        # Simulated hard crash.  Unlike mp queues, a socket shares no
        # cross-process locks or byte streams — bytes already handed to
        # the kernel are delivered, buffered fabric sends die with us —
        # so no draining is needed; ``os._exit`` is already clean at the
        # transport layer.
        os._exit(CRASH_EXITCODE)

    try:
        cost = welcome.cost
        assert isinstance(cost, CostModel)
        run_worker_loop(
            worker_id,
            table,
            set(welcome.held_columns),
            cost,
            QueueFabric(queues, max_batch=welcome.coalesce_max_messages),
            next_messages,
            crash,
            shm_prefix=welcome.shm_prefix,
            shm_threshold_bytes=welcome.shm_threshold_bytes,
            threshold_book=welcome.threshold_book,
            shm_peers={
                wid
                for wid, peer_host in welcome.host_map.items()
                if wid != 0 and peer_host == host_id
            },
            attached_nbytes=attached_nbytes,
            fault=fault,
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
    fault: FaultPlan | None = None,
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
        stream,
        welcome,
        worker_id,
        table,
        resolved_host,
        fault,
        attached_nbytes,
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
    way takes its :class:`~repro.runtime.base.FaultPlan` from the
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
        fault=FaultPlan.from_env(),
        handshake_timeout=handshake_timeout,
    )


def _launched_worker_main(
    address: tuple[str, int],
    worker_id: int,
    table_ref: "DataTable | SharedTableHandle",
    host_id: str,
    fault: FaultPlan | None,
) -> None:
    """Subprocess entry of the loopback self-launch mode.

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
            fault=fault,
            attached_nbytes=mapped_nbytes,
        )
    if code:
        raise SystemExit(code)


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class SocketTransport(WorkerPool):
    """The master hub: listener, rendezvous, relay threads, liveness.

    The worker pool and the driver-facing surface (``send`` / ``flush`` /
    ``recv_master`` / ``check_alive`` / ``reap_worker`` / ``shutdown`` /
    ``close`` plus the ``fabric`` / ``shm_prefix`` / ``start_method``
    attributes) are :class:`~repro.runtime.process.WorkerPool`'s, so
    :class:`SocketRuntime` reuses the whole mp driver loop unchanged.
    What is written here is TCP: how a death shows (:meth:`dead_workers`
    from EOFs, :meth:`begin_shutdown`) and the links a reap or a
    shutdown closes.

    Two modes, chosen by ``RuntimeOptions.listen``:

    * ``None`` — **self-launch**: bind a loopback ephemeral port and
      spawn the workers as local subprocesses that dial back in.  CI's
      socket path, pinned bit-identical to sim/mp; the shm data plane
      works in full (one host by construction), real subprocess exit
      codes back the liveness poll, and the run's fault plan reaches the
      workers as on mp.
    * ``"host:port"`` — **external**: bind the given address and wait
      ``rendezvous_timeout_seconds`` for ``n_workers`` ``repro worker``
      clients.  ``RuntimeOptions`` refuses a fault plan in this mode and
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
        super().__init__(
            n_workers,
            options,
            resolve_start_method(options.start_method)
            if launch
            else "external",
        )
        # Hist-mode equi-depth thresholds, shipped to every worker inside
        # the rendezvous welcome (JSON wire form; empty when all exact).
        self.threshold_book = threshold_book or {}
        self.host_id = _default_host_id()
        self.table_hash = table_fingerprint(table)
        self._master_inbox: queue_module.SimpleQueue = (
            queue_module.SimpleQueue()
        )
        self._writers: dict[int, queue_module.SimpleQueue] = {}
        self._threads: list[threading.Thread] = []
        self._conns: dict[int, FrameStream] = {}
        self._closed: dict[int, bool] = {}
        self._reaped: set[int] = set()
        self._lock = threading.Lock()
        self._shutdown_started = False
        self._listener: socket.socket | None = None
        self.fabric = QueueFabric(
            [_LocalQueue(self._master_inbox)]
            + [_RelaySender(self, wid) for wid in range(1, n_workers + 1)],
            max_batch=options.coalesce_max_messages,
        )
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
                table_ref = self._share_table(table)
                self._start_workers(
                    _launched_worker_main,
                    lambda wid: (self.address, wid, table_ref, self.host_id),
                    "repro-socket-worker",
                )
            held = {
                wid: tuple(
                    sorted(c for c, ws in placement.items() if wid in ws)
                )
                for wid in range(1, n_workers + 1)
            }
            self._rendezvous(held, cost)
        except BaseException:
            self.shutdown()
            raise

    # -- start-up -------------------------------------------------------
    def _rendezvous(
        self, held: dict[int, tuple[int, ...]], cost: CostModel
    ) -> None:
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
        roster-wide rendezvous deadline for everyone else.  Streams
        still waiting on a hello when the rendezvous ends (either way)
        are closed, which unblocks their readers.
        """
        deadline = time.monotonic() + self.options.rendezvous_timeout_seconds
        hellos: dict[int, tuple[WorkerHelloMsg, FrameStream]] = {}
        expected = set(range(1, self.n_workers + 1))
        results: queue_module.SimpleQueue = queue_module.SimpleQueue()
        pending_lock = threading.Lock()
        pending: set[FrameStream] = set()
        stop_accepting = threading.Event()

        def read_hello(stream: FrameStream) -> None:
            hello = _read_ctrl(
                stream, max(0.1, deadline - time.monotonic()), WorkerHelloMsg
            )
            with pending_lock:
                pending.discard(stream)
            results.put((hello, stream))

        def accept_loop() -> None:
            while not stop_accepting.is_set():
                try:
                    sock, _peer = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    return  # listener closed under us (shutdown path)
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

        self._listener.settimeout(0.1)
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
                    hello, stream = results.get(timeout=remaining)
                except queue_module.Empty:
                    continue
                error = self._validate_hello(hello, hellos)
                if error is not None:
                    try:
                        _send_ctrl(
                            stream, WorkerWelcomeMsg(ok=False, error=error)
                        )
                    except OSError:
                        pass
                    stream.close()
                    continue
                hellos[hello.worker_id] = (hello, stream)
        except BaseException:
            for _hello, stream in hellos.values():
                stream.close()
            raise
        finally:
            stop_accepting.set()
            acceptor.join(timeout=5.0)
            with pending_lock:
                still_pending = list(pending)
            for stream in still_pending:
                stream.close()  # wakes its hello reader with EOF
        host_map = {0: self.host_id} | {
            wid: hello.host_id for wid, (hello, _) in hellos.items()
        }
        # Writer queues first: a relay towards a worker whose threads are
        # not up yet must queue, never drop.
        for wid in hellos:
            self._writers[wid] = queue_module.SimpleQueue()
        for wid in sorted(hellos):
            hello, stream = hellos[wid]
            _send_ctrl(
                stream,
                WorkerWelcomeMsg(
                    ok=True,
                    n_workers=self.n_workers,
                    held_columns=held[wid],
                    host_map=host_map,
                    shm_prefix=self.shm_prefix,
                    shm_threshold_bytes=self.options.shm_threshold_bytes,
                    coalesce_max_messages=self.options.coalesce_max_messages,
                    poll_interval_seconds=self.options.poll_interval_seconds,
                    cost=cost,
                    threshold_book=book_to_wire(self.threshold_book),
                ),
            )
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
        """Route frames from one worker; never blocks on a send."""
        clean = False
        try:
            while True:
                frame = stream.read_frame(timeout=None)
                if frame is None:  # pragma: no cover - None needs a timeout
                    continue
                dst, payload = frame
                if dst == 0:
                    self._master_inbox.put(payload)
                elif dst > 0:
                    writer = self._writers.get(dst)
                    if writer is not None:
                        writer.put(payload)
                # Control frames after the handshake are ignored.
        except ConnectionClosed as closed:
            clean = closed.clean
        except OSError:
            clean = False
        with self._lock:
            self._closed[wid] = clean

    # -- liveness -------------------------------------------------------
    def _exit_code(self, wid: int, clean: bool) -> int:
        """Best-available exit code for a closed connection.

        Self-launch mode asks the real subprocess (so the injected
        ``CRASH_EXITCODE`` survives); over a bare socket the only signal
        is the EOF itself — clean counts as 0 only in the shutdown
        phase, anything earlier is a death (code 1).
        """
        process = self.processes.get(wid)
        if process is not None:
            process.join(timeout=5.0)
            if process.exitcode is not None:
                return process.exitcode
        return 0 if (clean and self._shutdown_started) else 1

    def dead_workers(
        self, allow_clean_exit: bool = False
    ) -> list[tuple[int, int]]:
        """Worker ids (with exit codes) whose connections have closed."""
        with self._lock:
            closed = [
                (wid, clean)
                for wid, clean in self._closed.items()
                if wid not in self._reaped
            ]
        dead = []
        for wid, clean in closed:
            code = self._exit_code(wid, clean)
            if allow_clean_exit and code == 0:
                continue
            dead.append((wid, code))
        return dead

    def _release_worker(self, worker_id: int) -> None:
        """Stop the reaped worker's writer thread and close its
        connection; frames towards it become silent drops in
        :class:`_RelaySender`."""
        self._reaped.add(worker_id)
        writer = self._writers.pop(worker_id, None)
        if writer is not None:
            writer.put(_STOP)
        stream = self._conns.pop(worker_id, None)
        if stream is not None:
            stream.close()

    def begin_shutdown(self) -> None:
        """Driver hook: clean EOFs from here on count as exit code 0."""
        self._shutdown_started = True

    # -- teardown -------------------------------------------------------
    def _disconnect(self, join_timeout: float) -> None:
        """Close the listener and every connection (workers see EOF and
        exit as orphans), then join the relay threads."""
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


class SocketRuntime(ProcessRuntime):
    """Training over TCP: the mp driver loop on the socket transport.

    Everything above the transport — the master event loop, fault
    policies, recovery, shutdown invariants, cluster report — is
    inherited from :class:`~repro.runtime.process.ProcessRuntime`
    unchanged; only the substrate the messages ride differs.
    """

    name = "socket"
    transport_class = SocketTransport
