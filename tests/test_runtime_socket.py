"""The socket runtime: parity, rendezvous, recovery, shutdown hygiene.

The headline guarantee mirrors the mp suite: ``TreeServer(...,
backend="socket")`` — the protocol over length-prefixed pickled frames
on persistent TCP, master as frame hub — trains forests **bit-identical**
to the simulator and the mp backend on the same table, config and seed,
with the shared-memory data plane on and off, and even when a worker is
hard-killed mid-run under ``fault_policy="recover"``.

The socket-only surface is pinned here too: the rendezvous handshake
rejects bad peers (wrong protocol version, mismatched table fingerprint,
out-of-range or duplicate worker ids, hosts missing from the roster)
with explanatory unwelcomes while letting the real roster through, the
external ``--listen`` / ``repro worker`` mode works with per-host shm
gating (different host ids fall back to inline row ids), a half-open
socket surfaces as :class:`WorkerDiedError` within the timeout, and a
finished run leaks neither subprocesses, shm segments, nor sockets.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import os
import socket as socket_module
import threading

import pytest

from repro import SystemConfig, TreeConfig, TreeServer, random_forest_job, trees_equal
from repro.datasets import dataset_spec, generate
from repro.runtime import (
    FaultPlan,
    ProcessRuntime,
    RuntimeOptions,
    SocketRuntime,
    WorkerDiedError,
    create_runtime,
)
from repro.runtime.base import FAULT_ENV
from repro.runtime.socket import (
    CTRL_DST,
    SOCKET_PROTOCOL_VERSION,
    ConnectionClosed,
    FrameStream,
    HandshakeError,
    connect_worker,
    parse_address,
)

#: CI runs this suite twice — REPRO_MP_SHM=1 and =0 — exactly like the mp
#: suite, so the parity pins cover both data planes.
SHM_DEFAULT = os.environ.get("REPRO_MP_SHM", "1").lower() not in (
    "0", "off", "false",
)


def _options(**kw) -> RuntimeOptions:
    kw.setdefault("message_timeout_seconds", 15.0)
    kw.setdefault("use_shm", SHM_DEFAULT)
    return RuntimeOptions(**kw)


def _table(name="higgs_boson"):
    return generate(dataset_spec(name, small=True))


def _system(n_workers=3, **kw):
    table_rows = kw.pop("table_rows", 700)
    return SystemConfig(
        n_workers=n_workers, compers_per_worker=2, **kw
    ).scaled_to(table_rows)


def _fit(backend, table, jobs, n_workers=3, options=None):
    server = TreeServer(
        _system(n_workers, table_rows=table.n_rows),
        backend=backend,
        runtime_options=options or _options(),
    )
    return server.fit(table, jobs)


def assert_bit_identical(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert trees_equal(a, b)
        assert a.to_dict() == b.to_dict()


def _repro_segments():
    from repro.data.shm import list_segments

    return list_segments()


def _open_socket_count() -> int:
    """Sockets currently open in this process (Linux procfs)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


def _free_port() -> int:
    with socket_module.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _dial(port, deadline_seconds=10.0) -> FrameStream:
    """Connect to a master that may still be binding its listener."""
    import time

    deadline = time.monotonic() + deadline_seconds
    while True:
        try:
            return FrameStream(
                socket_module.create_connection(("127.0.0.1", port), timeout=10)
            )
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


# ----------------------------------------------------------------------
# parity: the acceptance pin
# ----------------------------------------------------------------------
class TestParity:
    def test_three_worker_loopback_matches_sim_and_mp(self):
        """One model, three substrates — with and without shm."""
        table = _table()
        jobs = [random_forest_job("rf", 4, TreeConfig(max_depth=8), seed=5)]
        reference = _fit("sim", table, jobs).trees("rf")
        for use_shm in (True, False):
            options = _options(use_shm=use_shm)
            mp_trees = _fit("mp", table, jobs, options=options).trees("rf")
            sock = _fit("socket", table, jobs, options=options)
            assert_bit_identical(reference, mp_trees)
            assert_bit_identical(reference, sock.trees("rf"))
            assert sock.backend == "socket"
            assert sock.wall_seconds > 0
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_transport_counters_and_no_leaked_sockets(self):
        sockets_before = _open_socket_count()
        table = _table("covtype")
        jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=1)]
        report = _fit("socket", table, jobs, n_workers=2)
        transport = report.cluster.transport
        assert transport["start_method"] != "external"  # self-launch mode
        assert transport["messages_sent"] > 0
        assert transport["bytes_pickled"] > 0
        assert set(transport["per_worker"]) == {1, 2}
        # Listener, per-worker connections and worker ends are all closed.
        assert _open_socket_count() <= sockets_before
        assert multiprocessing.active_children() == []
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
        report = _fit("socket", table, jobs, n_workers=2)
        assert_bit_identical(reference, report.trees("rf"))
        mapped = report.cluster.transport["shm_bytes_mapped"]
        if SHM_DEFAULT:
            image = sum(c.nbytes for c in table.columns) + table.target.nbytes
            assert mapped > 2 * image
        else:
            assert mapped == 0
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_column_tasks_use_both_full_replica_workers(self):
        """Both workers hold every column, so column tasks spread over
        them instead of all answering from worker 1."""
        table = _table()
        system = SystemConfig(
            n_workers=2,
            compers_per_worker=2,
            column_replication=2,
            tau_subtree=1,
            tau_dfs=1,
        )
        jobs = [random_forest_job("rf", 2, TreeConfig(max_depth=6), seed=1)]
        reference = TreeServer(system).fit(table, jobs).trees("rf")
        report = TreeServer(
            system, backend="socket", runtime_options=_options()
        ).fit(table, jobs)
        assert_bit_identical(reference, report.trees("rf"))
        per_worker = report.cluster.transport["per_worker"]
        assert per_worker[1]["messages_sent"] > 0
        assert per_worker[2]["messages_sent"] > 0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# rendezvous: external mode, admission checks, timeout
# ----------------------------------------------------------------------
class TestRendezvous:
    def test_external_mode_rejections_then_parity(self):
        """A master waiting on ``--listen`` turns away a garbage frame,
        a wrong protocol version, a mismatched table fingerprint, an
        out-of-range worker id and an off-roster host — each with an
        explanatory unwelcome — then trains bit-identically with the two
        real workers.  Distinct host ids force the inline row-id
        fallback (no shm descriptors cross hosts)."""
        from repro.core.tasks import WorkerHelloMsg, WorkerWelcomeMsg
        from repro.runtime.socket import _read_ctrl, _send_ctrl

        table = _table("covtype")
        jobs = [random_forest_job("rf", 3, TreeConfig(max_depth=6), seed=9)]
        reference = _fit("sim", table, jobs).trees("rf")
        port = _free_port()
        options = _options(
            listen=f"127.0.0.1:{port}",
            expected_hosts=("host-a", "host-b"),
            rendezvous_timeout_seconds=30.0,
        )
        result: dict = {}

        def run_master():
            try:
                result["report"] = _fit(
                    "socket", table, jobs, n_workers=2, options=options
                )
            except BaseException as error:  # pragma: no cover - diagnostics
                result["error"] = error

        master = threading.Thread(target=run_master, daemon=True)
        master.start()

        from repro.data.table import table_fingerprint

        good_hash = table_fingerprint(table)

        def hello(**kw):
            kw.setdefault("protocol_version", SOCKET_PROTOCOL_VERSION)
            kw.setdefault("table_hash", good_hash)
            kw.setdefault("host_id", "host-a")
            return WorkerHelloMsg(**kw)

        assert SOCKET_PROTOCOL_VERSION == 7
        rejected = [
            (hello(worker_id=1, protocol_version=999), "protocol version"),
            # v6 masters freed every leaf child's side with a zero-count
            # expect_fetches; a v7 delegate never stores those sides.
            (hello(worker_id=1, protocol_version=6), "protocol version"),
            # v5 replied to shutdown with one field per counter; v6 ships
            # the counter records whole.
            (hello(worker_id=1, protocol_version=5), "protocol version"),
            # v4 welcomed with three transport knobs that v5 dropped; its
            # hello still decodes, so it gets a clear version rejection.
            (hello(worker_id=1, protocol_version=4), "protocol version"),
            # v3 answered hist column tasks with per-bin summaries and
            # ``None`` placeholders, which v4 reads as "no split".
            (hello(worker_id=1, protocol_version=3), "protocol version"),
            (hello(worker_id=1, table_hash="0" * 64), "fingerprint"),
            (hello(worker_id=7), "out of range"),
            (hello(worker_id=1, host_id="host-evil"), "expected_hosts"),
        ]
        for bad, needle in rejected:
            stream = _dial(port)
            try:
                _send_ctrl(stream, bad)
                welcome = _read_ctrl(stream, 10.0, WorkerWelcomeMsg)
                assert welcome is not None and not welcome.ok
                assert needle in welcome.error
            finally:
                stream.close()
        # A non-hello frame gets an explanatory unwelcome too.
        stream = _dial(port)
        try:
            stream.send_frame(CTRL_DST, b"not json at all")
            welcome = _read_ctrl(stream, 10.0, WorkerWelcomeMsg)
            assert welcome is not None and not welcome.ok
            assert "hello" in welcome.error
        finally:
            stream.close()

        # A stalled client that connects but never sends a hello must
        # not block the real workers: hellos are read concurrently, so
        # it only occupies its own reader thread, not the roster-wide
        # rendezvous deadline.
        stalled = _dial(port)

        # The real roster: two `repro worker`-equivalent clients with
        # distinct host ids (inline fallback across "hosts").
        codes: dict[int, int] = {}

        def run_worker(wid, host):
            codes[wid] = connect_worker(
                ("127.0.0.1", port), wid, table, host_id=host
            )

        workers = [
            threading.Thread(
                target=run_worker, args=(1, "host-a"), daemon=True
            ),
            threading.Thread(
                target=run_worker, args=(2, "host-b"), daemon=True
            ),
        ]
        for thread in workers:
            thread.start()
        master.join(timeout=120.0)
        for thread in workers:
            thread.join(timeout=30.0)
        stalled.close()
        assert not master.is_alive()
        if "error" in result:
            raise result["error"]
        report = result["report"]
        assert_bit_identical(reference, report.trees("rf"))
        assert report.cluster.transport["start_method"] == "external"
        assert codes == {1: 0, 2: 0}
        assert _repro_segments() == []

    def test_duplicate_worker_id_rejected(self):
        """Two clients claiming worker id 1: exactly one gets the seat,
        the other is turned away with "already joined", and the run
        completes.  Hellos are read concurrently (so a stalled client
        cannot burn the rendezvous deadline), which makes arrival order
        between near-simultaneous claims arbitrary — as it always is on
        a real network — so this pins the invariant, not the winner."""
        from repro.core.tasks import WorkerHelloMsg, WorkerWelcomeMsg
        from repro.data.table import table_fingerprint
        from repro.runtime.socket import (
            _read_ctrl,
            _run_socket_worker,
            _send_ctrl,
        )

        table = _table("covtype")
        jobs = [random_forest_job("rf", 1, TreeConfig(max_depth=4), seed=2)]
        port = _free_port()
        options = _options(
            listen=f"127.0.0.1:{port}", rendezvous_timeout_seconds=30.0
        )
        result: dict = {}

        def run_master():
            try:
                result["report"] = _fit(
                    "socket", table, jobs, n_workers=2, options=options
                )
            except BaseException as error:  # pragma: no cover - diagnostics
                result["error"] = error

        master = threading.Thread(target=run_master, daemon=True)
        master.start()

        def hello(wid):
            return WorkerHelloMsg(
                worker_id=wid,
                protocol_version=SOCKET_PROTOCOL_VERSION,
                table_hash=table_fingerprint(table),
                host_id="host-dup",
            )

        claimants = [_dial(port), _dial(port)]
        for stream in claimants:
            _send_ctrl(stream, hello(1))
        # Worker 2 completes the roster so the barrier welcome can go
        # out to whichever claimant won seat 1.
        second = threading.Thread(
            target=lambda: connect_worker(
                ("127.0.0.1", port), 2, table, host_id="host-dup"
            ),
            daemon=True,
        )
        second.start()
        replies: dict[int, WorkerWelcomeMsg | None] = {}

        def read_reply(index):
            replies[index] = _read_ctrl(
                claimants[index], 30.0, WorkerWelcomeMsg
            )

        readers = [
            threading.Thread(target=read_reply, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60.0)
        assert all(reply is not None for reply in replies.values())
        winners = [i for i, reply in replies.items() if reply.ok]
        losers = [i for i, reply in replies.items() if not reply.ok]
        assert len(winners) == 1 and len(losers) == 1
        assert "already joined" in replies[losers[0]].error
        claimants[losers[0]].close()
        # The winning connection serves the run as worker 1.
        code = _run_socket_worker(
            claimants[winners[0]],
            replies[winners[0]],
            1,
            table,
            (),
        )
        assert code == 0
        master.join(timeout=120.0)
        second.join(timeout=30.0)
        assert not master.is_alive()
        if "error" in result:
            raise result["error"]
        assert result["report"].counters.trees_completed == 1

    def test_hello_queued_behind_the_full_roster_is_turned_away(
        self, monkeypatch
    ):
        """A hello still queued when the roster completes gets its
        unwelcome at once and its connection closed, instead of silence
        until the client's own handshake timeout.  One seat, two
        claimants: the first hello's admission check is held for a
        second, so the second hello is read and queued behind it before
        the roster closes."""
        import time

        from repro.core.tasks import WorkerHelloMsg, WorkerWelcomeMsg
        from repro.data.table import table_fingerprint
        from repro.runtime.socket import (
            SocketTransport,
            _read_ctrl,
            _run_socket_worker,
            _send_ctrl,
        )

        checking = threading.Event()
        real_validate = SocketTransport._validate_hello

        def slow_first_check(self, hello, hellos):
            if not checking.is_set():
                checking.set()
                time.sleep(1.0)
            return real_validate(self, hello, hellos)

        monkeypatch.setattr(
            SocketTransport, "_validate_hello", slow_first_check
        )
        table = _table("covtype")
        jobs = [random_forest_job("rf", 1, TreeConfig(max_depth=3), seed=2)]
        port = _free_port()
        options = _options(
            listen=f"127.0.0.1:{port}", rendezvous_timeout_seconds=30.0
        )
        result: dict = {}

        def run_master():
            try:
                result["report"] = _fit(
                    "socket", table, jobs, n_workers=1, options=options
                )
            except BaseException as error:  # pragma: no cover - diagnostics
                result["error"] = error

        master = threading.Thread(target=run_master, daemon=True)
        master.start()
        hello = WorkerHelloMsg(
            worker_id=1,
            protocol_version=SOCKET_PROTOCOL_VERSION,
            table_hash=table_fingerprint(table),
            host_id="host-late",
        )
        first = _dial(port)
        _send_ctrl(first, hello)
        assert checking.wait(timeout=30.0)
        late = _dial(port)
        _send_ctrl(late, hello)
        started = time.monotonic()
        unwelcome = _read_ctrl(late, 10.0, WorkerWelcomeMsg)
        assert unwelcome is not None and not unwelcome.ok
        assert "already joined" in unwelcome.error
        assert time.monotonic() - started < 10.0
        assert _read_ctrl(late, 10.0, WorkerWelcomeMsg) is None  # EOF
        late.close()
        welcome = _read_ctrl(first, 30.0, WorkerWelcomeMsg)
        assert welcome is not None and welcome.ok
        assert _run_socket_worker(first, welcome, 1, table, ()) == 0
        master.join(timeout=120.0)
        assert not master.is_alive()
        if "error" in result:
            raise result["error"]
        assert result["report"].counters.trees_completed == 1

    def test_rendezvous_does_not_wait_out_the_accept_poll(self, monkeypatch):
        """The listener is shut down when the roster completes, which
        wakes the accept thread at once: with its poll stretched to 30 s
        a loopback fit still ends well inside it, and leaves no accept
        thread behind.  (Without the wake the rendezvous gives up on
        the thread after its 5 s join and the fit still ends, but the
        thread sits in ``accept()`` for the rest of the 30 s.)"""
        import time

        from repro.runtime import socket as socket_backend

        monkeypatch.setattr(socket_backend, "ACCEPT_POLL_SECONDS", 30.0)
        table = _table("covtype")
        jobs = [random_forest_job("rf", 1, TreeConfig(max_depth=1), seed=3)]
        started = time.monotonic()
        report = _fit("socket", table, jobs, n_workers=2)
        assert time.monotonic() - started < 10.0
        assert report.counters.trees_completed == 1
        assert "repro-socket-accept" not in {
            thread.name for thread in threading.enumerate()
        }
        assert multiprocessing.active_children() == []

    def test_host_id_fallback_refuses_shm_peering(self, monkeypatch):
        """Without a readable machine id (common in containers, which
        also share baked-in hostnames) the default host id must be
        process-unique: a false host match ships shm descriptors that
        cannot attach cross-host, wedging the run, so no machine id
        means no implicit shm peering.  ``--host-id`` opts back in."""
        from repro.runtime import socket as socket_backend

        class _Unreadable:
            def __init__(self, *_args):
                pass

            def read_text(self):
                raise OSError("no machine-id here")

        monkeypatch.setattr(socket_backend, "Path", _Unreadable)
        expected = f"{socket_module.gethostname()}/pid{os.getpid()}"
        assert socket_backend._default_host_id() == expected

        class _Empty(_Unreadable):
            def read_text(self):
                return "\n"

        monkeypatch.setattr(socket_backend, "Path", _Empty)
        assert socket_backend._default_host_id() == expected

    def test_non_loopback_listen_warns_about_trust_boundary(self):
        table = _table("covtype")
        options = _options(
            listen=f"0.0.0.0:{_free_port()}", rendezvous_timeout_seconds=0.3
        )
        with pytest.warns(RuntimeWarning, match="non-loopback"):
            with pytest.raises(HandshakeError, match="missing workers"):
                _fit(
                    "socket",
                    table,
                    [random_forest_job("rf", 1, TreeConfig(max_depth=4))],
                    n_workers=1,
                    options=options,
                )

    def test_rendezvous_timeout_is_a_clear_error(self):
        table = _table("covtype")
        port = _free_port()
        options = _options(
            listen=f"127.0.0.1:{port}", rendezvous_timeout_seconds=0.5
        )
        with pytest.raises(HandshakeError, match=r"missing workers \[1, 2\]"):
            _fit(
                "socket",
                table,
                [random_forest_job("rf", 1, TreeConfig(max_depth=4))],
                n_workers=2,
                options=options,
            )
        # The failed rendezvous released the port.
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", port))
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_worker_side_handshake_errors(self):
        table = _table("covtype")
        # Nobody listening: a connection error, not a hang.
        with pytest.raises(OSError):
            connect_worker(("127.0.0.1", _free_port()), 1, table)
        # A listener that never answers: HandshakeError after the timeout.
        with socket_module.create_server(("127.0.0.1", 0)) as silent:
            address = silent.getsockname()[:2]
            with pytest.raises(HandshakeError, match="no welcome"):
                connect_worker(address, 1, table, handshake_timeout=0.5)

    def test_parse_address_validation(self):
        assert parse_address("10.0.0.7:7733") == ("10.0.0.7", 7733)
        for bad in ("localhost", "host:", ":123", "host:-1", "host:70000", ""):
            with pytest.raises(ValueError, match="host:port"):
                parse_address(bad)

    def test_handshake_frames_are_json_never_unpickled(self):
        """Control frames arrive before any peer has proven anything, so
        they must be a non-executable encoding: the wire payload is
        plain JSON, a *pickled* hello is rejected instead of loaded,
        and badly-typed fields never reach validation code."""
        import json
        import pickle

        from repro.core.tasks import WorkerHelloMsg, WorkerWelcomeMsg
        from repro.runtime.socket import _decode_ctrl, _send_ctrl

        left, right = socket_module.socketpair()
        a, b = FrameStream(left), FrameStream(right)
        try:
            hello = WorkerHelloMsg(
                worker_id=1,
                protocol_version=SOCKET_PROTOCOL_VERSION,
                table_hash="ab" * 32,
                host_id="host-a",
                pid=123,
            )
            _send_ctrl(a, hello)
            dst, payload = b.read_frame(timeout=5.0)
            assert dst == CTRL_DST
            decoded = json.loads(payload)  # the payload IS json
            assert decoded["body"]["worker_id"] == 1
            assert _decode_ctrl(payload, WorkerHelloMsg) == hello
            # A pickled hello — the old wire format — is turned away.
            assert _decode_ctrl(pickle.dumps(hello), WorkerHelloMsg) is None
            # Wrong kind, wrong types, junk: all rejected, none raise.
            assert _decode_ctrl(payload, WorkerWelcomeMsg) is None
            bad_type = dict(decoded, body=dict(decoded["body"], worker_id="1"))
            assert (
                _decode_ctrl(json.dumps(bad_type).encode(), WorkerHelloMsg)
                is None
            )
            assert _decode_ctrl(b"\x80\x05garbage", WorkerHelloMsg) is None
        finally:
            a.close()
            b.close()

    def test_welcome_round_trips_cost_model_exactly(self):
        """The welcome carries the CostModel as JSON; bit-identical
        training across hosts needs it to round-trip exactly."""
        from repro.cluster.cost import CostModel
        from repro.core.tasks import WorkerWelcomeMsg
        from repro.runtime.socket import _read_ctrl, _send_ctrl

        left, right = socket_module.socketpair()
        a, b = FrameStream(left), FrameStream(right)
        try:
            sent = WorkerWelcomeMsg(
                ok=True,
                n_workers=3,
                held_columns=(2, 5, 7),
                host_map={0: "m", 1: "h-a", 2: "h-a", 3: "h-b"},
                shm_prefix="repro-x",
                cost=CostModel(ops_per_second=31.7e6, latency_seconds=3e-4),
            )
            _send_ctrl(a, sent)
            got = _read_ctrl(b, 5.0, WorkerWelcomeMsg)
            assert got == sent
            assert got.host_map == {0: "m", 1: "h-a", 2: "h-a", 3: "h-b"}
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------
class TestFrameStream:
    def _pair(self):
        a, b = socket_module.socketpair()
        return FrameStream(a), FrameStream(b)

    def test_frames_preserve_order_and_boundaries(self):
        left, right = self._pair()
        try:
            payloads = [bytes([i]) * (i * 7 + 1) for i in range(64)]
            for i, payload in enumerate(payloads):
                left.send_frame(i, payload)
            for i, expected in enumerate(payloads):
                frame = right.read_frame(timeout=5.0)
                assert frame == (i, expected)
        finally:
            left.close()
            right.close()

    def test_clean_eof_on_frame_boundary(self):
        left, right = self._pair()
        left.send_frame(0, b"done")
        left.close()
        assert right.read_frame(timeout=5.0) == (0, b"done")
        with pytest.raises(ConnectionClosed) as info:
            right.read_frame(timeout=5.0)
        assert info.value.clean
        right.close()

    def test_dirty_eof_mid_frame(self):
        left, right = self._pair()
        # A header promising more bytes than ever arrive.
        left.sock.sendall(b"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff")
        left.close()
        with pytest.raises(ConnectionClosed) as info:
            right.read_frame(timeout=5.0)
        assert not info.value.clean
        right.close()

    def test_poll_timeout_returns_none_and_resumes(self):
        left, right = self._pair()
        try:
            assert right.read_frame(timeout=0.05) is None
            left.send_frame(3, b"late")
            assert right.read_frame(timeout=5.0) == (3, b"late")
        finally:
            left.close()
            right.close()

    def test_poll_timeout_never_arms_a_send_timeout(self):
        """Read polling must not leave the socket in timeout mode: a
        ``sendall`` under a ~50ms poll timeout can partially write a
        frame (stream desync) and drop protocol messages.  After any
        poll-timeout read the socket stays fully blocking, and a frame
        much larger than the socket buffer still sends completely."""
        left, right = self._pair()
        try:
            assert left.read_frame(timeout=0.05) is None
            assert left.sock.gettimeout() is None  # blocking, not 0.05
            # Far beyond any kernel socket buffer: a timed-out sendall
            # would truncate this; a blocking one cannot.
            payload = os.urandom(8 << 20)
            received = {}

            def consume():
                received["frame"] = right.read_frame(timeout=30.0)

            reader = threading.Thread(target=consume, daemon=True)
            reader.start()
            left.send_frame(1, payload)
            reader.join(timeout=30.0)
            assert received["frame"] == (1, payload)
        finally:
            left.close()
            right.close()

    def test_absurd_length_is_treated_as_corruption(self):
        left, right = self._pair()
        try:
            import struct

            left.sock.sendall(struct.pack("!iQ", 0, 1 << 50))
            with pytest.raises(ConnectionClosed):
                right.read_frame(timeout=5.0)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# failure semantics and recovery
# ----------------------------------------------------------------------
class TestRecovery:
    JOBS = [random_forest_job("rf", 4, TreeConfig(max_depth=7), seed=3)]

    @pytest.mark.parametrize("use_shm", [True, False], ids=["shm", "queues"])
    def test_killed_worker_recovers_bit_identical(self, use_shm):
        """Losing 1 of 3 workers (k=2 replication) mid-run still matches
        the undisturbed sim model."""
        table = _table()
        reference = _fit("sim", table, self.JOBS).trees("rf")
        report = _fit(
            "socket",
            table,
            self.JOBS,
            options=_options(
                fault_policy="recover",
                use_shm=use_shm,
                faults=(FaultPlan("crash", 2, 6),),
            ),
        )
        assert_bit_identical(reference, report.trees("rf"))
        transport = report.cluster.transport
        assert transport["recovered_workers"] == 1
        assert report.counters.recovered_workers == 1
        assert 2 not in transport["per_worker"]
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_raised_worker_error_recovers_bit_identical(self):
        """A worker-side exception under ``recover`` takes the crash path:
        the run finishes on the survivors with the undisturbed model."""
        table = _table()
        reference = _fit("sim", table, self.JOBS).trees("rf")
        report = _fit(
            "socket",
            table,
            self.JOBS,
            options=_options(
                fault_policy="recover", faults=(FaultPlan("raise", 2, 6),)
            ),
        )
        assert_bit_identical(reference, report.trees("rf"))
        assert report.counters.recovered_workers == 1
        assert 2 not in report.cluster.transport["per_worker"]
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []

    def test_external_workers_read_the_fault_variable(self, monkeypatch):
        """In external mode the master starts no worker and never reads
        REPRO_FAULT; each ``connect_worker`` reads it on its own side.
        Worker 2 raises (a crash would exit this test process), and the
        recovered run still matches sim."""
        table = _table()
        reference = _fit("sim", table, self.JOBS).trees("rf")
        port = _free_port()
        options = _options(
            listen=f"127.0.0.1:{port}",
            fault_policy="recover",
            rendezvous_timeout_seconds=30.0,
        )
        monkeypatch.setenv(FAULT_ENV, "raise:2:6")
        result: dict = {}

        def run_master():
            try:
                result["report"] = _fit(
                    "socket", table, self.JOBS, options=options
                )
            except BaseException as error:  # pragma: no cover - diagnostics
                result["error"] = error

        codes: dict[int, int] = {}

        def run_worker(wid):
            codes[wid] = connect_worker(("127.0.0.1", port), wid, table)

        master = threading.Thread(target=run_master, daemon=True)
        master.start()
        _dial(port).close()  # wait until the master listens
        workers = [
            threading.Thread(target=run_worker, args=(wid,), daemon=True)
            for wid in (1, 2, 3)
        ]
        for thread in workers:
            thread.start()
        master.join(timeout=120.0)
        for thread in workers:
            thread.join(timeout=30.0)
        assert not master.is_alive()
        if "error" in result:
            raise result["error"]
        report = result["report"]
        assert_bit_identical(reference, report.trees("rf"))
        assert report.counters.recovered_workers == 1
        assert codes == {1: 0, 2: 1, 3: 0}
        assert _repro_segments() == []

    def test_fail_fast_surfaces_real_exitcode(self):
        """Self-launch mode keeps subprocess exit codes: the injected
        crash arrives as exitcode 71, not a generic EOF."""
        from repro.runtime.process import CRASH_EXITCODE

        table = _table()
        options = _options(
            message_timeout_seconds=10.0, faults=(FaultPlan("crash", 1, 2),)
        )
        with pytest.raises(WorkerDiedError) as info:
            _fit("socket", table, self.JOBS, options=options)
        assert info.value.worker_id == 1
        assert info.value.exitcode == CRASH_EXITCODE
        assert multiprocessing.active_children() == []
        assert _repro_segments() == []


# ----------------------------------------------------------------------
# factory and CLI
# ----------------------------------------------------------------------
class TestFactoryAndCli:
    def test_create_runtime_dispatch(self):
        system = _system(2)
        cost = TreeServer(system).cost
        runtime = create_runtime("socket", system, cost)
        assert isinstance(runtime, SocketRuntime)
        # The whole mp driver loop is inherited, only the transport swaps.
        assert isinstance(runtime, ProcessRuntime)

    def test_cli_train_socket_backend(self, tmp_path):
        """`repro train --backend socket` end to end, identical to sim."""
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        for backend, out_dir in (("socket", "m_sock"), ("sim", "m_sim")):
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
            assert (tmp_path / "m_sock" / name).read_text() == (
                tmp_path / "m_sim" / name
            ).read_text()
        assert _repro_segments() == []

    def test_cli_flag_combinations_validated(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.io import write_csv

        table = _table("covtype")
        csv = tmp_path / "data.csv"
        write_csv(table, csv)
        base = [
            "train", "--csv", str(csv), "--target", "label",
            "--model-dir", str(tmp_path / "m"),
        ]
        assert main(base + ["--listen", "127.0.0.1:0"], out=io.StringIO()) == 2
        assert "--backend socket" in capsys.readouterr().err
        assert (
            main(
                base + ["--backend", "socket", "--hosts", "a,b"],
                out=io.StringIO(),
            )
            == 2
        )
        assert "--listen" in capsys.readouterr().err
