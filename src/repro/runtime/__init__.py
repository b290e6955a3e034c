"""Execution substrates for the TreeServer protocol.

Three backends behind one seam: the deterministic discrete-event
simulator (``"sim"``, the default — every paper experiment runs on it),
the real multiprocess runtime (``"mp"`` — one OS process per worker on
this host, wall-clock time), and the socket runtime (``"socket"`` — the
same, with workers that may dial in from other hosts).  Both real
backends ride one transport: length-prefixed pickled frames over
persistent TCP, with ``"mp"`` its loopback self-launch mode.
Selected via ``TreeServer(..., backend=...)`` or ``repro train
--backend``; all train bit-identical models.  See ``docs/RUNTIME.md``.
"""

from .base import (
    BACKENDS,
    FAULT_POLICIES,
    FaultPlan,
    Host,
    MessageTimeoutError,
    Runtime,
    RuntimeBackendError,
    RuntimeOptions,
    Transport,
    WorkerDiedError,
    create_runtime,
)
from .process import ProcessRuntime, resolve_start_method
from .signals import graceful_sigint, reap_children
from .sim import SimRuntime
from .socket import (
    HandshakeError,
    SocketRuntime,
    SocketTransport,
    connect_worker,
)

__all__ = [
    "BACKENDS",
    "FAULT_POLICIES",
    "FaultPlan",
    "HandshakeError",
    "Host",
    "MessageTimeoutError",
    "ProcessRuntime",
    "Runtime",
    "RuntimeBackendError",
    "RuntimeOptions",
    "SimRuntime",
    "SocketRuntime",
    "SocketTransport",
    "Transport",
    "WorkerDiedError",
    "connect_worker",
    "create_runtime",
    "graceful_sigint",
    "reap_children",
    "resolve_start_method",
]
