"""Execution substrates for the TreeServer protocol.

Three backends behind one seam: the deterministic discrete-event
simulator (``"sim"``, the default — every paper experiment runs on it),
the real multiprocess runtime (``"mp"`` — one OS process per worker,
peer-to-peer queues, wall-clock time), and the socket runtime
(``"socket"`` — length-prefixed pickled frames over persistent TCP for
true multi-host runs, with a loopback self-launch mode for one machine).
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
from .process import ProcessRuntime, ProcessTransport, resolve_start_method
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
    "ProcessTransport",
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
