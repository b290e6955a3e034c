"""Ctrl-C hygiene for entry points that may own child processes.

The multiprocess runtime joins its pool in a ``finally`` block, so a
KeyboardInterrupt raised anywhere inside ``fit`` already reaps the
workers.  The CLI adds two layers on top:

* :func:`graceful_sigint` installs an explicit SIGINT handler for the
  duration of a command, guaranteeing the interrupt surfaces as a
  ``KeyboardInterrupt`` at a Python boundary (and not, e.g., dying inside
  a C extension with the default handler half-applied);
* :func:`reap_children` is the last-resort sweep: terminate and join any
  ``multiprocessing`` children still alive, so no orphaned worker ever
  survives a Ctrl-C, whatever state the interrupt found us in.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
from typing import Iterable, Iterator


def stop_processes(processes: Iterable, join_timeout: float = 5.0) -> None:
    """Terminate every live process, then join each, killing any that
    outlives ``join_timeout``."""
    processes = list(processes)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=join_timeout)
        if process.is_alive():  # pragma: no cover - stuck in C code
            process.kill()
            process.join(timeout=join_timeout)


def reap_children(join_timeout: float = 5.0) -> int:
    """Terminate and join all live child processes; returns how many."""
    children = multiprocessing.active_children()
    stop_processes(children, join_timeout)
    return len(children)


@contextlib.contextmanager
def graceful_sigint() -> Iterator[None]:
    """Scope in which SIGINT reliably raises KeyboardInterrupt and, on the
    way out, any child processes are drained and joined.

    Restores the previous handler on exit.  Safe to nest; only the
    outermost registration touches the signal disposition (non-main
    threads cannot install handlers, in which case this is reap-only).
    """
    previous = None
    installed = False
    try:
        previous = signal.getsignal(signal.SIGINT)

        def _raise(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGINT, _raise)
        installed = True
    except ValueError:
        # Not the main thread: keep the existing disposition.
        pass
    try:
        yield
    except KeyboardInterrupt:
        reap_children()
        raise
    finally:
        if installed:
            signal.signal(signal.SIGINT, previous)
