"""Load generators: closed-loop in-process replay, and an asyncio HTTP
client that drives the gateway in an open or a closed loop.

Both run on the caller's thread and only time requests; checking the
replies and summarising is the workload's job, after the clock stops.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass

import numpy as np


# ----------------------------------------------------------------------
# in-process closed loop
# ----------------------------------------------------------------------
def replay(server, requests: list[np.ndarray], in_flight: int, timeout: float):
    """Submit every request with at most ``in_flight`` outstanding.

    One client thread: a new request goes out only when the oldest
    outstanding one has been answered (closed loop).  Returns the reply
    blocks in request order plus the submit and answered times of each
    request (``perf_counter`` seconds), as the client saw them.
    """
    futures = []
    submitted = np.empty(len(requests))
    answered = np.empty(len(requests))
    drained = 0
    for i, rows in enumerate(requests):
        if i - drained >= in_flight:
            futures[drained].result(timeout=timeout)
            answered[drained] = time.perf_counter()
            drained += 1
        submitted[i] = time.perf_counter()
        futures.append(server.submit(rows))
    for i in range(drained, len(futures)):
        futures[i].result(timeout=timeout)
        answered[i] = time.perf_counter()
    blocks = [f.result(timeout=timeout) for f in futures]
    return blocks, submitted, answered


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def encode_request(path: str, body: bytes) -> bytes:
    """One keep-alive HTTP/1.1 POST, ready to write to a socket."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode() + body


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    """Write one request, read one reply: ``(status, body)``."""
    writer.write(payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split(None, 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


@dataclass
class Exchange:
    """One HTTP request as the generator saw it.

    ``due`` is when the schedule wanted it sent (open loop) or when it
    was sent (closed loop); ``status`` 0 means a transport error or a
    timeout.  Times are ``perf_counter`` seconds.
    """

    index: int
    lane: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes


async def _drive(
    port: int,
    payloads: list[bytes],
    first: int,
    rate: float | None,
    seconds: float,
    connections: int,
    timeout: float,
) -> list[Exchange]:
    exchanges: list[Exchange] = []
    ticket = itertools.count()
    start = time.perf_counter() + 0.02  # let every connection open first

    async def client(lane: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                k = next(ticket)
                if rate is None:
                    due = max(time.perf_counter(), start)
                else:
                    due = start + k / rate
                if due >= start + seconds:
                    return
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                index = (first + k) % len(payloads)
                sent = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(
                        _exchange(reader, writer, payloads[index]), timeout
                    )
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    OSError,
                    ValueError,
                    IndexError,
                ):
                    # The stream is in an unknown state: start a new one.
                    status, body = 0, b""
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                exchanges.append(
                    Exchange(
                        index, lane, due, sent, time.perf_counter(),
                        status, body,
                    )
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(client(lane) for lane in range(connections)))
    return exchanges


def drive_http(
    port: int,
    payloads: list[bytes],
    first: int,
    rate: float | None,
    seconds: float,
    connections: int = 2,
    timeout: float = 10.0,
) -> list[Exchange]:
    """Send ``payloads`` (cycled from ``first``) for ``seconds``.

    ``rate`` requests/second makes an **open loop**: request ``k`` is due
    at ``k / rate`` whatever happened to the ones before, and waits for
    a free connection if all are busy — time it then spends waiting is
    inside ``done - due``.  ``rate=None`` makes a **closed loop**: every
    connection sends its next request as soon as the last was answered.
    One thread, one event loop, ``connections`` keep-alive connections.
    """
    return asyncio.run(
        _drive(port, payloads, first, rate, seconds, connections, timeout)
    )
