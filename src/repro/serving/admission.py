"""Admission control for the serving gateway: quotas and backpressure.

The in-process :class:`~repro.serving.server.PredictionServer` sheds load
with blind rejection — a full queue raises ``QueueFullError`` and the
caller is on its own.  A multi-tenant gateway needs two things that are
missing from that picture:

* **per-client quotas** — one greedy tenant must not starve the rest, so
  every client (the ``X-Client`` header / request field) gets its own
  token bucket: a sustained ``rate`` requests/second with ``burst``
  headroom for spikes;
* **backpressure before rejection** — a request that misses a token is
  not bounced immediately.  It enters a **bounded async waiting room**
  and parks (no thread held, it is an ``await``) until its bucket refills.
  Only when the room is full, or the projected wait exceeds
  ``max_wait_seconds``, does the gateway answer ``429`` — and then with a
  ``Retry-After`` computed from the *queue depth* (how many requests are
  already parked ahead on the same bucket), so a well-behaved client can
  back off precisely instead of hammering.

:class:`ThrottledError` carries that computed ``retry_after`` hint the
same way ``QueueFullError`` carries ``queue_depth``/``capacity``:
structured attributes, not message parsing.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


class ThrottledError(Exception):
    """Request refused by admission control; carries the backoff hint.

    ``retry_after`` is the seconds a client should wait before retrying
    (queue-depth derived); ``reason`` says which bound tripped
    (``"waiting room full"`` or ``"projected wait too long"``).
    """

    def __init__(self, retry_after: float, reason: str) -> None:
        self.retry_after = retry_after
        self.reason = reason
        super().__init__(
            f"throttled ({reason}); retry after {retry_after:.2f}s"
        )


@dataclass(frozen=True)
class QuotaConfig:
    """Per-client quota and waiting-room bounds.

    ``rate=None`` disables quotas entirely (every request is admitted
    immediately); otherwise each client sustains ``rate`` requests/second
    with ``burst`` tokens of headroom.  ``max_waiters`` bounds the total
    parked requests across all clients; ``max_wait_seconds`` bounds how
    long any one request may be parked before it is 429'd instead.
    """

    rate: float | None = None
    burst: int = 32
    max_waiters: int = 64
    max_wait_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError("quota rate must be > 0 (or None to disable)")
        if self.burst < 1:
            raise ValueError("quota burst must be >= 1")
        if self.max_waiters < 0:
            raise ValueError("max_waiters must be >= 0")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not thread-safe on purpose — the gateway touches it only from the
    event loop, where awaits (not preemption) are the interleave points.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp", "waiters")

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic()
        #: Requests currently parked on this bucket (queue depth).
        self.waiters = 0

    def _refill(self, now: float) -> None:
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now

    def try_take(self) -> bool:
        """Take one token if available right now."""
        self._refill(time.monotonic())
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def eta_seconds(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` tokens will have accumulated."""
        self._refill(time.monotonic())
        return max(0.0, (tokens - self.tokens) / self.rate)


class AdmissionController:
    """Token-bucket quotas with a bounded asynchronous waiting room.

    ``await admit(client)`` either returns the seconds the request spent
    parked (0.0 on the fast path) or raises :class:`ThrottledError` with
    a queue-depth-derived ``retry_after``.  It keeps no counters: the
    gateway counts what ``admit`` returns or raises.  All state is
    event-loop confined; no locks are needed.
    """

    def __init__(self, config: QuotaConfig | None = None) -> None:
        self.config = config or QuotaConfig()
        self._buckets: dict[str, TokenBucket] = {}
        self._waiting = 0

    def bucket_for(self, client: str) -> TokenBucket | None:
        """The client's bucket (``None`` when quotas are disabled)."""
        if self.config.rate is None:
            return None
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.config.rate, self.config.burst)
            self._buckets[client] = bucket
        return bucket

    @property
    def waiting(self) -> int:
        """Requests currently parked across all clients."""
        return self._waiting

    async def admit(self, client: str) -> float:
        """Admit one request for ``client``; returns parked seconds."""
        cfg = self.config
        bucket = self.bucket_for(client)
        if bucket is None:
            return 0.0
        # Fast path only when nobody from this client is already parked —
        # a late arrival must not jump its own client's queue.
        if bucket.waiters == 0 and bucket.try_take():
            return 0.0
        # Projected wait for this request: every request parked ahead on
        # the same bucket needs a token first.
        eta = bucket.eta_seconds(tokens=bucket.waiters + 1.0)
        if self._waiting >= cfg.max_waiters:
            raise ThrottledError(max(eta, 1.0 / bucket.rate),
                                 "waiting room full")
        if eta > cfg.max_wait_seconds:
            raise ThrottledError(eta, "projected wait too long")
        bucket.waiters += 1
        self._waiting += 1
        started = time.monotonic()
        # Hard deadline: the eta is an estimate (same-client arrivals may
        # race for refills), so bound the park absolutely.
        deadline = started + cfg.max_wait_seconds + eta
        try:
            while not bucket.try_take():
                now = time.monotonic()
                if now >= deadline:
                    raise ThrottledError(
                        bucket.eta_seconds(tokens=bucket.waiters),
                        "projected wait too long",
                    )
                await asyncio.sleep(
                    min(0.005, max(bucket.eta_seconds(), 0.0005))
                )
        finally:
            bucket.waiters -= 1
            self._waiting -= 1
        return time.monotonic() - started
