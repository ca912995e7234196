"""Admission control for the query server: rate limits, fair
scheduling, and watermark load shedding (DESIGN.md §11).

The worker pool of :class:`~repro.node.server.QueryServer` used to have
one defense against a traffic burst — a typed rejection once its single
FIFO queue filled — which means a Zipf burst or one greedy client
collapses latency for *everyone* before the bound even trips.  This
module is the traffic-management layer in front of the pool, three
mechanisms composed in admission order:

1. **watermark load shedding** (:class:`WatermarkShedder`) — queue
   depth is watched against three watermarks and degrades in stages:
   ``shed_batch`` refuses batch-class work, ``shed_low`` refuses
   everything but interactive queries, ``shed_all`` refuses anything
   that would queue (pings are answered inline at the transport and
   never reach admission).  Each transition emits one structured log
   line; hysteresis (exit below ``clear_fraction`` of the entry
   watermark) keeps the state machine from flapping at a boundary.
2. **per-client token buckets** (:class:`RateLimiter`) — each client
   identity (connection peer, or the id a §11 hello frame declared)
   draws from its own bucket; an empty bucket refuses with
   :class:`~repro.errors.RateLimitedError` carrying the exact
   ``retry_after`` at which the bucket refills.  One hot client runs
   out of tokens; everyone else never notices.
3. **weighted-fair scheduling** (:class:`FairScheduler`) — admitted
   requests land in per-priority deques drained by deficit-weighted
   round-robin, so a backlog of batch work cannot starve interactive
   queries even below the watermarks.

Everything refused here is refused with a typed
:class:`~repro.errors.BackpressureError` subclass carrying a
``retry_after`` hint — a *benign* signal the client-side health model
treats as "busy, come back", never as malice (PROTOCOL.md §11.4).
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    QueryError,
    RateLimitedError,
    RequestShedError,
    ServerOverloadedError,
)
from repro.node import messages as _messages

logger = logging.getLogger("repro.node.admission")

# -- priority classes --------------------------------------------------------

#: Latency-sensitive single-address lookups (a wallet's balance check).
PRIO_INTERACTIVE = 0
#: Header sync — cheap, keeps light clients converging.
PRIO_SYNC = 1
#: Multi-address batch queries — throughput work, shed first.
PRIO_BATCH = 2
#: Subscription backfill / historical catch-up range reads: the client
#: already holds a verified prefix and can always retry the pull path.
PRIO_BACKFILL = 3

#: Class names, indexed by priority (the same tuple rides the wire in
#: RequestShedError params).
PRIORITY_NAMES = _messages.SHED_PRIORITIES

#: Default weighted-fair drain ratio (indexed by priority class).
DEFAULT_WEIGHTS = (8, 4, 2, 1)

#: Classes refused at each shed stage (see WatermarkShedder).
_SHED_BATCH_CLASSES = frozenset({PRIO_BATCH, PRIO_BACKFILL})
_SHED_LOW_CLASSES = frozenset({PRIO_BATCH, PRIO_BACKFILL, PRIO_SYNC})
_SHED_ALL_CLASSES = frozenset(
    {PRIO_INTERACTIVE, PRIO_SYNC, PRIO_BATCH, PRIO_BACKFILL}
)


#: Traffic class of every pooled request tag, from the wire-tag table.
_TAG_PRIORITY = {
    tag: PRIORITY_NAMES.index(row.priority)
    for tag, row in _messages.WIRE_TAGS.items()
    if row.priority is not None
}


def classify(payload: bytes) -> int:
    """Priority class of one request frame (scheduling hint only).

    The wire-tag table gives each request's class, with one content
    rule on top: an open-ended single query (``last_height == 0`` —
    "up to your tip", the interactive wallet shape) is interactive,
    while an explicitly bounded historical range is backfill-class —
    that is the frame a subscription gap-heal or a catch-up re-sync
    sends, and it is always retryable against the verified pull path.
    Misclassification can only move a request between latency classes;
    it never changes what verifies.
    """
    if payload[0] == _messages.QueryRequest.type_tag:
        try:
            request = _messages.QueryRequest.deserialize(payload)
        except Exception:  # noqa: BLE001 - malformed: let the worker reject
            return PRIO_INTERACTIVE
        return PRIO_INTERACTIVE if request.last_height == 0 else PRIO_BACKFILL
    return _TAG_PRIORITY.get(payload[0], PRIO_INTERACTIVE)


# -- token buckets -----------------------------------------------------------


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"bucket needs positive rate/burst, got "
                             f"({rate}, {burst})")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def take(self, now: float, cost: float = 1.0) -> Tuple[bool, float]:
        """Try to spend ``cost`` tokens; ``(ok, retry_after_seconds)``."""
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True, 0.0
        return False, (cost - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with a bounded identity table.

    ``rate``/``burst`` apply to every client; the table is an LRU
    bounded at ``max_clients`` so a hostile peer cycling identities
    cannot grow server memory — evicting an idle identity merely hands
    it a fresh (full) bucket next time, which is the conservative
    failure direction for a limiter.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        max_clients: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if max_clients < 1:
            raise ValueError(f"need at least one client slot, {max_clients}")
        self.rate = rate
        self.burst = burst if burst is not None else max(1.0, 2.0 * rate)
        self.max_clients = max_clients
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.rejected = 0
        self.evicted_clients = 0

    def check(self, client: str) -> None:
        """Admit or raise :class:`RateLimitedError` for one request."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[client] = bucket
                if len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
                    self.evicted_clients += 1
            else:
                self._buckets.move_to_end(client)
            ok, retry_after = bucket.take(now)
            if ok:
                return
            self.rejected += 1
        raise RateLimitedError(client, retry_after=retry_after)

    def clients(self) -> int:
        with self._lock:
            return len(self._buckets)


# -- watermark state machine -------------------------------------------------

STATE_NORMAL = "normal"
STATE_SHED_BATCH = "shed_batch"
STATE_SHED_LOW = "shed_low"
STATE_SHED_ALL = "shed_all"

_STATES = (STATE_NORMAL, STATE_SHED_BATCH, STATE_SHED_LOW, STATE_SHED_ALL)


class WatermarkShedder:
    """Queue-depth watermarks mapped to staged shed states.

    ``watermarks`` are the *entry* depths for ``shed_batch`` /
    ``shed_low`` / ``shed_all`` (strictly increasing).  A state is left
    only once depth falls below ``clear_fraction`` of its entry
    watermark — the hysteresis that keeps a queue oscillating around a
    boundary from emitting a transition per request.  Not thread-safe on
    its own; the admission controller calls it under its queue lock.
    """

    def __init__(
        self,
        watermarks: Tuple[int, int, int],
        *,
        clear_fraction: float = 0.75,
    ) -> None:
        low, high, critical = watermarks
        if not (0 < low < high < critical):
            raise ValueError(
                f"watermarks must be strictly increasing and positive, "
                f"got {watermarks}"
            )
        if not (0.0 < clear_fraction <= 1.0):
            raise ValueError(f"bad clear fraction {clear_fraction}")
        self.watermarks = (low, high, critical)
        self.clear_fraction = clear_fraction
        self.state = STATE_NORMAL
        self.transitions = 0
        #: state name -> requests refused while in it.
        self.shed_by_state: Dict[str, int] = {
            STATE_SHED_BATCH: 0,
            STATE_SHED_LOW: 0,
            STATE_SHED_ALL: 0,
        }

    def _target_state(self, depth: int) -> str:
        low, high, critical = self.watermarks
        # Escalate at the entry watermark; de-escalate only below the
        # clear point of the state being left.
        index = _STATES.index(self.state)
        entry = [low, high, critical]
        up = 0
        for position, mark in enumerate(entry, start=1):
            if depth >= mark:
                up = position
        if up > index:
            return _STATES[up]
        # Possible de-escalation: walk down while depth clears the
        # current state's entry watermark.
        while index > 0 and depth < entry[index - 1] * self.clear_fraction:
            index -= 1
        return _STATES[index]

    def observe(self, depth: int) -> str:
        """Update the state for the current queue depth; returns it."""
        target = self._target_state(depth)
        if target != self.state:
            previous, self.state = self.state, target
            self.transitions += 1
            logger.warning(
                "admission state transition previous=%s state=%s depth=%d "
                "watermarks=%s",
                previous,
                target,
                depth,
                self.watermarks,
            )
        return self.state

    def refuses(self, priority: int) -> bool:
        """Does the *current* state refuse this priority class?"""
        if self.state == STATE_SHED_BATCH:
            return priority in _SHED_BATCH_CLASSES
        if self.state == STATE_SHED_LOW:
            return priority in _SHED_LOW_CLASSES
        if self.state == STATE_SHED_ALL:
            return priority in _SHED_ALL_CLASSES
        return False


# -- weighted-fair queue -----------------------------------------------------


class FairScheduler:
    """Per-class deques drained by deficit-weighted round-robin.

    Each class holds a credit counter; a pop scans classes from the
    current cursor, spending one credit per dequeue, and refills every
    counter from ``weights`` when all non-empty classes are out of
    credit.  Over any busy interval class *i* receives ``weights[i]``
    of every ``sum(weights)`` dequeues — batch backlog can delay an
    interactive query by at most one round, never starve it.  Not
    thread-safe on its own (the controller locks).
    """

    def __init__(self, weights: Sequence[int] = DEFAULT_WEIGHTS) -> None:
        if len(weights) != len(PRIORITY_NAMES) or any(
            weight < 1 for weight in weights
        ):
            raise ValueError(f"need {len(PRIORITY_NAMES)} positive weights, "
                             f"got {weights}")
        self.weights = tuple(int(weight) for weight in weights)
        self._queues: List[deque] = [deque() for _ in PRIORITY_NAMES]
        self._credits: List[int] = list(self.weights)
        self._cursor = 0

    def push(self, priority: int, item: object) -> None:
        self._queues[priority].append(item)

    def depth(self) -> int:
        return sum(len(q) for q in self._queues)

    def depths(self) -> Tuple[int, ...]:
        return tuple(len(q) for q in self._queues)

    def pop(self) -> Optional[Tuple[int, object]]:
        """Next ``(priority, item)`` under weighted fairness, or None."""
        if not any(self._queues):
            return None
        classes = len(self._queues)
        for _refill in range(2):
            for step in range(classes):
                index = (self._cursor + step) % classes
                if self._queues[index] and self._credits[index] > 0:
                    self._credits[index] -= 1
                    self._cursor = index if self._credits[index] else index + 1
                    return index, self._queues[index].popleft()
            # Every non-empty class is out of credit: start a new round.
            self._credits = list(self.weights)
        return None  # pragma: no cover - refill guarantees a pop

    def drain(self) -> List[Tuple[int, object]]:
        """Take everything queued (close-without-drain path)."""
        items: List[Tuple[int, object]] = []
        for priority, queue in enumerate(self._queues):
            while queue:
                items.append((priority, queue.popleft()))
        return items


# -- the controller ----------------------------------------------------------


class AdmissionStats:
    """Counters exported by :meth:`AdmissionController.stats`."""

    __slots__ = (
        "admitted",
        "admitted_by_class",
        "completed_by_class",
        "shed",
        "shed_by_class",
        "ratelimited",
        "queue_full",
    )

    def __init__(self) -> None:
        self.admitted = 0
        self.admitted_by_class = [0] * len(PRIORITY_NAMES)
        self.completed_by_class = [0] * len(PRIORITY_NAMES)
        self.shed = 0
        self.shed_by_class = [0] * len(PRIORITY_NAMES)
        self.ratelimited = 0
        self.queue_full = 0


class AdmissionController:
    """Admission gate + fair queue in front of a worker pool.

    ``max_pending`` bounds the *total* queued (all classes); the shed
    watermarks default to 50% / 75% / 90% of it.  ``rate_limit`` is
    requests/second per client identity (``None`` disables the
    limiter).  ``submit`` either enqueues or raises a typed
    :class:`~repro.errors.BackpressureError`; workers block in
    :meth:`next_request` until work or :meth:`close`.

    ``retry_after`` hints: a rate-limit refusal reports the exact
    bucket refill time; shed/queue-full refusals report a depth-scaled
    estimate (half the backlog at the observed service rate, clamped to
    ``[0.05s, 5s]``) — honest "come back later", not a promise.
    """

    def __init__(
        self,
        max_pending: int = 64,
        *,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        weights: Sequence[int] = DEFAULT_WEIGHTS,
        watermarks: Optional[Tuple[int, int, int]] = None,
        clear_fraction: float = 0.75,
        max_clients: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"queue bound must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        if watermarks is None:
            low = max(1, int(max_pending * 0.50))
            high = max(low + 1, int(max_pending * 0.75))
            critical = max(high + 1, int(max_pending * 0.90))
            watermarks = (low, high, critical)
        self.shedder = WatermarkShedder(
            watermarks, clear_fraction=clear_fraction
        )
        self.limiter = (
            RateLimiter(
                rate_limit, rate_burst, max_clients=max_clients, clock=clock
            )
            if rate_limit
            else None
        )
        self.scheduler = FairScheduler(weights)
        self.stats = AdmissionStats()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False
        #: Decayed service-rate estimate (req/s) for retry-after hints.
        self._service_rate = 50.0

    # -- submission side ---------------------------------------------------

    def _retry_hint(self, depth: int) -> float:
        estimate = (depth * 0.5 + 1.0) / max(self._service_rate, 1.0)
        return min(max(estimate, 0.05), 5.0)

    def submit(self, payload: bytes, client: Optional[str] = None) -> object:
        """Admit one frame; returns an opaque queue token for the caller
        to attach its request object to — actually the priority class.

        Raises, in checking order: :class:`RateLimitedError` (the
        client spent its budget — cheapest check that protects everyone
        else), :class:`RequestShedError` (the watermark state refuses
        this class), :class:`ServerOverloadedError` (hard queue bound).
        """
        priority = classify(payload)
        if self.limiter is not None and client is not None:
            try:
                self.limiter.check(client)
            except RateLimitedError:
                with self._lock:
                    self.stats.ratelimited += 1
                raise
        with self._lock:
            if self._closed:
                raise QueryError("admission controller is closed")
            depth = self.scheduler.depth()
            self.shedder.observe(depth)
            if self.shedder.refuses(priority):
                self.stats.shed += 1
                self.stats.shed_by_class[priority] += 1
                self.shedder.shed_by_state[self.shedder.state] += 1
                state = self.shedder.state
                hint = self._retry_hint(depth)
                logger.info(
                    "request shed state=%s class=%s client=%s depth=%d "
                    "retry_after=%.3f",
                    state,
                    PRIORITY_NAMES[priority],
                    client,
                    depth,
                    hint,
                )
                raise RequestShedError(
                    PRIORITY_NAMES[priority], state, retry_after=hint
                )
            if depth >= self.max_pending:
                self.stats.queue_full += 1
                raise ServerOverloadedError(
                    depth, self.max_pending,
                    retry_after=self._retry_hint(depth),
                )
            return priority

    def enqueue(self, priority: int, item: object) -> int:
        """Queue an admitted request; returns the new total depth."""
        with self._lock:
            if self._closed:
                raise QueryError("admission controller is closed")
            self.scheduler.push(priority, item)
            self.stats.admitted += 1
            self.stats.admitted_by_class[priority] += 1
            depth = self.scheduler.depth()
            # Escalate on the post-push depth, so state reflects the
            # queue as it stands rather than lagging one submit behind.
            self.shedder.observe(depth)
            self._ready.notify()
        return depth

    # -- worker side -------------------------------------------------------

    def next_request(self) -> Optional[Tuple[int, object]]:
        """Block until a request (weighted-fair order) or close; None
        means the controller closed and the worker should exit."""
        with self._ready:
            while True:
                popped = self.scheduler.pop()
                if popped is not None:
                    # Track de-escalation as the queue drains, so the
                    # shed state clears without waiting for a submit.
                    self.shedder.observe(self.scheduler.depth())
                    return popped
                if self._closed:
                    return None
                self._ready.wait(timeout=0.1)

    def request_done(self, priority: int, service_seconds: float) -> None:
        """Worker completion hook: feeds the service-rate estimate."""
        with self._lock:
            self.stats.completed_by_class[priority] += 1
            if service_seconds > 0:
                observed = 1.0 / service_seconds
                self._service_rate += 0.05 * (observed - self._service_rate)

    # -- lifecycle / observability ----------------------------------------

    def close(self) -> List[Tuple[int, object]]:
        """Stop admitting; wake workers; return whatever was queued."""
        with self._ready:
            self._closed = True
            pending = self.scheduler.drain()
            self._ready.notify_all()
        return pending

    def depth(self) -> int:
        with self._lock:
            return self.scheduler.depth()

    def state(self) -> str:
        with self._lock:
            return self.shedder.state

    def stats_dict(self) -> "dict[str, object]":
        with self._lock:
            per_class = {
                name: {
                    "admitted": self.stats.admitted_by_class[index],
                    "completed": self.stats.completed_by_class[index],
                    "shed": self.stats.shed_by_class[index],
                    "queued": len(self.scheduler._queues[index]),
                }
                for index, name in enumerate(PRIORITY_NAMES)
            }
            report: "dict[str, object]" = {
                "state": self.shedder.state,
                "transitions": self.shedder.transitions,
                "watermarks": list(self.shedder.watermarks),
                "max_pending": self.max_pending,
                "queue_depth": self.scheduler.depth(),
                "admitted": self.stats.admitted,
                "shed": self.stats.shed,
                "shed_by_state": dict(self.shedder.shed_by_state),
                "ratelimited": self.stats.ratelimited,
                "queue_full": self.stats.queue_full,
                "classes": per_class,
            }
            if self.limiter is not None:
                report["rate_limit"] = {
                    "rate": self.limiter.rate,
                    "burst": self.limiter.burst,
                    "clients": self.limiter.clients(),
                    "rejected": self.limiter.rejected,
                    "evicted_clients": self.limiter.evicted_clients,
                }
        return report


__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "DEFAULT_WEIGHTS",
    "FairScheduler",
    "PRIO_BACKFILL",
    "PRIO_BATCH",
    "PRIO_INTERACTIVE",
    "PRIO_SYNC",
    "PRIORITY_NAMES",
    "RateLimiter",
    "STATE_NORMAL",
    "STATE_SHED_ALL",
    "STATE_SHED_BATCH",
    "STATE_SHED_LOW",
    "TokenBucket",
    "WatermarkShedder",
    "classify",
]
