"""A concurrent query-serving front end over :class:`FullNode`.

:class:`QueryServer` is the piece the ROADMAP's "heavy traffic" goal
needs on the serving side: a fixed pool of worker threads draining an
admission-controlled, weighted-fair request queue.  The pieces fit
together as

* **admission control** — every submission passes through
  :class:`~repro.node.admission.AdmissionController`: a per-client
  token bucket (one hot client runs out of budget before it can crowd
  anyone else), watermark load shedding (past 50%/75%/90% of the queue
  bound the server refuses batch → low-priority → everything, in
  stages), and a hard queue bound — each refusal a typed
  :class:`~repro.errors.BackpressureError` with a retry-after hint, so
  an overloaded node degrades into fast, honest rejections that a
  resilient client (``QuerySession``) treats as backoff signals;
* **fair scheduling** — admitted requests drain in deficit-weighted
  round-robin across priority classes (interactive > sync > batch >
  backfill), so a batch backlog delays an interactive query by at most
  one scheduling round instead of a full FIFO traversal;
* **concurrency safety** — workers call the node's RPC handlers, which
  take the system's read lock; ``append_block`` takes the write lock,
  so serving threads and the mining path interleave without torn state;
* **coalescing** — identical concurrent queries collapse into one proof
  generation inside the node's single-flight response cache, so a
  thundering herd on a hot address costs one computation;
* **observability** — per-request wait/service/total latency, queue
  depth, and every admission counter are recorded; :meth:`stats`
  reports counts, p50/p99, cache counters, and the admission state
  (exported in Prometheus text form by :mod:`repro.node.metrics`).

The request/response payloads are the exact wire messages of
:mod:`repro.node.messages`; :meth:`submit` routes each frame by the
handler its row in :data:`~repro.node.messages.WIRE_TAGS` names, so a
transport can hand every inbound frame to one entry point.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import List, Optional, Sequence, Tuple

from repro.analysis.latency import latency_summary
from repro.errors import BackpressureError, QueryError
from repro.node import messages as _messages
from repro.node.admission import DEFAULT_WEIGHTS, AdmissionController
from repro.node.full_node import FullNode


class _PendingRequest:
    __slots__ = ("payload", "handler", "future", "submitted_at")

    def __init__(
        self, payload: bytes, handler: str, future: "Future[bytes]"
    ) -> None:
        self.payload = payload
        self.handler = handler
        self.future = future
        self.submitted_at = time.perf_counter()


class QueryServer:
    """A worker pool serving one :class:`FullNode` to many clients.

    ``rate_limit`` (requests/second per client identity, ``None``
    disables) and ``rate_burst`` configure the per-client token
    buckets; ``watermarks`` overrides the staged-shedding entry depths
    (defaults to 50%/75%/90% of ``max_pending``).
    """

    def __init__(
        self,
        node: FullNode,
        num_workers: int = 4,
        max_pending: int = 64,
        latency_window: int = 8192,
        *,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        weights: Sequence[int] = DEFAULT_WEIGHTS,
        watermarks: "Optional[Tuple[int, int, int]]" = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        self.node = node
        self.num_workers = num_workers
        self.max_pending = max_pending
        self.admission = AdmissionController(
            max_pending,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            weights=weights,
            watermarks=watermarks,
        )
        self._submit_lock = threading.Lock()
        self._closed = False

        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._reorgs = 0
        self._in_flight = 0
        self._accepted = 0
        self._finished = 0
        self._peak_queue_depth = 0
        self._total_latency: "deque[float]" = deque(maxlen=latency_window)
        self._wait_latency: "deque[float]" = deque(maxlen=latency_window)
        self._service_latency: "deque[float]" = deque(maxlen=latency_window)

        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop,
                name=f"query-server-worker-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- client API ----------------------------------------------------------

    def submit(
        self, payload: bytes, client: Optional[str] = None
    ) -> "Future[bytes]":
        """Queue one raw request frame; resolves to the response bytes.

        ``client`` is the submitter's identity for rate limiting (the
        connection peer or hello-declared id; ``None`` bypasses the
        limiter — trusted in-process callers).  Raises a typed
        :class:`~repro.errors.BackpressureError` subclass when admission
        refuses (rate limited / shed / queue full) and
        :class:`QueryError` once closed.
        """
        if not payload:
            raise QueryError("empty request payload")
        row = _messages.WIRE_TAGS.get(payload[0])
        if row is None or row.route != _messages.ROUTE_POOLED:
            if row is not None and row.route == _messages.ROUTE_INLINE:
                # Ping, hello and (un)subscribe are connection-scoped:
                # NetServer answers them before the queue, and a
                # subscription binds a watch set to one socket's push
                # channel, which a request queue has no notion of.
                raise QueryError(
                    f"request tag {payload[0]} ({row.message.__name__}) is "
                    f"connection-scoped and needs a push-capable transport "
                    f"(serve the node over NetServer)"
                )
            raise QueryError(f"unknown request tag {payload[0]}")
        request = _PendingRequest(payload, row.handler, Future())
        with self._submit_lock:
            if self._closed:
                raise QueryError("query server is closed")
            try:
                priority = self.admission.submit(payload, client)
            except BackpressureError:
                with self._stats_lock:
                    self._rejected += 1
                raise
            depth = self.admission.enqueue(priority, request)
        with self._stats_lock:
            self._submitted += 1
            self._accepted += 1
            if depth > self._peak_queue_depth:
                self._peak_queue_depth = depth
        return request.future

    def submit_query(
        self,
        address: str,
        first_height: int = 1,
        last_height: int = 0,
        client: Optional[str] = None,
    ) -> "Future[bytes]":
        """Convenience: build and queue a history-query frame."""
        request = _messages.QueryRequest(address, first_height, last_height)
        return self.submit(request.serialize(), client)

    def query(
        self,
        address: str,
        first_height: int = 1,
        last_height: int = 0,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Blocking single query; returns the serialized response."""
        return self.submit_query(address, first_height, last_height).result(
            timeout
        )

    # -- chain mutation ------------------------------------------------------

    def reorg(self, fork_height: int, new_bodies) -> "tuple[int, int]":
        """Switch the served chain to a fork; returns ``(replaced, appended)``.

        The system's write lock serializes the switch against in-flight
        answers: requests already running finish against the old tip
        (and verify against it — the client re-syncs afterwards), while
        requests dequeued after the switch see only the new fork.  All
        height- and tip-keyed cache entries above the fork are dropped
        before the lock is released.
        """
        result = self.node.reorg(fork_height, new_bodies)
        with self._stats_lock:
            self._reorgs += 1
        return result

    def rollback_to(self, height: int) -> int:
        """Pop every served block above ``height`` (see :meth:`reorg`)."""
        removed = self.node.rollback_to(height)
        if removed:
            with self._stats_lock:
                self._reorgs += 1
        return removed

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has finished.

        Returns ``False`` if ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._stats_lock:
                idle = self._accepted == self._finished
            if idle:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.001)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; optionally finish the backlog first.

        With ``drain=False`` every queued-but-unstarted request fails
        with :class:`QueryError`; in-flight requests still complete.
        ``timeout`` bounds the drain and the worker joins together.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        if drain:
            self.drain(timeout)
        pending = self.admission.close()
        for _priority, item in pending:
            item.future.set_exception(
                QueryError("query server closed before request ran")
            )
            with self._stats_lock:
                self._finished += 1
        for worker in self._workers:
            if deadline is None:
                worker.join()
            else:
                worker.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            popped = self.admission.next_request()
            if popped is None:
                return
            priority, item = popped
            started_at = time.perf_counter()
            if not item.future.set_running_or_notify_cancel():
                self.admission.request_done(priority, 0.0)
                with self._stats_lock:
                    self._finished += 1
                continue
            with self._stats_lock:
                self._in_flight += 1
            try:
                handler = getattr(self.node, item.handler)
                response = handler(item.payload)
            except BaseException as exc:  # typed errors flow to the caller
                succeeded = False
                item.future.set_exception(exc)
            else:
                succeeded = True
                item.future.set_result(response)
            finished_at = time.perf_counter()
            self.admission.request_done(priority, finished_at - started_at)
            with self._stats_lock:
                self._in_flight -= 1
                self._finished += 1
                if succeeded:
                    self._completed += 1
                else:
                    self._failed += 1
                self._total_latency.append(finished_at - item.submitted_at)
                self._wait_latency.append(started_at - item.submitted_at)
                self._service_latency.append(finished_at - started_at)

    # -- observability -------------------------------------------------------

    def stats(self) -> "dict[str, object]":
        """Snapshot of counters, latency percentiles and cache state."""
        admission = self.admission.stats_dict()
        with self._stats_lock:
            report = {
                "workers": self.num_workers,
                "max_pending": self.max_pending,
                "submitted": self._submitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
                "reorgs": self._reorgs,
                "in_flight": self._in_flight,
                "queue_depth": admission["queue_depth"],
                "peak_queue_depth": self._peak_queue_depth,
                "latency": latency_summary(self._total_latency),
                "queue_wait": latency_summary(self._wait_latency),
                "service": latency_summary(self._service_latency),
            }
        report["admission"] = admission
        report["caches"] = {
            "responses": self.node.response_cache.stats(),
            **self.node.system.caches.stats(),
        }
        return report
