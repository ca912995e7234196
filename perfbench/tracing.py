"""Spans around the program's public calls, recorded from outside it.

Traced runs install wrappers (``Tracer.install``) on the calls each layer
exposes; untraced runs install none, so the end-to-end figures carry no
tracing cost.  A span is ``(name, start, end, parent, request id)``;
spans nest per thread, and the spans of one request share the id of the
root span that started it.  Spans stay in memory until the process ends
and then go to one JSON-lines file per process.

A layer's *self time* is its span's duration minus the time its child
spans cover.  The only probe present in every run is the frame-byte
counter (:class:`FrameBytes`), which adds one ``len`` per received
frame.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import json
import pathlib
import pstats
import threading
import time
from typing import Dict, List, Sequence, Tuple

from stats import median

Target = Tuple[object, str, str]  # (owner, attribute, span name)


def client_targets() -> List[Target]:
    """Layer boundaries the light client crosses."""
    from repro.node import light_node, netclient, subscribe
    from repro.node.messages import AggregatedBatchResponse, QueryResponse
    from repro.query import batch

    return [
        (netclient.ConnectionPool, "request", "netclient.request"),
        (netclient, "decompress_frame", "transport.decompress"),
        (QueryResponse, "deserialize", "messages.decode"),
        (light_node, "verify_result", "verifier.verify"),
        (AggregatedBatchResponse, "deserialize", "aggregate.decode"),
        (batch, "verify_batch_result", "batch.verify"),
        (subscribe, "verify_batch_result", "subscribe.verify"),
        (light_node.LightNode, "sync_headers", "light_node.header_sync"),
    ]


def server_targets() -> List[Target]:
    """Layer boundaries a served request or an append crosses."""
    from repro.node import full_node, net
    from repro.node.messages import QueryResponse
    from repro.node.subscribe import SubscriptionRegistry
    from repro.query import aggregate, batch
    from repro.query.builder import BuiltSystem

    return [
        (full_node.FullNode, "handle_query", "full_node.handle"),
        (full_node.FullNode, "handle_batch_query", "full_node.handle"),
        (full_node.FullNode, "handle_headers", "full_node.headers"),
        (full_node, "answer_query", "prover.answer"),
        (batch, "answer_batch_query", "batch.answer"),
        (QueryResponse, "serialize", "messages.encode"),
        (aggregate, "encode_aggregated_batch", "aggregate.encode"),
        (net, "compress_frame", "transport.compress"),
        (BuiltSystem, "append_block", "builder.append"),
        (BuiltSystem, "rollback_to", "builder.reorg"),
        # The registry's append listener: no public call wraps fan-out.
        (SubscriptionRegistry, "_on_append", "subscribe.fanout"),
    ]


def ingest_targets() -> List[Target]:
    """Layer boundaries of the durable append and restart paths."""
    from repro.query.builder import BuiltSystem
    from repro.storage import durable

    return [
        (durable.DurableStore, "append_block", "durable.append"),
        (durable.DurableStore, "reorg", "durable.reorg"),
        (durable.DurableStore, "rollback_to", "durable.rollback"),
        (durable.DurableStore, "open", "durable.open"),
        (durable, "build_system", "builder.build"),
        (BuiltSystem, "append_block", "builder.append"),
        (BuiltSystem, "rollback_to", "builder.reorg"),
    ]


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[list] = []
        self._ids = itertools.count(1)

    def _records(self) -> Tuple[list, list]:
        local = self._local
        try:
            return local.records, local.stack
        except AttributeError:
            local.records, local.stack = [], []
            with self._lock:
                self._threads.append(local.records)
            return local.records, local.stack

    def _open(self, name: str) -> list:
        records, stack = self._records()
        parent = stack[-1] if stack else -1
        request_id = records[parent][4] if parent >= 0 else next(self._ids)
        record = [name, time.perf_counter(), 0.0, parent, request_id]
        stack.append(len(records))
        records.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a request's root)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def install(self, targets: Sequence[Target]) -> None:
        for owner, attribute, name in targets:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attribute, replacement)

    def self_times(self) -> Dict[str, List[float]]:
        """Self time in seconds of every closed span, by span name."""
        result: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for records in threads:
            closed = [record for record in records if record[2]]
            child_time = [0.0] * len(records)
            for record in closed:
                if record[3] >= 0:
                    child_time[record[3]] += record[2] - record[1]
            for index, record in enumerate(records):
                if record[2]:
                    result.setdefault(record[0], []).append(
                        record[2] - record[1] - child_time[index]
                    )
        return result

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: call count, median and total self time (ms)."""
        return {
            name: {
                "calls": len(times),
                "self_p50_ms": median(times) * 1000.0,
                "self_total_ms": sum(times) * 1000.0,
            }
            for name, times in self.self_times().items()
        }

    def span_count(self) -> int:
        with self._lock:
            return sum(len(records) for records in self._threads)

    def dump(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            threads = list(self._threads)
        with open(path, "w", encoding="ascii") as out:
            for thread_index, records in enumerate(threads):
                for index, (name, start, end, parent, rid) in enumerate(records):
                    out.write(
                        json.dumps(
                            {
                                "thread": thread_index,
                                "span": index,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "request": rid,
                            }
                        )
                        + "\n"
                    )


class FrameBytes:
    """Per-thread byte counts of the frames a ``ConnectionPool`` receives:
    ``wire`` is the bytes on the socket (length prefix included), ``raw``
    the bytes after decompression."""

    def __init__(self) -> None:
        self._local = threading.local()

    def counter(self) -> List[int]:
        """This thread's ``[wire, raw]`` (created on first use)."""
        try:
            return self._local.counter
        except AttributeError:
            self._local.counter = [0, 0]
            return self._local.counter

    def install(self) -> None:
        from repro.node import net, netclient

        original = netclient.decompress_frame
        header = net.FRAME_HEADER.size
        local = self._local

        @functools.wraps(original)
        def counted(frame, *args, **kwargs):
            payload = original(frame, *args, **kwargs)
            counter = getattr(local, "counter", None)
            if counter is not None:
                counter[0] += len(frame) + header
                counter[1] += len(payload) + header
            return payload

        netclient.decompress_frame = counted


#: Packages whose self time the profiler pass attributes per block.
PROFILED_PACKAGES = ("crypto", "bloom", "merkle", "chain")


def profile_build(bodies, config) -> Dict[str, Dict[str, float]]:
    """Self time and call counts per package, per block, over one build.

    Call counts are exact for a given seed; the times carry cProfile's
    per-call cost and are only comparable between traced runs.
    """
    from repro.query.builder import build_system

    profiler = cProfile.Profile()
    profiler.enable()
    build_system(bodies, config)
    profiler.disable()
    totals = {
        package: {"self_s": 0.0, "calls": 0} for package in PROFILED_PACKAGES
    }
    for (filename, _line, _func), entry in pstats.Stats(profiler).stats.items():
        primitive_calls, _calls, self_time = entry[0], entry[1], entry[2]
        for package in PROFILED_PACKAGES:
            if f"/repro/{package}/" in filename.replace("\\", "/"):
                totals[package]["self_s"] += self_time
                totals[package]["calls"] += primitive_calls
    blocks = len(bodies)
    return {
        package: {
            "self_ms_per_block": total["self_s"] * 1000.0 / blocks,
            "calls_per_block": total["calls"] / blocks,
        }
        for package, total in totals.items()
    }
