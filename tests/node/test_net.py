"""The TCP transport, functionally: framing, deadlines, gates, errors.

Everything here runs over real loopback sockets — no mocked I/O.  The
invariant under test is that the socket layer is *transparent*: a query
answered over TCP is byte-identical to the in-process answer, every
server-side failure crosses the wire as the same typed exception the
in-process path raises, and nothing a server says can ever manufacture a
:class:`~repro.errors.VerificationError` on the client (that class is
reserved for proofs failing *local* checks).
"""

import asyncio
import gc
import logging
import socket
import threading
import time

import pytest

from repro.errors import (
    ConnectionLimitError,
    EncodingError,
    QueryError,
    RateLimitedError,
    RequestShedError,
    RequestTimeoutError,
    ServerOverloadedError,
    TransportError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import (
    BatchQueryRequest,
    ErrorResponse,
    PingRequest,
    PongResponse,
    QueryRequest,
)
from repro.node.net import FRAME_HEADER, EventLoopThread, NetServer
from repro.node.netclient import (
    ClientConnection,
    ConnectionPool,
    RemoteFullNode,
    error_from_frame,
)
from repro.node.server import QueryServer
from repro.node.session import RetryPolicy
from repro.node.subscribe import SubscriptionRegistry, SubscriptionSession
from repro.node.transport import FRAME_ZLIB, InProcessTransport


@pytest.fixture(scope="module")
def loop_thread():
    """One shared event-loop thread for every server in this module."""
    thread = EventLoopThread("test-net-loop")
    yield thread
    thread.stop()


@pytest.fixture()
def served_lvq(lvq_system, loop_thread):
    """An LVQ full node behind a loopback NetServer."""
    full_node = FullNode(lvq_system)
    server = NetServer(full_node, loop_thread=loop_thread)
    server.start()
    yield server, full_node
    server.close()


def _raw_exchange(address, frame, timeout=5.0):
    """One framed request/response on a throwaway raw socket."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(FRAME_HEADER.pack(len(frame)) + frame)
        header = _read_exact(sock, FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        return _read_exact(sock, length)


def _read_exact(sock, length):
    chunks = []
    while length:
        chunk = sock.recv(length)
        if not chunk:
            raise AssertionError("peer closed before the full frame")
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# transparency: socket answers == in-process answers


def test_query_over_tcp_matches_in_process(served_lvq, probe_addresses):
    server, full_node = served_lvq
    light = LightNode.from_full_node(full_node)
    address = probe_addresses["Addr5"]

    request = QueryRequest(address).serialize()
    over_wire = _raw_exchange(server.address, request)
    in_process = full_node.handle_query(request)
    assert over_wire == in_process, "the socket layer must be transparent"

    remote = RemoteFullNode(server.address)
    try:
        history = light.query_history(remote, address, InProcessTransport())
    finally:
        remote.close()
    baseline = light.query_history(full_node, address)
    assert [(h, t.txid()) for h, t in history.transactions] == [
        (h, t.txid()) for h, t in baseline.transactions
    ]


class _StubNode:
    """A target whose answer is long and compressible — unlike real
    responses, which are hash-dense and often pass through plain."""

    tip_height = 0

    def handle_query(self, payload):
        return b"\x02" + b"A" * 2000

    handle_batch_query = handle_headers = handle_query


def test_compressed_request_gets_mirrored_codec(loop_thread, probe_addresses):
    from repro.node.transport import compress_frame, decompress_frame

    stub = _StubNode()
    with NetServer(stub, loop_thread=loop_thread) as server:
        # A long repetitive address so the *request* actually compresses
        # (tiny or hash-dense frames legitimately pass through plain).
        request = QueryRequest("A" * 512).serialize()
        compressed = compress_frame(request, "zlib", min_size=0)
        assert compressed[0] == FRAME_ZLIB
        wire = _raw_exchange(server.address, compressed)
        assert wire[0] == FRAME_ZLIB, "response must mirror the request codec"
        assert decompress_frame(wire) == stub.handle_query(request)

        plain = _raw_exchange(server.address, request)
        assert plain[0] != FRAME_ZLIB, "plain request ⇒ plain response"


def test_ping_pong_inline(served_lvq, lvq_system):
    server, _ = served_lvq
    response = _raw_exchange(server.address, PingRequest(1234).serialize())
    pong = PongResponse.deserialize(response)
    assert pong.nonce == 1234
    assert pong.tip_height == lvq_system.tip_height


def test_query_server_target_round_trip(lvq_system, loop_thread, probe_addresses):
    full_node = FullNode(lvq_system)
    query_server = QueryServer(full_node, num_workers=2)
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            request = QueryRequest(probe_addresses["Addr4"]).serialize()
            assert _raw_exchange(server.address, request) == (
                full_node.handle_query(request)
            )
    finally:
        query_server.close()


# ---------------------------------------------------------------------------
# typed errors across the wire


def test_server_error_becomes_typed_client_exception(served_lvq):
    server, _ = served_lvq
    remote = RemoteFullNode(server.address)
    try:
        with pytest.raises(QueryError):
            # Height 0 is the genesis sentinel: the node rejects it.
            remote.handle_query(QueryRequest("addr", 5, 2).serialize())
    finally:
        remote.close()


def test_unknown_tag_rejected_with_typed_frame(served_lvq):
    server, _ = served_lvq
    response = _raw_exchange(server.address, bytes([200]) + b"junk")
    error = ErrorResponse.deserialize(response)
    assert error.kind == "QueryError"
    rebuilt = error_from_frame(error)
    assert isinstance(rebuilt, QueryError)


def test_wire_can_never_fabricate_verification_errors():
    """A malicious server naming a VerificationError kind gets a generic
    TransportError on the client: *only local checks* may claim a proof
    failed verification (otherwise a liar could poison peer scoring)."""
    for kind in ("VerificationError", "CorrectnessError", "NoSuchKind"):
        rebuilt = error_from_frame(ErrorResponse(kind, "you failed"))
        assert isinstance(rebuilt, TransportError)
        assert not isinstance(rebuilt, VerificationError)


def test_overload_crosses_wire_with_params(lvq_system, loop_thread):
    full_node = FullNode(lvq_system)
    query_server = QueryServer(full_node, num_workers=1, max_pending=1)
    release = threading.Event()
    original = full_node.handle_query

    def slow_handle(payload):
        release.wait(5.0)
        return original(payload)

    full_node.handle_query = slow_handle
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            request = QueryRequest("a").serialize()
            remote = RemoteFullNode(server.address, size=8)
            results, errors = [], []

            def fire():
                try:
                    results.append(remote.handle_query(request))
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            release.set()
            for thread in threads:
                thread.join(10.0)
            remote.close()
            overloaded = [
                e for e in errors if isinstance(e, ServerOverloadedError)
            ]
            assert overloaded, f"expected overload rejections, got {errors}"
            assert overloaded[0].max_pending == 1  # params survived the wire
    finally:
        full_node.handle_query = original
        release.set()
        query_server.close()


# ---------------------------------------------------------------------------
# limits, deadlines, reaping


def test_connection_gate_rejects_with_typed_frame(lvq_system, loop_thread):
    server = NetServer(
        FullNode(lvq_system), max_connections=1, loop_thread=loop_thread
    )
    with server:
        first = socket.create_connection(server.address, timeout=5.0)
        try:
            # Prove the first connection is actually being served.
            first.sendall(
                FRAME_HEADER.pack(len(PingRequest(1).serialize()))
                + PingRequest(1).serialize()
            )
            header = _read_exact(first, FRAME_HEADER.size)
            _read_exact(first, FRAME_HEADER.unpack(header)[0])

            response = _raw_exchange(
                server.address, PingRequest(2).serialize()
            )
            error = ErrorResponse.deserialize(response)
            assert error.kind == "ConnectionLimitError"
            rebuilt = error_from_frame(error)
            assert isinstance(rebuilt, ConnectionLimitError)
            assert rebuilt.max_connections == 1
        finally:
            first.close()
        assert server.stats.connections_rejected >= 1


def test_idle_connections_are_reaped(lvq_system, loop_thread):
    server = NetServer(
        FullNode(lvq_system), idle_timeout=0.15, loop_thread=loop_thread
    )
    with server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "idle connection should see EOF"
        deadline = time.monotonic() + 2.0
        while server.stats.connections_reaped == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)


def test_mid_frame_stall_hits_read_deadline(lvq_system, loop_thread):
    server = NetServer(
        FullNode(lvq_system),
        idle_timeout=5.0,
        read_timeout=0.15,
        loop_thread=loop_thread,
    )
    with server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(FRAME_HEADER.pack(100) + b"only-a-prefix")
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "stalled frame must close the link"
        deadline = time.monotonic() + 2.0
        while server.stats.deadline_closes == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)


def test_oversized_and_empty_frames_rejected(lvq_system, loop_thread):
    server = NetServer(
        FullNode(lvq_system), max_frame_bytes=1024, loop_thread=loop_thread
    )
    with server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(FRAME_HEADER.pack(1 << 30))  # huge claim, no body
            header = _read_exact(sock, FRAME_HEADER.size)
            body = _read_exact(sock, FRAME_HEADER.unpack(header)[0])
            error = ErrorResponse.deserialize(body)
            assert error.kind == "EncodingError"
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "framing is untrusted after abuse"

        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(FRAME_HEADER.pack(0))
            header = _read_exact(sock, FRAME_HEADER.size)
            body = _read_exact(sock, FRAME_HEADER.unpack(header)[0])
            assert ErrorResponse.deserialize(body).kind == "EncodingError"


def test_client_send_cap_is_symmetric(lvq_system, loop_thread):
    with NetServer(FullNode(lvq_system), loop_thread=loop_thread) as server:
        pool = ConnectionPool(server.address, max_frame_bytes=64)
        try:
            with pytest.raises(EncodingError):
                pool.request(b"\x01" + b"x" * 100)  # never leaves the host
            assert pool.stats["connects"] == 0
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# lifecycle: drain and abort


def test_graceful_drain_finishes_in_flight_requests(lvq_system, loop_thread):
    full_node = FullNode(lvq_system)
    started = threading.Event()
    original = full_node.handle_query

    def slow_handle(payload):
        started.set()
        time.sleep(0.25)
        return original(payload)

    full_node.handle_query = slow_handle
    server = NetServer(full_node, loop_thread=loop_thread)
    server.start()
    request = QueryRequest("nobody").serialize()
    result = {}

    def client():
        result["frame"] = _raw_exchange(server.address, request)

    thread = threading.Thread(target=client)
    thread.start()
    assert started.wait(5.0)
    server.close(drain=True, timeout=5.0)  # called *while* request runs
    thread.join(5.0)
    assert result["frame"] == original(request), (
        "drain must let the in-flight request finish and flush"
    )


def test_abort_resets_live_connections(lvq_system, loop_thread):
    full_node = FullNode(lvq_system)
    started = threading.Event()
    original = full_node.handle_query
    full_node.handle_query = lambda p: (started.set(), time.sleep(5.0), b"")[2]
    server = NetServer(full_node, loop_thread=loop_thread)
    server.start()
    pool = ConnectionPool(server.address, request_timeout=10.0)
    errors = []

    def client():
        try:
            pool.request(QueryRequest("nobody").serialize())
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    thread = threading.Thread(target=client)
    thread.start()
    assert started.wait(5.0)
    server.abort()
    thread.join(5.0)
    pool.close()
    assert len(errors) == 1
    assert isinstance(errors[0], TransportError)
    assert not isinstance(errors[0], RequestTimeoutError), (
        "an abort is a hard failure, not a timeout"
    )


async def _live_tasks():
    current = asyncio.current_task()
    return [task for task in asyncio.all_tasks() if task is not current]


@pytest.mark.parametrize("stop", ["close", "abort"])
def test_stop_leaves_no_pending_task(
    lvq_system, probe_addresses, caplog, stop
):
    """close()/abort() wait out every connection and push task, so an
    owned loop stops with nothing pending and nothing is destroyed."""
    address = probe_addresses["Addr4"]
    node = FullNode(lvq_system)
    registry = SubscriptionRegistry(node)
    server = NetServer(node, subscriptions=registry).start()  # owns its loop
    pool = ConnectionPool(server.address, size=1)
    session = SubscriptionSession(
        LightNode.from_full_node(node), server.address, [address],
        reconnect=False,
    )
    try:
        pool.request(QueryRequest(address).serialize())  # stays pooled
        session.start()
        assert session.wait_subscribed(5.0)
        tasks = server._loop_thread.call(_live_tasks())
        assert len(tasks) >= 3, "two connections plus one push task"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            getattr(server, stop)()
            pending = [task for task in tasks if not task.done()]
            del tasks
            gc.collect()
        assert not pending, f"tasks still pending after {stop}(): {pending}"
        assert not [
            record for record in caplog.records
            if "Task was destroyed" in record.getMessage()
        ]
    finally:
        session.stop()
        pool.close()
        registry.close()


@pytest.mark.parametrize("stop", ["close", "abort"])
def test_owned_query_server_lives_from_start_to_stop(lvq_system, stop):
    """A bare node's QueryServer is built by start() and stopped by
    close()/abort(): an unstarted server owns no worker threads, and a
    stopped one leaves none running."""
    node = FullNode(lvq_system)
    unstarted = NetServer(node)
    assert unstarted.query_server is None
    getattr(unstarted, stop)()
    server = NetServer(node).start()
    workers = list(server.query_server._workers)
    assert all(worker.is_alive() for worker in workers)
    getattr(server, stop)()
    for worker in workers:
        worker.join(5.0)
    assert not any(worker.is_alive() for worker in workers)


# ---------------------------------------------------------------------------
# the client pool


def test_pool_reuses_healthy_connections(served_lvq, probe_addresses):
    server, _ = served_lvq
    pool = ConnectionPool(server.address, size=2)
    try:
        request = QueryRequest(probe_addresses["Addr4"]).serialize()
        for _ in range(5):
            pool.request(request)
        assert pool.stats["connects"] == 1, "serial requests reuse one socket"
        assert pool.stats["requests"] == 5
    finally:
        pool.close()


def test_pool_backoff_grows_and_blocks():
    # A port with no listener: every connect fails fast.
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_address = placeholder.getsockname()
    placeholder.close()

    pool = ConnectionPool(
        dead_address,
        connect_timeout=0.2,
        # Far longer than the test: the block must show.
        backoff=RetryPolicy(base_delay=30.0, max_delay=60.0),
        seed=7,
    )
    try:
        with pytest.raises(TransportError):
            pool.request(b"\x0c\x00")
        assert pool.stats["connect_failures"] == 1
        with pytest.raises(TransportError, match="backed off"):
            pool.request(b"\x0c\x00")  # inside the backoff window: no dial
        assert pool.stats["connect_failures"] == 1, (
            "a blocked attempt must not hit the network"
        )
        assert pool.stats["backoff_seconds"] > 0
    finally:
        pool.close()


def test_pool_evicts_dead_connections_after_server_restart(
    lvq_system, loop_thread, probe_addresses
):
    full_node = FullNode(lvq_system)
    server = NetServer(full_node, loop_thread=loop_thread)
    server.start()
    address = server.address
    pool = ConnectionPool(
        address, backoff=RetryPolicy(base_delay=0.01, max_delay=0.05)
    )
    request = QueryRequest(probe_addresses["Addr4"]).serialize()
    try:
        first = pool.request(request)
        server.abort()  # the pooled connection is now a dead socket
        replacement = NetServer(
            full_node, host=address[0], port=address[1], loop_thread=loop_thread
        )
        replacement.start()
        try:
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    second = pool.request(request)
                    break
                except TransportError:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            assert second == first
            assert (
                pool.stats["health_evictions"] + pool.stats["failovers"] >= 1
            ), "the dead pooled socket must have been detected"
        finally:
            replacement.close()
    finally:
        pool.close()


def test_remote_node_tip_height_via_pong(served_lvq, lvq_system):
    server, _ = served_lvq
    remote = RemoteFullNode(server.address)
    try:
        assert remote.tip_height == lvq_system.tip_height
    finally:
        remote.close()


def test_client_connection_rejects_bad_length_claims(served_lvq):
    server, _ = served_lvq
    connection = ClientConnection(server.address, max_frame_bytes=16)
    try:
        # The pong fits; now shrink the cap below the response size and
        # confirm the client refuses to read an over-cap frame.
        connection.max_frame_bytes = 2
        with pytest.raises(EncodingError):
            connection.request(PingRequest(9).serialize(), timeout=5.0)
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# §11 admission control over live sockets


def test_retry_after_params_roundtrip_through_error_frames():
    """Every backpressure refusal carries its retry hint (integer
    milliseconds in the params tuple) across serialize/deserialize and
    rebuilds into the same typed exception with the hint intact."""
    originals = [
        ServerOverloadedError(7, 4, retry_after=0.25),
        ConnectionLimitError(9, 8, retry_after=1.5),
        RateLimitedError("hot", retry_after=0.125),
        RequestShedError("batch", "shed_low", retry_after=2.0),
    ]
    for original in originals:
        frame = ErrorResponse.from_exception(original).serialize()
        rebuilt = error_from_frame(ErrorResponse.deserialize(frame))
        assert type(rebuilt) is type(original)
        assert rebuilt.retry_after == pytest.approx(
            original.retry_after, abs=0.001
        ), f"hint lost for {type(original).__name__}"
    shed = error_from_frame(
        ErrorResponse.deserialize(
            ErrorResponse.from_exception(originals[3]).serialize()
        )
    )
    assert shed.priority == "batch"
    assert shed.state == "shed_low"


def test_rate_limited_client_gets_typed_frame_others_unaffected(
    lvq_system, loop_thread
):
    """A hot client exhausting its token bucket sees RateLimitedError
    over the wire; a cold client with its own hello identity is served
    without ever noticing."""
    query_server = QueryServer(
        FullNode(lvq_system), num_workers=2, rate_limit=5.0, rate_burst=2.0
    )
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            hot = RemoteFullNode(server.address, client_id="hot")
            cold = RemoteFullNode(server.address, client_id="cold")
            request = QueryRequest("a").serialize()
            try:
                limited = None
                for _ in range(4):
                    try:
                        hot.handle_query(request)
                    except RateLimitedError as error:
                        limited = error
                        break
                assert limited is not None, "hot client never rate limited"
                assert limited.retry_after is not None
                assert limited.retry_after > 0
                cold.handle_query(request)  # own bucket: still admitted
                assert server.stats.hellos >= 2
                admission = query_server.stats()["admission"]
                assert admission["ratelimited"] >= 1
                assert hot.pool.stats["backpressure_signals"] >= 1
            finally:
                hot.close()
                cold.close()
    finally:
        query_server.close()


def test_pool_honors_retry_after_before_next_request(
    lvq_system, loop_thread
):
    """After a rate-limit frame the pool defers its next request for
    the hinted interval instead of hammering — and then succeeds."""
    query_server = QueryServer(
        FullNode(lvq_system), num_workers=2, rate_limit=10.0, rate_burst=1.0
    )
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            remote = RemoteFullNode(server.address, client_id="eager")
            request = QueryRequest("a").serialize()
            try:
                remote.handle_query(request)  # spends the only token
                with pytest.raises(RateLimitedError):
                    remote.handle_query(request)
                started = time.monotonic()
                remote.handle_query(request)  # deferred, then admitted
                elapsed = time.monotonic() - started
                assert elapsed >= 0.05, (
                    f"pool retried after only {elapsed * 1000:.0f}ms"
                )
                assert remote.pool.stats["backpressure_wait_seconds"] > 0
            finally:
                remote.close()
    finally:
        query_server.close()


def test_queue_pressure_sheds_batch_class_with_typed_frame(
    lvq_system, loop_thread
):
    """With the queue over the low watermark, batch-class traffic is
    refused with a typed, named RequestShedError frame while the
    interactive work already queued keeps its place."""
    full_node = FullNode(lvq_system)
    gate = threading.Event()
    original = full_node.handle_query

    def gated_handle(payload):
        gate.wait(10.0)
        return original(payload)

    full_node.handle_query = gated_handle
    query_server = QueryServer(
        full_node,
        num_workers=1,
        max_pending=64,
        watermarks=(2, 4, 6),
    )
    feeders = []
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            # Four interactive queries: one occupies the worker, three
            # queue up and push the shedder past the low watermark.
            request = QueryRequest("a").serialize()
            for _ in range(4):
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.sendall(FRAME_HEADER.pack(len(request)) + request)
                feeders.append(sock)
            deadline = time.monotonic() + 5.0
            while query_server.admission.state() == "normal":
                assert time.monotonic() < deadline, (
                    f"never shed: depth={query_server.admission.depth()}"
                )
                time.sleep(0.01)

            remote = RemoteFullNode(server.address, client_id="batcher")
            try:
                with pytest.raises(RequestShedError) as info:
                    remote.handle_batch_query(
                        BatchQueryRequest(["a", "b"]).serialize()
                    )
                assert info.value.priority == "batch"
                assert info.value.state == "shed_batch"
                assert info.value.retry_after is not None
                assert info.value.retry_after > 0
            finally:
                remote.close()
            gate.set()
    finally:
        gate.set()
        for sock in feeders:
            sock.close()
        query_server.close()
        full_node.handle_query = original


def test_hello_narrows_identity_below_shared_host(lvq_system, loop_thread):
    """Two pools on the same loopback host with distinct hello ids get
    distinct token buckets: one spending its budget never charges the
    other (without hello both would share the peer-host identity)."""
    query_server = QueryServer(
        FullNode(lvq_system), num_workers=2, rate_limit=1.0, rate_burst=1.0
    )
    try:
        with NetServer(query_server, loop_thread=loop_thread) as server:
            alice = RemoteFullNode(server.address, client_id="alice")
            bob = RemoteFullNode(server.address, client_id="bob")
            request = QueryRequest("a").serialize()
            try:
                alice.handle_query(request)
                with pytest.raises(RateLimitedError):
                    alice.handle_query(request)
                bob.handle_query(request)  # separate identity, full bucket
            finally:
                alice.close()
                bob.close()
            assert server.stats.hellos == 2
    finally:
        query_server.close()


# ---------------------------------------------------------------------------
# the real daemon: `python -m repro serve` as a subprocess


def test_repro_serve_subprocess_lifecycle(tmp_path):
    """Spawn the actual CLI daemon, query it over TCP, SIGTERM it, and
    assert a graceful drain: exit code 0 and the served-frames summary.
    This is the full packaging path — a crash after the "serving on"
    line (not reachable from in-process NetServer tests) fails here."""
    import os
    import re
    import signal
    import subprocess
    import sys

    import repro

    from repro.workload.generator import WorkloadParams, generate_workload

    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--blocks",
            "24",
            "--txs-per-block",
            "6",
            "--port",
            "0",
            "--workers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": src_root},
    )
    try:
        deadline = time.monotonic() + 60.0
        address = None
        while address is None:
            line = process.stdout.readline()
            assert (
                process.poll() is None and time.monotonic() < deadline
            ), f"daemon died before binding: {line!r}"
            match = re.search(r"serving on ([0-9.]+):(\d+)", line)
            if match:
                address = (match.group(1), int(match.group(2)))

        workload = generate_workload(
            WorkloadParams(num_blocks=24, txs_per_block=6, seed=2020)
        )
        remote = RemoteFullNode(address)
        try:
            assert remote.tip_height == 24  # genesis + 24 workload blocks
            response = remote.handle_query(
                QueryRequest(workload.probe_addresses["Addr4"]).serialize()
            )
            assert response and response[0] == 2  # QueryResponse tag
        finally:
            remote.close()

        process.send_signal(signal.SIGTERM)
        output = process.stdout.read()
        assert process.wait(30.0) == 0
        assert "draining..." in output
        assert re.search(r"served \d+ frames over \d+ connections", output)
    finally:
        if process.poll() is None:
            process.kill()
