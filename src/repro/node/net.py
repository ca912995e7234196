"""Length-framed asyncio TCP serving for the query protocol (PROTOCOL.md §9).

Everything before this module exchanged frames through a function call;
this is the piece that puts them on a real socket.  The wire format is
deliberately minimal — a 4-byte big-endian length prefix followed by one
existing wire-tag frame (a :data:`~repro.node.messages.WIRE_TAGS` tag, or
a FRAME_ZLIB/FRAME_ZSTD compressed frame) — so every byte after the prefix
is already covered by the strictness and chaos suites.

* :class:`NetServer` — serves a :class:`~repro.node.server.QueryServer`
  (wrapping a bare :class:`~repro.node.full_node.FullNode` in one) over
  TCP with per-connection read/write deadlines, idle-connection reaping, a
  max-concurrent-connections gate that rejects with a typed
  :class:`~repro.errors.ConnectionLimitError` frame, graceful drain, and
  an :meth:`NetServer.abort` hard-kill for crash testing.  Handler
  failures cross the wire as :class:`~repro.node.messages.ErrorResponse`
  frames, so the client rebuilds the same typed exceptions the
  in-process path raises.
* :class:`SocketFaultInjector` — a frame-aware man-in-the-middle proxy
  speaking the same FaultSchedule language as PR 2's
  :class:`~repro.node.faults.FaultyTransport`, but with the faults
  realized at the socket layer: connection reset (RST), mid-frame
  stall, partial write followed by an abrupt FIN, byte corruption,
  frame swallowing, duplication and reordering.

The event loop runs on a dedicated daemon thread
(:class:`EventLoopThread`), so synchronous code — tests, the CLI, the
thread-based :class:`~repro.node.server.QueryServer` — drives servers
without owning an asyncio loop; many servers can share one loop thread.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time
from collections import deque
from typing import Callable, Optional, Set, Tuple

from repro.errors import (
    ConnectionLimitError,
    EncodingError,
    QueryError,
    ReproError,
)
from repro.node import messages as _messages
from repro.node.faults import FaultKind, FaultSchedule
from repro.node.server import QueryServer
from repro.node.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_ZLIB,
    FRAME_ZSTD,
    compress_frame,
    decompress_frame,
)

#: Frame header: payload length, 4-byte big-endian, length >= 1.
FRAME_HEADER = struct.Struct(">I")


class EventLoopThread:
    """An asyncio loop on a daemon thread, driven from synchronous code."""

    def __init__(self, name: str = "repro-net-loop") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        self.loop.run_forever()

    def call(self, coroutine, timeout: Optional[float] = None):
        """Run ``coroutine`` on the loop; block for (and return) its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        if not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=5.0)
            self.loop.close()


class NetServerStats:
    """Connection- and frame-level counters for one :class:`NetServer`."""

    __slots__ = (
        "connections_accepted",
        "connections_rejected",
        "connections_reaped",
        "deadline_closes",
        "frames_in",
        "frames_out",
        "bytes_in",
        "bytes_out",
        "errors_sent",
        "pings",
        "hellos",
        "pushes",
        "subscriptions_accepted",
        "subscribers_reaped",
    )

    def __init__(self) -> None:
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.connections_reaped = 0
        self.deadline_closes = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors_sent = 0
        self.pings = 0
        self.hellos = 0
        self.pushes = 0
        self.subscriptions_accepted = 0
        self.subscribers_reaped = 0

    def as_dict(self) -> "dict[str, int]":
        return {name: getattr(self, name) for name in self.__slots__}


class _PushChannel:
    """Bounded server→client outbox bridging registry threads to one
    connection's asyncio push task (the §10 slow-consumer guard).

    ``push``/``evict`` run on whatever thread appended the block — the
    :class:`~repro.node.subscribe.SubscriptionRegistry` fans out inside
    the system's append listener, under the write lock — so they take a
    plain threading lock and wake the event loop with
    ``call_soon_threadsafe``.  The push task drains frames FIFO.

    The outbox bound is enforced here: ``push`` past the bound returns
    ``"overflow"`` (the registry's cue to evict), and ``evict`` reclaims
    everything queued, replacing it with one final typed frame built
    from the drop count.
    """

    __slots__ = (
        "max_outbox",
        "_lock",
        "_frames",
        "_evicted",
        "_closed",
        "_event",
        "_loop",
    )

    def __init__(
        self, loop: asyncio.AbstractEventLoop, max_outbox: int
    ) -> None:
        self.max_outbox = max_outbox
        self._lock = threading.Lock()
        self._frames: "deque[bytes]" = deque()
        self._evicted = False
        self._closed = False
        self._event = asyncio.Event()
        self._loop = loop

    def _wake(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._event.set)
        except RuntimeError:
            pass  # loop already shut down; the connection is gone anyway

    def push(self, frame: bytes) -> str:
        with self._lock:
            if self._closed or self._evicted:
                return "closed"
            if len(self._frames) >= self.max_outbox:
                return "overflow"
            self._frames.append(frame)
        self._wake()
        return "ok"

    def evict(self, frame_factory: Callable[[int], bytes]) -> int:
        with self._lock:
            if self._closed or self._evicted:
                return 0
            # Everything queued plus the frame that overflowed the bound.
            dropped = len(self._frames) + 1
            self._frames.clear()
            self._frames.append(frame_factory(dropped))
            self._evicted = True
        self._wake()
        return dropped

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._frames.clear()
        self._wake()

    def drain(self) -> "Tuple[list[bytes], bool, bool]":
        """Take every queued frame; returns ``(frames, evicted, closed)``."""
        with self._lock:
            frames = list(self._frames)
            self._frames.clear()
            self._event.clear()
            return frames, self._evicted, self._closed

    async def wait(self) -> None:
        await self._event.wait()


class _ConnState:
    """Per-connection mutable state.

    ``write_lock`` serializes response and push writes on one socket so
    a pushed frame can never interleave with a response frame's bytes;
    ``channel``/``push_task`` exist only once the connection subscribes.
    ``peer`` is the socket peer host — the default rate-limit identity —
    and ``client_id`` the finer identity a §11 hello frame declared.
    """

    __slots__ = ("write_lock", "channel", "push_task", "peer", "client_id")

    def __init__(self, peer: str = "") -> None:
        self.write_lock = asyncio.Lock()
        self.channel: Optional[_PushChannel] = None
        self.push_task: Optional[asyncio.Task] = None
        self.peer = peer
        self.client_id: Optional[str] = None

    @property
    def client(self) -> str:
        """Rate-limit identity: the declared id, else the peer host."""
        return self.client_id if self.client_id else self.peer


class NetServer:
    """One node served over loopback/LAN TCP with defensive deadlines.

    ``target`` is a :class:`~repro.node.server.QueryServer`: pooled
    requests go through its admission control, bounded queue and worker
    pool, so overload surfaces as a typed
    :class:`~repro.errors.BackpressureError` frame.  A bare
    :class:`~repro.node.full_node.FullNode` is wrapped in a
    default-settings ``QueryServer`` that this server owns and closes;
    pass an explicit one for a deeper queue or other limits.  Requests
    the wire-tag table routes inline (ping, hello, subscribe,
    unsubscribe) are answered on the connection, never queued.

    Deadline semantics (PROTOCOL.md §9.3):

    * **idle** — a connection that sends no new frame header within
      ``idle_timeout`` is reaped;
    * **read** — once a frame has started, the rest of it must arrive
      within ``read_timeout``, else the connection is closed (a stalled
      or half-delivered frame cannot be resynchronized);
    * **write** — a response that cannot be flushed within
      ``write_timeout`` closes the connection (slow-consumer guard).

    The concurrency gate: at most ``max_connections`` connections are
    served; beyond that the server answers a single
    :class:`~repro.errors.ConnectionLimitError` frame and closes.

    When a :class:`~repro.node.subscribe.SubscriptionRegistry` is passed
    as ``subscriptions``, connections may also carry §10 watch streams:
    subscribe/unsubscribe requests are answered inline, and a per-
    connection push task interleaves server-initiated frames with the
    request/response traffic (serialized by a per-connection write
    lock).  The idle deadline still applies — a subscriber keeps its
    connection alive with keepalive pings, and one that goes quiet is
    reaped like any other connection (counted separately in
    ``stats.subscribers_reaped``).
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        idle_timeout: float = 30.0,
        read_timeout: float = 10.0,
        write_timeout: float = 10.0,
        subscriptions=None,
        push_outbox: int = 256,
        push_buffer_bytes: Optional[int] = None,
        loop_thread: Optional[EventLoopThread] = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"need at least 1 connection, {max_connections}")
        if max_frame_bytes < 1:
            raise ValueError(f"bad frame limit {max_frame_bytes}")
        if push_outbox < 2:
            raise ValueError(f"push outbox bound must be >= 2, {push_outbox}")
        if push_buffer_bytes is not None and push_buffer_bytes < 0:
            raise ValueError(f"bad push buffer bound {push_buffer_bytes}")
        # A bare node is wrapped in start(), so a server that is never
        # started owns no worker threads.
        self._target = target
        self._owns_query_server = not isinstance(target, QueryServer)
        self.query_server: Optional[QueryServer] = (
            None if self._owns_query_server else target
        )
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.write_timeout = write_timeout
        self.subscriptions = subscriptions
        self.push_outbox = push_outbox
        self.push_buffer_bytes = push_buffer_bytes
        self.stats = NetServerStats()
        self._owns_loop = loop_thread is None
        self._loop_thread = loop_thread
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._active = 0
        self._busy = 0
        self._draining = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        return (self.host, self.port)

    def start(self) -> "NetServer":
        if self.query_server is None:
            self.query_server = QueryServer(self._target)
        if self._loop_thread is None:
            self._loop_thread = EventLoopThread()
        self._loop_thread.call(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally let in-flight frames finish first.

        ``timeout`` bounds the whole shutdown, owned query server included.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        if self._loop_thread is not None:
            self._loop_thread.call(self._close(drain, timeout))
            if self._owns_loop:
                self._loop_thread.stop()
        if self._owns_query_server and self.query_server is not None:
            remaining = max(0.0, deadline - time.monotonic())
            self.query_server.close(drain=drain, timeout=remaining)

    async def _close(self, drain: bool, timeout: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            deadline = asyncio.get_running_loop().time() + timeout
            while self._busy and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.002)
        for writer in list(self._writers):
            writer.close()
        await self._cancel_tasks()
        if self._server is not None:
            await self._server.wait_closed()

    def abort(self) -> None:
        """Kill the server *now*: every live connection is reset without
        flushing — the crash the kill-mid-request harness injects."""
        if self._loop_thread is None:
            return
        self._closed = True
        self._loop_thread.call(self._abort())
        if self._owns_loop:
            self._loop_thread.stop()
        if self._owns_query_server and self.query_server is not None:
            # Don't wait for a running handler: its answer has no socket.
            self.query_server.close(drain=False, timeout=0)

    async def _abort(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.transport.abort()
        await self._cancel_tasks()
        if self._server is not None:
            await self._server.wait_closed()

    async def _cancel_tasks(self) -> None:
        """Cancel every connection and push task and wait them out, so
        none is left pending when the loop stops."""
        while self._tasks:
            tasks = list(self._tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._track(asyncio.current_task())
        if self._draining or self._active >= self.max_connections:
            self.stats.connections_rejected += 1
            error = ConnectionLimitError(self._active, self.max_connections)
            try:
                await self._write_frame(
                    writer, _messages.ErrorResponse.from_exception(error).serialize()
                )
            except (ConnectionError, asyncio.TimeoutError, OSError):
                pass
            writer.close()
            return
        self._active += 1
        self.stats.connections_accepted += 1
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # close()/abort() tearing the connection down
        finally:
            self._active -= 1
            self._writers.discard(writer)
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = str(peername[0]) if peername else "unknown"
        state = _ConnState(peer)
        try:
            await self._serve_frames(reader, writer, state)
        finally:
            if state.push_task is not None:
                state.push_task.cancel()
            if state.channel is not None:
                state.channel.close()
                if self.subscriptions is not None:
                    self.subscriptions.detach_channel(state.channel)

    async def _serve_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: _ConnState,
    ) -> None:
        while not self._draining:
            # Idle deadline: arm it on the *first* byte of the next
            # frame's header; a quiet connection is reaped, a started
            # frame falls under the stricter read deadline below.  A
            # subscriber's keepalive pings are frames like any other, so
            # a healthy watch connection refreshes the deadline each
            # ping; only a genuinely silent one is reaped.
            try:
                first = await asyncio.wait_for(
                    reader.readexactly(1), self.idle_timeout
                )
            except asyncio.TimeoutError:
                self.stats.connections_reaped += 1
                if (
                    state.channel is not None
                    and self.subscriptions is not None
                    and self.subscriptions.channel_active(state.channel)
                ):
                    self.stats.subscribers_reaped += 1
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # clean EOF or client went away between frames
            try:
                rest = await asyncio.wait_for(
                    reader.readexactly(FRAME_HEADER.size - 1),
                    self.read_timeout,
                )
                (length,) = FRAME_HEADER.unpack(first + rest)
                if length == 0 or length > self.max_frame_bytes:
                    self.stats.errors_sent += 1
                    async with state.write_lock:
                        await self._write_frame(
                            writer,
                            _messages.ErrorResponse.from_exception(
                                EncodingError(
                                    f"frame of {length} bytes outside "
                                    f"[1, {self.max_frame_bytes}]"
                                )
                            ).serialize(),
                        )
                    return  # framing can't be trusted past this point
                frame = await asyncio.wait_for(
                    reader.readexactly(length), self.read_timeout
                )
            except asyncio.TimeoutError:
                self.stats.deadline_closes += 1
                return  # mid-frame stall: no way to resync, drop the link
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            self.stats.frames_in += 1
            self.stats.bytes_in += FRAME_HEADER.size + length
            self._busy += 1
            try:
                response = await self._serve_frame(frame, state)
            finally:
                self._busy -= 1
            try:
                async with state.write_lock:
                    await self._write_frame(writer, response)
            except asyncio.TimeoutError:
                self.stats.deadline_closes += 1
                return
            except (ConnectionError, OSError):
                return
            # Spawn the push task only after the subscribe ack is on the
            # wire, so the client always sees ack-before-pushes for the
            # subscription it just opened.
            if state.channel is not None and state.push_task is None:
                if self.push_buffer_bytes is not None:
                    # Bound the transport's write buffer on subscriber
                    # connections so a stalled reader's backpressure
                    # reaches the outbox (and its eviction accounting)
                    # instead of ballooning server-side memory.
                    writer.transport.set_write_buffer_limits(
                        high=self.push_buffer_bytes
                    )
                state.push_task = asyncio.ensure_future(
                    self._push_loop(writer, state)
                )
                self._track(state.push_task)

    # -- inline requests (WIRE_TAGS route "inline") -------------------------

    def _serve_ping(
        self, ping: _messages.PingRequest, state: _ConnState
    ) -> _messages.PongResponse:
        self.stats.pings += 1
        tip = self.query_server.node.tip_height
        return _messages.PongResponse(ping.nonce, tip)

    def _serve_hello(
        self, hello: _messages.HelloRequest, state: _ConnState
    ) -> _messages.PongResponse:
        # A hello narrows this connection's rate-limit identity from the
        # socket peer host to the declared client id (PROTOCOL.md §11.2).
        # It grants nothing — answered inline like a ping, never queued,
        # never shed.
        state.client_id = hello.client_id
        self.stats.hellos += 1
        return _messages.PongResponse(0, self.query_server.node.tip_height)

    def _serve_subscribe(
        self, request: _messages.SubscribeRequest, state: _ConnState
    ) -> _messages.SubscribeAck:
        """Registry calls are quick bookkeeping (no proof building), so
        they run inline rather than through the worker pool — and they
        must, because the channel is bound to this connection."""
        registry = self._registry()
        if state.channel is None:
            state.channel = _PushChannel(
                asyncio.get_running_loop(), self.push_outbox
            )
        sub_id, tip = registry.subscribe(request.addresses, state.channel)
        self.stats.subscriptions_accepted += 1
        return _messages.SubscribeAck(sub_id, tip)

    def _serve_unsubscribe(
        self, request: _messages.UnsubscribeRequest, state: _ConnState
    ) -> _messages.SubscribeAck:
        registry = self._registry()
        if state.channel is None:
            raise QueryError(
                f"no subscription {request.subscription_id} "
                f"on this connection"
            )
        tip = registry.unsubscribe(request.subscription_id, state.channel)
        return _messages.SubscribeAck(request.subscription_id, tip)

    def _registry(self):
        if self.subscriptions is None:
            raise QueryError(
                "this server does not accept streaming subscriptions"
            )
        return self.subscriptions

    async def _push_loop(
        self, writer: asyncio.StreamWriter, state: _ConnState
    ) -> None:
        """Drain the connection's push channel onto the socket, FIFO.

        Push frames are written plain (never compressed): compression is
        a per-request mirror (§9.5) and a push has no request to mirror.
        After an eviction the channel's final frame is the typed notice;
        once it is flushed the connection is severed so the client can't
        mistake the post-eviction silence for a quiet chain.
        """
        channel = state.channel
        if channel is None:  # pragma: no cover - spawn guard precludes it
            return
        try:
            while True:
                frames, evicted, closed = channel.drain()
                for frame in frames:
                    async with state.write_lock:
                        await self._write_frame(writer, frame)
                    self.stats.pushes += 1
                if closed:
                    return
                if evicted:
                    writer.close()
                    return
                if not frames:
                    await channel.wait()
        except asyncio.TimeoutError:
            # Socket-level slow consumer: the write deadline fired with
            # the kernel buffer full.  Drop the link; the registry's
            # outbox bound does the accounting when it overflows.
            self.stats.deadline_closes += 1
            writer.close()
        except (ConnectionError, OSError):
            writer.close()

    async def _serve_frame(self, frame: bytes, state: _ConnState) -> bytes:
        """One request frame → one response frame, errors included.

        Compression is negotiated per frame by mirroring: a request that
        arrived compressed gets its response compressed with the same
        codec (§9.5); plain requests get plain responses.
        """
        codec: Optional[str] = None
        try:
            if frame and frame[0] in (FRAME_ZLIB, FRAME_ZSTD):
                codec = "zstd" if frame[0] == FRAME_ZSTD else "zlib"
                payload = decompress_frame(frame, self.max_frame_bytes)
            else:
                payload = frame
            row = _messages.WIRE_TAGS.get(payload[0]) if payload else None
            if row is not None and row.route == _messages.ROUTE_INLINE:
                request = row.message.deserialize(payload)
                answer = getattr(self, row.handler)(request, state)
                response = answer.serialize()
            else:
                # submit() raises synchronously on admission refusal
                # (rate limited / shed / queue full) or a tag it does not
                # serve; any of them becomes a typed error frame below.
                response = await asyncio.wrap_future(
                    self.query_server.submit(payload, state.client)
                )
        except ReproError as error:
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse.from_exception(error).serialize()
        except Exception as error:  # noqa: BLE001 - never leak a raw crash
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse(
                "TransportError",
                f"internal server error: {type(error).__name__}",
            ).serialize()
        if codec is not None:
            try:
                response = compress_frame(
                    response, codec, max_frame_bytes=self.max_frame_bytes
                )
            except EncodingError as error:
                self.stats.errors_sent += 1
                response = _messages.ErrorResponse.from_exception(
                    error
                ).serialize()
        if len(response) > self.max_frame_bytes:
            # Symmetric send-side cap: never put a frame on the wire the
            # peer is required to reject.
            self.stats.errors_sent += 1
            response = _messages.ErrorResponse.from_exception(
                EncodingError(
                    f"response of {len(response)} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte frame limit"
                )
            ).serialize()
        return response

    async def _write_frame(
        self, writer: asyncio.StreamWriter, frame: bytes
    ) -> None:
        writer.write(FRAME_HEADER.pack(len(frame)) + frame)
        await asyncio.wait_for(writer.drain(), self.write_timeout)
        self.stats.frames_out += 1
        self.stats.bytes_out += FRAME_HEADER.size + len(frame)

    def __repr__(self) -> str:
        return (
            f"NetServer({self.host}:{self.port}, "
            f"active={self._active}/{self.max_connections})"
        )


# ---------------------------------------------------------------------------
# socket-layer chaos


def _reset_connection(writer: asyncio.StreamWriter) -> None:
    """Abort with an RST where the platform allows it — the peer sees a
    connection reset, not an orderly FIN."""
    import socket as _socket

    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(
                _socket.SOL_SOCKET,
                _socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
    writer.transport.abort()


class SocketFaultInjector:
    """A frame-aware chaos proxy between a client and a real server.

    Listens on its own loopback port and forwards length-framed traffic
    to ``target``; every frame in either direction is run through a PR 2
    :class:`~repro.node.faults.FaultSchedule` — the same rule language
    the in-process :class:`~repro.node.faults.FaultyTransport` speaks,
    realized at the socket layer:

    =============  ========================================================
    ``DELAY``      mid-frame stall: half the frame, a real sleep of
                   ``param * delay_scale`` seconds, then the rest
    ``DROP``       the frame is swallowed; the receiver waits in silence
    ``TRUNCATE``   partial write: the header claims the full length but
                   only a prefix is sent, then an abrupt FIN
    ``CORRUPT``    ``param`` bytes of the frame body flipped in place
    ``CLOSE``      connection reset (RST) after ``param`` payload bytes
    ``DUPLICATE``  the frame is delivered twice
    ``REORDER``    delivered after the next frame in that direction
    =============  ========================================================

    Faults drawn from the shared schedule advance the same message
    counter and RNG as the in-process wrapper, so a scripted schedule
    stays a deterministic script whichever layer executes it.
    """

    def __init__(
        self,
        target: Tuple[str, int],
        schedule: Optional[FaultSchedule] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        delay_scale: float = 0.01,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        loop_thread: Optional[EventLoopThread] = None,
    ) -> None:
        self.target = target
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.host = host
        self.port = port
        self.delay_scale = delay_scale
        self.max_frame_bytes = max_frame_bytes
        self._owns_loop = loop_thread is None
        self._loop_thread = loop_thread
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._held: "dict[str, Optional[bytes]]" = {
            "to_server": None,
            "to_client": None,
        }
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "SocketFaultInjector":
        if self._loop_thread is None:
            self._loop_thread = EventLoopThread("repro-chaos-proxy")
        self._loop_thread.call(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    def close(self) -> None:
        if self._closed or self._loop_thread is None:
            return
        self._closed = True
        self._loop_thread.call(self._shutdown())
        if self._owns_loop:
            self._loop_thread.stop()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.transport.abort()

    def __enter__(self) -> "SocketFaultInjector":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pumps -------------------------------------------------------------

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        try:
            server_reader, server_writer = await asyncio.open_connection(
                *self.target
            )
        except OSError:
            client_writer.transport.abort()
            return
        self._writers.add(client_writer)
        self._writers.add(server_writer)
        try:
            await asyncio.gather(
                self._pump(
                    "to_server", client_reader, server_writer, client_writer
                ),
                self._pump(
                    "to_client", server_reader, client_writer, server_writer
                ),
                return_exceptions=True,
            )
        finally:
            for writer in (client_writer, server_writer):
                self._writers.discard(writer)
                writer.close()

    async def _pump(
        self,
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        back_writer: asyncio.StreamWriter,
    ) -> None:
        """Forward frames one way, applying the fault schedule."""
        while True:
            try:
                header = await reader.readexactly(FRAME_HEADER.size)
                (length,) = FRAME_HEADER.unpack(header)
                if length == 0 or length > self.max_frame_bytes:
                    # Not a frame we can reason about: sever the link.
                    writer.transport.abort()
                    back_writer.transport.abort()
                    return
                frame = await reader.readexactly(length)
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                OSError,
            ):
                # One side went away: propagate the close to the other.
                writer.close()
                return
            try:
                alive = await self._deliver(direction, frame, writer, back_writer)
            except (ConnectionError, OSError):
                return
            if not alive:
                return

    async def _deliver(
        self,
        direction: str,
        frame: bytes,
        writer: asyncio.StreamWriter,
        back_writer: asyncio.StreamWriter,
    ) -> bool:
        """Apply drawn faults to one frame; False ends this connection."""
        rules = self.schedule.draw(direction)
        rng = self.schedule.rng()
        stall: Optional[float] = None
        for rule in rules:
            kind = rule.kind
            self.schedule.count(kind)
            if kind is FaultKind.DELAY:
                stall = (
                    rule.param if rule.param is not None else 1.0
                ) * self.delay_scale
            elif kind is FaultKind.CLOSE:
                delivered = (
                    int(rule.param)
                    if rule.param is not None
                    else rng.randrange(0, len(frame) + 1)
                )
                delivered = max(0, min(delivered, len(frame)))
                writer.write(
                    FRAME_HEADER.pack(len(frame)) + frame[:delivered]
                )
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                _reset_connection(writer)
                _reset_connection(back_writer)
                return False
            elif kind is FaultKind.DROP:
                return True  # swallowed; the receiver hears silence
            elif kind is FaultKind.TRUNCATE:
                cut = (
                    int(rule.param)
                    if rule.param is not None
                    else rng.randrange(0, max(len(frame), 1))
                )
                cut = max(0, min(cut, max(len(frame) - 1, 0)))
                # Header claims the full frame; only a prefix arrives,
                # then an orderly FIN — the "abrupt FIN mid-frame" case.
                writer.write(FRAME_HEADER.pack(len(frame)) + frame[:cut])
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.close()
                back_writer.close()
                return False
            elif kind is FaultKind.CORRUPT:
                nbytes = int(rule.param) if rule.param is not None else 1
                mutated = bytearray(frame)
                for _ in range(max(1, nbytes)):
                    position = rng.randrange(0, len(mutated))
                    mutated[position] ^= rng.randrange(1, 256)
                frame = bytes(mutated)
            elif kind is FaultKind.DUPLICATE:
                await self._forward(writer, frame, None)
            elif kind is FaultKind.REORDER:
                held = self._held[direction]
                self._held[direction] = frame
                if held is None:
                    return True  # nothing earlier yet: hold this one
                frame = held

        await self._forward(writer, frame, stall)
        return True

    async def _forward(
        self,
        writer: asyncio.StreamWriter,
        frame: bytes,
        stall: Optional[float],
    ) -> None:
        payload = FRAME_HEADER.pack(len(frame)) + frame
        if stall is not None and len(payload) > 1:
            # Mid-frame stall: a prefix lands, then the line goes quiet.
            split = max(1, len(payload) // 2)
            writer.write(payload[:split])
            await writer.drain()
            await asyncio.sleep(stall)
            writer.write(payload[split:])
        else:
            writer.write(payload)
        await writer.drain()

    def __repr__(self) -> str:
        return (
            f"SocketFaultInjector({self.host}:{self.port} → "
            f"{self.target[0]}:{self.target[1]}, {self.schedule!r})"
        )


__all__ = [
    "EventLoopThread",
    "FRAME_HEADER",
    "NetServer",
    "NetServerStats",
    "SocketFaultInjector",
]
