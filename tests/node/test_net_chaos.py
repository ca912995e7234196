"""Chaos over real sockets: the §V gate must survive actual TCP.

Three escalating layers:

* **socket-layer fault behaviors** — each :class:`SocketFaultInjector`
  fault kind (reset, mid-frame stall, partial write + FIN, corruption,
  swallowing, duplication, reordering), injected between a real client
  and a real server, must surface as the *typed* error the in-process
  chaos machinery produces — never a wrong answer, never a raw crash;
* **the PR 2 chaos matrix over loopback TCP** — the *same* seeded
  scenarios as ``test_chaos.py`` (same :func:`_make_scenario`, same
  ``FaultyTransport`` wrappers and schedules), with every peer's node
  swapped for a :class:`RemoteFullNode` talking to a real
  :class:`NetServer`.  FaultyTransport composes with the socket
  transport: it mangles request bytes *before* they cross the wire and
  response bytes *after* they return, so both chaos layers are active
  at once.  The soundness invariant and the benign-subset availability
  gate must hold unchanged;
* **kill-the-server-mid-request** — a server is hard-killed (RST to
  every live connection) under concurrent client load and then
  restarted on the same port; every answer any client accepts must
  equal the honest baseline (100% of survivors verify, zero
  accepted-but-unverified), and clients must recover after the restart.

A stride of the matrix runs by default to keep tier-1 fast; set
``LVQ_NET_CHAOS_FULL=1`` (the CI network-smoke job does) for all
scenarios.
"""

import os
import random
import threading
import time

import pytest

from test_chaos import (
    SCENARIOS_PER_SYSTEM,
    _baseline,
    _history_key,
    _make_scenario,
)

from repro.errors import (
    EncodingError,
    ReproError,
    RequestTimeoutError,
    TransportError,
)
from repro.node.faults import FaultKind, FaultRule, FaultSchedule
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import QueryRequest
from repro.node.net import EventLoopThread, NetServer, SocketFaultInjector
from repro.node.netclient import ConnectionPool, RemoteFullNode
from repro.node.session import Peer, QuerySession, RetryPolicy

_FULL_MATRIX = os.environ.get("LVQ_NET_CHAOS_FULL") == "1"
#: Stride 3 keeps a third of the matrix in tier-1 while hitting both the
#: benign (even-index) and adversarial (odd-index) halves.
_MATRIX_INDICES = (
    range(SCENARIOS_PER_SYSTEM)
    if _FULL_MATRIX
    else range(0, SCENARIOS_PER_SYSTEM, 3)
)


@pytest.fixture(scope="module")
def loop_thread():
    thread = EventLoopThread("test-net-chaos-loop")
    yield thread
    thread.stop()


@pytest.fixture()
def lvq_full_node(lvq_system):
    return FullNode(lvq_system)


def _schedule(kind, param=None, direction="both", at=(0,)):
    return FaultSchedule(
        [FaultRule(kind, direction=direction, at_messages=at, param=param)],
        seed=11,
    )


def _query_through_injector(
    lvq_system, full_node, address, schedule, loop_thread, request_timeout=1.0
):
    """One verified query routed client → injector → server."""
    light = LightNode.from_full_node(full_node)
    with NetServer(full_node, loop_thread=loop_thread) as server:
        with SocketFaultInjector(
            server.address, schedule, loop_thread=loop_thread
        ) as injector:
            remote = RemoteFullNode(
                injector.address,
                size=1,
                request_timeout=request_timeout,
                backoff=RetryPolicy(base_delay=0.01, max_delay=0.05),
            )
            try:
                return light.query_history(remote, address)
            finally:
                remote.close()


class TestSocketFaultBehaviors:
    """Each fault kind at the socket layer ⇒ the right typed outcome."""

    def test_delay_is_survivable(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        history = _query_through_injector(
            lvq_system,
            lvq_full_node,
            probe_addresses["Addr4"],
            _schedule(FaultKind.DELAY, param=5.0),  # 50ms real stall
            loop_thread,
            request_timeout=5.0,
        )
        assert _history_key(history) == _baseline(
            lvq_system, probe_addresses["Addr4"], 1, lvq_system.tip_height
        )

    def test_drop_times_out(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        with pytest.raises(RequestTimeoutError):
            _query_through_injector(
                lvq_system,
                lvq_full_node,
                probe_addresses["Addr4"],
                _schedule(FaultKind.DROP, at=(0, 1, 2, 3)),
                loop_thread,
                request_timeout=0.3,
            )

    def test_reset_is_a_transport_error(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        with pytest.raises(TransportError) as caught:
            _query_through_injector(
                lvq_system,
                lvq_full_node,
                probe_addresses["Addr4"],
                _schedule(FaultKind.CLOSE, param=3, at=(0, 1, 2, 3)),
                loop_thread,
            )
        assert not isinstance(caught.value, RequestTimeoutError)

    def test_truncation_is_typed(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        # Header claims the full frame, a prefix arrives, then FIN: the
        # client must fail *typed* (EOF mid-frame), not hang or crash.
        with pytest.raises((TransportError, EncodingError)):
            _query_through_injector(
                lvq_system,
                lvq_full_node,
                probe_addresses["Addr4"],
                _schedule(
                    FaultKind.TRUNCATE,
                    param=5,
                    direction="to_client",
                    at=(0, 1, 2, 3),
                ),
                loop_thread,
            )

    def test_corruption_never_yields_a_wrong_answer(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        address = probe_addresses["Addr5"]
        expected = _baseline(lvq_system, address, 1, lvq_system.tip_height)
        for seed in range(6):
            schedule = FaultSchedule(
                [
                    FaultRule(
                        FaultKind.CORRUPT,
                        direction="to_client",
                        at_messages=(0, 1, 2, 3),
                        param=3,
                    )
                ],
                seed=seed,
            )
            try:
                history = _query_through_injector(
                    lvq_system, lvq_full_node, address, schedule, loop_thread
                )
            except ReproError:
                continue  # denied, typed: allowed
            assert _history_key(history) == expected, (
                f"corrupted bytes produced a WRONG answer (seed {seed})"
            )

    def test_duplicate_frames_cannot_poison_later_requests(
        self, lvq_full_node, probe_addresses, loop_thread
    ):
        # A duplicated response leaves stray bytes on the connection; the
        # pool's health peek must evict it before the next request.
        request = QueryRequest(probe_addresses["Addr4"]).serialize()
        with NetServer(lvq_full_node, loop_thread=loop_thread) as server:
            with SocketFaultInjector(
                server.address,
                _schedule(FaultKind.DUPLICATE, direction="to_client", at=(1,)),
                loop_thread=loop_thread,
            ) as injector:
                pool = ConnectionPool(injector.address, size=1)
                try:
                    first = pool.request(request)
                    # Let the duplicated frame actually land in the
                    # client socket buffer before the next acquisition.
                    time.sleep(0.25)
                    second = pool.request(request)
                    assert first == second
                    assert pool.stats["health_evictions"] >= 1
                finally:
                    pool.close()

    def test_reorder_never_yields_a_wrong_answer(
        self, lvq_system, lvq_full_node, probe_addresses, loop_thread
    ):
        address = probe_addresses["Addr4"]
        expected = _baseline(lvq_system, address, 1, lvq_system.tip_height)
        schedule = _schedule(
            FaultKind.REORDER, direction="to_client", at=(1, 3)
        )
        try:
            history = _query_through_injector(
                lvq_system,
                lvq_full_node,
                address,
                schedule,
                loop_thread,
                request_timeout=0.5,
            )
        except ReproError:
            return  # denied, typed: allowed
        assert _history_key(history) == expected

    def test_injector_counts_in_shared_schedule(
        self, lvq_full_node, probe_addresses, loop_thread
    ):
        schedule = _schedule(FaultKind.DROP, at=(0,))
        with NetServer(lvq_full_node, loop_thread=loop_thread) as server:
            with SocketFaultInjector(
                server.address, schedule, loop_thread=loop_thread
            ) as injector:
                pool = ConnectionPool(injector.address, request_timeout=0.3)
                try:
                    with pytest.raises(TransportError):
                        pool.request(
                            QueryRequest(probe_addresses["Addr4"]).serialize()
                        )
                finally:
                    pool.close()
        assert schedule.fault_counts.get("drop") == 1, (
            "socket-layer faults must count in the shared FaultSchedule"
        )


# ---------------------------------------------------------------------------
# the PR 2 chaos matrix, over real loopback TCP


def _socketify(session, loop_thread):
    """Swap every peer's node for the same node behind a real socket.

    The peer's ``transport_factory`` (the FaultyTransport wrapper with
    its schedule) is untouched — in-process chaos composes with the TCP
    transport underneath it.
    """
    servers, remotes = [], []
    for peer in session.peers:
        server = NetServer(
            peer.node,
            loop_thread=loop_thread,
            idle_timeout=30.0,
            read_timeout=10.0,
        )
        server.start()
        remote = RemoteFullNode(
            server.address,
            size=2,
            request_timeout=10.0,
            backoff=RetryPolicy(base_delay=0.005, max_delay=0.05),
        )
        peer.node = remote
        servers.append(server)
        remotes.append(remote)
    return servers, remotes


def _unsocketify(servers, remotes):
    for remote in remotes:
        remote.close()
    for server in servers:
        server.close(drain=False)


@pytest.mark.parametrize("index", _MATRIX_INDICES)
def test_socket_chaos_soundness(any_system, probe_addresses, index, loop_thread):
    """The test_chaos gate, verbatim, with every peer behind real TCP."""
    session, address_name, first, last, benign = _make_scenario(
        any_system, index
    )
    address = probe_addresses[address_name]
    expected = _baseline(any_system, address, first, last)
    servers, remotes = _socketify(session, loop_thread)
    try:
        history = session.query(address, first_height=first, last_height=last)
    except ReproError:
        assert not benign, (
            f"availability violated over TCP: benign scenario {index} on "
            f"{any_system.config.kind.value} failed"
        )
    except BaseException as error:  # noqa: BLE001 - the invariant itself
        pytest.fail(
            f"non-ReproError escaped socket chaos: {type(error).__name__}: "
            f"{error}"
        )
    else:
        assert _history_key(history) == expected, (
            f"WRONG HISTORY over TCP on scenario {index} "
            f"({any_system.config.kind.value})"
        )
    finally:
        _unsocketify(servers, remotes)


# ---------------------------------------------------------------------------
# kill the server mid-request


def test_kill_server_mid_request_no_unverified_answers(
    lvq_system, probe_addresses, loop_thread
):
    """Hard-kill under load, restart, and audit every accepted answer.

    The LVQ promise under crash-recovery: a killed server can fail
    requests (typed) and delay clients, but no client may ever *accept*
    an answer that does not verify — so every success, before, during,
    or after the kill, must equal the honest baseline.
    """
    full_node = FullNode(lvq_system)
    names = ("Addr3", "Addr4", "Addr5", "Addr6")
    baselines = {
        probe_addresses[name]: _baseline(
            lvq_system, probe_addresses[name], 1, lvq_system.tip_height
        )
        for name in names
    }

    server = NetServer(full_node, loop_thread=loop_thread)
    server.start()
    address_tuple = server.address
    state = {"server": server}

    accepted = []  # (address, history_key) for every accepted answer
    errors = []
    wrong = []
    stop = threading.Event()

    def client(worker_index):
        rng = random.Random(worker_index)
        light = LightNode.from_full_node(full_node)
        remote = RemoteFullNode(
            address_tuple,
            size=1,
            request_timeout=2.0,
            backoff=RetryPolicy(base_delay=0.005, max_delay=0.05),
            seed=worker_index,
        )
        session = QuerySession(
            light,
            [Peer(f"srv{worker_index}", remote)],
            request_timeout=5.0,
            retry=RetryPolicy(max_rounds=4, base_delay=0.01, max_delay=0.05),
            seed=worker_index,
        )
        try:
            while not stop.is_set():
                name = names[rng.randrange(len(names))]
                address = probe_addresses[name]
                try:
                    history = session.query(address)
                except ReproError as error:
                    errors.append(error)
                except BaseException as error:  # noqa: BLE001
                    wrong.append(("untyped", type(error).__name__, error))
                    return
                else:
                    key = _history_key(history)
                    accepted.append((address, time.monotonic()))
                    if key != baselines[address]:
                        wrong.append(("mismatch", address, key))
        finally:
            remote.close()

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(4)
    ]
    for thread in threads:
        thread.start()

    time.sleep(0.3)  # let clients get answers flowing
    state["server"].abort()  # RST every live connection, mid-request
    killed_at = time.monotonic()
    time.sleep(0.2)  # clients churn against a dead port
    replacement = NetServer(
        full_node,
        host=address_tuple[0],
        port=address_tuple[1],
        loop_thread=loop_thread,
    )
    replacement.start()
    state["server"] = replacement
    time.sleep(0.8)  # recovery window
    stop.set()
    for thread in threads:
        thread.join(20.0)
    replacement.close()

    assert not wrong, f"unverified/wrong answers accepted: {wrong[:3]}"
    assert accepted, "no queries succeeded at all — harness is broken"
    recovered = [t for _, t in accepted if t > killed_at + 0.2]
    assert recovered, (
        "no client recovered after the kill+restart "
        f"({len(accepted)} successes, {len(errors)} typed errors)"
    )
