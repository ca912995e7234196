"""Unit tests for the resilient multi-peer QuerySession."""

import pytest

from repro.errors import (
    NoHonestPeerError,
    PeerQuarantinedError,
    RetryExhaustedError,
    SessionTimeoutError,
)
from repro.node.faults import (
    ByzantineFlakyFullNode,
    FaultKind,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
    FlakyFullNode,
)
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.session import (
    PartialHistory,
    Peer,
    QuerySession,
    RetryPolicy,
)
from repro.node.transport import SimulatedClock
from repro.query.adversary import (
    MaliciousFullNode,
    omit_one_transaction,
    truncate_blocks,
)


@pytest.fixture()
def light(lvq_system):
    return LightNode(lvq_system.headers(), lvq_system.config)


def _faulty_factory(schedule, clock):
    return lambda: FaultyTransport(schedule=schedule, clock=clock)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(
            max_rounds=5, base_delay=1.0, multiplier=2.0, max_delay=3.0,
            jitter=0.0,
        )
        rng = random.Random(0)
        assert policy.backoff_seconds(1, rng) == 1.0
        assert policy.backoff_seconds(2, rng) == 2.0
        assert policy.backoff_seconds(3, rng) == 3.0  # capped
        assert policy.backoff_seconds(4, rng) == 3.0

    def test_jitter_is_bounded(self):
        import random

        policy = RetryPolicy(base_delay=1.0, jitter=0.25)
        rng = random.Random(7)
        for round_index in range(1, 20):
            pause = policy.backoff_seconds(1, rng)
            assert 0.75 <= pause <= 1.25

    def test_unbounded_round_index_stays_capped(self):
        """A reconnecting pool's failure count has no bound; the pause
        must stay pinned at max_delay instead of overflowing."""
        import random

        policy = RetryPolicy(jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_seconds(10_000, rng) == policy.max_delay
        assert policy.backoff_seconds(10**9, rng) == policy.max_delay

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_rounds=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestHappyPath:
    def test_single_honest_peer(self, lvq_system, light, probe_addresses):
        session = QuerySession(light, [FullNode(lvq_system)])
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "peer0"
        assert session.stats.successes == 1
        assert session.stats.attempts == 1

    def test_matches_direct_query(self, lvq_system, light, probe_addresses):
        full_node = FullNode(lvq_system)
        direct = light.query_history(full_node, probe_addresses["Addr6"])
        session = QuerySession(light, [full_node])
        resilient = session.query(probe_addresses["Addr6"])
        assert [(h, t.txid()) for h, t in resilient.transactions] == [
            (h, t.txid()) for h, t in direct.transactions
        ]

    def test_labelled_peers(self, lvq_system, light, probe_addresses):
        session = QuerySession(
            light, [("primary", FullNode(lvq_system))]
        )
        session.query(probe_addresses["Addr5"])
        assert session.last_winner == "primary"

    def test_needs_a_peer(self, light):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            QuerySession(light, [])


class TestRetriesAndFailover:
    def test_flaky_peer_retried_until_it_serves(
        self, lvq_system, light, probe_addresses
    ):
        """One peer, fails twice, then honest: retries win."""
        node = FlakyFullNode(lvq_system, fail_on=(0, 1))
        clock = SimulatedClock()
        session = QuerySession(
            light,
            [node],
            clock=clock,
            retry=RetryPolicy(max_rounds=4, base_delay=0.1),
            quarantine_base=0.01,
        )
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.stats.attempts == 3
        assert session.stats.retries >= 1
        assert session.stats.backoff_seconds > 0
        assert clock.now() > 0  # backoff was slept on the simulated clock

    def test_failover_to_second_peer(self, lvq_system, light, probe_addresses):
        dead = FlakyFullNode(lvq_system, failure_rate=1.0)
        session = QuerySession(light, [dead, FullNode(lvq_system)])
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "peer1"

    def test_retry_exhausted_is_typed(self, lvq_system, light, probe_addresses):
        dead = FlakyFullNode(lvq_system, failure_rate=1.0)
        session = QuerySession(
            light,
            [dead],
            retry=RetryPolicy(max_rounds=2, base_delay=0.1),
            quarantine_base=0.01,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            session.query(probe_addresses["Addr5"])
        error = excinfo.value
        assert error.address == probe_addresses["Addr5"]
        assert error.attempts >= 1
        assert "peer0" in error.reasons
        details = error.details()
        assert details["kind"] == "RetryExhaustedError"
        assert details["attempts"] == error.attempts
        assert session.stats.failures == 1

    def test_health_ranking_prefers_reliable_peer(
        self, lvq_system, light, probe_addresses
    ):
        """After the first peer flaps, the healthy peer is tried first."""
        flaky = FlakyFullNode(lvq_system, fail_on=(0,))
        session = QuerySession(
            light,
            [("flaky", flaky), ("steady", FullNode(lvq_system))],
            retry=RetryPolicy(max_rounds=3, base_delay=0.1),
        )
        session.query(probe_addresses["Addr5"])  # flaky fails → steady wins
        session.query(probe_addresses["Addr5"])
        steady = next(p for p in session.peers if p.label == "steady")
        flaky_peer = next(p for p in session.peers if p.label == "flaky")
        assert steady.score > flaky_peer.score
        assert steady.stats.successes == 2
        # The second query never bothered the quarantined flaky peer.
        assert flaky_peer.stats.attempts == 1


class TestQuarantineAndBans:
    def test_verification_failure_is_permanent_ban(
        self, lvq_system, light, probe_addresses
    ):
        liar = MaliciousFullNode(lvq_system, omit_one_transaction)
        session = QuerySession(
            light, [("liar", liar), ("honest", FullNode(lvq_system))]
        )
        session.query(probe_addresses["Addr6"])
        liar_peer = next(p for p in session.peers if p.label == "liar")
        assert liar_peer.banned
        assert liar_peer.stats.verification_failures == 1
        # Second query: the ban holds, the liar is never contacted again.
        session.query(probe_addresses["Addr6"])
        assert liar_peer.stats.attempts == 1
        error = liar_peer.quarantine_error(0.0)
        assert isinstance(error, PeerQuarantinedError)
        assert error.permanent
        assert error.details()["peer"] == "liar"

    def test_transport_failure_quarantine_decays(
        self, lvq_system, light, probe_addresses
    ):
        flaky = FlakyFullNode(lvq_system, fail_on=(0,))
        clock = SimulatedClock()
        session = QuerySession(
            light,
            [flaky],
            clock=clock,
            retry=RetryPolicy(max_rounds=3, base_delay=0.1),
            quarantine_base=0.5,
        )
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        peer = session.peers[0]
        assert not peer.banned
        assert peer.consecutive_failures == 0  # reset on success

    def test_all_malicious_raises_no_honest_peer(
        self, lvq_system, light, probe_addresses
    ):
        session = QuerySession(
            light,
            [
                MaliciousFullNode(lvq_system, omit_one_transaction),
                MaliciousFullNode(lvq_system, truncate_blocks),
            ],
        )
        with pytest.raises(NoHonestPeerError) as excinfo:
            session.query(probe_addresses["Addr6"])
        assert set(excinfo.value.reasons) == {"peer0", "peer1"}
        assert all(peer.banned for peer in session.peers)


class TestTimeouts:
    def test_request_timeout_counts(self, lvq_system, light, probe_addresses):
        clock = SimulatedClock()
        schedule = FaultSchedule.drops(1.0)  # every message dropped
        dead_link = Peer(
            "dead",
            FullNode(lvq_system),
            transport_factory=_faulty_factory(schedule, clock),
        )
        session = QuerySession(
            light,
            [dead_link, Peer("alive", FullNode(lvq_system))],
            clock=clock,
            request_timeout=2.0,
            retry=RetryPolicy(max_rounds=2, base_delay=0.1),
        )
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "alive"
        assert session.stats.peers["dead"].timeouts == 1
        assert clock.now() > 2.0  # the timeout was waited out

    def test_session_timeout(self, lvq_system, light, probe_addresses):
        clock = SimulatedClock()
        schedule = FaultSchedule.drops(1.0)
        session = QuerySession(
            light,
            [
                Peer(
                    "dead",
                    FullNode(lvq_system),
                    transport_factory=_faulty_factory(schedule, clock),
                )
            ],
            clock=clock,
            request_timeout=2.0,
            session_timeout=3.0,
            retry=RetryPolicy(max_rounds=50, base_delay=1.0),
            quarantine_base=0.1,
        )
        with pytest.raises(SessionTimeoutError) as excinfo:
            session.query(probe_addresses["Addr5"])
        assert excinfo.value.timeout_seconds == 3.0
        assert excinfo.value.elapsed_seconds > 3.0


class TestPartialHistory:
    def test_full_coverage_when_possible(
        self, lvq_system, light, probe_addresses
    ):
        session = QuerySession(light, [FullNode(lvq_system)])
        partial = session.query_partial(probe_addresses["Addr5"])
        assert isinstance(partial, PartialHistory)
        assert partial.is_complete
        assert partial.coverage_fraction() == 1.0
        assert partial.covered_ranges == [(1, light.tip_height)]
        assert partial.transactions

    def test_uncovered_ranges_reported(
        self, lvq_system, light, probe_addresses, workload
    ):
        """A peer that refuses a height sub-range forces bisection; the
        unserved blocks come back as uncovered_ranges, and everything
        else is verified history."""
        address = probe_addresses["Addr5"]
        tip = light.tip_height

        class RangeRefusingNode(FullNode):
            """Serves any range not touching blocks 20..24."""

            def answer(self, address, first_height=1, last_height=None):
                last = last_height if last_height is not None else tip
                if first_height <= 24 and last >= 20:
                    from repro.errors import QueryError

                    raise QueryError("blocks 20..24 are offline")
                return super().answer(address, first_height, last_height)

        session = QuerySession(
            light,
            [RangeRefusingNode(lvq_system)],
            retry=RetryPolicy.no_retries(),
        )
        partial = session.query_partial(address)
        assert not partial.is_complete
        assert partial.uncovered_ranges
        lo = min(r[0] for r in partial.uncovered_ranges)
        hi = max(r[1] for r in partial.uncovered_ranges)
        assert lo <= 24 and hi >= 20  # the refused window is inside
        # Every returned transaction is real, in-range, verified history.
        truth = {
            (h, t.txid())
            for h, t in workload.history_of(address)
        }
        for height, tx in partial.transactions:
            assert (height, tx.txid()) in truth
            assert not any(
                lo <= height <= hi for lo, hi in partial.uncovered_ranges
            )
        assert 0 < partial.coverage_fraction() < 1.0
        assert session.stats.partials == 1
        balance = partial.partial_balance()
        assert isinstance(balance, int)

    def test_all_banned_reports_everything_uncovered(
        self, lvq_system, light, probe_addresses
    ):
        session = QuerySession(
            light,
            [MaliciousFullNode(lvq_system, omit_one_transaction)],
            retry=RetryPolicy.no_retries(),
        )
        partial = session.query_partial(probe_addresses["Addr6"])
        assert not partial.is_complete
        assert partial.coverage_fraction() < 1.0
        assert partial.uncovered_ranges[0][0] == 1


class TestHeaderSyncFailover:
    def test_partial_sync_reused_across_peers(self, lvq_system, workload):
        """Peer A dies after serving a prefix; peer B continues from the
        advanced tip instead of starting over."""
        full = FullNode(lvq_system)
        tip = full.tip_height

        class ShortServingNode(FullNode):
            """Serves at most 10 headers per request, then crashes once."""

            def __init__(self, system):
                super().__init__(system)
                self.calls = 0

            def handle_headers(self, payload):
                from repro.errors import TransportError
                from repro.node.messages import (
                    HeadersRequest,
                    HeadersResponse,
                )

                self.calls += 1
                if self.calls > 1:
                    raise TransportError("crashed after first response")
                request = HeadersRequest.deserialize(payload)
                headers = self.system.chain.headers_from(request.from_height)
                return HeadersResponse(
                    request.from_height, headers[:10]
                ).serialize()

        light = LightNode(lvq_system.headers()[:1], lvq_system.config)
        short = ShortServingNode(lvq_system)
        session = QuerySession(
            light,
            [("short", short), ("full", full)],
            retry=RetryPolicy(max_rounds=2, base_delay=0.1),
        )
        accepted = session.sync_headers()
        assert light.tip_height == tip
        assert accepted == tip
        # The second peer only had to serve the remainder.
        full_peer_bytes = session.stats.peers["full"].transport
        assert session.stats.peers["short"].successes >= 1

    def test_sync_all_dead_raises(self, lvq_system):
        light = LightNode(lvq_system.headers()[:1], lvq_system.config)
        dead = FlakyFullNode(lvq_system, failure_rate=1.0)
        session = QuerySession(
            light,
            [dead],
            retry=RetryPolicy(max_rounds=2, base_delay=0.1),
            quarantine_base=0.01,
        )
        with pytest.raises(RetryExhaustedError):
            session.sync_headers()


class TestSessionStats:
    def test_as_dict_schema(self, lvq_system, light, probe_addresses):
        session = QuerySession(light, [("p", FullNode(lvq_system))])
        session.query(probe_addresses["Addr5"])
        stats = session.stats.as_dict()
        assert stats["queries"] == 1
        assert stats["successes"] == 1
        assert stats["peers"]["p"]["attempts"] == 1
        assert stats["peers"]["p"]["bytes_to_client"] > 0

    def test_byzantine_flaky_composition(
        self, lvq_system, light, probe_addresses
    ):
        """The full zoo at once: flaky byzantine + dead link + honest."""
        clock = SimulatedClock()
        schedule = FaultSchedule(
            [FaultRule(FaultKind.CORRUPT, probability=0.5, param=2)], seed=3
        )
        peers = [
            Peer(
                "byzantine",
                ByzantineFlakyFullNode(
                    lvq_system, omit_one_transaction, failure_rate=0.3, seed=1
                ),
            ),
            Peer(
                "noisy-link",
                FullNode(lvq_system),
                transport_factory=_faulty_factory(schedule, clock),
            ),
            Peer("honest", FullNode(lvq_system)),
        ]
        session = QuerySession(
            light,
            peers,
            clock=clock,
            retry=RetryPolicy(max_rounds=4, base_delay=0.1),
            seed=11,
        )
        truth = light.query_history(
            FullNode(lvq_system), probe_addresses["Addr6"]
        )
        for _ in range(5):
            history = session.query(probe_addresses["Addr6"])
            assert [(h, t.txid()) for h, t in history.transactions] == [
                (h, t.txid()) for h, t in truth.transactions
            ]
