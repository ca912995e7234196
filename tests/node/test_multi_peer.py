"""Tests for the multi-peer light client: one honest peer suffices.

:class:`QuerySession` is the only client that walks a peer list.  These
cases pin the paper's one-honest-peer guarantee on it; the session's
retry, quarantine and timeout machinery is covered in test_session.py.
"""

import pytest

from repro.errors import NoHonestPeerError, QueryError, VerificationError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.session import Peer, QuerySession
from repro.node.transport import InProcessTransport
from repro.query.adversary import (
    ALL_ATTACKS,
    MaliciousFullNode,
    drop_block_resolution,
    omit_one_transaction,
    truncate_blocks,
)


@pytest.fixture()
def light(lvq_system):
    return LightNode(lvq_system.headers(), lvq_system.config)


def _txids(transactions):
    return [(height, tx.txid()) for height, tx in transactions]


class TestQueryAny:
    def test_single_honest_peer(
        self, workload, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr5"]
        history = QuerySession(light, [FullNode(lvq_system)]).query(address)
        assert history.transactions
        assert _txids(history.transactions) == _txids(
            workload.history_of(address)
        )

    def test_honest_peer_behind_liars(
        self, workload, lvq_system, light, probe_addresses
    ):
        """Two malicious peers first; the honest third one wins."""
        address = probe_addresses["Addr6"]
        session = QuerySession(
            light,
            [
                MaliciousFullNode(lvq_system, omit_one_transaction),
                MaliciousFullNode(lvq_system, drop_block_resolution),
                FullNode(lvq_system),
            ],
        )
        history = session.query(address)
        assert _txids(history.transactions) == _txids(
            workload.history_of(address)
        )
        assert session.last_winner == "peer2"

    def test_all_malicious_raises_with_reasons(
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
        for reason in excinfo.value.reasons.values():
            assert isinstance(reason, VerificationError)

    def test_range_queries_supported(
        self, workload, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr5"]
        session = QuerySession(
            light,
            [
                MaliciousFullNode(lvq_system, drop_block_resolution),
                FullNode(lvq_system),
            ],
        )
        history = session.query(address, first_height=10, last_height=30)
        truth = [
            (h, t.txid())
            for h, t in workload.history_of(address)
            if 10 <= h <= 30
        ]
        assert _txids(history.transactions) == truth

    def test_every_attack_survivable_with_one_honest_peer(
        self, workload, lvq_system, light, probe_addresses
    ):
        address = probe_addresses["Addr6"]
        peers = [
            MaliciousFullNode(lvq_system, attack)
            for attack in ALL_ATTACKS.values()
        ] + [FullNode(lvq_system)]
        history = QuerySession(light, peers).query(address)
        assert _txids(history.transactions) == _txids(
            workload.history_of(address)
        )

    def test_no_peers_rejected(self, light):
        with pytest.raises(QueryError):
            QuerySession(light, [])


class TestPeerAccounting:
    def test_winner_and_stats_reported(
        self, lvq_system, light, probe_addresses
    ):
        """The session names the winner and keeps byte accounting for
        the losers too."""
        liar = MaliciousFullNode(lvq_system, omit_one_transaction)
        session = QuerySession(
            light, [Peer("liar", liar), Peer("honest", FullNode(lvq_system))]
        )
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "honest"
        peers = session.stats.peers
        assert set(peers) == {"liar", "honest"}
        # The liar's traffic is not thrown away.
        assert peers["liar"].transport.total_bytes > 0
        assert peers["honest"].transport.total_bytes > 0
        assert peers["liar"].verification_failures == 1
        assert peers["honest"].successes == 1

    def test_labels_in_failure_reasons(self, lvq_system, light, probe_addresses):
        alpha = MaliciousFullNode(lvq_system, omit_one_transaction)
        beta = MaliciousFullNode(lvq_system, truncate_blocks)
        session = QuerySession(
            light, [Peer("alpha", alpha), Peer("beta", beta)]
        )
        with pytest.raises(NoHonestPeerError) as excinfo:
            session.query(probe_addresses["Addr6"])
        assert set(excinfo.value.reasons) == {"alpha", "beta"}
        assert session.last_winner is None
        assert set(session.stats.peers) == {"alpha", "beta"}

    def test_faulty_peer_link_falls_through(
        self, lvq_system, light, probe_addresses
    ):
        """A dead link on the first peer is just another failed attempt;
        the second peer answers and the first is not banned."""
        dead_link = Peer(
            "peer0",
            FullNode(lvq_system),
            transport_factory=lambda: InProcessTransport(byte_budget=10),
        )
        session = QuerySession(light, [dead_link, FullNode(lvq_system)])
        history = session.query(probe_addresses["Addr5"])
        assert history.transactions
        assert session.last_winner == "peer1"
        assert dead_link.stats.transport_failures == 1
        assert not dead_link.banned
