"""The light node: headers only, trusts nothing it did not verify (§II).

A :class:`LightNode` holds the header list and the chain's
:class:`SystemConfig`.  Its ``query_history`` issues the RPC through the
byte-counting transport, deserializes the response, runs the full §V
verification, and only then exposes transactions and Equation-1 balances.
A malicious full node makes ``query_history`` raise — it can never make
it return a wrong history (that is the security claim the tests attack).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.chain.block import BlockHeader
from repro.chain.blockchain import header_storage_bytes
from repro.errors import (
    ChainError,
    QueryError,
    StaleChainError,
    VerificationError,
)
from repro.node.full_node import FullNode
from repro.node.messages import (
    DeltaHeadersRequest,
    DeltaHeadersResponse,
    HeadersRequest,
    HeadersResponse,
    QueryRequest,
    QueryResponse,
)
from repro.node.transport import InProcessTransport
from repro.query.config import SystemConfig
from repro.query.verifier import VerifiedHistory, verify_result


class LightNode:
    """Header-only client of the verifiable-query protocol."""

    def __init__(
        self, headers: Sequence[BlockHeader], config: SystemConfig
    ) -> None:
        self.headers: List[BlockHeader] = list(headers)
        self.config = config

    @classmethod
    def from_full_node(cls, full_node: FullNode) -> "LightNode":
        """Bootstrap by syncing every header from a full node."""
        return cls(full_node.system.headers(), full_node.system.config)

    @property
    def tip_height(self) -> int:
        return len(self.headers) - 1

    def storage_bytes(self) -> int:
        """The Challenge-1 metric: bytes this node must persist."""
        return header_storage_bytes(self.headers)

    def truncate_headers(self, height: int) -> int:
        """Drop every header above ``height``; returns how many fell.

        The client half of a pushed reorg retraction (PROTOCOL.md §10.4):
        the retained prefix [0..height] stays trusted, and the
        replacement branch must re-verify its linkage onto it — either
        frame by frame as push updates arrive or in bulk through
        :meth:`sync_with_reorg`.
        """
        if height < 0:
            raise ChainError(f"cannot truncate below genesis ({height})")
        if height >= self.tip_height:
            return 0
        removed = self.tip_height - height
        del self.headers[height + 1 :]
        return removed

    # -- header sync ---------------------------------------------------------

    def sync_headers(
        self,
        full_node: FullNode,
        transport: "Optional[InProcessTransport]" = None,
        delta: bool = False,
    ) -> int:
        """Fetch headers beyond the local tip, validate linkage, append.

        With ``delta=True`` the server answers with the delta-encoded
        frame (§8.2): prev-hashes are omitted on the wire and re-derived
        here by hashing, so the linkage check below still runs against
        hashes this client computed itself.

        Returns the number of headers accepted.  Raises
        :class:`VerificationError` if the served headers do not link onto
        the local chain — a full node cannot splice in a divergent
        history during sync.
        """
        from_height = self.tip_height + 1
        response = self._fetch_headers(
            full_node, transport, from_height, delta
        )
        if response.from_height != from_height:
            raise VerificationError(
                f"asked for headers from {from_height}, got "
                f"{response.from_height}"
            )
        _check_linkage(
            response.headers, self.headers[-1].block_id(), from_height
        )
        self.headers.extend(response.headers)
        return len(response.headers)

    def _fetch_headers(
        self,
        full_node: FullNode,
        transport: "Optional[InProcessTransport]",
        from_height: int,
        delta: bool = False,
    ):
        """One headers round trip through ``transport``; the decoded reply."""
        request_cls = DeltaHeadersRequest if delta else HeadersRequest
        response_cls = DeltaHeadersResponse if delta else HeadersResponse
        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            request_cls(from_height).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_headers(request_bytes)
        )
        return response_cls.deserialize(
            response_bytes,
            self.config.header_extension_kind,
            self.config.header_bloom_bytes,
        )

    # -- querying ----------------------------------------------------------

    def query_history(
        self,
        full_node: FullNode,
        address: str,
        transport: Optional[InProcessTransport] = None,
        first_height: int = 1,
        last_height: Optional[int] = None,
    ) -> VerifiedHistory:
        """Request, receive, and *verify* the history of ``address``.

        ``first_height``/``last_height`` restrict the query to a height
        range (the range-query extension); by default the whole chain is
        covered.  Raises :class:`VerificationError` (or a subclass) if
        the full node's answer is incorrect or incomplete in any way.
        """
        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            QueryRequest(address, first_height, last_height or 0).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_query(request_bytes)
        )
        response = QueryResponse.deserialize(response_bytes, self.config)
        expected_range = (
            first_height,
            last_height if last_height is not None else self.tip_height,
        )
        return self.verify(response.result, address, expected_range)

    def verify(
        self,
        result,
        address: str,
        expected_range: "Optional[Tuple[int, int]]" = None,
    ) -> VerifiedHistory:
        """Verify an already-received result against local headers."""
        return verify_result(
            result, self.headers, self.config, address, expected_range
        )

    def sync_with_reorg(
        self,
        full_node: FullNode,
        transport: "Optional[InProcessTransport]" = None,
    ) -> "Tuple[int, int]":
        """Sync headers, switching to the peer's fork when it is longer.

        Returns ``(replaced, appended)``.  The adoption rule is
        longest-chain with height as the work proxy (this simulation has
        no proof-of-work; see DESIGN.md).  The peer's chain must share
        our genesis and be internally linked, otherwise nothing changes
        and :class:`VerificationError` is raised.  A peer offering a
        fork *shorter or equal* to ours is refused with
        :class:`StaleChainError` (a benign subclass — lagging, not
        lying; no replacement without more work).
        """
        try:
            return 0, self.sync_headers(full_node, transport)
        except (VerificationError, QueryError):
            # Divergent chain, or the peer does not even have our heights
            # (it may be on a shorter fork): fall through to comparison.
            pass

        remote = self._fetch_headers(full_node, transport, 0).headers
        if len(remote) <= len(self.headers):
            raise StaleChainError(
                "peer's divergent chain is not longer than ours; refusing "
                "the reorg"
            )
        if not remote or remote[0].block_id() != self.headers[0].block_id():
            raise VerificationError("peer chain has a different genesis")
        _check_linkage(remote[1:], remote[0].block_id(), 1)

        fork_height = 0
        limit = min(len(remote), len(self.headers))
        while (
            fork_height + 1 < limit
            and remote[fork_height + 1].block_id()
            == self.headers[fork_height + 1].block_id()
        ):
            fork_height += 1
        replaced = len(self.headers) - (fork_height + 1)
        appended = len(remote) - (fork_height + 1)
        self.headers = list(remote)
        return replaced, appended

    def query_batch(
        self,
        full_node: FullNode,
        addresses: "Sequence[str]",
        transport: Optional[InProcessTransport] = None,
        first_height: int = 1,
        last_height: Optional[int] = None,
        aggregated: bool = False,
    ) -> "dict[str, VerifiedHistory]":
        """Request and verify histories for several addresses at once.

        On strawman-family systems the per-block filters ship once for
        the whole batch — the amortization measured by
        ``bench_ablation_batch.py``.  With ``aggregated=True`` the server
        responds in the blob-table encoding (§8.1); the decoded batch
        goes through the identical ``verify_batch_result`` path.
        """
        from repro.node.messages import (
            AggregatedBatchRequest,
            AggregatedBatchResponse,
            BatchQueryRequest,
            BatchQueryResponse,
        )
        from repro.query.batch import verify_batch_result

        request_cls = AggregatedBatchRequest if aggregated else BatchQueryRequest
        response_cls = (
            AggregatedBatchResponse if aggregated else BatchQueryResponse
        )
        if transport is None:
            transport = InProcessTransport()
        request_bytes = transport.send_to_server(
            request_cls(
                list(addresses), first_height, last_height or 0
            ).serialize()
        )
        response_bytes = transport.send_to_client(
            full_node.handle_batch_query(request_bytes)
        )
        response = response_cls.deserialize(response_bytes, self.config)
        expected_range = (
            first_height,
            last_height if last_height is not None else self.tip_height,
        )
        return verify_batch_result(
            response.batch,
            self.headers,
            self.config,
            list(addresses),
            expected_range,
        )

    def query_balance(
        self,
        full_node: FullNode,
        address: str,
        transport: Optional[InProcessTransport] = None,
    ) -> int:
        """Verified Equation-1 balance (the paper's coffee-shop scenario)."""
        return self.query_history(full_node, address, transport).balance()

    def __repr__(self) -> str:
        return (
            f"LightNode(tip={self.tip_height}, "
            f"system={self.config.kind.value})"
        )


def _check_linkage(
    headers: Sequence[BlockHeader], previous_id: bytes, first_height: int
) -> None:
    """Raise unless every header's prev-hash is the id of the one before."""
    for offset, header in enumerate(headers):
        if header.prev_hash != previous_id:
            raise VerificationError(
                f"header at height {first_height + offset} does not link "
                "onto the chain below it"
            )
        previous_id = header.block_id()


__all__ = ["LightNode", "VerificationError"]
