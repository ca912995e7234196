"""The full node: stores complete blocks, serves verifiable queries (§II).

A :class:`FullNode` wraps a :class:`BuiltSystem` (chain plus indexes) and
answers the two RPCs of the protocol: header sync and history queries.
The honest implementation simply delegates to :func:`answer_query`; the
security tests subclass/wrap it with adversarial behaviours from
:mod:`repro.query.adversary`.

Serving-side caching (DESIGN.md §8): each node carries its own
:class:`~repro.query.cache.ResponseCache` of serialized query responses,
keyed ``(address, first_height, requested_last, tip)`` and fronted by
single-flight coalescing — N concurrent identical requests perform one
proof generation and one serialization.  The cache is **per node**, not
per system, because two nodes over one chain may answer differently (the
adversarial test doubles tamper in ``answer``); it registers an append
listener on the system so every new block drops the now-stale tip-keyed
bytes.  For a pooled multi-worker front end, wrap the node in
:class:`repro.node.server.QueryServer`.
"""

from __future__ import annotations

import weakref

from repro.errors import QueryError
from repro.node.messages import QueryRequest, QueryResponse, decode_request
from repro.query.builder import BuiltSystem
from repro.query.cache import ResponseCache
from repro.query.prover import answer_query
from repro.query.result import QueryResult


class FullNode:
    """Serves headers and verifiable history queries from a built chain."""

    def __init__(
        self, system: BuiltSystem, response_cache_entries: int = 1024
    ) -> None:
        self.system = system
        #: Serialized answers for hot (address, range) pairs at the
        #: current tip; dropped whenever the chain grows.
        self.response_cache = ResponseCache(response_cache_entries)
        #: Only honest answers are cacheable: subclasses that override
        #: ``answer`` (the adversarial doubles, some stochastic) must be
        #: re-invoked on every request so their per-call behaviour —
        #: intermittent attacks, RNG-sequenced tampering — is preserved.
        self._cache_responses = type(self).answer is FullNode.answer
        # Register via weakref so short-lived nodes (tests build many
        # per shared system) don't pin their caches in the listener list.
        cache_ref = weakref.ref(self.response_cache)

        def _drop_stale(ref=cache_ref):
            cache = ref()
            if cache is not None:
                cache.invalidate_all()

        def _drop_stale_on_reorg(fork_height: int, ref=cache_ref):
            # Response keys carry the tip height, and an equal-length
            # fork reuses old tip heights for different chains — so a
            # reorg must drop everything, not just keys above the fork.
            cache = ref()
            if cache is not None:
                cache.invalidate_all()

        system.add_append_listener(_drop_stale)
        system.add_reorg_listener(_drop_stale_on_reorg)

    @property
    def tip_height(self) -> int:
        return self.system.tip_height

    # -- local API -----------------------------------------------------------

    def query(
        self,
        address: str,
        first_height: int = 1,
        last_height: "int | None" = None,
    ) -> QueryResult:
        """Full proof-bearing answer for ``address`` (the paper's §V)."""
        return self.answer(address, first_height, last_height)

    def answer(
        self,
        address: str,
        first_height: int = 1,
        last_height: "int | None" = None,
    ) -> QueryResult:
        """Hook point: adversarial full nodes override this one method."""
        return answer_query(self.system, address, first_height, last_height)

    # -- RPC handlers ----------------------------------------------------------

    def handle_query(self, payload: bytes) -> bytes:
        request = QueryRequest.deserialize(payload)
        if not request.address:
            raise QueryError("empty address in query request")
        last = request.last_height if request.last_height else None
        # Key and answer under one read-lock hold, so the tip in the key
        # is exactly the tip the answer is produced against (appends wait
        # for in-flight answers; the nested answer_query read is
        # reentrant).  Identical concurrent misses coalesce into one
        # proof generation via the cache's single-flight front.
        with self.system.lock.read():

            def build() -> bytes:
                return QueryResponse(
                    self.answer(request.address, request.first_height, last)
                ).serialize(self.system.config)

            if not self._cache_responses:
                return build()
            key = (
                request.address,
                request.first_height,
                request.last_height,
                self.system.tip_height,
            )
            return self.response_cache.get_or_build(key, build)

    def handle_batch_query(self, payload: bytes) -> bytes:
        # The request tag selects the response encoding: the aggregated
        # tag asks for the blob-table form (§8.1), the plain tag for the
        # per-fragment form, kept as the byte-equivalence oracle.
        request, response_cls = decode_request(payload, "handle_batch_query")
        if not request.addresses:
            raise QueryError("batch query request carries no addresses")
        if any(not address for address in request.addresses):
            raise QueryError("empty address in batch query request")
        last = request.last_height if request.last_height else None
        batch = self.answer_batch(request.addresses, request.first_height, last)
        return response_cls(batch).serialize(self.system.config)

    def answer_batch(
        self,
        addresses,
        first_height: int = 1,
        last_height: "int | None" = None,
    ):
        """Hook point for adversarial batch behaviour."""
        from repro.query.batch import answer_batch_query

        return answer_batch_query(
            self.system, addresses, first_height, last_height
        )

    def handle_headers(self, payload: bytes) -> bytes:
        # Plain or delta-encoded (§8.2), as the request tag selects.
        request, response_cls = decode_request(payload, "handle_headers")
        with self.system.lock.read():
            if request.from_height > self.tip_height + 1:
                raise QueryError(
                    f"no headers from height {request.from_height}; tip is "
                    f"{self.tip_height}"
                )
            # Slice the block range first: O(requested headers), not O(chain).
            response = response_cls(
                request.from_height,
                self.system.chain.headers_from(request.from_height),
            )
        return response.serialize()

    def extend_chain(self, bodies) -> None:
        """Append new blocks (each a transaction list) to the chain."""
        for transactions in bodies:
            self.system.append_block(transactions)

    def rollback_to(self, height: int) -> int:
        """Pop every block above ``height``; returns how many were removed.

        Delegates to :meth:`BuiltSystem.rollback_to`, which takes the
        write lock (in-flight answers finish against the old tip first)
        and fires the reorg listeners that drop this node's response
        cache.
        """
        return self.system.rollback_to(height)

    def reorg(self, fork_height: int, new_bodies) -> "tuple[int, int]":
        """Switch to a fork atomically; returns ``(replaced, appended)``."""
        return self.system.reorg(fork_height, new_bodies)
