"""Differential and tamper oracles for the one-pass BMT verifier.

The light client re-derives every BMT node from the filter bytes it
receives.  These tests pin that verifier against independent references
on small LVQ and LVQ-no-SMT chains:

* the server's own tree: for every segment, the verified clean ranges,
  failed heights and endpoint count equal ``BmtTree.find_endpoints``
  restricted to the queried range;
* the plain codec: an aggregated answer decodes into the same raw proof
  representation and verifies to the identical history;

and check soundness under corruption: every single-byte change inside a
serialized multiproof is rejected by the decoder or the verifier, or
leaves the accepted history unchanged.
"""

import pytest

from repro.bloom.bitarray import BitArray
from repro.bloom.filter import BloomFilter
from repro.chain.address import address_item, synthetic_address
from repro.errors import EncodingError, VerificationError
from repro.merkle.bmt import EndpointKind, _ProofNode
from repro.query.aggregate import (
    decode_aggregated_batch,
    encode_aggregated_batch,
)
from repro.query.batch import (
    BatchQueryResult,
    answer_batch_query,
    verify_batch_result,
)
from repro.query.prover import answer_query
from repro.query.result import QueryResult
from repro.query.verifier import verify_result

#: The full chain plus three sub-ranges: one inside a segment, one
#: straddling a segment boundary, one spanning several segments.
RANGES = [None, (3, 10), (15, 18), (5, 40)]

ABSENT = [synthetic_address(f"oracle/absent/{i}".encode()) for i in range(2)]


@pytest.fixture(params=["lvq", "lvq_no_smt"])
def bmt_system(request, lvq_system, lvq_no_smt_system):
    return lvq_system if request.param == "lvq" else lvq_no_smt_system


def _addresses(probe_addresses):
    return list(probe_addresses.values()) + ABSENT


def _range(system, query_range):
    return query_range or (1, system.tip_height)


def _decoded(system, address, first, last):
    """The answer as the client sees it: decoded from the plain bytes."""
    config = system.config
    result = answer_query(system, address, first, last)
    return QueryResult.deserialize(result.serialize(config), config)


def _history(verified):
    return (
        [(height, tx.txid()) for height, tx in verified.transactions],
        verified.num_endpoints,
    )


def _frontier(multiproof):
    stack = [multiproof._root]
    while stack:
        node = stack.pop()
        if node.tag == 0:
            stack.extend((node.left, node.right))
        else:
            yield node


@pytest.mark.parametrize("query_range", RANGES, ids=str)
def test_verified_partition_matches_server_tree(
    bmt_system, probe_addresses, query_range
):
    config = bmt_system.config
    headers = bmt_system.headers()
    first, last = _range(bmt_system, query_range)
    for address in _addresses(probe_addresses):
        item = address_item(address)
        result = _decoded(bmt_system, address, first, last)
        for segment in result.segments:
            clipped = (max(segment.start, first), min(segment.end, last))
            verified = segment.multiproof.verify(
                headers[segment.anchor].extension.bmt_root,
                item,
                segment.start,
                segment.num_blocks,
                config.bf_bits,
                config.num_hashes,
                query_range=clipped,
            )
            tree = bmt_system.forest.tree(segment.start, segment.end)
            expected = [
                endpoint
                for endpoint in tree.find_endpoints(item)
                if not (
                    endpoint.node.end < clipped[0]
                    or endpoint.node.start > clipped[1]
                )
            ]
            assert verified.clean_ranges == [
                (e.node.start, e.node.end)
                for e in expected
                if e.kind is EndpointKind.CLEAN
            ]
            assert verified.failed_heights == [
                e.node.start
                for e in expected
                if e.kind is EndpointKind.LEAF_FAILED
            ]
            assert verified.num_endpoints == len(expected)


@pytest.mark.parametrize("query_range", RANGES, ids=str)
def test_plain_and_aggregated_decodes_verify_identically(
    bmt_system, probe_addresses, query_range
):
    config = bmt_system.config
    headers = bmt_system.headers()
    first, last = _range(bmt_system, query_range)
    addresses = _addresses(probe_addresses)
    batch = answer_batch_query(bmt_system, addresses, first, last)
    plain = BatchQueryResult.deserialize(batch.serialize(config), config)
    aggregated = decode_aggregated_batch(
        encode_aggregated_batch(batch, config), config
    )
    for decoded in (plain, aggregated):
        for segments in decoded.per_address_segments:
            for segment in segments:
                assert all(
                    type(node.raw_bf) is bytes
                    for node in _frontier(segment.multiproof)
                )
    plain_histories = verify_batch_result(
        plain, headers, config, addresses, (first, last)
    )
    aggregated_histories = verify_batch_result(
        aggregated, headers, config, addresses, (first, last)
    )
    for address in addresses:
        assert _history(plain_histories[address]) == _history(
            aggregated_histories[address]
        )


def test_decode_builds_no_filter_objects(
    bmt_system, probe_addresses, monkeypatch
):
    """Proof nodes keep the received bytes; no per-node filter objects."""
    config = bmt_system.config
    addresses = _addresses(probe_addresses)
    batch = answer_batch_query(bmt_system, addresses)
    plain_bytes = batch.serialize(config)
    aggregated_bytes = encode_aggregated_batch(batch, config)

    def refuse(*_args, **_kwargs):
        raise AssertionError("decode built a filter object")

    monkeypatch.setattr(BloomFilter, "__init__", refuse)
    monkeypatch.setattr(BitArray, "__init__", refuse)
    BatchQueryResult.deserialize(plain_bytes, config)
    decode_aggregated_batch(aggregated_bytes, config)


def _tamper_target(system, probe_addresses):
    """A probe answer and one of its segments whose multiproof carries
    every kind of node the range allows (failed leaves, clean endpoints
    and stubs when possible)."""
    first, last = 6, 41  # odd bounds: leaf and internal stubs both ship
    best = None
    for address in probe_addresses.values():
        result = answer_query(system, address, first, last)
        for index, segment in enumerate(result.segments):
            kinds = {node.tag for node in _frontier(segment.multiproof)}
            if best is None or len(kinds) > best[0]:
                best = (len(kinds), address, index)
    _, address, index = best
    return address, index, (first, last)


def test_every_byte_flip_is_rejected_or_harmless(bmt_system, probe_addresses):
    config = bmt_system.config
    headers = bmt_system.headers()
    address, index, (first, last) = _tamper_target(bmt_system, probe_addresses)
    result = answer_query(bmt_system, address, first, last)
    payload = result.serialize(config)
    honest = _history(
        verify_result(result, headers, config, address, (first, last))
    )
    proof_bytes = result.segments[index].multiproof.serialize()
    offset = payload.index(proof_bytes)
    outcomes = {"decode": 0, "verify": 0, "same": 0}
    for position in range(offset, offset + len(proof_bytes)):
        for flip in (0x01, 0x80):
            mutated = bytearray(payload)
            mutated[position] ^= flip
            try:
                decoded = QueryResult.deserialize(bytes(mutated), config)
            except EncodingError:
                outcomes["decode"] += 1
                continue
            try:
                verified = verify_result(
                    decoded, headers, config, address, (first, last)
                )
            except VerificationError:
                outcomes["verify"] += 1
                continue
            assert _history(verified) == honest, (
                f"flip {flip:#04x} at proof byte {position - offset} "
                "accepted a different history"
            )
            outcomes["same"] += 1
    # Tag flips are caught by the decoder, filter and hash flips by the
    # verifier; both paths must actually be exercised.
    assert outcomes["decode"] > 0 and outcomes["verify"] > 0


def _clean_internal(proof_node, tree_node):
    """The first clean internal endpoint and its server-tree node."""
    if proof_node.tag == 0:
        return _clean_internal(
            proof_node.left, tree_node.left
        ) or _clean_internal(proof_node.right, tree_node.right)
    if proof_node.tag == 2:
        return proof_node, tree_node
    return None


def _clean_endpoint(tree_node):
    if tree_node.is_leaf:
        return _ProofNode(1, tree_node.raw_bf())
    return _ProofNode(
        2, tree_node.raw_bf(), (tree_node.left.hash, tree_node.right.hash)
    )


def test_expanded_clean_endpoint_is_rejected(bmt_system, probe_addresses):
    """Splitting a clean endpoint into its two (also clean) children keeps
    every hash intact, so only the minimality check can refuse it."""
    config = bmt_system.config
    headers = bmt_system.headers()
    for address in _addresses(probe_addresses):
        # A decoded copy: the prover's cached proof objects stay intact.
        result = _decoded(bmt_system, address, 1, bmt_system.tip_height)
        for segment in result.segments:
            tree = bmt_system.forest.tree(segment.start, segment.end)
            found = _clean_internal(segment.multiproof._root, tree.root)
            if found is not None:
                break
        if found is not None:
            break
    assert found is not None, "no clean internal endpoint in any answer"
    proof_node, tree_node = found
    proof_node.tag = 0
    proof_node.raw_bf = proof_node.child_hashes = None
    proof_node.left = _clean_endpoint(tree_node.left)
    proof_node.right = _clean_endpoint(tree_node.right)
    with pytest.raises(VerificationError, match="not minimal"):
        segment.multiproof.verify(
            headers[segment.anchor].extension.bmt_root,
            address_item(address),
            segment.start,
            segment.num_blocks,
            config.bf_bits,
            config.num_hashes,
        )
