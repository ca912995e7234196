"""Deserializer fuzzing: hostile bytes must fail *cleanly*.

A full node's responses are attacker-controlled input, so every decoder
must either return a valid object or raise a :class:`ReproError`
subclass — never an uncontrolled ``IndexError``/``struct.error``/
``MemoryError``.  Two generators: pure random bytes, and random
mutations of valid payloads (which reach much deeper into the parsers).

Message decoders come from the wire-tag table, so every assigned tag is
fuzzed and round-tripped; a new tag without a sample below fails
:func:`test_every_tag_has_a_sample`.
"""

import inspect
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.crypto.encoding import ByteReader
from repro.errors import ReproError, ServerOverloadedError
from repro.merkle.bmt import BmtMultiProof
from repro.merkle.sorted_tree import SmtBranch, SmtInexistenceProof
from repro.merkle.tree import MerkleBranch
from repro.node import messages
from repro.query.batch import answer_batch_query
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.query.result import QueryResult

CONFIG = SystemConfig.lvq(bf_bytes=192, segment_len=16)


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _decoder_for(cls):
    """``cls.deserialize`` fed the chain parameters its signature asks for."""
    params = inspect.signature(cls.deserialize).parameters
    if "config" in params:
        return lambda raw: cls.deserialize(raw, CONFIG)
    if "extension_kind" in params:
        return lambda raw: cls.deserialize(
            raw, CONFIG.header_extension_kind, CONFIG.header_bloom_bytes
        )
    return cls.deserialize


def _encode(message) -> bytes:
    if "config" in inspect.signature(message.serialize).parameters:
        return message.serialize(CONFIG)
    return message.serialize()


def _decoders():
    proof_decoders = [
        ("transaction", Transaction.from_bytes),
        ("merkle_branch", MerkleBranch.from_bytes),
        (
            "smt_branch",
            lambda raw: SmtBranch.deserialize(ByteReader(raw)),
        ),
        (
            "smt_inexistence",
            lambda raw: SmtInexistenceProof.deserialize(ByteReader(raw)),
        ),
        (
            "bmt_multiproof",
            lambda raw: BmtMultiProof.deserialize(
                ByteReader(raw), CONFIG.bf_bits, CONFIG.num_hashes
            ),
        ),
        (
            "block_header",
            lambda raw: BlockHeader.deserialize(ByteReader(raw), 3),
        ),
        (
            "query_result",
            lambda raw: QueryResult.deserialize(raw, CONFIG),
        ),
        ("batch_result", _batch_result),
    ]
    return proof_decoders + [
        (_snake(row.message.__name__), _decoder_for(row.message))
        for row in messages.WIRE_TAGS.values()
    ]


def _batch_result(raw):
    from repro.query.batch import BatchQueryResult

    return BatchQueryResult.deserialize(raw, CONFIG)


@pytest.mark.parametrize("name,decoder", _decoders(), ids=lambda d: str(d))
@given(raw=st.binary(max_size=600))
@settings(max_examples=60, deadline=None)
def test_random_bytes_fail_cleanly(name, decoder, raw):
    try:
        decoder(raw)
    except ReproError:
        pass  # the only acceptable failure mode


@given(
    flips=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(
    max_examples=80,
    deadline=None,
    # The fixtures are read-only (session-scoped chain); no reset needed.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_result_payload_fails_cleanly(
    lvq_system, probe_addresses, flips
):
    honest = answer_query(lvq_system, probe_addresses["Addr5"])
    payload = bytearray(honest.serialize(lvq_system.config))
    for position, bit in flips:
        payload[position % len(payload)] ^= 1 << bit
    try:
        result = QueryResult.deserialize(bytes(payload), lvq_system.config)
        # If it parsed, verification must also fail cleanly or accept an
        # identical answer — never crash.
        from repro.query.verifier import verify_result

        verify_result(result, lvq_system.headers(), lvq_system.config)
    except ReproError:
        pass


# ---------------------------------------------------------------------------
# every assigned tag: mutation fuzzing and round trips


def _samples(system, workload):
    """One valid instance of every message class, from a real chain."""
    addresses = sorted(workload.probe_addresses.values())[:2]
    headers = system.headers()
    batch = answer_batch_query(system, addresses)
    height = system.tip_height
    single = answer_batch_query(system, addresses, height, height)
    return {
        messages.QueryRequest: messages.QueryRequest(addresses[0], 2, 30),
        messages.QueryResponse: messages.QueryResponse(
            answer_query(system, addresses[0])
        ),
        messages.HeadersRequest: messages.HeadersRequest(3),
        messages.HeadersResponse: messages.HeadersResponse(0, headers[:6]),
        messages.BatchQueryRequest: messages.BatchQueryRequest(addresses),
        messages.BatchQueryResponse: messages.BatchQueryResponse(batch),
        messages.DeltaHeadersRequest: messages.DeltaHeadersRequest(3),
        messages.DeltaHeadersResponse: messages.DeltaHeadersResponse(
            0, headers[:6]
        ),
        messages.AggregatedBatchRequest: messages.AggregatedBatchRequest(
            addresses, 1, height
        ),
        messages.AggregatedBatchResponse: messages.AggregatedBatchResponse(
            batch
        ),
        messages.ErrorResponse: messages.ErrorResponse.from_exception(
            ServerOverloadedError(70, 64, retry_after=0.25)
        ),
        messages.PingRequest: messages.PingRequest(7),
        messages.PongResponse: messages.PongResponse(7, height),
        messages.SubscribeRequest: messages.SubscribeRequest(addresses),
        messages.SubscribeAck: messages.SubscribeAck(3, height),
        messages.UnsubscribeRequest: messages.UnsubscribeRequest(3),
        messages.PushUpdate: messages.PushUpdate(
            height, headers[height].serialize(), single.serialize(CONFIG)
        ),
        messages.PushRetraction: messages.PushRetraction(height - 4, height),
        messages.SubscriptionEvicted: messages.SubscriptionEvicted(
            3, 17, "outbox overflow"
        ),
        messages.HelloRequest: messages.HelloRequest("wallet-7"),
    }


@pytest.fixture(scope="module")
def samples(lvq_system, workload):
    """Encoded samples; ``lvq_system`` is built under :data:`CONFIG`."""
    built = _samples(lvq_system, workload)
    return {cls: _encode(message) for cls, message in built.items()}


_TAGS = sorted(messages.WIRE_TAGS)


def test_every_tag_has_a_sample(samples):
    assert set(samples) == {
        row.message for row in messages.WIRE_TAGS.values()
    }


@pytest.mark.parametrize("tag", _TAGS, ids=lambda tag: f"{tag:#04x}")
def test_round_trip_is_byte_identical(tag, samples):
    cls = messages.WIRE_TAGS[tag].message
    encoded = samples[cls]
    assert encoded[0] == tag
    decoded = _decoder_for(cls)(encoded)
    assert type(decoded) is cls
    assert _encode(decoded) == encoded


@pytest.mark.parametrize("tag", _TAGS, ids=lambda tag: f"{tag:#04x}")
@given(
    flips=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000_000),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_message_fails_cleanly(tag, samples, flips):
    payload = bytearray(samples[messages.WIRE_TAGS[tag].message])
    for position, bit in flips:
        payload[position % len(payload)] ^= 1 << bit
    try:
        _decoder_for(messages.WIRE_TAGS[tag].message)(bytes(payload))
    except ReproError:
        pass
