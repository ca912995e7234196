"""The §8.2 delta-encoded header frame and its sync path.

The safety property: the decoder *derives* every omitted prev-hash by
hashing the previous header, so the frame cannot assert linkage — the
client recomputes it.  A delta frame must therefore decode to exactly
the headers a full frame carries, or fail typed; and a sync over the
delta path must accept exactly the chains the full path accepts.
"""

import pytest

from repro.errors import EncodingError, ReproError, VerificationError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.messages import (
    DeltaHeadersRequest,
    DeltaHeadersResponse,
    HeadersRequest,
    HeadersResponse,
)
from repro.node.transport import InProcessTransport


def _fresh_client(system):
    return LightNode([system.headers()[0]], system.config)


def test_frame_round_trips_byte_identically(any_system):
    headers = any_system.headers()[1:]
    config = any_system.config
    frame = DeltaHeadersResponse(1, headers).serialize()
    decoded = DeltaHeadersResponse.deserialize(
        frame, config.header_extension_kind, config.header_bloom_bytes
    )
    assert decoded.from_height == 1
    assert [h.serialize() for h in decoded.headers] == [
        h.serialize() for h in headers
    ]


def test_frame_is_smaller_than_full(any_system):
    headers = any_system.headers()[1:]
    full = HeadersResponse(1, headers).serialize()
    delta = DeltaHeadersResponse(1, headers).serialize()
    # Each non-first header drops its 32-byte prev-hash and varint-packs
    # the core fields: > 32 bytes saved per header.
    assert delta < full or len(delta) <= len(full) - 32 * (len(headers) - 1)


def test_encoder_refuses_unchained_headers(lvq_system):
    headers = list(lvq_system.headers()[1:])
    headers[2], headers[3] = headers[3], headers[2]
    with pytest.raises(EncodingError):
        DeltaHeadersResponse(1, headers).serialize()


def test_empty_and_single_header_frames(lvq_system):
    config = lvq_system.config
    for headers in ([], [lvq_system.headers()[5]]):
        frame = DeltaHeadersResponse(6, headers).serialize()
        decoded = DeltaHeadersResponse.deserialize(
            frame, config.header_extension_kind, config.header_bloom_bytes
        )
        assert [h.serialize() for h in decoded.headers] == [
            h.serialize() for h in headers
        ]


def test_oversized_field_fails_typed(lvq_system):
    """Regression: a varint wider than the header's 32-bit slot is an
    EncodingError, not a struct.error when the header is hashed."""
    from repro.crypto.encoding import write_var_bytes, write_varint

    config = lvq_system.config
    first, second = lvq_system.headers()[1:3]
    frame = b"".join(
        [
            bytes([DeltaHeadersResponse.type_tag]),
            write_varint(1),
            write_varint(2),
            write_var_bytes(first.serialize()),
            write_varint(2**32),  # version
            write_varint(0),  # zigzag timestamp delta
            write_varint(second.bits),
            write_varint(second.nonce),
            second.merkle_root,
            second.extension.serialize(),
        ]
    )
    with pytest.raises(EncodingError, match="32 bits"):
        DeltaHeadersResponse.deserialize(
            frame, config.header_extension_kind, config.header_bloom_bytes
        )


def test_delta_sync_equals_full_sync(any_system):
    full_node = FullNode(any_system)
    via_full = _fresh_client(any_system)
    via_delta = _fresh_client(any_system)
    t_full, t_delta = InProcessTransport(), InProcessTransport()
    assert via_full.sync_headers(full_node, t_full) == (
        via_delta.sync_headers(full_node, t_delta, delta=True)
    )
    assert [h.serialize() for h in via_full.headers] == [
        h.serialize() for h in via_delta.headers
    ]
    assert t_delta.stats.bytes_to_client < t_full.stats.bytes_to_client


def test_delta_sync_resumes_mid_chain(lvq_system):
    full_node = FullNode(lvq_system)
    client = LightNode(lvq_system.headers()[:20], lvq_system.config)
    accepted = client.sync_headers(full_node, delta=True)
    assert accepted == lvq_system.tip_height - 19
    assert [h.serialize() for h in client.headers] == [
        h.serialize() for h in lvq_system.headers()
    ]


def test_request_tags_differ():
    plain = HeadersRequest(3).serialize()
    delta = DeltaHeadersRequest(3).serialize()
    assert plain[1:] == delta[1:] and plain[0] != delta[0]


class _TamperingFullNode(FullNode):
    """Serves delta frames with one byte flipped at a chosen offset."""

    def __init__(self, system, offset):
        super().__init__(system)
        self.offset = offset

    def handle_headers(self, payload):
        frame = bytearray(super().handle_headers(payload))
        frame[self.offset % len(frame)] ^= 0x01
        return bytes(frame)


@pytest.mark.parametrize("offset", [3, 10, 50, 200, 900, 2500])
def test_tampered_delta_frames_never_weaken_acceptance(lvq_system, offset):
    """Any bit flip yields a typed error or a chain the *full* path's
    acceptance rules would equally accept.

    Without proof-of-work a lying server can always serve a
    self-consistent forged suffix — through either frame format; that is
    the multi-peer layer's problem.  What the delta codec must guarantee
    is that it adds no acceptance: whatever survives a flip must still
    link onto the client's local chain under the exact checks the full
    path runs (prev-hash equals the client's own hash of the previous
    header).  The derived prev-hashes make that hold by re-hashing, and
    this test pins it.
    """
    liar = _TamperingFullNode(lvq_system, offset)
    client = _fresh_client(lvq_system)
    genesis_id = client.headers[0].block_id()
    try:
        client.sync_headers(liar, delta=True)
    except ReproError:
        return  # typed rejection (decode error or linkage failure)
    previous_id = genesis_id
    for header in client.headers[1:]:
        assert header.prev_hash == previous_id
        previous_id = header.block_id()


def test_forged_tip_extension_fails_linkage(lvq_system):
    """A delta frame can only splice via its *first* (full) header's
    prev-hash — and the client's linkage check kills it."""

    class _Splicer(FullNode):
        def handle_headers(self, payload):
            request = DeltaHeadersRequest.deserialize(payload)
            first = self.system.chain.headers_from(request.from_height)[0]
            forged = type(first)(
                b"\x42" * 32,
                first.merkle_root,
                first.timestamp,
                first.extension,
                first.version,
                first.bits,
                first.nonce,
            )
            return DeltaHeadersResponse(
                request.from_height, [forged]
            ).serialize()

    client = _fresh_client(lvq_system)
    with pytest.raises(VerificationError):
        client.sync_headers(_Splicer(lvq_system), delta=True)
