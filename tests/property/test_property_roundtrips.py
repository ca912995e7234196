"""Property-based round-trip tests for the remaining wire formats."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction, TxInput, TxOutput
from repro.crypto.encoding import (
    ByteReader,
    base58_decode,
    base58_encode,
    read_varint,
    write_var_bytes,
    write_varint,
)
from repro.crypto.hashing import sha256d
from repro.errors import EncodingError

addr_text = st.text(
    alphabet=string.digits + string.ascii_letters, min_size=1, max_size=34
)


class TestEncodingRoundtrips:
    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=120)
    def test_varint(self, value):
        encoded = write_varint(value)
        decoded, offset = read_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    @given(payload=st.binary(max_size=64))
    @settings(max_examples=120)
    def test_base58(self, payload):
        assert base58_decode(base58_encode(payload)) == payload

    @given(payload=st.binary(max_size=40))
    @settings(max_examples=80)
    def test_var_bytes(self, payload):
        reader = ByteReader(write_var_bytes(payload))
        assert reader.var_bytes() == payload
        reader.finish()


def tx_inputs():
    return st.builds(
        TxInput,
        prev_txid=st.binary(min_size=32, max_size=32),
        prev_index=st.integers(min_value=0, max_value=2**32 - 1),
        address=addr_text,
        value=st.integers(min_value=0, max_value=2**48),
    )


def tx_outputs():
    return st.builds(
        TxOutput,
        address=addr_text,
        value=st.integers(min_value=0, max_value=2**48),
    )


class TestTransactionRoundtrips:
    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=4),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=4),
        version=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=80)
    def test_roundtrip(self, inputs, outputs, version):
        tx = Transaction(inputs, outputs, version)
        restored = Transaction.from_bytes(tx.serialize())
        assert restored == tx
        assert restored.inputs == tx.inputs
        assert restored.outputs == tx.outputs
        assert restored.txid() == tx.txid()

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_txid_injective_on_serialization(self, inputs, outputs):
        """Same bytes iff same txid (hash is deterministic)."""
        tx = Transaction(inputs, outputs)
        clone = Transaction.from_bytes(tx.serialize())
        assert clone.serialize() == tx.serialize()
        assert clone.txid() == tx.txid()

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
        probe=addr_text,
    )
    @settings(max_examples=80)
    def test_involves_matches_addresses(self, inputs, outputs, probe):
        tx = Transaction(inputs, outputs)
        assert tx.involves(probe) == (probe in tx.addresses())

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
        probe=addr_text,
    )
    @settings(max_examples=80)
    def test_equation1_terms_non_negative(self, inputs, outputs, probe):
        tx = Transaction(inputs, outputs)
        assert tx.received_by(probe) >= 0
        assert tx.sent_by(probe) >= 0
        if not tx.involves(probe):
            assert tx.received_by(probe) == 0 and tx.sent_by(probe) == 0


def unicode_inputs():
    return st.builds(
        TxInput,
        prev_txid=st.binary(min_size=32, max_size=32),
        prev_index=st.integers(min_value=0, max_value=2**32 - 1),
        address=st.text(max_size=12),
        value=st.integers(min_value=0, max_value=2**64 - 1),
    )


def unicode_outputs():
    return st.builds(
        TxOutput,
        address=st.text(max_size=12),
        value=st.integers(min_value=0, max_value=2**64 - 1),
    )


class TestCanonicalTransactionEncoding:
    """``Transaction.from_bytes`` stamps the txid from the received bytes.

    That is sound only if the encoding is canonical: every payload the
    decoder accepts must be exactly what ``serialize`` produces for the
    decoded transaction (varints are minimal, addresses strict UTF-8).
    """

    @given(
        inputs=st.lists(unicode_inputs(), min_size=1, max_size=3),
        outputs=st.lists(unicode_outputs(), min_size=1, max_size=3),
        version=st.integers(min_value=0, max_value=2**32),
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=255),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300)
    def test_accepted_payload_reserializes_exactly(
        self, inputs, outputs, version, flips
    ):
        payload = bytearray(Transaction(inputs, outputs, version).serialize())
        for index, mask in flips:
            payload[index % len(payload)] ^= mask
        try:
            transaction = Transaction.from_bytes(bytes(payload))
        except EncodingError:
            return
        assert transaction.serialize() == bytes(payload)
        assert transaction.txid() == sha256d(transaction.serialize())

    @given(
        version=st.integers(min_value=0, max_value=2**32),
        marker=st.sampled_from([(0xFD, 2), (0xFE, 4), (0xFF, 8)]),
    )
    @settings(max_examples=100)
    def test_widened_varint_rejected(self, version, marker):
        """A non-minimal varint would give one transaction two byte forms
        (and two txids); the decoder must refuse it."""
        tx = Transaction([TxInput.coinbase(1)], [TxOutput("a", 1)], version)
        prefix, width = marker
        if version.bit_length() > 8 * width:
            return  # does not fit this width
        if len(write_varint(version)) == 1 + width:
            return  # this width is the canonical one
        canonical = tx.serialize()
        body = canonical[len(write_varint(version)) :]
        widened = bytes([prefix]) + version.to_bytes(width, "little") + body
        with pytest.raises(EncodingError):
            Transaction.from_bytes(widened)

    @given(payload=st.binary(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_accepted_bytes_are_canonical(self, payload):
        try:
            transaction = Transaction.from_bytes(payload)
        except EncodingError:
            return
        assert transaction.serialize() == payload
        assert transaction.txid() == sha256d(payload)
