"""The wire-tag table: one row per assigned tag, checked at import.

``messages.WIRE_TAGS`` drives every first-byte dispatch site (the query
server, the TCP front end, the admission classifier, the full node's
encoding negotiation and the watch-stream client), so these tests pin
the table itself: PROTOCOL.md §3 documents exactly its rows, the band
around the compression markers stays free, every request row names a
real handler, and a colliding assignment cannot be imported.
"""

import pathlib
import re
import types

import pytest

from repro.node import messages
from repro.node.full_node import FullNode
from repro.node.net import NetServer
from repro.node.transport import FRAME_ZLIB, FRAME_ZSTD

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "PROTOCOL.md"


def _protocol_tag_rows():
    text = PROTOCOL.read_text(encoding="utf-8")
    section = text[text.index("## 3. Messages"):text.index("## 4. ")]
    return {
        int(tag, 16): name
        for tag, name in re.findall(
            r"^\* `0x([0-9a-f]{2}) (\w+)`", section, re.MULTILINE
        )
    }


def test_protocol_section_3_lists_exactly_the_table():
    assert _protocol_tag_rows() == {
        tag: row.message.__name__ for tag, row in messages.WIRE_TAGS.items()
    }


def test_reserved_band_stays_unassigned():
    assert messages.RESERVED_TAGS == frozenset(range(0x0E, 0x14))
    assert {FRAME_ZLIB, FRAME_ZSTD} <= messages.RESERVED_TAGS
    assert not messages.RESERVED_TAGS & set(messages.WIRE_TAGS)


def test_each_class_carries_its_row_tag():
    classes = [row.message for row in messages.WIRE_TAGS.values()]
    assert len(set(classes)) == len(classes), "one row per message class"
    for tag, row in messages.WIRE_TAGS.items():
        assert row.tag == tag
        assert row.message.type_tag == tag


def test_rows_name_real_handlers():
    for row in messages.WIRE_TAGS.values():
        if row.route == messages.ROUTE_POOLED:
            assert callable(getattr(FullNode, row.handler))
            assert row.priority in messages.SHED_PRIORITIES
            assert row.response is not None
        elif row.route == messages.ROUTE_INLINE:
            assert callable(getattr(NetServer, row.handler))
            assert (row.response, row.priority) == (None, None)
        else:
            assert row.route in (messages.ROUTE_RESPONSE, messages.ROUTE_PUSH)
            assert (row.handler, row.response, row.priority) == (None,) * 3


@pytest.mark.parametrize("tag", [0x01, 0x0E, 0x10, 0x11, 0x13])
def test_build_table_rejects_duplicate_or_reserved_tag(tag):
    rows = list(messages.WIRE_TAGS.values())
    rows.append(
        messages.WireTag(tag, messages.PingRequest, messages.ROUTE_INLINE)
    )
    with pytest.raises(ValueError, match=f"{tag:#04x}"):
        messages._build_table(rows)
    assert messages.PingRequest.type_tag == 0x0C  # a failed build stamps nothing


@pytest.mark.parametrize("new_tag", ["0x01", "0x10"])
def test_importing_a_colliding_table_raises(new_tag):
    """Executing messages.py with HelloRequest moved onto a taken or a
    reserved tag fails at import time."""
    source = pathlib.Path(messages.__file__).read_text(encoding="utf-8")
    row = "WireTag(0x1A, HelloRequest"
    assert source.count(row) == 1
    mutated = source.replace(row, f"WireTag({new_tag}, HelloRequest")
    module = types.ModuleType("messages_with_collision")
    with pytest.raises(ValueError):
        exec(compile(mutated, messages.__file__, "exec"), module.__dict__)
