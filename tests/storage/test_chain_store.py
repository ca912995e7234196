"""Persisting a chain and reloading it, and the light node's header file.

A full node's chain persists through the one chain-store format,
:class:`DurableStore`: ``create`` writes it, ``open`` rebuilds every
index and byte-checks every stored header, so damage to any file is
caught at load time rather than at query time.  The log's commit and
crash-recovery rules are covered in test_durable.py.
"""

import json

import pytest

from repro.errors import ChainError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.query.prover import answer_query
from repro.query.verifier import verify_result
from repro.storage.chain_store import load_headers, save_headers
from repro.storage.durable import DurableStore
from repro.storage.record_log import block_record
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile


@pytest.fixture(scope="module")
def small_system():
    workload = generate_workload(
        WorkloadParams(
            num_blocks=16,
            txs_per_block=6,
            seed=5,
            probes=[ProbeProfile("P", 4, 3)],
        )
    )
    system = build_system(
        workload.bodies, SystemConfig.lvq(bf_bytes=160, segment_len=8)
    )
    return workload, system


class TestSystemRoundtrip:
    def test_save_load_identical(self, small_system, tmp_path):
        workload, system = small_system
        DurableStore.create(tmp_path / "chain", system)
        loaded = DurableStore.open(tmp_path / "chain").system
        assert loaded.config == system.config
        assert loaded.tip_height == system.tip_height
        for original, restored in zip(system.headers(), loaded.headers()):
            assert original.serialize() == restored.serialize()

    def test_loaded_system_answers_queries(self, small_system, tmp_path):
        workload, system = small_system
        DurableStore.create(tmp_path / "chain", system)
        loaded = DurableStore.open(tmp_path / "chain").system
        address = workload.probe_addresses["P"]
        result = answer_query(loaded, address)
        history = verify_result(
            result, loaded.headers(), loaded.config, address
        )
        assert len(history.transactions) == 4

    def test_loaded_system_can_grow(self, small_system, tmp_path):
        workload, system = small_system
        DurableStore.create(tmp_path / "chain", system)
        store = DurableStore.open(tmp_path / "chain")
        extra = workload.bodies[3]  # any valid body works structurally
        store.append_block(extra)
        assert store.system.tip_height == system.tip_height + 1
        reopened = DurableStore.open(tmp_path / "chain")
        assert reopened.system.tip_height == system.tip_height + 1

    def test_save_is_idempotent(self, small_system, tmp_path):
        """Saving one chain twice writes byte-identical stores, and
        reopening a clean store rewrites neither file."""
        _workload, system = small_system
        DurableStore.create(tmp_path / "a", system)
        DurableStore.create(tmp_path / "b", system)
        files = ("chain.log", "manifest.json")
        saved = {name: (tmp_path / "a" / name).read_bytes() for name in files}
        for name in files:
            assert (tmp_path / "b" / name).read_bytes() == saved[name]
        reopened = DurableStore.open(tmp_path / "a")
        assert reopened.system.tip_height == system.tip_height
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == saved[name]


class TestCorruptionDetection:
    def _saved(self, small_system, tmp_path):
        _workload, system = small_system
        directory = tmp_path / "chain"
        DurableStore.create(directory, system)
        return directory

    def test_missing_manifest(self, small_system, tmp_path):
        directory = self._saved(small_system, tmp_path)
        (directory / "manifest.json").unlink()
        with pytest.raises(ChainError, match="no chain manifest"):
            DurableStore.open(directory)

    def test_corrupt_manifest(self, small_system, tmp_path):
        directory = self._saved(small_system, tmp_path)
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(ChainError, match="corrupt chain manifest"):
            DurableStore.open(directory)

    def test_unsupported_format(self, small_system, tmp_path):
        """Format 2 is the only store format; any other is refused."""
        directory = self._saved(small_system, tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        for stale_format in (1, 99):
            manifest["format"] = stale_format
            (directory / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(ChainError, match="not a durable"):
                DurableStore.open(directory)

    def test_truncated_bodies(self, small_system, tmp_path):
        directory = self._saved(small_system, tmp_path)
        raw = (directory / "chain.log").read_bytes()
        (directory / "chain.log").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ChainError):
            DurableStore.open(directory)

    def test_flipped_body_byte(self, small_system, tmp_path):
        directory = self._saved(small_system, tmp_path)
        raw = bytearray((directory / "chain.log").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (directory / "chain.log").write_bytes(bytes(raw))
        with pytest.raises(ChainError):
            DurableStore.open(directory)

    def test_header_body_mismatch(self, small_system, tmp_path):
        """A stored header that disagrees with its body, framed with a
        valid CRC below the tip: only the rebuild cross-check sees it."""
        _workload, system = small_system
        directory = self._saved(small_system, tmp_path)
        frames = []
        for height, block in enumerate(system.chain):
            header = bytearray(system.chain.header_at(height).serialize())
            if height == 3:
                header[-1] ^= 0x01
            frames.append(block_record(block.body_bytes(), bytes(header)))
        (directory / "chain.log").write_bytes(b"".join(frames))
        with pytest.raises(ChainError, match="height 3 does not match"):
            DurableStore.open(directory)

    def test_missing_bodies_file(self, small_system, tmp_path):
        directory = self._saved(small_system, tmp_path)
        (directory / "chain.log").unlink()
        with pytest.raises(ChainError, match="missing chain log"):
            DurableStore.open(directory)

    def test_partial_manifest_is_chain_error(self, small_system, tmp_path):
        """Regression: a manifest cut mid-write must surface as the typed
        ChainError, never as a raw JSONDecodeError traceback."""
        directory = self._saved(small_system, tmp_path)
        raw = (directory / "manifest.json").read_text()
        for cut in (1, len(raw) // 3, len(raw) - 2):
            (directory / "manifest.json").write_text(raw[:cut])
            with pytest.raises(ChainError, match="corrupt chain manifest"):
                DurableStore.open(directory)

    def test_save_manifest_is_atomic(self, small_system, tmp_path):
        """The manifest goes through a side file + rename: after a save no
        tmp file remains, and a stale tmp from a simulated earlier crash
        is simply replaced rather than trusted."""
        _workload, system = small_system
        directory = tmp_path / "chain"
        directory.mkdir()
        (directory / "manifest.json.tmp").write_text("{torn")
        DurableStore.create(directory, system)
        assert not (directory / "manifest.json.tmp").exists()
        loaded = DurableStore.open(directory).system
        assert loaded.tip_height == system.tip_height


class TestHeaderFiles:
    def test_roundtrip(self, small_system, tmp_path):
        _workload, system = small_system
        path = tmp_path / "headers.dat"
        save_headers(system.headers(), path)
        loaded = load_headers(path, system.config)
        assert [h.serialize() for h in loaded] == [
            h.serialize() for h in system.headers()
        ]

    def test_light_node_from_file(self, small_system, tmp_path):
        workload, system = small_system
        path = tmp_path / "headers.dat"
        save_headers(system.headers(), path)
        light_node = LightNode(load_headers(path, system.config), system.config)
        full_node = FullNode(system)
        address = workload.probe_addresses["P"]
        history = light_node.query_history(full_node, address)
        assert len(history.transactions) == 4

    def test_unlinked_headers_rejected(self, small_system, tmp_path):
        _workload, system = small_system
        headers = system.headers()
        shuffled = [headers[0], headers[2], headers[1]]
        path = tmp_path / "broken.dat"
        save_headers(shuffled, path)
        with pytest.raises(ChainError):
            load_headers(path, system.config)
