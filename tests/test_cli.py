"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


CHAIN_ARGS = ["--blocks", "24", "--txs-per-block", "8", "--bf-bytes", "128"]


class TestQueryCommand:
    def test_probe_by_name(self, capsys):
        code, out = run_cli(
            capsys, "query", *CHAIN_ARGS, "--address", "Addr2"
        )
        assert code == 0
        assert "balance (Eq 1)" in out
        assert "proof bytes" in out

    def test_verbose_lists_transactions(self, capsys):
        code, out = run_cli(
            capsys, "query", *CHAIN_ARGS, "--address", "Addr3", "--verbose"
        )
        assert code == 0
        assert "h=" in out

    def test_literal_unknown_address(self, capsys):
        code, out = run_cli(
            capsys,
            "query",
            *CHAIN_ARGS,
            "--address",
            "1BitcoinEaterAddressDontSendf59kuE",
        )
        assert code == 0
        assert "transactions  : 0" in out

    def test_range_query(self, capsys):
        code, out = run_cli(
            capsys,
            "query",
            *CHAIN_ARGS,
            "--address",
            "Addr5",
            "--range",
            "5",
            "15",
        )
        assert code == 0
        assert "proof bytes" in out

    def test_bad_range_is_one_error_line(self, capsys):
        code = main(
            ["query", *CHAIN_ARGS, "--address", "Addr5", "--range", "30", "10"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "error: bad query range [30,10] for tip 24"
        ]


class TestCompareCommand:
    def test_table_shape(self, capsys):
        code, out = run_cli(capsys, "compare", *CHAIN_ARGS)
        assert code == 0
        for column in ("strawman", "lvq_no_bmt", "lvq_no_smt", "lvq"):
            assert column in out
        for probe in ("Addr1", "Addr6"):
            assert probe in out


class TestStorageCommand:
    def test_rows(self, capsys):
        code, out = run_cli(capsys, "storage", *CHAIN_ARGS)
        assert code == 0
        assert "strawman_header_bf" in out
        assert "vs Bitcoin" in out


class TestAttackCommand:
    def test_all_attacks_handled(self, capsys):
        code, out = run_cli(capsys, "attack", *CHAIN_ARGS)
        assert code == 0, "an attack went undetected"
        assert "rejected" in out
        assert "ACCEPTED" not in out


class TestWalletCommand:
    def test_wallet_session(self, capsys):
        code, out = run_cli(
            capsys, "wallet", *CHAIN_ARGS, "--watch", "Addr2", "Addr4"
        )
        assert code == 0
        assert "Total:" in out
        assert "Verified balance" in out

    def test_wallet_save_and_reload(self, capsys, tmp_path):
        target = str(tmp_path / "wallet")
        code, out = run_cli(
            capsys,
            "wallet",
            *CHAIN_ARGS,
            "--watch",
            "Addr2",
            "--save",
            target,
        )
        assert code == 0
        from repro.wallet import Wallet

        restored = Wallet.load(target)
        assert len(restored.addresses) == 1


class TestSegmentsCommand:
    def test_tables(self, capsys):
        code, out = run_cli(capsys, "segments", "--tip", "466")
        assert code == 0
        assert "1, 2, 3, 4, 5, 6, 7, 8" in out
        assert "[465,466]" in out


class TestVerifyStoreCommand:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.query.builder import build_system
        from repro.query.config import SystemConfig
        from repro.storage.durable import DurableStore
        from repro.workload.generator import WorkloadParams, generate_workload

        workload = generate_workload(
            WorkloadParams(num_blocks=5, txs_per_block=3, seed=17)
        )
        system = build_system(
            workload.bodies, SystemConfig.lvq(bf_bytes=96, segment_len=4)
        )
        DurableStore.create(tmp_path / "store", system)
        return tmp_path / "store"

    def test_clean_store_exits_zero(self, capsys, store_dir):
        code, out = run_cli(capsys, "verify-store", str(store_dir), "--deep")
        assert code == 0
        assert "clean" in out
        assert "blocks          : 6" in out

    def test_corrupt_store_exits_one(self, capsys, store_dir):
        log = store_dir / "chain.log"
        raw = bytearray(log.read_bytes())
        raw[8] ^= 0xFF
        log.write_bytes(bytes(raw))
        code, out = run_cli(capsys, "verify-store", str(store_dir))
        assert code == 1
        assert "CORRUPT" in out
        assert "first bad record: offset 0" in out

    def test_torn_tail_still_clean(self, capsys, store_dir):
        log = store_dir / "chain.log"
        log.write_bytes(log.read_bytes() + b"\x01\x02\x03")
        code, out = run_cli(capsys, "verify-store", str(store_dir))
        assert code == 0
        assert "torn tail" in out

    def test_not_a_store(self, capsys, tmp_path):
        code, out = run_cli(capsys, "verify-store", str(tmp_path))
        assert code == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
