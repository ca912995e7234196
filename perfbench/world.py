"""Inputs, ground truth and the correctness check shared by all workloads.

Everything the program receives is generated here from the run's seed
through the public workload generator; the ground truth every verified
answer is compared with comes from the same generated bodies.
"""

from __future__ import annotations

import os
import pathlib
import platform
import time
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sizing import paper_equivalent_bf_bytes
from repro.chain.address import synthetic_address
from repro.chain.transaction import Transaction
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import (
    GeneratedWorkload,
    WorkloadParams,
    generate_workload,
)

#: The query workloads' chain: Fig 12 at the benchmark scale.
QUERY_BLOCKS = 1024
#: The ingest workload's chain: the paper's 4096 mainnet blocks.
INGEST_BLOCKS = 4096
#: Background transactions per block (about 96 unique addresses each).
TXS_PER_BLOCK = 40
#: Unique addresses per block the filter scaling assumes.
ADDRESSES_PER_BLOCK = 96
#: Filter size of the Fig 12 LVQ system, in paper KiB, and its hashes.
BF_PAPER_KIB = 30
NUM_HASHES = 3

#: Offsets that derive independent generator streams from the run seed.
_CONTINUATION_SEED = 1_000_003
_FORK_SEED = 2_000_003

Truth = List[Tuple[int, bytes]]


def lvq_config(blocks: int) -> SystemConfig:
    """The Fig 12 LVQ configuration (30 paper-KiB filters, one BMT
    segment spanning the whole base chain)."""
    return SystemConfig.lvq(
        bf_bytes=paper_equivalent_bf_bytes(BF_PAPER_KIB, ADDRESSES_PER_BLOCK),
        segment_len=blocks,
        num_hashes=NUM_HASHES,
    )


def base_workload(blocks: int, seed: int) -> GeneratedWorkload:
    return generate_workload(WorkloadParams(blocks, TXS_PER_BLOCK, seed=seed))


def continuation(seed: int, blocks: int) -> List[List[Transaction]]:
    """Seeded blocks appended after the base chain (genesis dropped)."""
    workload = generate_workload(
        WorkloadParams(blocks, TXS_PER_BLOCK, seed=seed + _CONTINUATION_SEED)
    )
    return workload.bodies[1:]


def fork_bodies(seed: int, blocks: int) -> List[List[Transaction]]:
    """Seeded replacement blocks for the ingest workload's reorgs."""
    workload = generate_workload(
        WorkloadParams(blocks, TXS_PER_BLOCK, seed=seed + _FORK_SEED)
    )
    return workload.bodies[1:]


def absent_addresses(seed: int, count: int) -> List[str]:
    """Addresses no block pays or spends (the inexistence-proof path)."""
    return [
        synthetic_address(f"perfbench/absent/{seed}/{index}".encode())
        for index in range(count)
    ]


def genesis_header(workload: GeneratedWorkload, config: SystemConfig):
    """The light client's trust anchor, computed locally from genesis."""
    return build_system(workload.bodies[:1], config).headers()[0]


class GroundTruth:
    """``address -> [(height, txid)]`` over the chain the server holds.

    Built in one pass over the generated bodies; it must agree with
    :meth:`GeneratedWorkload.history_of`, which :meth:`cross_check`
    confirms on sample addresses before any answer is judged by it.
    ``only`` restricts the index to the addresses a workload queries.
    """

    def __init__(
        self,
        bodies: Sequence[Sequence[Transaction]],
        only: Optional[Iterable[str]] = None,
    ) -> None:
        self._only = set(only) if only is not None else None
        self._index: Dict[str, Truth] = {}
        self.tip = -1
        for transactions in bodies:
            self.append(transactions)

    def append(self, transactions: Sequence[Transaction]) -> None:
        self.tip += 1
        for transaction in transactions:
            addresses = transaction.addresses()
            if self._only is not None:
                addresses = [a for a in addresses if a in self._only]
            for address in addresses:
                self._index.setdefault(address, []).append(
                    (self.tip, transaction.txid())
                )

    def history(self, address: str, first: int, last: int) -> Truth:
        return [
            (height, txid)
            for height, txid in self._index.get(address, ())
            if first <= height <= last
        ]

    def addresses(self) -> List[str]:
        return sorted(self._index)

    def cross_check(self, workload: GeneratedWorkload, addresses) -> None:
        for address in addresses:
            expected = [
                (height, tx.txid()) for height, tx in workload.history_of(address)
            ]
            if self.history(address, 0, workload.params.num_blocks) != expected:
                raise RuntimeError(
                    f"ground-truth index disagrees with history_of for {address}"
                )


def answer_matches(verified, truth: Truth) -> bool:
    """A verified history equals the ground truth for its range."""
    return [(height, tx.txid()) for height, tx in verified.transactions] == truth


def peak_rss_mb() -> float:
    """VmHWM of this process (the resident-set high-water mark)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def git_commit(root: pathlib.Path) -> Optional[str]:
    """The checkout's commit, when it is a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text(encoding="ascii").strip()
    except OSError:
        return None


def env_record(root: pathlib.Path, seed: int, **details) -> dict:
    from repro.node.transport import HAVE_ZSTD

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "zstd": HAVE_ZSTD,
        "seed": seed,
        "commit": git_commit(root),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record.update(details)
    return record


def chain_params(blocks: int, config: SystemConfig) -> dict:
    return {
        "blocks": blocks,
        "txs_per_block": TXS_PER_BLOCK,
        "kind": config.kind.value,
        "bf_bytes": config.bf_bytes,
        "segment_len": config.segment_len,
        "num_hashes": config.num_hashes,
    }
