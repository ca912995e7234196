"""The ``ingest`` workload: a durable full node at paper length.

Single thread, no network.  Set-up generates the 4096-block chain,
then builds it and writes a ``DurableStore``, twice.  The timed window
appends a seeded continuation one block at a time, each commit
fsync'd, with a depth-2 reorg after every 16th append; every 64 appends
the store rolls back to the base tip.  Before the window, after one
untimed cycle, the store appends a fixed suffix and its directory is
copied: that copy is the restart image, so the log the restart replays
(rollback and reorg records included) is the same on every run of a
seed, however many appends the window ran.  After the window the
process drops the store, and ``DurableStore.open`` (the restart path)
replays the image's log and rebuilds every index.
"""

from __future__ import annotations

import gc
import shutil
import time
from typing import List

import stats
import tracing
import world
from repro.errors import ReproError
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.transport import InProcessTransport
from repro.query.adversary import MaliciousFullNode, drop_block_resolution
from repro.query.builder import build_system
from repro.storage.durable import DurableStore
from repro.storage.vfs import Vfs

#: Set-ups per run; ``setup_s`` is their median.  Generation (seeded,
#: ~6 s at 4096 blocks) runs once and its time is part of every sample;
#: build and create, ~9 s together, run ``SETUP_REPS`` times.
SETUP_REPS = 2
#: Appends per cycle before the store rolls back to the base tip.
CYCLE = 64
#: A reorg of ``REORG_DEPTH`` blocks follows every ``REORG_EVERY``-th append.
REORG_EVERY = 16
REORG_DEPTH = 2
#: Blocks the restart image ends on (fixed, so the restart and the
#: post-restart answers are the same on every run of a seed).
FINAL_APPENDS = 8


class _CountingFile:
    def __init__(self, vfs: "MeteredVfs", handle) -> None:
        self._vfs = vfs
        self._handle = handle

    def write(self, data: bytes) -> int:
        self._vfs.bytes_written += len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self) -> "_CountingFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()


class MeteredVfs(Vfs):
    """The production VFS, counting fsyncs and written bytes; swapped
    into a store through its public ``vfs`` attribute."""

    def __init__(self) -> None:
        self.fsyncs = 0
        self.bytes_written = 0

    def open(self, path, mode):
        handle = super().open(path, mode)
        if "w" in mode or "a" in mode or "+" in mode:
            return _CountingFile(self, handle)
        return handle

    def fsync(self, handle) -> None:
        self.fsyncs += 1
        super().fsync(handle)

    def fsync_dir(self, path) -> None:
        self.fsyncs += 1
        super().fsync_dir(path)


def _set_up(ctx, config):
    began = time.perf_counter()
    workload = world.base_workload(world.INGEST_BLOCKS, ctx.seed)
    generate_s = time.perf_counter() - began
    samples, parts = [], {"build_s": [], "create_s": []}
    store = None
    for rep in range(SETUP_REPS):
        directory = ctx.work_dir / f"store-{rep}"
        began = time.perf_counter()
        system = build_system(workload.bodies, config)
        built = time.perf_counter()
        store = DurableStore.create(directory, system)
        created = time.perf_counter()
        samples.append(generate_s + created - began)
        parts["build_s"].append(built - began)
        parts["create_s"].append(created - built)
        if rep < SETUP_REPS - 1:
            del system, store
            shutil.rmtree(directory)
            gc.collect()
    setup = {name: stats.median(values) for name, values in parts.items()}
    setup["generate_s"] = generate_s
    setup["setup_samples_s"] = samples
    setup["setup_s"] = stats.median(samples)
    return workload, store, setup


def run_ingest(ctx) -> dict:
    config = world.lvq_config(world.INGEST_BLOCKS)
    workload, store, setup = _set_up(ctx, config)
    directory = store.directory
    base_tip = store.system.tip_height
    pending = world.continuation(ctx.seed, CYCLE)
    forks = world.fork_bodies(ctx.seed, REORG_DEPTH * (CYCLE // REORG_EVERY))
    probes = list(workload.probe_addresses.values())

    vfs = MeteredVfs()
    store.vfs = vfs
    tracer = None
    appends: List[tuple] = []
    reorgs: List[float] = []
    position = 0
    blocks_written = 0

    def step(timed: bool) -> None:
        """One append, plus the reorg or rollback that follows it."""
        nonlocal position, blocks_written
        began = time.perf_counter()
        store.append_block(pending[position])
        if timed:
            appends.append(
                ((time.perf_counter() - began) * 1000.0, tracer is not None)
            )
        position += 1
        blocks_written += 1
        if position % REORG_EVERY == 0:
            index = (position // REORG_EVERY - 1) * REORG_DEPTH
            began = time.perf_counter()
            store.reorg(
                store.system.tip_height - REORG_DEPTH,
                forks[index : index + REORG_DEPTH],
            )
            reorgs.append((time.perf_counter() - began) * 1000.0)
            blocks_written += REORG_DEPTH
        if position == CYCLE:
            store.rollback_to(base_tip)
            position = 0

    while position or not blocks_written:  # warm-up: one untimed cycle
        step(False)
    for transactions in pending[:FINAL_APPENDS]:
        store.append_block(transactions)
    tip = store.system.tip_height
    tip_id = store.system.chain.header_at(tip).block_id()
    headers = store.system.headers()
    image = ctx.work_dir / "restart-image"
    shutil.copytree(directory, image)
    store.rollback_to(base_tip)
    fsyncs_before, bytes_before = vfs.fsyncs, vfs.bytes_written
    blocks_before = blocks_written
    start = time.perf_counter()
    end = start + ctx.seconds
    middle = start + ctx.seconds / 2.0
    while time.perf_counter() < end:
        if ctx.trace and tracer is None and time.perf_counter() >= middle:
            tracer = tracing.Tracer()
            tracer.install(tracing.ingest_targets())
        step(True)
    elapsed = time.perf_counter() - start
    window_blocks = blocks_written - blocks_before
    fsyncs = vfs.fsyncs - fsyncs_before
    written = vfs.bytes_written - bytes_before

    del store
    gc.collect()
    shutil.rmtree(directory)

    began = time.perf_counter()
    reopened = DurableStore.open(image)
    restart_s = time.perf_counter() - began

    truth = world.GroundTruth(
        workload.bodies + pending[:FINAL_APPENDS], only=probes
    )
    truth.cross_check(workload, probes[-1:])
    light = LightNode(headers, config)
    node = FullNode(reopened.system)
    checks = 0
    failed_checks = 0
    answer_bytes = 0
    tip_ok = (
        reopened.system.tip_height == tip
        and reopened.system.chain.header_at(tip).block_id() == tip_id
    )
    for address in probes:
        checks += 1
        transport = InProcessTransport()
        try:
            verified = light.query_history(node, address, transport)
        except ReproError:
            failed_checks += 1
            continue
        if world.answer_matches(verified, truth.history(address, 1, tip)):
            answer_bytes += transport.stats.bytes_to_client
        else:
            failed_checks += 1

    selftest = _self_test(reopened, light, probes, truth, tip)
    peak = world.peak_rss_mb()

    untraced = [ms for ms, traced in appends if not traced]
    latency = stats.summarize(untraced)
    window = elapsed / 2.0 if ctx.trace else elapsed
    result = {
        "attempted": len(appends) + len(reorgs) + checks + 1,
        "failed": failed_checks + (0 if tip_ok else 1),
        "selftest": selftest,
        "errors": [] if tip_ok else ["reopened store has another tip"],
        "setup": setup,
        "latency": latency,
        "restart_s": restart_s,
        "reorg": stats.summarize(reorgs),
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "op_iqm_ms": latency["iqm"],
            "op_p75_ms": latency["tail"],
            "ops_per_s": len(untraced) / window,
            "wire_bytes_per_answer": answer_bytes / max(1, checks - failed_checks),
            "peak_rss_mb": peak,
        },
        "layers": {
            "node.append_ms": latency["p50"],
            "durable.open_s": restart_s,
            "vfs.fsyncs_per_block": fsyncs / max(1, window_blocks),
            "vfs.bytes_per_block": written / max(1, window_blocks),
            "workload.generate_s": setup["generate_s"],
            "builder.build_s": setup["build_s"],
        },
        "env": {
            "chain": world.chain_params(world.INGEST_BLOCKS, config),
            "loop": "closed",
            "threads": 1,
            "cycle_appends": CYCLE,
            "reorg_every": REORG_EVERY,
            "reorg_depth": REORG_DEPTH,
            "final_tip": tip,
            "create_s": setup["create_s"],
        },
    }
    if ctx.trace:
        result["traced_op_iqm_ms"] = stats.interquartile_mean(
            [ms for ms, traced in appends if traced]
        )
        result["client_spans"] = tracer.summary()
        result["client_span_count"] = tracer.span_count()
        result["server_spans"] = {}
        result["server_span_count"] = 0
        tracer.dump(ctx.spans_path("ingest"))
        result["profile"] = tracing.profile_build(
            workload.bodies[: ctx.profile_blocks], config
        )
    return result


def _self_test(reopened, light, probes, truth, tip) -> dict:
    """A Byzantine node over the reopened chain must fail every check,
    and the ground-truth comparison must reject a mismatched answer."""
    byzantine = MaliciousFullNode(reopened.system, drop_block_resolution)
    probes = [a for a in probes if truth.history(a, 1, tip)]
    rejected = 0
    for address in probes:
        try:
            verified = light.query_history(byzantine, address)
        except ReproError:
            rejected += 1
            continue
        if not world.answer_matches(verified, truth.history(address, 1, tip)):
            rejected += 1
    honest = light.query_history(FullNode(reopened.system), probes[-1])
    mismatch_caught = not world.answer_matches(
        honest, truth.history(probes[-2], 1, tip)
    )
    return {
        "byzantine_attempted": len(probes),
        "byzantine_rejected": rejected,
        "mismatch_caught": mismatch_caught,
        "passed": rejected == len(probes) and mismatch_caught,
    }
