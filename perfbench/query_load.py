"""Load generators of the two query workloads, ``history_hot`` and
``sync_live``.

The full node runs in its own process (``server.py``); this process is
the light-client side.  It opens at most two request connections and
checks every answer it accepts against the generator's ground truth.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import stats
import tracing
import world
from repro.errors import ReproError
from repro.node.light_node import LightNode
from repro.node.netclient import ConnectionPool, RemoteFullNode
from repro.node.subscribe import SubscriptionSession
from repro.wallet import Wallet

HERE = pathlib.Path(__file__).resolve().parent

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 2
#: history_hot: hot-set size, connections and Zipf ranks (1-based) of the
#: six Table III probes and of the never-seen addresses; background
#: addresses with the footprints of ``BACKGROUND_TXS`` fill the other
#: ranks.  Fixing what sits at each rank keeps the request mix, and so
#: the latency distribution, the same for every seed.
HOT_SET = 64
HOT_CONNECTIONS = 2
PROBE_RANKS = (2, 5, 9, 14, 20, 27)
ABSENT_RANKS = (7, 17, 33, 50)
BACKGROUND_TXS = (2, 1, 4, 2, 3, 6, 2, 5, 1, 3)
#: sync_live: offered batches per second (about half of what one
#: connection sustains on a 2-CPU machine), batch shape, append cadence
#: and range shape (see ``_BatchPlan``).
SYNC_RATE = 16.0
BATCH_SIZE = 8
APPEND_EVERY = 8
SYNC_WARMUP_BATCHES = 6
RANGE_LEN = 256
RANGE_JITTER = 32
#: Seconds the subscription may take to catch up after the window.
CONVERGE_TIMEOUT = 20.0


class ServerProcess:
    """The benchmark's full-node process and its control pipe."""

    def __init__(
        self,
        blocks: int,
        seed: int,
        continuation: int = 0,
        spans_out: Optional[pathlib.Path] = None,
    ) -> None:
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--blocks",
            str(blocks),
            "--seed",
            str(seed),
            "--continuation",
            str(continuation),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lock = threading.Lock()
        self.ready = self._read()
        self.address = ("127.0.0.1", self.ready["port"])
        self.byzantine_address = ("127.0.0.1", self.ready["byzantine_port"])

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process exited (code {self.process.poll()})"
            )
        message = json.loads(line)
        if "error" in message:
            raise RuntimeError(f"server: {message['error']}")
        return message

    def call(self, command: str) -> dict:
        with self._lock:
            self.process.stdin.write(json.dumps({"cmd": command}) + "\n")
            self.process.stdin.flush()
            return self._read()

    def close(self) -> None:
        """Ask the server to exit, then make sure it has."""
        if self.process.poll() is None:
            try:
                self.call("quit")
            except (OSError, RuntimeError, ValueError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Client:
    """One light client on one pooled connection."""

    def __init__(self, address, headers, config, seed: int, codec=None):
        self.pool = ConnectionPool(
            address, size=1, seed=seed, codec=codec, request_timeout=60.0
        )
        self.remote = RemoteFullNode(pool=self.pool)
        self.light = LightNode(headers, config)

    def close(self) -> None:
        self.pool.close()


def set_up(ctx, blocks: int, continuation: int, spans_out=None):
    """``SETUP_REPS`` full set-ups, one after the other; the last stays up.

    Each set-up is a fresh server process that generates the workload,
    builds the chain and starts serving, followed by the client's
    initial header sync from its locally computed genesis.
    """
    samples, server, client = [], None, None
    parts: Dict[str, List[float]] = {"generate_s": [], "build_s": []}
    for rep in range(SETUP_REPS):
        began = time.perf_counter()
        server = ServerProcess(
            blocks, ctx.seed, continuation,
            spans_out if rep == SETUP_REPS - 1 else None,
        )
        ctx.children.append(server)
        client = Client(server.address, [ctx.genesis], ctx.config, ctx.seed)
        client.light.sync_headers(client.remote, delta=True)
        samples.append(time.perf_counter() - began)
        parts["generate_s"].append(server.ready["generate_s"])
        parts["build_s"].append(server.ready["build_s"])
        if client.light.tip_height != server.ready["tip"]:
            raise RuntimeError("initial header sync stopped short of the tip")
        if rep < SETUP_REPS - 1:
            client.close()
            server.close()
    return server, client, {
        "setup_samples_s": samples,
        "setup_s": stats.median(samples),
        "generate_s": stats.median(parts["generate_s"]),
        "build_s": stats.median(parts["build_s"]),
    }


def byzantine_self_test(ctx, server, addresses, truth, tip, batch: bool) -> dict:
    """Queries to the Byzantine node must all be counted as failures.

    Also checks that the ground-truth comparison itself rejects an
    answer judged against another address's truth.  Either way the
    check must have teeth, or the run is not trusted.  Only addresses
    with on-chain activity are sent: the attack needs a resolution to
    drop.
    """
    addresses = [a for a in addresses if truth.history(a, 1, tip)]
    client = Client(server.byzantine_address, ctx.headers, ctx.config, ctx.seed)
    rejected = attempted = 0
    accepted = []
    try:
        for address in addresses:
            attempted += 1
            try:
                verified = client.light.query_history(client.remote, address)
            except ReproError:
                rejected += 1
                continue
            if not world.answer_matches(verified, truth.history(address, 1, tip)):
                rejected += 1
            else:
                accepted.append(address)
        if batch:
            attempted += 1
            try:
                client.light.query_batch(
                    client.remote, list(addresses), aggregated=True
                )
                accepted.append("batch")
            except ReproError:
                rejected += 1
    finally:
        client.close()
    honest = Client(server.address, ctx.headers, ctx.config, ctx.seed)
    try:
        first, second = addresses[-1], addresses[-2]
        verified = honest.light.query_history(honest.remote, first)
        mismatch_caught = not world.answer_matches(
            verified, truth.history(second, 1, tip)
        ) and world.answer_matches(verified, truth.history(first, 1, tip))
    finally:
        honest.close()
    return {
        "byzantine_attempted": attempted,
        "byzantine_rejected": rejected,
        "byzantine_accepted": accepted,
        "mismatch_caught": mismatch_caught,
        "passed": rejected == attempted and mismatch_caught,
    }


def _server_counters(before: dict, after: dict) -> dict:
    """Window deltas of the server's public counters."""

    def delta(cache: str, field: str) -> float:
        return after["caches"][cache][field] - before["caches"][cache][field]

    counts = {}
    for name in ("responses", "resolutions", "segments"):
        hits = delta(name, "hits")
        counts[name] = stats.ratio(hits, hits + delta(name, "misses"))
        counts[name]["evictions"] = delta(name, "evictions")
        counts[name]["max_entries"] = after["caches"][name]["max_entries"]
    served = after["query_server"]
    return {
        "full_node.response_cache.hit_ratio": counts["responses"]["ratio"],
        "cache.resolutions.hit_ratio": counts["resolutions"]["ratio"],
        "cache.segments.hit_ratio": counts["segments"]["ratio"],
        "cache.evictions": counts["resolutions"]["evictions"]
        + counts["segments"]["evictions"],
        "server.queue_wait_ms": served["queue_wait"]["p50_ms"],
        "server.service_ms": served["service"]["p50_ms"],
        "admission.rejected": served["rejected"]
        - before["query_server"]["rejected"],
        "cache_counts": counts,
    }


def _pool_counters(clients: List[Client]) -> dict:
    return {
        "netclient.reconnects": sum(
            c.pool.stats["connects"] - 1 for c in clients
        ),
        "netclient.retries": sum(
            c.pool.stats["failovers"] + c.pool.stats["request_failures"]
            for c in clients
        ),
    }


# -- history_hot -------------------------------------------------------------


def hot_set(ctx) -> List[str]:
    """64 addresses in Zipf rank order (index 0 is rank 1).

    Each background rank asks for an address with a fixed transaction
    count (``BACKGROUND_TXS``, cycled) and takes a seeded pick among the
    chain's addresses with exactly that count.  A query's cost follows
    the address's footprint, so fixing footprints by rank keeps the
    request mix's cost the same for every seed, while the addresses
    themselves still come from the seed's chain.
    """
    probes = list(ctx.workload.probe_addresses.values())
    absent = world.absent_addresses(ctx.seed, len(ABSENT_RANKS))
    counts: Dict[str, int] = {}
    for transactions in ctx.workload.bodies[1:]:
        for transaction in transactions:
            for address in transaction.addresses():
                counts[address] = counts.get(address, 0) + 1
    by_count: Dict[int, List[str]] = {}
    for address in sorted(set(counts) - set(probes)):
        by_count.setdefault(counts[address], []).append(address)
    rng = random.Random(ctx.seed)
    ranks: List[Optional[str]] = [None] * HOT_SET
    for rank, address in zip(PROBE_RANKS, probes):
        ranks[rank - 1] = address
    for rank, address in zip(ABSENT_RANKS, absent):
        ranks[rank - 1] = address
    background = 0
    for index, address in enumerate(ranks):
        if address is None:
            pool = by_count[BACKGROUND_TXS[background % len(BACKGROUND_TXS)]]
            ranks[index] = pool.pop(rng.randrange(len(pool)))
            background += 1
    return ranks


def run_history_hot(ctx) -> dict:
    ctx.workload = world.base_workload(world.QUERY_BLOCKS, ctx.seed)
    ctx.config = world.lvq_config(world.QUERY_BLOCKS)
    ctx.genesis = world.genesis_header(ctx.workload, ctx.config)
    addresses = hot_set(ctx)
    truth = world.GroundTruth(ctx.workload.bodies, only=addresses)
    probes = list(ctx.workload.probe_addresses.values())
    truth.cross_check(ctx.workload, probes[-2:] + addresses[:1])
    weights = [1.0 / rank for rank in range(1, HOT_SET + 1)]

    server, setup_client, setup = set_up(
        ctx, world.QUERY_BLOCKS, 0, ctx.spans_path("server")
    )
    ctx.headers = list(setup_client.light.headers)
    setup_client.close()
    tip = len(ctx.headers) - 1
    selftest = byzantine_self_test(ctx, server, probes, truth, tip, batch=False)

    clients = [
        Client(server.address, ctx.headers, ctx.config, ctx.seed + index)
        for index in range(HOT_CONNECTIONS)
    ]
    frame_bytes = ctx.frame_bytes
    barrier = threading.Barrier(HOT_CONNECTIONS + 1, timeout=60.0)
    window: Dict[str, float] = {}
    tracer_box: Dict[str, tracing.Tracer] = {}
    samples: List[list] = [[] for _ in clients]
    warm_ok: List[bool] = []
    answer_bytes: Dict[str, tuple] = {}
    errors: List[str] = []

    def query(client: Client, address: str) -> bool:
        try:
            verified = client.light.query_history(client.remote, address)
        except ReproError as error:
            if len(errors) < 5:
                errors.append(f"{type(error).__name__}: {error}")
            return False
        return world.answer_matches(verified, truth.history(address, 1, tip))

    def worker(index: int) -> None:
        client = clients[index]
        rng = random.Random(ctx.seed * 7919 + index)
        counter = frame_bytes.counter()
        for address in addresses:  # warm-up: every hot key once
            wire_before, raw_before = counter[0], counter[1]
            warm_ok.append(query(client, address))
            if index == 0:
                answer_bytes[address] = (
                    counter[0] - wire_before,
                    counter[1] - raw_before,
                )
        barrier.wait()
        barrier.wait()  # the window starts
        end = window["end"]
        while True:
            address = rng.choices(addresses, weights)[0]
            tracer = tracer_box.get("tracer")
            began = time.perf_counter()
            if began >= end:
                return
            if tracer is not None:
                with tracer.span("client.history"):
                    ok = query(client, address)
            else:
                ok = query(client, address)
            finished = time.perf_counter()
            samples[index].append(
                ((finished - began) * 1000.0, ok, tracer is not None)
            )

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"hot-{index}")
        for index in range(HOT_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # warm-ups done
    before = server.call("stats")
    window["start"] = time.perf_counter()
    window["end"] = window["start"] + ctx.seconds
    barrier.wait()
    client_tracer = None
    if ctx.trace:
        client_tracer = _trace_second_half(ctx, server, window, tracer_box)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - window["start"]
    after = server.call("stats")

    flat = [sample for per_client in samples for sample in per_client]
    untraced = [s for s in flat if not s[2]]
    measured = untraced if not ctx.trace else flat
    failed = sum(1 for s in measured if not s[1]) + warm_ok.count(False)
    latency = stats.summarize([s[0] for s in untraced if s[1]])
    # Bytes per answer of the mix: each hot key's answer (measured once,
    # in the warm-up) weighted by how often the mix asks for it, which
    # is exact for a seed instead of depending on the draws of one run.
    wire = sum(w * answer_bytes[a][0] for a, w in zip(addresses, weights))
    raw = sum(w * answer_bytes[a][1] for a, w in zip(addresses, weights))
    wire, raw = wire / sum(weights), raw / sum(weights)
    span_window = elapsed / 2.0 if ctx.trace else elapsed
    result = {
        "attempted": len(measured) + len(warm_ok),
        "failed": failed,
        "selftest": selftest,
        "errors": errors,
        "setup": setup,
        "latency": latency,
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "op_iqm_ms": latency["iqm"],
            "op_p75_ms": latency["tail"],
            "ops_per_s": sum(1 for s in untraced if s[1]) / span_window,
            "wire_bytes_per_answer": wire,
            "peak_rss_mb": after["peak_rss_mb"],
        },
        "layers": {
            **_pool_counters(clients),
            **_server_counters(before, after),
            "transport.raw_bytes_per_answer": raw,
            "transport.wire_bytes_per_answer": wire,
            "transport.compress_ratio": stats.ratio(wire, raw)["ratio"],
            "workload.generate_s": setup["generate_s"],
            "builder.build_s": setup["build_s"],
        },
        "env": {
            "chain": world.chain_params(world.QUERY_BLOCKS, ctx.config),
            "loop": "closed",
            "connections": HOT_CONNECTIONS,
            "hot_set": HOT_SET,
            "response_cache_entries": after["caches"]["responses"]["max_entries"],
        },
    }
    for client in clients:
        client.close()
    if ctx.trace:
        traced = [s[0] for s in flat if s[2] and s[1]]
        result["traced_op_iqm_ms"] = stats.interquartile_mean(traced)
        result["client_spans"] = client_tracer.summary()
        result["client_span_count"] = client_tracer.span_count()
        result["server_spans"] = after["spans"]
        result["server_span_count"] = after["span_count"]
        client_tracer.dump(ctx.spans_path("client"))
        result["profile"] = tracing.profile_build(
            ctx.workload.bodies[: ctx.profile_blocks], ctx.config
        )
    server.close()
    return result


def _trace_second_half(ctx, server, window, tracer_box) -> tracing.Tracer:
    """Sleep to mid-window, then install spans on both sides."""
    middle = window["start"] + ctx.seconds / 2.0
    time.sleep(max(0.0, middle - time.perf_counter()))
    tracer = tracing.Tracer()
    tracer.install(tracing.client_targets())
    server.call("trace")
    tracer_box["tracer"] = tracer
    return tracer


# -- sync_live ----------------------------------------------------------------


class _BatchPlan:
    """The address list and range of each sync_live batch.

    One probe, taken in turn, plus ``BATCH_SIZE - 1`` uniform picks from
    the background universe, over ``[first, tip]``.  ``first`` is random
    within ``RANGE_JITTER`` blocks of ``tip - RANGE_LEN``, so the range
    slides with the tip.  A batch's cost grows with its range (about
    2x from 256 to 512 blocks here); holding the length near one value
    keeps each run's latency distribution, and so its median, the same
    from seed to seed.
    """

    def __init__(self, rng: random.Random, probes, universe) -> None:
        self._rng = rng
        self._probes = probes
        self._universe = universe
        self._count = 0

    def next(self, tip: int):
        jitter = self._rng.randint(-RANGE_JITTER, RANGE_JITTER)
        first = max(1, tip - RANGE_LEN + 1 + jitter)
        addresses = [self._probes[self._count % len(self._probes)]]
        addresses += self._rng.sample(self._universe, BATCH_SIZE - 1)
        self._count += 1
        return addresses, first


def run_sync_live(ctx) -> dict:
    ticks = int(SYNC_RATE * ctx.seconds)
    appends = (ticks + APPEND_EVERY - 1) // APPEND_EVERY
    ctx.workload = world.base_workload(world.QUERY_BLOCKS, ctx.seed)
    ctx.config = world.lvq_config(world.QUERY_BLOCKS)
    ctx.genesis = world.genesis_header(ctx.workload, ctx.config)
    pending = world.continuation(ctx.seed, appends)
    truth = world.GroundTruth(ctx.workload.bodies)
    probes = list(ctx.workload.probe_addresses.values())
    universe = [a for a in truth.addresses() if a not in set(probes)]
    truth.cross_check(ctx.workload, probes[-2:] + universe[:1])

    server, setup_client, setup = set_up(
        ctx, world.QUERY_BLOCKS, appends, ctx.spans_path("server")
    )
    ctx.headers = list(setup_client.light.headers)
    setup_client.close()
    base_tip = len(ctx.headers) - 1
    selftest = byzantine_self_test(
        ctx, server, probes, truth, base_tip, batch=True
    )

    client = Client(
        server.address, ctx.headers, ctx.config, ctx.seed, codec="zlib"
    )
    wallet = Wallet(LightNode(ctx.headers, ctx.config), probes)
    wallet.refresh(client.remote)
    session = SubscriptionSession(
        LightNode(ctx.headers, ctx.config), server.address, probes,
        seed=ctx.seed,
    ).start()
    if not session.wait_subscribed(10.0):
        raise RuntimeError("subscription was not acknowledged")
    rng = random.Random(ctx.seed * 7919)
    plan = _BatchPlan(rng, probes, universe)
    counter = ctx.frame_bytes.counter()
    errors: List[str] = []

    def batch() -> bool:
        tip = client.light.tip_height
        addresses, first = plan.next(tip)
        try:
            histories = client.light.query_batch(
                client.remote, addresses, first_height=first, last_height=tip,
                aggregated=True,
            )
        except ReproError as error:
            if len(errors) < 5:
                errors.append(f"{type(error).__name__}: {error}")
            return False
        return all(
            world.answer_matches(
                histories[address], truth.history(address, first, tip)
            )
            for address in addresses
        )

    warm_ok = [batch() for _ in range(SYNC_WARMUP_BATCHES)]

    before = server.call("stats")
    issued_at: Dict[int, float] = {}
    append_ms: List[float] = []
    late_ms: List[float] = []
    samples: List[tuple] = []
    synced = 0
    tracer = None
    start = time.perf_counter()
    for tick in range(ticks):
        due = start + tick / SYNC_RATE
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        late_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
        if ctx.trace and tracer is None and tick >= ticks // 2:
            tracer = tracing.Tracer()
            tracer.install(tracing.client_targets())
            server.call("trace")
        wire_before, raw_before = counter[0], counter[1]
        if tick % APPEND_EVERY == 0:
            issued = time.monotonic()
            ack = server.call("append")
            issued_at[ack["height"]] = issued
            append_ms.append(ack["append_ms"])
            truth.append(pending[len(append_ms) - 1])
            synced += client.light.sync_headers(client.remote, delta=True)
        if tracer is not None:
            with tracer.span("client.batch"):
                ok = batch()
        else:
            ok = batch()
        finished = time.perf_counter()
        samples.append(
            (
                (finished - due) * 1000.0,
                ok,
                tracer is not None,
                counter[0] - wire_before,
                counter[1] - raw_before,
            )
        )
    elapsed = time.perf_counter() - start
    final_tip = client.light.tip_height

    deadline = time.monotonic() + CONVERGE_TIMEOUT
    while session.light.tip_height < final_tip and time.monotonic() < deadline:
        time.sleep(0.01)
    push_ms: List[float] = []
    covered = set()
    while True:
        event = session.next_event(timeout=0.0)
        if event is None:
            break
        wallet.apply_event(event)
        if event.kind == "update":
            covered.add(event.height)
            if event.height in issued_at:
                push_ms.append((event.emitted_at - issued_at[event.height]) * 1000.0)
        elif event.kind == "backfill":
            covered.update(range(event.first_height, event.last_height + 1))
    watch = session.stats.as_dict()
    session.stop()

    final = client.light.query_batch(client.remote, probes, aggregated=True)
    wallet_ok = all(
        [(h, tx.txid()) for h, tx in wallet.history(address)]
        == [(h, tx.txid()) for h, tx in final[address].transactions]
        == truth.history(address, 1, final_tip)
        for address in probes
    )
    after = server.call("stats")
    client.close()

    missing_pushes = len(set(issued_at) - covered)
    push_failures = (
        missing_pushes + watch["updates_rejected"] + watch["verification_failures"]
    )
    untraced = [s for s in samples if not s[2]]
    measured = untraced if not ctx.trace else samples
    answers = sum(1 for s in measured if s[1])
    wire = sum(s[3] for s in measured if s[1])
    raw = sum(s[4] for s in measured if s[1])
    latency = stats.summarize([s[0] for s in untraced if s[1]])
    span_window = elapsed / 2.0 if ctx.trace else elapsed
    push = stats.summarize(push_ms)
    result = {
        "attempted": len(measured) + len(warm_ok) + len(issued_at) + 1,
        "failed": sum(1 for s in measured if not s[1])
        + warm_ok.count(False)
        + push_failures
        + (0 if wallet_ok else 1),
        "selftest": selftest,
        "errors": errors,
        "setup": setup,
        "latency": latency,
        "push": push,
        "wallet_fold_matches_pull": wallet_ok,
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "op_iqm_ms": latency["iqm"],
            "op_p75_ms": latency["tail"],
            "ops_per_s": sum(1 for s in untraced if s[1]) / span_window,
            "wire_bytes_per_answer": wire / answers if answers else 0.0,
            "peak_rss_mb": after["peak_rss_mb"],
        },
        "layers": {
            **_pool_counters([client]),
            **_server_counters(before, after),
            "transport.raw_bytes_per_answer": raw / answers if answers else 0.0,
            "transport.wire_bytes_per_answer": wire / answers if answers else 0.0,
            "transport.compress_ratio": stats.ratio(wire, raw)["ratio"],
            "light_node.headers_synced": synced,
            "subscribe.pushes_verified": watch["updates_verified"],
            "subscribe.resyncs": watch["gaps"] + watch["stale_forks"],
            "subscribe.push_ms": push["p50"],
            "node.append_ms": stats.median(append_ms),
            "loadgen.late_ms": stats.median(late_ms),
            "workload.generate_s": setup["generate_s"],
            "builder.build_s": setup["build_s"],
        },
        "env": {
            "chain": world.chain_params(world.QUERY_BLOCKS, ctx.config),
            "loop": "open",
            "offered_rate_per_s": SYNC_RATE,
            "request_connections": 1,
            "subscription_connections": 1,
            "batch_size": BATCH_SIZE,
            "append_every_ticks": APPEND_EVERY,
            "codec": "zlib",
            "universe": len(universe),
            "resolution_cache_entries": after["caches"]["resolutions"]["max_entries"],
            "segment_cache_entries": after["caches"]["segments"]["max_entries"],
            "late_max_ms": max(late_ms) if late_ms else 0.0,
        },
    }
    if ctx.trace:
        traced = [s[0] for s in samples if s[2] and s[1]]
        result["traced_op_iqm_ms"] = stats.interquartile_mean(traced)
        result["client_spans"] = tracer.summary()
        result["client_span_count"] = tracer.span_count()
        result["server_spans"] = after["spans"]
        result["server_span_count"] = after["span_count"]
        tracer.dump(ctx.spans_path("client"))
        result["profile"] = tracing.profile_build(
            ctx.workload.bodies[: ctx.profile_blocks], ctx.config
        )
    server.close()
    return result
