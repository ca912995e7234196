"""Concurrent serving benchmark: pooled worker server vs serial baseline.

Drives a Zipf-skewed address workload (a few hot addresses dominate, a
long tail of cold ones — mainnet's address-popularity shape) from N
concurrent client threads against :class:`repro.node.server.QueryServer`
and compares three serving modes over the same request sequence:

* ``serial_nocache`` — one thread, every cache cleared before every
  request: the cost of serving with no caching layer at all;
* ``serial_warm``    — one thread, caches left to warm: PR 1's memos
  plus this PR's response-byte cache, but no worker pool;
* ``pooled_warm``    — the full engine: worker pool, bounded queue,
  single-flight response cache, N concurrent clients.

Reported per mode: QPS, p50/p99/mean client-observed latency, and the
cache hit/miss/coalescing counters.  The **gate** (committed to
``BENCH_serving.json`` and enforced at paper-ish scale): the pooled warm
server must beat the serial no-cache baseline by ≥ 3× QPS with ≥ 8
concurrent clients; at any scale it must at least match it (the CI
smoke assertion).

The report also records the ``build`` wall-clock of the served chain.

Run: ``PYTHONPATH=src python benchmarks/bench_serving.py``
(small CI smoke: ``LVQ_SERVING_BLOCKS=48 LVQ_SERVING_REQUESTS=300``).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import NUM_HASHES, bf_bytes
from repro.analysis.latency import latency_summary
from repro.node.full_node import FullNode
from repro.node.messages import QueryRequest
from repro.node.server import QueryServer
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.workload.generator import WorkloadParams, generate_workload

BLOCKS = int(os.environ.get("LVQ_SERVING_BLOCKS", "256"))
TXS = int(os.environ.get("LVQ_SERVING_TXS", "40"))
CLIENTS = int(os.environ.get("LVQ_SERVING_CLIENTS", "8"))
WORKERS = int(os.environ.get("LVQ_SERVING_WORKERS", "8"))
REQUESTS = int(os.environ.get("LVQ_SERVING_REQUESTS", "2000"))
#: The serial no-cache mode re-proves everything per request; cap its
#: sample so the baseline doesn't dominate bench wall-clock.
NOCACHE_REQUESTS = int(os.environ.get("LVQ_SERVING_NOCACHE_REQUESTS", "150"))
ZIPF_S = float(os.environ.get("LVQ_SERVING_ZIPF", "1.1"))
POPULATION = int(os.environ.get("LVQ_SERVING_POPULATION", "64"))
SEED = 2020

#: Gate: pooled warm QPS vs serial no-cache QPS.
REQUIRED_SPEEDUP = 3.0
#: The 3x gate arms at this scale; below it only >= 1x is required.
GATE_MIN_BLOCKS = 256
GATE_MIN_CLIENTS = 8

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"


def _zipf_requests(addresses, count: int, seed: int):
    """A Zipf(s)-popular request sequence over ``addresses`` by rank."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(addresses))]
    return rng.choices(addresses, weights=weights, k=count)


def _address_population(workload, size: int):
    """Probe addresses first (the designated hot ranks), then background
    addresses in first-seen order until ``size`` distinct entries."""
    population = list(workload.probe_addresses.values())
    seen = set(population)
    for body in workload.bodies[1:]:
        for transaction in body:
            for address in sorted(transaction.addresses()):
                if address not in seen:
                    seen.add(address)
                    population.append(address)
                if len(population) >= size:
                    return population
    return population


def _run_serial(system, requests, *, clear_each: bool):
    """One-thread baseline; ``clear_each`` drops every cache per request."""
    node = FullNode(system)
    system.clear_query_caches()
    payloads = [QueryRequest(address).serialize() for address in requests]
    latencies = []
    start = time.perf_counter()
    for payload in payloads:
        if clear_each:
            system.clear_query_caches()
        t0 = time.perf_counter()
        node.handle_query(payload)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {
        "mode": "serial_nocache" if clear_each else "serial_warm",
        "requests": len(payloads),
        "seconds": elapsed,
        "qps": len(payloads) / elapsed if elapsed else 0.0,
        "latency": latency_summary(latencies),
        "caches": {
            "responses": node.response_cache.stats(),
            **system.caches.stats(),
        },
    }


def _run_pooled(system, requests, *, clients: int, workers: int):
    """N client threads against the pooled server, warm caches."""
    node = FullNode(system)
    system.clear_query_caches()
    server = QueryServer(node, num_workers=workers, max_pending=max(64, clients * 8))
    # Warm: serialize each distinct address once at the current tip, so
    # the measured phase sees the steady-state hot cache (the gate's
    # "warm cache" condition).
    for address in dict.fromkeys(requests):
        server.query(address)

    latencies_lock = threading.Lock()
    latencies = []
    errors = []

    def client(worker: int):
        slice_requests = requests[worker::clients]
        local = []
        try:
            for address in slice_requests:
                t0 = time.perf_counter()
                server.query(address, timeout=120)
                local.append(time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 — surface in the report
            errors.append(f"{type(exc).__name__}: {exc}")
        with latencies_lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    stats = server.stats()
    server.close()
    if errors:
        raise AssertionError(f"pooled clients failed: {errors[:3]}")
    return {
        "mode": "pooled_warm",
        "clients": clients,
        "workers": workers,
        "requests": len(latencies),
        "seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed else 0.0,
        "latency": latency_summary(latencies),
        "server": {
            key: stats[key]
            for key in (
                "submitted",
                "rejected",
                "completed",
                "failed",
                "peak_queue_depth",
                "queue_wait",
                "service",
            )
        },
        "caches": stats["caches"],
    }


def _timed_build(bodies, config):
    """The served chain plus its sequential build wall-clock."""
    start = time.perf_counter()
    system = build_system(bodies, config)
    return system, {
        "sequential_seconds": time.perf_counter() - start,
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    print(
        f"bench_serving: blocks={BLOCKS} txs/block={TXS} clients={CLIENTS} "
        f"workers={WORKERS} requests={REQUESTS} zipf_s={ZIPF_S}"
    )
    workload = generate_workload(
        WorkloadParams(num_blocks=BLOCKS, txs_per_block=TXS, seed=SEED)
    )
    # segment_len must be a power of two; take the largest one <= BLOCKS.
    segment_len = 1 << (BLOCKS.bit_length() - 1)
    config = SystemConfig.lvq(
        bf_bytes=bf_bytes(30), segment_len=segment_len, num_hashes=NUM_HASHES
    )

    system, build_block = _timed_build(workload.bodies, config)
    print(f"  build: {build_block['sequential_seconds']:.2f}s")

    population = _address_population(workload, POPULATION)
    requests = _zipf_requests(population, REQUESTS, SEED)
    nocache_requests = requests[:NOCACHE_REQUESTS]

    modes = {}
    modes["serial_nocache"] = _run_serial(
        system, nocache_requests, clear_each=True
    )
    modes["serial_warm"] = _run_serial(system, requests, clear_each=False)
    modes["pooled_warm"] = _run_pooled(
        system, requests, clients=CLIENTS, workers=WORKERS
    )

    speedup_vs_nocache = (
        modes["pooled_warm"]["qps"] / modes["serial_nocache"]["qps"]
        if modes["serial_nocache"]["qps"]
        else 0.0
    )
    enforced = BLOCKS >= GATE_MIN_BLOCKS and CLIENTS >= GATE_MIN_CLIENTS
    required = REQUIRED_SPEEDUP if enforced else 1.0
    target = {
        "required_speedup": REQUIRED_SPEEDUP,
        "gate_min_blocks": GATE_MIN_BLOCKS,
        "gate_min_clients": GATE_MIN_CLIENTS,
        "enforced": enforced,
        "pooled_vs_serial_nocache": speedup_vs_nocache,
        "pooled_vs_serial_warm": (
            modes["pooled_warm"]["qps"] / modes["serial_warm"]["qps"]
            if modes["serial_warm"]["qps"]
            else 0.0
        ),
        "met": speedup_vs_nocache >= required,
    }

    report = {
        "schema": "lvq-bench-serving/v1",
        "params": {
            "blocks": BLOCKS,
            "txs_per_block": TXS,
            "clients": CLIENTS,
            "workers": WORKERS,
            "requests": REQUESTS,
            "nocache_requests": NOCACHE_REQUESTS,
            "zipf_s": ZIPF_S,
            "population": len(population),
            "seed": SEED,
            "num_hashes": NUM_HASHES,
        },
        "build": build_block,
        "modes": modes,
        "target": target,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")

    print("\nmode            requests      qps    p50 ms    p99 ms")
    for name, row in modes.items():
        print(
            f"{name:15s} {row['requests']:8d} {row['qps']:8.1f} "
            f"{row['latency']['p50_ms']:9.3f} {row['latency']['p99_ms']:9.3f}"
        )
    hit_rate = modes["pooled_warm"]["caches"]["responses"]["hit_rate"]
    print(
        f"\npooled response-cache hit rate: {hit_rate:.3f}  "
        f"coalesced flights: "
        f"{modes['pooled_warm']['caches']['responses']['coalesced']}"
    )
    print(
        f"target: pooled {speedup_vs_nocache:.2f}x vs serial no-cache "
        f"(required {required:.1f}x, gate "
        f"{'enforced' if enforced else 'smoke: >=1x'})"
    )
    if not target["met"]:
        print("FAIL: pooled server below required speedup")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
