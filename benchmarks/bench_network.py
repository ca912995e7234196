"""Real-network serving benchmark: latency, QPS, scale, availability.

Spawns ``python -m repro serve`` as a real daemon subprocess and drives
it over loopback TCP in three phases:

* **steady load** — a pool-backed client fleet issues verified-size
  query frames back to back; reports client-observed p50/p99/mean
  latency and aggregate QPS;
* **connection scale** — opens ``LVQ_NETWORK_CONNECTIONS`` (default
  1000) *simultaneously held* connections, then drives a ping plus a
  query over every one of them; reports the concurrently-open high
  watermark and per-request success;
* **availability under resets** — routes traffic through a
  :class:`~repro.node.net.SocketFaultInjector` that randomly resets and
  drops frames at the socket layer, with a reconnecting pool retrying;
  reports availability (verified answers / attempts) with and without
  retries, and asserts the LVQ invariant: every accepted answer is
  byte-identical to the honest one (zero wrong answers, ever).

Gates (committed to ``BENCH_network.json``; enforced at full scale,
smoke-asserted below it):

* connection scale reaches the requested concurrency with 100% of the
  held connections serving a correct answer;
* availability with retries >= 99% under the injected reset/drop mix;
* zero wrong or unverified-accepted answers in every phase.

Run: ``PYTHONPATH=src python benchmarks/bench_network.py``
(CI smoke: ``LVQ_NETWORK_CONNECTIONS=128 LVQ_NETWORK_REQUESTS=400``).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.analysis.latency import latency_summary
from repro.errors import ReproError
from repro.node.faults import FaultKind, FaultRule, FaultSchedule
from repro.node.messages import PingRequest, PongResponse, QueryRequest
from repro.node.net import SocketFaultInjector
from repro.node.netclient import ClientConnection, ConnectionPool
from repro.node.session import RetryPolicy
from repro.workload.generator import WorkloadParams, generate_workload

BLOCKS = int(os.environ.get("LVQ_NETWORK_BLOCKS", "64"))
TXS = int(os.environ.get("LVQ_NETWORK_TXS", "10"))
#: Simultaneously-held connections in the scale phase; the acceptance
#: run uses >= 1000.
CONNECTIONS = int(os.environ.get("LVQ_NETWORK_CONNECTIONS", "1000"))
#: Requests in the steady-load phase.
REQUESTS = int(os.environ.get("LVQ_NETWORK_REQUESTS", "3000"))
CLIENTS = int(os.environ.get("LVQ_NETWORK_CLIENTS", "16"))
#: Requests attempted through the fault injector.
CHAOS_REQUESTS = int(os.environ.get("LVQ_NETWORK_CHAOS_REQUESTS", "400"))
SEED = 2020

#: Full-scale thresholds; below GATE_MIN_CONNECTIONS the gate is a
#: smoke assertion (everything still must be correct, just not at scale).
GATE_MIN_CONNECTIONS = 1000
REQUIRED_AVAILABILITY = 0.99

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_network.json"

_SERVE_RE = re.compile(r"serving on ([0-9.]+):(\d+)")


def _spawn_daemon(max_connections):
    """Start ``repro serve`` and return (process, (host, port))."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--blocks",
            str(BLOCKS),
            "--txs-per-block",
            str(TXS),
            "--seed",
            str(SEED),
            "--port",
            "0",
            "--workers",
            "4",
            "--max-pending",
            "256",
            "--max-connections",
            str(max_connections),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    deadline = time.monotonic() + 120.0
    while True:
        line = process.stdout.readline()
        if line:
            match = _SERVE_RE.search(line)
            if match:
                return process, (match.group(1), int(match.group(2)))
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("repro serve failed to start")


def _honest_answers(addresses):
    """The expected response frame per address, computed locally."""
    from repro.node.full_node import FullNode
    from repro.query.builder import build_system
    from repro.query.config import SystemConfig

    workload = generate_workload(
        WorkloadParams(num_blocks=BLOCKS, txs_per_block=TXS, seed=SEED)
    )
    segment_len = 1
    while segment_len * 2 <= BLOCKS:
        segment_len *= 2
    config = SystemConfig.lvq(bf_bytes=512 * 3, segment_len=segment_len)
    node = FullNode(build_system(workload.bodies, config))
    probe = dict(workload.probe_addresses)
    chosen = [probe[name] for name in addresses]
    return {
        address: node.handle_query(QueryRequest(address).serialize())
        for address in chosen
    }


def _phase_steady(address_frames, server_address):
    """CLIENTS threads × pooled requests; latency + QPS + correctness."""
    frames = list(address_frames.items())
    latencies = []
    wrong = []
    errors = []
    lock = threading.Lock()
    per_client = max(1, REQUESTS // CLIENTS)

    def worker(index):
        pool = ConnectionPool(server_address, size=2, seed=index)
        try:
            for i in range(per_client):
                address, expected = frames[(index + i) % len(frames)]
                started = time.perf_counter()
                try:
                    response = pool.request(
                        QueryRequest(address).serialize()
                    )
                except ReproError as error:
                    with lock:
                        errors.append(type(error).__name__)
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if response != expected:
                        wrong.append(address)
        finally:
            pool.close()

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return {
        "clients": CLIENTS,
        "requests": len(latencies) + len(errors),
        "succeeded": len(latencies),
        "failed": len(errors),
        "wrong_answers": len(wrong),
        "qps": (len(latencies) / elapsed) if elapsed else 0.0,
        "latency": latency_summary(latencies),
    }


def _phase_scale(address_frames, server_address):
    """Hold CONNECTIONS sockets open at once; serve on every one."""
    frames = list(address_frames.items())
    connections = [None] * CONNECTIONS
    failures = []
    wrong = []
    latencies = []
    lock = threading.Lock()
    opened_watermark = {"value": 0}
    num_openers = min(64, CONNECTIONS)

    def opener(worker_index):
        for index in range(worker_index, CONNECTIONS, num_openers):
            try:
                connection = ClientConnection(
                    server_address, connect_timeout=30.0
                )
            except ReproError as error:
                with lock:
                    failures.append(("connect", type(error).__name__))
                continue
            connections[index] = connection
            with lock:
                opened = sum(1 for c in connections if c is not None)
                opened_watermark["value"] = max(
                    opened_watermark["value"], opened
                )

    threads = [
        threading.Thread(target=opener, args=(i,)) for i in range(num_openers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    held = [c for c in connections if c is not None]

    def driver(worker_index):
        for index in range(worker_index, len(held), num_openers):
            connection = held[index]
            address, expected = frames[index % len(frames)]
            started = time.perf_counter()
            try:
                pong = PongResponse.deserialize(
                    connection.request(
                        PingRequest(index).serialize(), timeout=60.0
                    )
                )
                assert pong.nonce == index
                response = connection.request(
                    QueryRequest(address).serialize(), timeout=60.0
                )
            except (ReproError, AssertionError) as error:
                with lock:
                    failures.append(("request", type(error).__name__))
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if response != expected:
                    wrong.append(address)

    threads = [
        threading.Thread(target=driver, args=(i,)) for i in range(num_openers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for connection in held:
        connection.close()

    return {
        "requested_connections": CONNECTIONS,
        "opened": len(held),
        "concurrent_high_watermark": opened_watermark["value"],
        "served": len(latencies),
        "failures": len(failures),
        "wrong_answers": len(wrong),
        "latency": latency_summary(latencies),
    }


def _phase_chaos(address_frames, server_address):
    """Traffic through a resetting/dropping proxy; pooled retries."""
    frames = list(address_frames.items())
    schedule = FaultSchedule(
        [
            FaultRule(FaultKind.CLOSE, probability=0.05),
            FaultRule(FaultKind.DROP, probability=0.05),
        ],
        seed=SEED,
    )
    first_try = 0
    with_retry = 0
    wrong = []
    error_kinds = {}
    with SocketFaultInjector(server_address, schedule) as injector:
        pool = ConnectionPool(
            injector.address,
            size=4,
            request_timeout=2.0,
            backoff=RetryPolicy(base_delay=0.005, max_delay=0.05),
            seed=SEED,
        )
        try:
            for index in range(CHAOS_REQUESTS):
                address, expected = frames[index % len(frames)]
                frame = QueryRequest(address).serialize()
                for attempt in range(5):
                    try:
                        response = pool.request(frame)
                    except ReproError as error:
                        name = type(error).__name__
                        error_kinds[name] = error_kinds.get(name, 0) + 1
                        continue
                    if response != expected:
                        wrong.append(address)
                    else:
                        with_retry += 1
                        if attempt == 0:
                            first_try += 1
                    break
        finally:
            pool.close()
    return {
        "requests": CHAOS_REQUESTS,
        "fault_counts": dict(schedule.fault_counts),
        "availability_first_try": first_try / CHAOS_REQUESTS,
        "availability_with_retries": with_retry / CHAOS_REQUESTS,
        "wrong_answers": len(wrong),
        "typed_errors": error_kinds,
        "pool": dict(pool.stats),
    }


def main() -> int:
    addresses = ("Addr3", "Addr4", "Addr5", "Addr6")
    print(
        f"building the honest baseline ({BLOCKS} blocks, "
        f"{len(addresses)} probes)..."
    )
    address_frames = _honest_answers(addresses)

    process, server_address = _spawn_daemon(
        max_connections=max(CONNECTIONS + 64, 256)
    )
    print(f"daemon up at {server_address[0]}:{server_address[1]}")
    try:
        print(f"phase 1: steady load ({REQUESTS} requests, {CLIENTS} clients)")
        steady = _phase_steady(address_frames, server_address)
        print(
            f"phase 2: connection scale ({CONNECTIONS} held connections)"
        )
        scale = _phase_scale(address_frames, server_address)
        print(f"phase 3: chaos availability ({CHAOS_REQUESTS} requests)")
        chaos = _phase_chaos(address_frames, server_address)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(30.0)
        except subprocess.TimeoutExpired:
            process.kill()

    enforced = CONNECTIONS >= GATE_MIN_CONNECTIONS
    wrong_total = (
        steady["wrong_answers"]
        + scale["wrong_answers"]
        + chaos["wrong_answers"]
    )
    scale_ok = (
        scale["opened"] == CONNECTIONS
        and scale["served"] == scale["opened"]
        and scale["concurrent_high_watermark"] >= CONNECTIONS
    )
    availability_ok = (
        chaos["availability_with_retries"] >= REQUIRED_AVAILABILITY
    )
    target = {
        "gate_min_connections": GATE_MIN_CONNECTIONS,
        "required_availability": REQUIRED_AVAILABILITY,
        "enforced": enforced,
        "scale_reached": scale_ok,
        "availability_met": availability_ok,
        "zero_wrong_answers": wrong_total == 0,
        "met": scale_ok and availability_ok and wrong_total == 0,
    }

    report = {
        "schema": "lvq-bench-network/v1",
        "params": {
            "blocks": BLOCKS,
            "txs_per_block": TXS,
            "connections": CONNECTIONS,
            "requests": REQUESTS,
            "clients": CLIENTS,
            "chaos_requests": CHAOS_REQUESTS,
            "seed": SEED,
        },
        "steady": steady,
        "scale": scale,
        "chaos": chaos,
        "target": target,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")

    print(
        f"\nsteady : {steady['qps']:8.1f} qps  "
        f"p50 {steady['latency']['p50_ms']:7.3f} ms  "
        f"p99 {steady['latency']['p99_ms']:7.3f} ms  "
        f"({steady['succeeded']}/{steady['requests']} ok)"
    )
    print(
        f"scale  : {scale['served']}/{scale['requested_connections']} "
        f"connections served  (watermark {scale['concurrent_high_watermark']}, "
        f"p99 {scale['latency']['p99_ms']:.1f} ms)"
    )
    print(
        f"chaos  : availability {chaos['availability_with_retries']:.4f} "
        f"with retries ({chaos['availability_first_try']:.4f} first try), "
        f"faults {chaos['fault_counts']}"
    )
    print(f"wrong answers anywhere: {wrong_total}")
    if not target["met"]:
        print("FAIL: network gate not met")
        return 1
    print("network gate met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
