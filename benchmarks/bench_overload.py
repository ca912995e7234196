"""Overload robustness benchmark: admission control under a Zipf burst.

Spawns ``python -m repro serve`` with a deliberately small queue, a
per-client rate limit, and the metrics endpoint enabled, then drives it
over loopback TCP:

* **Zipf burst** — a client fleet (each with its own §11 hello
  identity) fires a mixed-class workload back to back: interactive
  history queries, batch queries, and header syncs, with targets drawn
  from a Zipf distribution.  The queue fills past its watermarks, so
  the server sheds batch-class load first with typed, retry-hinted
  refusals.
* **one hot client** — a single identity hammers with no pacing and is
  held to its token bucket; everyone else's budget is untouched.
* **metrics scrape** — ``/metrics`` is fetched and parsed; the server's
  shed/ratelimit/queue-full counters must account exactly for every
  refusal the clients observed.

Gates (committed to ``BENCH_overload.json``; enforced at full scale,
smoke-asserted below it):

* availability 1.0 for admitted traffic — every request that passed
  admission returned the byte-identical honest answer (zero wrong
  answers, zero unexplained failures);
* the hot client was rate limited while the fleet stayed served;
* staged shedding engaged (shed or queue-full refusals, with watermark
  state transitions recorded);
* interactive (high-priority) p99 stays under the gate;
* the shed/ratelimit/queue-full counters on ``/metrics`` equal the
  refusals observed client side.

Run: ``PYTHONPATH=src python benchmarks/bench_overload.py``
(CI smoke: ``LVQ_OVERLOAD_CLIENTS=6 LVQ_OVERLOAD_REQUESTS=240``).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.analysis.latency import latency_summary
from repro.errors import (
    BackpressureError,
    RateLimitedError,
    ReproError,
    RequestShedError,
    ServerOverloadedError,
)
from repro.node.messages import (
    BatchQueryRequest,
    ErrorResponse,
    HeadersRequest,
    QueryRequest,
)
from repro.node.metrics import parse_metrics
from repro.node.netclient import ConnectionPool, error_from_frame
from repro.workload.generator import WorkloadParams, generate_workload

BLOCKS = int(os.environ.get("LVQ_OVERLOAD_BLOCKS", "48"))
TXS = int(os.environ.get("LVQ_OVERLOAD_TXS", "8"))
CLIENTS = int(os.environ.get("LVQ_OVERLOAD_CLIENTS", "16"))
#: Total fleet requests (split across the clients).
REQUESTS = int(os.environ.get("LVQ_OVERLOAD_REQUESTS", "1600"))
#: Per-client token-bucket rate on the server.
RATE_LIMIT = float(os.environ.get("LVQ_OVERLOAD_RATE", "120"))
QUEUE_DEPTH = int(os.environ.get("LVQ_OVERLOAD_QUEUE", "8"))
WORKERS = int(os.environ.get("LVQ_OVERLOAD_WORKERS", "2"))
#: How long the unpaced hot client hammers alongside the burst.
HOT_SECONDS = float(os.environ.get("LVQ_OVERLOAD_HOT_SECONDS", "3.0"))
SEED = 2020

#: Below this request count the gates are smoke assertions only.
GATE_MIN_REQUESTS = 800
GATE_INTERACTIVE_P99_MS = 2000.0

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_overload.json"

_SERVE_RE = re.compile(r"serving on ([0-9.]+):(\d+)")
_METRICS_RE = re.compile(r"metrics on ([0-9.]+):(\d+)")

_BACKPRESSURE_KINDS = {
    RateLimitedError: "ratelimited",
    RequestShedError: "shed",
    ServerOverloadedError: "queue_full",
}


def _spawn_daemon():
    """Start ``repro serve`` with overload knobs + metrics; return
    (process, serve_address, metrics_address)."""
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
            str(WORKERS),
            "--queue-depth",
            str(QUEUE_DEPTH),
            "--max-connections",
            str(CLIENTS * 4 + 64),
            "--rate-limit",
            str(RATE_LIMIT),
            "--metrics-port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    serve_address = None
    metrics_address = None
    deadline = time.monotonic() + 120.0
    while serve_address is None or metrics_address is None:
        line = process.stdout.readline()
        if line:
            match = _SERVE_RE.search(line)
            if match:
                serve_address = (match.group(1), int(match.group(2)))
            match = _METRICS_RE.search(line)
            if match:
                metrics_address = (match.group(1), int(match.group(2)))
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("repro serve failed to start")
    return process, serve_address, metrics_address


def _honest_node():
    """A local twin of the daemon's system (same seed/params/config)."""
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
    return node, dict(workload.probe_addresses)


def _build_workload_frames(node, probe):
    """(class, frame, expected-bytes) triples for every request shape."""
    addresses = [probe[n] for n in sorted(probe)][:6]
    frames = {"interactive": [], "batch": [], "sync": []}
    for address in addresses:
        frame = QueryRequest(address).serialize()
        frames["interactive"].append((frame, node.handle_query(frame)))
    for index in range(len(addresses) - 1):
        frame = BatchQueryRequest(addresses[index : index + 2]).serialize()
        frames["batch"].append((frame, node.handle_batch_query(frame)))
    sync_frame = HeadersRequest(0).serialize()
    frames["sync"].append((sync_frame, node.handle_headers(sync_frame)))
    return frames


def _request(pool, frame):
    """Pool request that rebuilds error frames into typed exceptions
    (the pool itself hands frames back verbatim)."""
    response = pool.request(frame)
    if response and response[0] == ErrorResponse.type_tag:
        raise error_from_frame(ErrorResponse.deserialize(response))
    return response


def _zipf_indices(rng, count, size, s=1.2):
    """Zipf-weighted index stream: rank 1 dominates, the tail is long."""
    weights = [1.0 / ((rank + 1) ** s) for rank in range(size)]
    total = sum(weights)
    edges = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        edges.append(acc)
    out = []
    for _ in range(count):
        roll = rng.random()
        out.append(next(i for i, edge in enumerate(edges) if roll <= edge))
    return out


def _phase_burst(frames, server_address):
    """The fleet: mixed-class Zipf traffic, one identity per client."""
    lock = threading.Lock()
    results = {
        "attempted": 0,
        "admitted": 0,
        "rejections": {"ratelimited": 0, "shed": 0, "queue_full": 0},
        "wrong_answers": 0,
        "other_failures": {},
    }
    interactive_latencies = []
    per_client = max(1, REQUESTS // CLIENTS)
    # 55% interactive / 30% batch / 15% sync, deterministic per client.
    class_mix = ["interactive"] * 11 + ["batch"] * 6 + ["sync"] * 3

    def worker(index):
        rng = random.Random(SEED * 1000 + index)
        pool = ConnectionPool(
            server_address,
            size=2,
            seed=index,
            client_id=f"client-{index}",
        )
        try:
            for i in range(per_client):
                kind = class_mix[(index + i) % len(class_mix)]
                choices = frames[kind]
                pick = _zipf_indices(rng, 1, len(choices))[0]
                frame, expected = choices[pick]
                started = time.perf_counter()
                try:
                    response = _request(pool, frame)
                except ReproError as error:
                    with lock:
                        results["attempted"] += 1
                        name = type(error).__name__
                        bucket = _BACKPRESSURE_KINDS.get(type(error))
                        if bucket is not None:
                            results["rejections"][bucket] += 1
                        else:
                            results["other_failures"][name] = (
                                results["other_failures"].get(name, 0) + 1
                            )
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    results["attempted"] += 1
                    if response == expected:
                        results["admitted"] += 1
                        if kind == "interactive":
                            interactive_latencies.append(elapsed)
                    else:
                        results["wrong_answers"] += 1
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
    results["qps_admitted"] = (
        results["admitted"] / elapsed if elapsed else 0.0
    )
    results["interactive_latency"] = latency_summary(interactive_latencies)
    return results


def _run_hot_client(server_address, stop, out):
    """One identity, no pacing: the token bucket must do the pacing."""
    pool = ConnectionPool(
        server_address, size=1, seed=999, client_id="hot"
    )
    frame = QueryRequest("no-such-address").serialize()
    try:
        while not stop.is_set():
            try:
                _request(pool, frame)
                out["admitted"] += 1
            except RateLimitedError:
                out["ratelimited"] += 1
            except BackpressureError as error:
                bucket = _BACKPRESSURE_KINDS.get(type(error), "queue_full")
                out[bucket] = out.get(bucket, 0) + 1
            except ReproError as error:
                name = type(error).__name__
                out.setdefault("other", {})
                out["other"][name] = out["other"].get(name, 0) + 1
        out["pool_wait_seconds"] = pool.stats["backpressure_wait_seconds"]
        out["pool_signals"] = pool.stats["backpressure_signals"]
    finally:
        pool.close()


def _scrape_metrics(metrics_address):
    host, port = metrics_address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=10.0
    ) as response:
        body = response.read().decode("utf-8")
    return body, parse_metrics(body)


def main() -> int:
    print(f"building the honest twin ({BLOCKS} blocks x {TXS} txs)...")
    node, probe = _honest_node()
    frames = _build_workload_frames(node, probe)

    process, server_address, metrics_address = _spawn_daemon()
    print(
        f"daemon up at {server_address[0]}:{server_address[1]} "
        f"(metrics {metrics_address[0]}:{metrics_address[1]})"
    )
    hot_stats = {"admitted": 0, "ratelimited": 0}
    try:
        print(
            f"burst: {REQUESTS} requests, {CLIENTS} identities, "
            f"queue {QUEUE_DEPTH}, rate limit {RATE_LIMIT}/s"
        )
        stop = threading.Event()
        hot_thread = threading.Thread(
            target=_run_hot_client, args=(server_address, stop, hot_stats)
        )
        hot_thread.start()
        try:
            burst = _phase_burst(frames, server_address)
        finally:
            # Keep the hot client alive a floor duration so the rate
            # limit demonstrably engages even on tiny smoke runs.
            time.sleep(max(0.0, HOT_SECONDS - 0.0))
            stop.set()
            hot_thread.join(30.0)

        metrics_text, metrics = _scrape_metrics(metrics_address)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(30.0)
        except subprocess.TimeoutExpired:
            process.kill()

    client_rejections = dict(burst["rejections"])
    client_rejections["ratelimited"] += hot_stats.get("ratelimited", 0)
    client_rejections["shed"] += hot_stats.get("shed", 0)
    client_rejections["queue_full"] += hot_stats.get("queue_full", 0)

    server_counters = {
        "ratelimited": metrics.get("lvq_ratelimited_total", 0.0),
        "shed": metrics.get("lvq_shed_total", 0.0),
        "queue_full": metrics.get("lvq_queue_full_total", 0.0),
    }
    counters_account = all(
        int(server_counters[key]) == client_rejections[key]
        for key in server_counters
    )
    total_rejected = sum(client_rejections.values())
    admitted_total = burst["admitted"] + hot_stats["admitted"]
    # Admitted traffic = everything that passed admission; any wrong
    # answer or non-backpressure failure counts against availability.
    unexplained = sum(burst["other_failures"].values()) + sum(
        hot_stats.get("other", {}).values()
    )
    availability_admitted = admitted_total / max(
        1, admitted_total + burst["wrong_answers"] + unexplained
    )
    shedding_engaged = (
        client_rejections["shed"] + client_rejections["queue_full"] > 0
        and metrics.get("lvq_admission_transitions_total", 0.0) > 0
    )
    metrics_parseable = (
        len(metrics) > 10
        and "lvq_queue_depth" in metrics
        and "lvq_admission_state" in metrics
        and "lvq_requests_completed_total" in metrics
    )
    p99_ms = burst["interactive_latency"]["p99_ms"]

    enforced = REQUESTS >= GATE_MIN_REQUESTS
    target = {
        "gate_min_requests": GATE_MIN_REQUESTS,
        "gate_interactive_p99_ms": GATE_INTERACTIVE_P99_MS,
        "enforced": enforced,
        "admitted_availability_1": availability_admitted == 1.0,
        "hot_client_rate_limited": hot_stats["ratelimited"] > 0,
        "staged_shedding_engaged": shedding_engaged,
        "interactive_p99_within_gate": p99_ms <= GATE_INTERACTIVE_P99_MS,
        "rejections_accounted": counters_account,
        "metrics_parseable": metrics_parseable,
    }
    target["met"] = all(
        target[key]
        for key in (
            "admitted_availability_1",
            "hot_client_rate_limited",
            "staged_shedding_engaged",
            "interactive_p99_within_gate",
            "rejections_accounted",
            "metrics_parseable",
        )
    )

    report = {
        "schema": "lvq-bench-overload/v1",
        "params": {
            "blocks": BLOCKS,
            "txs_per_block": TXS,
            "clients": CLIENTS,
            "requests": REQUESTS,
            "rate_limit": RATE_LIMIT,
            "queue_depth": QUEUE_DEPTH,
            "workers": WORKERS,
            "seed": SEED,
        },
        "burst": burst,
        "hot_client": hot_stats,
        "rejections_client_observed": client_rejections,
        "rejections_server_counters": {
            key: int(value) for key, value in server_counters.items()
        },
        "availability_admitted": availability_admitted,
        "metrics_sample": {
            key: metrics[key]
            for key in sorted(metrics)
            if key.startswith(
                (
                    "lvq_admission",
                    "lvq_shed",
                    "lvq_ratelimited",
                    "lvq_queue",
                    "lvq_requests",
                )
            )
        },
        "target": target,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")

    print(
        f"\nburst  : {burst['admitted']}/{burst['attempted']} admitted "
        f"({burst['qps_admitted']:.1f} qps)  interactive p50 "
        f"{burst['interactive_latency']['p50_ms']:.2f} ms  "
        f"p99 {p99_ms:.2f} ms"
    )
    print(
        f"refused: shed={client_rejections['shed']} "
        f"ratelimited={client_rejections['ratelimited']} "
        f"queue_full={client_rejections['queue_full']} "
        f"(total {total_rejected}; server counters "
        f"{report['rejections_server_counters']})"
    )
    print(
        f"hot    : {hot_stats['admitted']} admitted, "
        f"{hot_stats['ratelimited']} rate limited, waited "
        f"{hot_stats.get('pool_wait_seconds', 0.0):.2f}s on hints"
    )
    print(
        f"metrics: {len(metrics)} series, transitions="
        f"{int(metrics.get('lvq_admission_transitions_total', 0))}"
    )
    print(f"availability (admitted traffic): {availability_admitted:.4f}")
    if not target["met"]:
        failing = [
            key
            for key, value in target.items()
            if value is False and key not in ("met", "enforced")
        ]
        print(f"FAIL: overload gate not met ({', '.join(failing)})")
        return 1
    print("overload gate met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
