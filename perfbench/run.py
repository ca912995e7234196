"""LVQ benchmark: one named workload, one seed, one result line.

    python3 perfbench/run.py --workload history_hot --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``history_hot`` - closed loop, verified single-address history queries
  over a Zipf hot set that fits the server's response cache;
* ``sync_live``   - open loop, verified aggregated batch queries with
  zlib while the server appends blocks and pushes them to a subscriber;
* ``ingest``      - a durable full node at paper length: build, fsync'd
  appends with reorgs, and the restart path.

Every answer is checked against the generator's ground truth.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The exit code is non-zero when
any answer was wrong or the Byzantine self-test lost its teeth.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Files a run writes (store directories, span dumps), inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"
#: A run that has not finished by then is killed, children included.
WATCHDOG_S = 170.0
#: Blocks of the profiler pass over the build in traced runs.
PROFILE_BLOCKS = 257

END_TO_END = {
    "setup_s": "s",
    "op_iqm_ms": "ms",
    "op_p75_ms": "ms",
    "ops_per_s": "1/s",
    "wire_bytes_per_answer": "B",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> the span whose median self time per call it is.
SPAN_LAYERS = {
    "netclient.request_ms": "netclient.request",
    "messages.decode_ms": "messages.decode",
    "verifier.verify_ms": "verifier.verify",
    "aggregate.decode_ms": "aggregate.decode",
    "batch.verify_ms": "batch.verify",
    "light_node.header_sync_ms": "light_node.header_sync",
    "transport.decompress_ms": "transport.decompress",
    "subscribe.verify_ms": "subscribe.verify",
    "full_node.handle_ms": "full_node.handle",
    "prover.answer_ms": "prover.answer",
    "batch.answer_ms": "batch.answer",
    "messages.encode_ms": "messages.encode",
    "aggregate.encode_ms": "aggregate.encode",
    "transport.compress_ms": "transport.compress",
    "subscribe.fanout_ms": "subscribe.fanout",
    "builder.append_ms": "builder.append",
    "builder.reorg_ms": "builder.reorg",
    "durable.commit_ms": "durable.append",
}
COUNTER_LAYERS = {
    "netclient.reconnects": "count",
    "netclient.retries": "count",
    "light_node.headers_synced": "count",
    "full_node.response_cache.hit_ratio": "ratio",
    "cache.resolutions.hit_ratio": "ratio",
    "cache.segments.hit_ratio": "ratio",
    "cache.evictions": "count",
    "transport.compress_ratio": "ratio",
    "transport.raw_bytes_per_answer": "B",
    "transport.wire_bytes_per_answer": "B",
    "server.queue_wait_ms": "ms",
    "server.service_ms": "ms",
    "admission.rejected": "count",
    "subscribe.pushes_verified": "count",
    "subscribe.resyncs": "count",
    "subscribe.push_ms": "ms",
    "node.append_ms": "ms",
    "loadgen.late_ms": "ms",
    "workload.generate_s": "s",
    "builder.build_s": "s",
    "durable.open_s": "s",
    "vfs.fsyncs_per_block": "count",
    "vfs.bytes_per_block": "B",
}
PROFILE_LAYERS = {
    f"{package}.{field}": ("ms" if field.startswith("self") else "count")
    for package in ("crypto", "bloom", "merkle", "chain")
    for field in ("self_ms_per_block", "calls_per_block")
}
TRACE_LAYERS = {
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {name: "ms" for name in SPAN_LAYERS}
    units.update(COUNTER_LAYERS)
    units.update(PROFILE_LAYERS)
    units.update(TRACE_LAYERS)
    return units


class Context:
    def __init__(self, args) -> None:
        self.workload_name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.profile_blocks = PROFILE_BLOCKS
        self.children = []
        self.work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
        from tracing import FrameBytes

        self.frame_bytes = FrameBytes()
        self.frame_bytes.install()

    def spans_path(self, side: str):
        if not self.trace:
            return None
        return SPANS_DIR / f"{self.workload_name}-{self.seed}-{side}.jsonl"

    def stop_children(self) -> None:
        for child in self.children:
            child.close()


def _layer_metrics(result: dict) -> dict:
    spans = dict(result.get("server_spans", {}))
    spans.update(result.get("client_spans", {}))
    metrics = {}
    for name, span in SPAN_LAYERS.items():
        metrics[name] = spans.get(span, {}).get("self_p50_ms", 0.0)
    for name in COUNTER_LAYERS:
        metrics[name] = float(result["layers"].get(name, 0.0))
    for package, values in result["profile"].items():
        for field, value in values.items():
            metrics[f"{package}.{field}"] = value
    untraced = result["end_to_end"]["op_iqm_ms"]
    overhead = result["traced_op_iqm_ms"] - untraced
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced if untraced else 0.0
    metrics["trace.spans"] = float(
        result["client_span_count"] + result["server_span_count"]
    )
    return metrics


def _print_human(result: dict, env: dict) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    setup = result["setup"]
    print(
        "setup: "
        + ", ".join(f"{k}={v}" for k, v in sorted(setup.items()) if k != "setup_samples_s")
        + f"  samples={['%.3f' % s for s in setup['setup_samples_s']]}"
    )
    latency = result["latency"]
    print(
        f"op latency: n={latency['count']} iqm={latency['iqm']:.4f} ms "
        f"p50={latency['p50']:.4f} ms "
        f"p{latency['tail_pct']:g}={latency['tail']:.4f} ms "
        f"(tail supported: {latency['tail_supported']}; highest percentile "
        f"with >=10 samples beyond: p{latency['highest_supported_pct']})"
    )
    print(
        "op latency percentiles: "
        + " ".join(
            f"p{pct:g}={value:.4f}" for pct, value in latency["supported"].items()
        )
    )
    if "push" in result:
        push = result["push"]
        print(f"push latency: n={push['count']} p50={push['p50']:.4f} ms")
        print(f"wallet fold equals final verified pull: {result['wallet_fold_matches_pull']}")
    if "restart_s" in result:
        print(f"restart_s: {result['restart_s']:.4f} s (DurableStore.open)")
        reorg = result["reorg"]
        print(f"reorg latency: n={reorg['count']} p50={reorg['p50']:.4f} ms")
    selftest = result["selftest"]
    print(
        f"self-test: Byzantine answers rejected {selftest['byzantine_rejected']}"
        f"/{selftest['byzantine_attempted']}, ground-truth mismatch caught: "
        f"{selftest['mismatch_caught']}; accepted: "
        f"{selftest.get('byzantine_accepted', [])}"
    )
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate: {failed / attempted if attempted else 0.0:.6f} ({failed}/{attempted})")
    for error in result["errors"]:
        print(f"error: {error}")
    for name, value in sorted(result["layers"].items()):
        if name == "cache_counts":
            # hit ratio ("ratio") with its base counts: hits ("part") over
            # lookups ("whole"), for each cache, over the measured window
            print("cache counts " + json.dumps(value, sort_keys=True))
        else:
            print(f"layer {name}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LVQ benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("history_hot", "sync_live", "ingest")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no LVQ sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import world

    ctx = Context(args)
    watchdog = threading.Timer(WATCHDOG_S, _expire, args=(ctx,))
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.workload == "ingest":
            from ingest import run_ingest

            result = run_ingest(ctx)
        else:
            import query_load

            runner = {
                "history_hot": query_load.run_history_hot,
                "sync_live": query_load.run_sync_live,
            }[args.workload]
            result = runner(ctx)
    finally:
        ctx.stop_children()
        shutil.rmtree(ctx.work_dir, ignore_errors=True)
        watchdog.cancel()

    env = world.env_record(
        ROOT, args.seed, workload=args.workload, seconds=args.seconds,
        trace=bool(args.trace), **result["env"],
    )
    _print_human(result, env)
    correct = result["failed"] == 0 and result["selftest"]["passed"]
    if args.trace:
        units = per_layer_units()
        values = _layer_metrics(result)
    else:
        units = END_TO_END
        values = result["end_to_end"]
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name}: {values[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _expire(ctx) -> None:
    print(f"run exceeded {WATCHDOG_S} s; stopping", file=sys.stderr)
    for child in ctx.children:
        child.process.kill()
        child.process.wait()
    os._exit(3)


if __name__ == "__main__":
    sys.exit(main())
