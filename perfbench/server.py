"""The benchmark's full-node process for the query workloads.

Builds the seeded chain with ``build_system`` and serves it through
``FullNode`` -> ``QueryServer`` -> ``NetServer`` with a
``SubscriptionRegistry`` attached.  A second ``NetServer`` serves a
Byzantine node from ``repro.query.adversary`` over the same chain, for
the load generator's self-test.

The load generator drives this process over a control pipe: one JSON
object per line on stdin, one reply per line on stdout.

* ``{"cmd": "append"}``: append the next continuation block; replies
  with the new height and the append time as the miner sees it,
  subscription fan-out included.
* ``{"cmd": "trace"}``: install the span wrappers from now on.
* ``{"cmd": "stats"}``: counters from the public stats surfaces, the
  span summary and the process's peak RSS.
* ``{"cmd": "quit"}``: close everything and exit (so does EOF on stdin).

Run ``python3 perfbench/server.py --blocks 1024 --seed 1`` to serve by
hand; the first stdout line names the ports.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import world  # noqa: E402
from repro.node.full_node import FullNode  # noqa: E402
from repro.node.net import NetServer  # noqa: E402
from repro.node.server import QueryServer  # noqa: E402
from repro.node.subscribe import SubscriptionRegistry  # noqa: E402
from repro.query.adversary import MaliciousFullNode, drop_block_resolution  # noqa: E402
from repro.query.builder import build_system  # noqa: E402

#: Worker threads of the QueryServer: one per request connection.
WORKERS = 2


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _cache_counters(node: FullNode) -> dict:
    return {
        "responses": node.response_cache.stats(),
        **node.system.caches.stats(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--continuation", type=int, default=0)
    parser.add_argument("--spans-out", type=pathlib.Path, default=None)
    args = parser.parse_args()

    started = time.perf_counter()
    workload = world.base_workload(args.blocks, args.seed)
    pending = (
        world.continuation(args.seed, args.continuation)
        if args.continuation
        else []
    )
    generated = time.perf_counter()
    config = world.lvq_config(args.blocks)
    system = build_system(workload.bodies, config)
    built = time.perf_counter()
    node = FullNode(system)
    query_server = QueryServer(node, num_workers=WORKERS)
    registry = SubscriptionRegistry(node)
    net = NetServer(
        query_server, subscriptions=registry, idle_timeout=120.0
    ).start()
    ready = time.perf_counter()
    byzantine = NetServer(
        MaliciousFullNode(system, drop_block_resolution), max_connections=4
    ).start()
    _reply(
        {
            "port": net.port,
            "byzantine_port": byzantine.port,
            "tip": system.tip_height,
            "generate_s": generated - started,
            "build_s": built - generated,
            "start_s": ready - built,
        }
    )

    tracer = None
    appended = 0
    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "append":
                if appended >= len(pending):
                    _reply({"error": "continuation exhausted"})
                    continue
                began = time.perf_counter()
                node.extend_chain([pending[appended]])
                _reply(
                    {
                        "height": system.tip_height,
                        "append_ms": (time.perf_counter() - began) * 1000.0,
                    }
                )
                appended += 1
            elif command == "trace":
                tracer = tracing.Tracer()
                tracer.install(tracing.server_targets())
                _reply({"tracing": True})
            elif command == "stats":
                _reply(
                    {
                        "query_server": query_server.stats(),
                        "caches": _cache_counters(node),
                        "net": net.stats.as_dict(),
                        "subscriptions": registry.stats.as_dict(),
                        "spans": tracer.summary() if tracer else {},
                        "span_count": tracer.span_count() if tracer else 0,
                        "peak_rss_mb": world.peak_rss_mb(),
                        "tip": system.tip_height,
                    }
                )
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        byzantine.close()
        net.close()
        query_server.close()
        registry.close()
        if tracer is not None and args.spans_out is not None:
            tracer.dump(args.spans_out)
    _reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
