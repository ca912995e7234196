"""Streaming watch benchmark: concurrent watchers, push latency, chaos.

Unlike ``bench_network.py`` (which drives a daemon subprocess), this
benchmark runs the server in-process — the phases need scripted appends
and reorgs on the server's chain, which only the owning process can do.
The transport is still real loopback TCP through
:class:`~repro.node.net.NetServer`.

Three phases:

* **watcher scale** — ``LVQ_STREAMING_WATCHERS`` (default 256)
  concurrent :class:`~repro.node.subscribe.SubscriptionSession`\\ s, in
  two watch-set groups (exercising the registry's shared proof builds),
  ride ``LVQ_STREAMING_APPENDS`` live appends; reports notify latency
  (append on the server → verified event surfaced at the client,
  p50/p99) and availability (watchers that verified every push and
  converged to the final tip / watchers);
* **reorg storm** — a 2-deep reorg mid-stream; every watcher must see
  the retraction (pushed or resynced) and converge onto the replacement
  branch;
* **chaos** — a subset of watchers routed through a dropping/corrupting
  /resetting :class:`~repro.node.net.SocketFaultInjector`; all must
  converge with zero unverified events surfaced (rejected frames are
  the defense working, surfaced wrong data would be the failure).

Gates (committed to ``BENCH_streaming.json``; enforced at full scale,
smoke-asserted below it): availability 1.0 in every phase, zero
unverified events, and wallet spot-checks byte-identical to the honest
pull answer.

Run: ``PYTHONPATH=src python benchmarks/bench_streaming.py``
(CI smoke: ``LVQ_STREAMING_WATCHERS=24 LVQ_STREAMING_APPENDS=8``).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.analysis.latency import latency_summary
from repro.node.faults import FaultKind, FaultRule, FaultSchedule
from repro.node.full_node import FullNode
from repro.node.light_node import LightNode
from repro.node.net import EventLoopThread, NetServer, SocketFaultInjector
from repro.node.session import RetryPolicy
from repro.node.subscribe import SubscriptionRegistry, SubscriptionSession
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.wallet import Wallet
from repro.workload.generator import WorkloadParams, generate_workload

#: Concurrent watchers in the scale phase; the acceptance run uses >= 256.
WATCHERS = int(os.environ.get("LVQ_STREAMING_WATCHERS", "256"))
APPENDS = int(os.environ.get("LVQ_STREAMING_APPENDS", "24"))
BLOCKS = int(os.environ.get("LVQ_STREAMING_BLOCKS", "16"))
TXS = int(os.environ.get("LVQ_STREAMING_TXS", "6"))
CHAOS_WATCHERS = int(os.environ.get("LVQ_STREAMING_CHAOS_WATCHERS", "16"))
CHAOS_APPENDS = int(os.environ.get("LVQ_STREAMING_CHAOS_APPENDS", "8"))
SEED = 2020

#: Below this the gate is a smoke assertion, not the committed claim.
GATE_MIN_WATCHERS = 256

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_streaming.json"

_SPARE = 16  # nudge blocks kept beyond the scripted appends


def _build_world():
    workload = generate_workload(
        WorkloadParams(
            num_blocks=BLOCKS + APPENDS + CHAOS_APPENDS + _SPARE,
            txs_per_block=TXS,
            seed=SEED,
        )
    )
    config = SystemConfig.lvq(bf_bytes=192, segment_len=8)
    system = build_system(workload.bodies[: BLOCKS + 1], config)
    return workload, config, system


def _start_watchers(count, config, system, address, groups, keepalive=5.0):
    sessions = []
    for index in range(count):
        light = LightNode(system.headers(), config)
        sessions.append(
            SubscriptionSession(
                light,
                address,
                groups[index % len(groups)],
                keepalive=keepalive,
                request_timeout=10.0,
                retry_policy=RetryPolicy(
                    max_rounds=100, base_delay=0.02, max_delay=0.3
                ),
                seed=index,
            ).start()
        )
    return sessions


def _wait_subscribed(sessions, timeout=120.0):
    deadline = time.monotonic() + timeout
    for session in sessions:
        remaining = max(0.1, deadline - time.monotonic())
        if not session.wait_subscribed(remaining):
            return False
    return True


def _wait_converged(sessions, target_tip, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(s.light.tip_height == target_tip for s in sessions):
            return []
        time.sleep(0.05)
    return [s for s in sessions if s.light.tip_height != target_tip]


def _drain_events(session):
    events = []
    while True:
        event = session.next_event(timeout=0.0)
        if event is None:
            return events
        events.append(event)


def _session_clean(session, events):
    """No rejected/unverified data and no terminal failure."""
    return (
        session.stats.updates_rejected == 0
        and session.stats.verification_failures == 0
        and not any(e.kind == "disconnect" and e.final for e in events)
    )


def _honest_histories(node, config, addresses):
    light = LightNode(node.system.headers(), config)
    wallet = Wallet(light, list(addresses))
    wallet.refresh(node)
    return {
        address: [(h, tx.txid()) for h, tx in wallet.history(address)]
        for address in addresses
    }


def _wallet_matches(node, config, wallet):
    honest = _honest_histories(node, config, wallet.addresses)
    return all(
        [(h, tx.txid()) for h, tx in wallet.history(address)]
        == honest[address]
        for address in wallet.addresses
    )


def main() -> int:
    print(
        f"world: {BLOCKS} base blocks, {APPENDS} appends, "
        f"{WATCHERS} watchers"
    )
    workload, config, system = _build_world()
    node = FullNode(system)
    registry = SubscriptionRegistry(node)
    loop_thread = EventLoopThread("bench-streaming-loop")
    server = NetServer(
        node,
        subscriptions=registry,
        max_connections=WATCHERS + CHAOS_WATCHERS + 64,
        idle_timeout=60.0,
        loop_thread=loop_thread,
    ).start()

    probes = list(workload.probe_addresses.values())
    groups = [tuple(probes[:3]), tuple(probes[3:6] or probes[:3])]

    report: dict = {
        "schema": "lvq-bench-streaming/v1",
        "params": {
            "watchers": WATCHERS,
            "appends": APPENDS,
            "blocks": BLOCKS,
            "txs_per_block": TXS,
            "chaos_watchers": CHAOS_WATCHERS,
            "chaos_appends": CHAOS_APPENDS,
            "seed": SEED,
        },
    }
    try:
        # -- phase 1: watcher scale over live appends -------------------
        print(f"phase 1: subscribing {WATCHERS} watchers...")
        sessions = _start_watchers(
            WATCHERS, config, system, server.address, groups
        )
        subscribed = _wait_subscribed(sessions)
        # One wallet per group folds its session's stream; after the
        # phase it must equal the honest pull answer at the final tip.
        spot_wallets = []
        for session in sessions[: len(groups)]:
            light = LightNode(system.headers(), config)
            wallet = Wallet(light, list(session.watched))
            wallet.refresh(node)  # verified baseline at the pre-append tip
            spot_wallets.append(wallet)
        print(f"phase 1: appending {APPENDS} blocks...")
        append_at = {}
        for _ in range(APPENDS):
            height = system.tip_height + 1
            node.extend_chain([workload.bodies[height]])
            append_at[height] = time.monotonic()
            time.sleep(0.05)
        lagging = _wait_converged(
            sessions, system.tip_height, timeout=60.0 + 0.02 * WATCHERS * APPENDS
        )
        events_by_session = [_drain_events(s) for s in sessions]
        latencies = [
            event.emitted_at - append_at[event.height]
            for events in events_by_session
            for event in events
            if event.kind == "update" and event.height in append_at
        ]
        clean = sum(
            1
            for session, events in zip(sessions, events_by_session)
            if _session_clean(session, events)
            and session.light.tip_height == system.tip_height
        )
        spot_checks = []
        for wallet, events in zip(spot_wallets, events_by_session):
            for event in events:
                wallet.apply_event(event)
            spot_checks.append(_wallet_matches(node, config, wallet))
        scale = {
            "watchers": WATCHERS,
            "subscribed_in_time": subscribed,
            "appends": APPENDS,
            "converged": clean,
            "lagging": len(lagging),
            "availability": clean / WATCHERS if WATCHERS else 0.0,
            "updates_verified_total": sum(
                s.stats.updates_verified for s in sessions
            ),
            "updates_rejected_total": sum(
                s.stats.updates_rejected for s in sessions
            ),
            "resync_backfills_total": sum(
                s.stats.backfills for s in sessions
            ),
            "wallet_spot_checks_ok": all(spot_checks),
            "notify_latency": latency_summary(latencies),
        }
        report["scale"] = scale
        print(
            f"phase 1: availability {scale['availability']:.4f}, "
            f"notify p50 {scale['notify_latency']['p50_ms']:.1f} ms "
            f"p99 {scale['notify_latency']['p99_ms']:.1f} ms"
        )

        # -- phase 2: reorg storm ---------------------------------------
        old_tip = system.tip_height
        fork = old_tip - 2
        alt = generate_workload(
            WorkloadParams(
                num_blocks=old_tip + 4, txs_per_block=TXS, seed=SEED + 1
            )
        )
        print(f"phase 2: reorg fork={fork} old_tip={old_tip}...")
        node.reorg(fork, alt.bodies[fork + 1 : fork + 5])
        lagging = _wait_converged(
            sessions, system.tip_height, timeout=60.0 + 0.02 * WATCHERS
        )
        reorg_events = [_drain_events(s) for s in sessions]
        retractions = sum(
            s.stats.retractions > 0 for s in sessions
        )
        reorg_clean = sum(
            1
            for session, events in zip(sessions, reorg_events)
            if _session_clean(session, events)
            and session.light.tip_height == system.tip_height
        )
        reorg = {
            "fork_height": fork,
            "old_tip": old_tip,
            "new_tip": system.tip_height,
            "watchers_retracted": retractions,
            "converged": reorg_clean,
            "lagging": len(lagging),
            "availability": reorg_clean / WATCHERS if WATCHERS else 0.0,
        }
        report["reorg"] = reorg
        print(
            f"phase 2: {retractions}/{WATCHERS} saw the retraction, "
            f"availability {reorg['availability']:.4f}"
        )
        for session in sessions:
            session.stop()
        sessions = []

        # -- phase 3: chaos through the fault injector ------------------
        print(f"phase 3: {CHAOS_WATCHERS} watchers through the injector...")
        schedule = FaultSchedule(
            [
                FaultRule(FaultKind.DROP, probability=0.05),
                FaultRule(FaultKind.CORRUPT, probability=0.05, param=3),
                FaultRule(FaultKind.CLOSE, probability=0.04, param=64),
            ],
            seed=SEED,
        )
        injector = SocketFaultInjector(
            server.address, schedule, loop_thread=loop_thread
        )
        injector.start()
        chaos_sessions = _start_watchers(
            CHAOS_WATCHERS,
            config,
            system,
            injector.address,
            groups,
            keepalive=0.5,
        )
        try:
            for _ in range(CHAOS_APPENDS):
                node.extend_chain([workload.bodies[system.tip_height + 1]])
                time.sleep(0.1)
            # Quiesce the faults, then nudge so a swallowed final frame
            # cannot hide a gap forever.
            schedule.rules.clear()
            deadline = time.monotonic() + 60.0
            while (
                any(
                    s.light.tip_height != system.tip_height
                    for s in chaos_sessions
                )
                and time.monotonic() < deadline
            ):
                time.sleep(1.0)
                if (
                    any(
                        s.light.tip_height != system.tip_height
                        for s in chaos_sessions
                    )
                    and system.tip_height + 1 < len(workload.bodies)
                ):
                    node.extend_chain([workload.bodies[system.tip_height + 1]])
            chaos_events = [_drain_events(s) for s in chaos_sessions]
            chaos_clean = sum(
                1
                for session, events in zip(chaos_sessions, chaos_events)
                if session.light.tip_height == system.tip_height
                and not any(
                    e.kind == "disconnect" and e.final for e in events
                )
            )
            chaos = {
                "watchers": CHAOS_WATCHERS,
                "appends": CHAOS_APPENDS,
                "fault_counts": dict(schedule.fault_counts),
                "converged": chaos_clean,
                "availability": (
                    chaos_clean / CHAOS_WATCHERS if CHAOS_WATCHERS else 0.0
                ),
                "updates_rejected_total": sum(
                    s.stats.updates_rejected for s in chaos_sessions
                ),
                "reconnects_total": sum(
                    s.stats.disconnects for s in chaos_sessions
                ),
            }
        finally:
            for session in chaos_sessions:
                session.stop()
            injector.close()
        report["chaos"] = chaos
        print(
            f"phase 3: availability {chaos['availability']:.4f}, "
            f"faults {chaos['fault_counts']}, "
            f"{chaos['updates_rejected_total']} pushes rejected (typed)"
        )
        report["server_stats"] = server.stats.as_dict()
        report["registry_stats"] = registry.stats.as_dict()
        pool = server.query_server.stats()
        report["query_server_stats"] = {
            key: pool[key]
            for key in (
                "workers", "max_pending", "submitted", "completed",
                "failed", "rejected", "peak_queue_depth",
            )
        }
        report["query_server_stats"]["shed"] = pool["admission"]["shed"]
    finally:
        for session in sessions:
            session.stop()
        registry.close()
        server.close()
        loop_thread.stop()

    enforced = WATCHERS >= GATE_MIN_WATCHERS
    scale_ok = (
        report["scale"]["availability"] == 1.0
        and report["scale"]["subscribed_in_time"]
        and report["scale"]["updates_rejected_total"] == 0
        and report["scale"]["wallet_spot_checks_ok"]
    )
    reorg_ok = report["reorg"]["availability"] == 1.0
    chaos_ok = report["chaos"]["availability"] == 1.0
    report["target"] = {
        "gate_min_watchers": GATE_MIN_WATCHERS,
        "enforced": enforced,
        "scale_ok": scale_ok,
        "reorg_ok": reorg_ok,
        "chaos_ok": chaos_ok,
        "met": scale_ok and reorg_ok and chaos_ok,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    if not report["target"]["met"]:
        print("FAIL: streaming gate not met")
        return 1
    print("streaming gate met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
