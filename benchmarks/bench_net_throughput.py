"""Pipelined vs naive network client on the Table IX probe stream.

The wire protocol multiplexes requests by id, so a client can keep
hundreds of lookups in flight over one TCP connection. This benchmark
quantifies what that buys: the same adjacency-probe stream (the
workload behind Table IX and ``bench_service_scaling``) is driven
through

- the **naive** client (``pipelined=False``): one request per round
  trip, the classic stop-and-wait RPC pattern, and
- the **pipelined** client: a window of concurrent in-flight lookups
  over the same single connection.

Both talk to the same in-process loopback server wrapping the same
sharded CAM, so the only variable is wire-level concurrency. The
archived artefact asserts the pipelined client sustains >= 5x the
naive client's request rate (the ISSUE acceptance bar); loopback RTT
is microseconds, so the real-network gap would be far larger.
"""

import asyncio

import pytest

from conftest import run_once

from repro.core import unit_for_entries
from repro.net import CamClient, CamServer
from repro.service import CamService, ShardedCam, drive
from repro.service.workload import probe_requests, table09_probe_stream

SHARDS = 2
ENTRIES_PER_SHARD = 1024
#: Probes per measured leg (the naive leg pays a full RTT per probe).
NAIVE_PROBES = 400
PIPELINED_PROBES = 4000
#: In-flight window for the pipelined leg.
WINDOW = 128
#: The acceptance bar: pipelining must buy at least this much.
MIN_SPEEDUP = 5.0


def make_cam():
    config = unit_for_entries(ENTRIES_PER_SHARD, block_size=64,
                              data_width=32, bus_width=512)
    return ShardedCam(config, shards=SHARDS, policy="hash", engine="batch")


async def measure(probes):
    """Seed one server, then time both client modes against it: a
    closed loop at concurrency 1 on the naive client, and one at
    concurrency ``WINDOW`` on the pipelined client."""
    cam = make_cam()
    # A near-zero batch window keeps per-request latency honest for the
    # naive (one-at-a-time) leg; the pipelined leg coalesces anyway.
    service = CamService(cam, max_delay_s=0.0002, max_batch=WINDOW)
    await service.start()
    server = CamServer(service, port=0)
    await server.start()
    try:
        host, port = server.address
        stored, _ = table09_probe_stream(cam.capacity, seed=3)
        async with CamClient(host, port) as seeder:
            await drive(seeder, [("insert", stored[start:start + 64])
                                 for start in range(0, len(stored), 64)],
                        concurrency=1)
        legs = {}
        for name, pipelined, count, window in (
                ("naive", False, NAIVE_PROBES, 1),
                ("pipelined", True, PIPELINED_PROBES, WINDOW)):
            async with CamClient(host, port, pipelined=pipelined) as client:
                legs[name] = await drive(
                    client, probe_requests(probes, count),
                    concurrency=window)

        # every answer right (against the stored set), no decode trouble
        members = set(stored)
        for leg in legs.values():
            assert leg.ok == leg.requests
            assert leg.hits == sum(key in members
                                   for key in probes[:leg.requests])
        assert server.stats.decode_errors == 0
        naive, fast = legs["naive"], legs["pipelined"]
        return {
            "stored": len(stored),
            "naive_s": naive.wall_s,
            "naive_rps": naive.achieved_rps,
            "pipelined_s": fast.wall_s,
            "pipelined_rps": fast.achieved_rps,
            "speedup": fast.achieved_rps / naive.achieved_rps,
            "hit_rate": fast.hits / fast.keys,
        }
    finally:
        await server.stop()
        await service.stop()


@pytest.mark.slow
def test_pipelined_client_beats_naive_by_5x(benchmark, record_text):
    _, probes = table09_probe_stream(
        make_cam().capacity, seed=3, max_probes=PIPELINED_PROBES
    )
    result = run_once(benchmark, lambda: asyncio.run(measure(probes)))

    assert result["speedup"] >= MIN_SPEEDUP, (
        f"pipelined client achieved only {result['speedup']:.1f}x the "
        f"naive client ({result['pipelined_rps']:,.0f} vs "
        f"{result['naive_rps']:,.0f} req/s); the wire pipeline is "
        "supposed to hide the round trip"
    )

    lines = [
        "network client throughput -- Table IX adjacency-probe stream",
        f"(loopback, {SHARDS} shards x {ENTRIES_PER_SHARD} entries, "
        f"{result['stored']} stored words, one TCP connection each)",
        "",
        f"{'client':>10s} {'probes':>7s} {'wall s':>8s} "
        f"{'req/s':>10s}",
        f"{'naive':>10s} {NAIVE_PROBES:>7d} {result['naive_s']:>8.3f} "
        f"{result['naive_rps']:>10,.0f}",
        f"{'pipelined':>10s} {PIPELINED_PROBES:>7d} "
        f"{result['pipelined_s']:>8.3f} "
        f"{result['pipelined_rps']:>10,.0f}",
        "",
        f"speedup: {result['speedup']:.1f}x "
        f"(window {WINDOW}, bar >= {MIN_SPEEDUP:.0f}x)   "
        f"hit rate: {result['hit_rate']:.3f}",
    ]
    record_text("net_throughput", "\n".join(lines))
