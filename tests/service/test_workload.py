"""The load driver: it runs exactly the requests it is given, times an
open loop from each request's due time, and counts refusals."""

import asyncio
import time

import pytest

from repro.core import SearchResult, unit_for_entries
from repro.service import CamService, ShardedCam, drive
from repro.service.scheduler import ServiceResponse
from repro.service.workload import FILL_BUDGET, mixed_requests, probe_requests


class Target:
    """Answers every key as a miss and counts lookups. The lookup
    numbered ``stall_at`` blocks the whole event loop for ``stall_s``."""

    def __init__(self, stall_at=None, stall_s=0.0):
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    async def lookup_many(self, keys):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        return [ServiceResponse("lookup", "ok", SearchResult.from_vector(k, 0))
                for k in keys]


@pytest.mark.parametrize("count,concurrency", [(10, 4), (3, 8), (1, 1)])
def test_closed_loop_runs_exactly_the_requests_asked_for(count, concurrency):
    target = Target()
    report = asyncio.run(drive(target, probe_requests(range(5), count),
                               concurrency=concurrency))
    assert target.calls == report.requests == report.ok == count
    assert len(report.latencies_s) == count


def test_open_loop_times_each_request_from_its_due_time():
    # 1,000 req/s and a 100 ms stall: about 100 requests fall due while
    # the loop is blocked, and the ~50 due in its first half must be
    # reported at least 50 ms late. Timing from the send would show one.
    target = Target(stall_at=20, stall_s=0.1)
    report = asyncio.run(drive(target, probe_requests(range(5), 200),
                               concurrency=8, rate=1000.0))
    assert report.requests == 200 and report.offered_rps == 1000.0
    assert sum(latency >= 0.05 for latency in report.latencies_s) >= 40


def test_refusals_are_counted_not_raised():
    config = unit_for_entries(32, block_size=16, data_width=16,
                              bus_width=128)
    cam = ShardedCam(config, shards=1, engine="batch")

    async def scenario():
        service = CamService(cam, overflow="reject", queue_depth=1,
                             max_delay_s=0.0)
        async with service:
            report = await drive(service, probe_requests(range(64), 200),
                                 concurrency=16)
        return report, service.stats

    report, stats = asyncio.run(scenario())
    assert report.requests == 200
    assert report.rejected == stats.rejected > 0
    assert report.ok + report.rejected == 200
    assert len(report.latencies_s) == report.ok


def test_probe_requests_cycle_through_the_stream():
    assert probe_requests([1, 2, 3], 3, keys_per_request=2) == [
        ("lookup", [1, 2]), ("lookup", [3, 1]), ("lookup", [2, 3])]


def test_mixed_requests_are_seeded_and_respect_the_fill_budget():
    first = mixed_requests(2000, capacity=100, data_width=16, seed=5)
    assert first == mixed_requests(2000, capacity=100, data_width=16, seed=5)
    assert first != mixed_requests(2000, capacity=100, data_width=16, seed=6)
    ops = {op for op, _ in first}
    assert ops == {"lookup", "insert", "delete"}
    inserted = [len(words) for op, words in first if op == "insert"]
    # the last insert may cross the budget; none starts past it
    assert sum(inserted[:-1]) < 100 * FILL_BUDGET <= sum(inserted)
    assert all(0 <= key < 1 << 16 for _, keys in first for key in keys)

