"""One load driver for the CAM service, in process or over the wire.

:func:`drive` sends a list of requests to any target whose
``lookup_many``/``insert``/``delete`` return
:class:`~repro.service.scheduler.ServiceResponse` -- a started
``CamService`` or a connected ``CamClient`` -- in a closed loop, or in
an open loop timed from each request's due time (see
``docs/networking.md`` section 6). :func:`probe_requests` (the Table IX
stream) and :func:`mixed_requests` (serve-demo's mix) build the lists;
:func:`demo_cam` builds serve-demo's backing :class:`ShardedCam`.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import UnitConfig, unit_for_entries
from repro.core.types import CamType
from repro.errors import ConfigError, NetError, ServiceError
from repro.service.sharded import ShardedCam
from repro.testing import FaultyBackend

#: One request: ("lookup", keys), ("insert", words) or ("delete", [key]).
Request = Tuple[str, List[int]]

#: serve-demo's mix: shares of lookups and deletes (the rest insert),
#: words per insert, and the share of keys drawn from a small hot set.
LOOKUP_FRACTION = 0.75
DELETE_FRACTION = 0.05
INSERT_BATCH_MAX = 8
HOT_FRACTION = 0.2
#: Share of capacity a generated workload stores: the Table IX stream's
#: hub adjacency, and the mix's inserts (past it, only lookups are made).
FILL_BUDGET = 0.6

#: ``ServiceResponse.status`` -> the :class:`LoadReport` field counting it.
_OUTCOME_FIELDS = {"ok": "ok", "timeout": "timeouts",
                   "shard_failed": "shard_failures", "error": "client_errors"}


def probe_requests(probes: Sequence[int], count: int,
                   keys_per_request: int = 1) -> List[Request]:
    """``count`` LOOKUPs of ``keys_per_request`` keys each, cycling
    through ``probes`` in order."""
    if min(count, keys_per_request) < 1:
        raise ConfigError(f"count and keys_per_request must be >= 1, got "
                          f"{count} and {keys_per_request}")
    stream = itertools.cycle(int(key) for key in probes)
    return [("lookup", list(itertools.islice(stream, keys_per_request)))
            for _ in range(count)]


def mixed_requests(count: int, *, capacity: int, data_width: int,
                   seed: int = 0) -> List[Request]:
    """serve-demo's traffic: mostly single-key lookups, some deletes and
    small inserts, with a hot key set. No insert is made once earlier
    ones add up to :data:`FILL_BUDGET` of ``capacity`` words."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    key_space = min(1 << data_width, 1 << 20)
    hot_keys = max(1, key_space // 1000)
    budget = int(capacity * FILL_BUDGET)

    def key() -> int:
        if rng.random() < HOT_FRACTION:
            return int(rng.integers(0, hot_keys))
        return int(rng.integers(0, key_space))

    requests: List[Request] = []
    stored = 0
    for _ in range(count):
        roll = rng.random()
        if roll < LOOKUP_FRACTION or stored >= budget:
            requests.append(("lookup", [key()]))
        elif roll < LOOKUP_FRACTION + DELETE_FRACTION:
            requests.append(("delete", [key()]))
        else:
            size = int(rng.integers(1, INSERT_BATCH_MAX + 1))
            requests.append(("insert", [key() for _ in range(size)]))
            stored += size
    return requests


@dataclass
class LoadReport:
    """What one :func:`drive` run sent, what came back, and how long
    each answered request took."""

    requests: int = 0
    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    keys: int = 0
    hits: int = 0
    words_stored: int = 0
    ok: int = 0
    timeouts: int = 0
    shard_failures: int = 0
    client_errors: int = 0
    rejected: int = 0
    offered_rps: Optional[float] = None
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        """The ``q`` quantile (0..1) of answered requests' latency."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3

    def _count(self, op: str, values: List[int]) -> None:
        self.requests += 1
        setattr(self, op + "s", getattr(self, op + "s") + 1)
        if op == "lookup":
            self.keys += len(values)

    def _answer(self, responses, latency_s: float) -> None:
        self.latencies_s.append(latency_s)
        status = next((r.status for r in responses if not r.ok), "ok")
        name = _OUTCOME_FIELDS[status]
        setattr(self, name, getattr(self, name) + 1)
        for response in responses:
            if response.ok and response.kind == "lookup":
                self.hits += int(response.result.hit)
            elif response.ok and response.kind == "insert":
                self.words_stored += response.stats.words

    def summary(self, **extra) -> Dict[str, object]:
        """Every count, the offered and achieved rates and the latency
        percentiles with their sample count, by name, then ``extra``."""
        summary = asdict(self)
        summary["latency_samples"] = len(summary.pop("latencies_s"))
        summary["wall_s"] = round(self.wall_s, 4)
        summary["achieved_rps"] = round(self.achieved_rps, 1)
        for q in (50, 95, 99):
            summary[f"latency_p{q}_ms"] = round(self.latency_ms(q / 100), 3)
        return {**summary, **extra}

    def render(self, **extra) -> str:
        """:meth:`summary` as one ``name : value`` line per figure."""
        figures = self.summary(**extra)
        width = max(map(len, figures))
        return "\n".join(f"{name:{width}s} : {value}"
                         for name, value in figures.items())

    def manifest(self, name: str, config: dict, **extra) -> dict:
        """A schema-valid ``repro.bench.manifest`` whose ``extra`` is
        :meth:`summary`."""
        return obs.build_manifest(
            name=name, config=config, timings={"wall_s": self.wall_s},
            metrics=obs.metrics().snapshot(), extra=self.summary(**extra),
        )


async def _send(target, op: str, values: List[int]):
    if op == "lookup":
        return await target.lookup_many(values)
    if op == "insert":
        return [await target.insert(values)]
    return [await target.delete(values[0])]


async def drive(
    target,
    requests: Sequence[Request],
    *,
    concurrency: int,
    rate: Optional[float] = None,
    after: Optional[Tuple[int, Callable[[], object]]] = None,
) -> LoadReport:
    """Send every request in ``requests`` to ``target`` exactly once.

    ``rate=None`` runs a closed loop of ``concurrency`` workers; a rate
    (req/s) runs an open loop timed from each request's due time, with
    at most ``concurrency`` requests in flight. ``after=(n, fn)`` calls
    ``fn()`` once, after ``n`` requests have completed.
    """
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    if rate is not None and rate <= 0:
        raise ConfigError(f"open-loop rate must be > 0 req/s, got {rate}")
    if after is not None and after[0] < 0:
        raise ConfigError(f"after needs n >= 0, got {after[0]}")
    unknown = {op for op, _ in requests} - {"lookup", "insert", "delete"}
    if unknown:
        raise ConfigError(f"unknown request ops {sorted(unknown)}")
    report = LoadReport(offered_rps=rate)
    loop = asyncio.get_running_loop()
    completed = 0

    async def fire(op: str, values: List[int], start: float) -> None:
        nonlocal completed, after
        report._count(op, values)
        try:
            responses = await _send(target, op, values)
        except (ServiceError, NetError):
            report.rejected += 1
        else:
            report._answer(responses, loop.time() - start)
        completed += 1
        if after is not None and completed >= after[0]:
            after, fn = None, after[1]
            fn()

    started = loop.time()
    if rate is None:
        pending = iter(requests)

        async def worker() -> None:
            for op, values in pending:
                await fire(op, values, loop.time())

        workers = min(concurrency, len(requests))
        await asyncio.gather(*(worker() for _ in range(workers)))
    else:
        in_flight = asyncio.Semaphore(concurrency)

        async def arrive(op: str, values: List[int], due: float) -> None:
            async with in_flight:
                await fire(op, values, due)

        tasks = []
        for index, (op, values) in enumerate(requests):
            due = started + index / rate
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            tasks.append(asyncio.ensure_future(arrive(op, values, due)))
        await asyncio.gather(*tasks)
    report.wall_s = loop.time() - started
    return report


def table09_probe_stream(capacity: int, *, seed: int = 3,
                         max_probes: int = 16_000):
    """The Table IX adjacency-intersection workload as a CAM stream.

    Hub adjacency sets of a 2,000-vertex, 12,000-edge power-law graph
    are stored in the CAM (up to :data:`FILL_BUDGET` of ``capacity``
    distinct neighbor ids), then the probe sides of sampled edges
    stream through as membership lookups -- each hit is one
    intersection contribution, exactly what the triangle-counting
    pipeline asks the CAM per edge. Shared by the
    shard-scaling benchmark, the network-throughput benchmark and the
    ``loadgen`` CLI, so every layer is measured on the same stream.

    Returns ``(stored, probes)`` lists of ints.
    """
    from repro.graph import power_law

    graph = power_law(2000, 12_000, triangle_fraction=0.4, seed=seed)
    order = sorted(range(graph.num_vertices), key=graph.degree,
                   reverse=True)
    budget = max(1, int(capacity * FILL_BUDGET))
    stored, seen = [], set()
    for hub in order:
        for neighbor in graph.neighbors(hub):
            value = int(neighbor)
            if value not in seen:
                seen.add(value)
                stored.append(value)
                if len(stored) >= budget:
                    break
        if len(stored) >= budget:
            break
    probes = []
    for u, v in graph.edges():
        side = u if graph.degree(u) <= graph.degree(v) else v
        probes.extend(int(w) for w in graph.neighbors(side))
        if len(probes) >= max_probes:
            break
    return stored, probes


def demo_cam(
    *,
    entries_per_shard: int = 512,
    shards: int = 4,
    block_size: int = 64,
    engine: str = "batch",
    policy: str = "hash",
    replicas: int = 1,
    poison_shard: Optional[int] = None,
    poison_after: int = 50,
    fault_mode: Optional[str] = None,
) -> ShardedCam:
    """Build the demo service's backing :class:`ShardedCam` of 32-bit
    binary entries.

    ``poison_shard`` wraps that shard in a :class:`FaultyBackend` that
    blows up after ``poison_after`` operations -- the failure-isolation
    demonstration. With ``replicas > 1`` only that shard's *preferred*
    replica is wrapped, so the shard keeps serving through its healthy
    peer and the repair path has a donor to rebuild from; the default
    fault mode then becomes ``"crash"`` (the replica recovers and can
    be reinstated) instead of ``"wedge"``.
    """
    config = unit_for_entries(
        entries_per_shard,
        block_size=min(block_size, entries_per_shard),
        data_width=32,
        bus_width=512,
        cam_type=CamType.BINARY,
        default_groups=1,
    )
    if fault_mode is None:
        fault_mode = "wedge" if replicas == 1 else "crash"
    factories = {}
    if poison_shard is not None:
        from repro.core.batch import open_session

        def make(shard: int, replica: int, cfg: UnitConfig):
            suffix = f".r{replica}" if replicas > 1 else ""
            session = open_session(cfg, engine=engine,
                                   name=f"svc.shard{shard}{suffix}")
            if shard == poison_shard and replica == 0:
                return FaultyBackend(session, poison_after, mode=fault_mode)
            return session

        if replicas > 1:
            factories["replica_factory"] = make
        else:
            factories["session_factory"] = (
                lambda shard, cfg: make(shard, 0, cfg))
    return ShardedCam(config, shards=shards, policy=policy, engine=engine,
                      name="svc", replicas=replicas, **factories)
