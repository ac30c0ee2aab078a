"""Async front door for the sharded CAM: admission + micro-batching.

:class:`CamService` turns a :class:`~repro.service.sharded.ShardedCam`
into a concurrent service with the shape of the hardware arbiter it
mirrors:

- **bounded admission queue** -- requests enter one bounded
  :class:`asyncio.Queue`; when it is full the service either applies
  backpressure (``overflow="block"``, the default: ``await`` until a
  slot frees) or fails fast (``overflow="reject"`` raises
  :class:`~repro.errors.ServiceOverloadError`);
- **per-shard micro-batching** -- a router fans each admitted request
  out to per-shard dispatch queues; one dispatcher per shard coalesces
  up to ``max_batch`` requests (waiting at most ``max_delay_s`` after
  the first) and executes them as a few vectorized calls on the shard
  backend, preserving per-shard FIFO order;
- **per-request timeout** -- a request that has not dispatched by its
  deadline resolves with ``status="timeout"`` instead of occupying the
  pipeline (sub-operations already executed on other shards are not
  rolled back; the response says which shards ran);
- **per-shard failure isolation** -- a backend that raises
  unexpectedly is poisoned by the :class:`ShardedCam`; requests
  touching it resolve as miss-with-error (``status="shard_failed"``)
  while the healthy shards keep serving.

Every stage is threaded through :mod:`repro.obs`: admission queue
depth, queue wait, batch occupancy, per-shard dispatch latency,
request latency and outcome counters (see ``docs/service.md``).

The dispatchers execute shard calls inline on the event loop -- the
backends are NumPy-vectorized and release the loop between batches,
which is the same trade a single-threaded arbiter makes in hardware.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.session import RawWord, UpdateStats
from repro.core.types import SearchResult
from repro.errors import (
    CapacityError,
    ConfigError,
    MaskError,
    RoutingError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadError,
    ShardFailedError,
)
from repro.service.sharded import ShardedCam, merge_results

_CLIENT_ERRORS = (ConfigError, CapacityError, RoutingError, MaskError)

#: Sentinel that flows through the queues to shut the pipeline down.
_STOP = object()


def _miss(key: int) -> SearchResult:
    """The degraded answer for a key a poisoned shard owned."""
    return SearchResult.from_vector(int(key), 0)


@dataclass(frozen=True)
class ServiceResponse:
    """Outcome of one admitted request.

    ``status`` is one of ``"ok"``, ``"timeout"``, ``"shard_failed"``
    (a poisoned backend; lookups degrade to a miss) or ``"error"`` (a
    client mistake such as overflowing a shard's capacity). ``result``
    carries the merged :class:`SearchResult` for lookups/deletes,
    ``stats`` the aggregated :class:`UpdateStats` for inserts.
    """

    kind: str
    status: str
    result: Optional[SearchResult] = None
    stats: Optional[UpdateStats] = None
    shards: Tuple[int, ...] = ()
    latency_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServiceStats:
    """Plain counters mirrored outside the obs registry (always on)."""

    admitted: int = 0
    completed: int = 0
    ok: int = 0
    timeouts: int = 0
    shard_failures: int = 0
    client_errors: int = 0
    rejected: int = 0
    dispatches: int = 0
    dispatched_requests: int = 0
    max_queue_depth: int = 0
    repairs_completed: int = 0
    repairs_failed: int = 0

    @property
    def mean_batch_occupancy(self) -> float:
        if not self.dispatches:
            return 0.0
        return self.dispatched_requests / self.dispatches


class _Request:
    """One admitted operation and its fan-out bookkeeping."""

    __slots__ = ("kind", "key", "words", "parts", "future", "deadline",
                 "admitted_t", "pending", "partials", "stats", "shards",
                 "degraded", "finished")

    def __init__(self, kind: str, *, key: int = 0,
                 words: Optional[List[RawWord]] = None,
                 parts: Optional[Dict[int, Tuple[List[RawWord],
                                            List[int]]]] = None) -> None:
        self.kind = kind
        self.key = key
        self.words = words
        self.parts = parts
        self.future: "asyncio.Future[ServiceResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        self.deadline = 0.0
        self.admitted_t = 0.0
        #: shards still expected to answer.
        self.pending: set = set()
        #: shard -> partial SearchResult (broadcast lookups/deletes).
        self.partials: Dict[int, SearchResult] = {}
        #: per-shard UpdateStats (inserts).
        self.stats: Dict[int, UpdateStats] = {}
        #: shards that actually executed work for this request.
        self.shards: List[int] = []
        #: detail of the first poisoned-shard degradation, if any.
        self.degraded: Optional[str] = None
        #: set by the first _finish; the future's own done() cannot be
        #: used (a caller cancelling its await marks the future done
        #: while the request is still in flight here).
        self.finished = False


class CamService:
    """Micro-batching async scheduler over a :class:`ShardedCam`.

    Use as an async context manager::

        cam = repro.open_session(config, engine="batch", shards=4)
        async with CamService(cam, max_batch=64, max_delay_s=0.002) as svc:
            response = await svc.lookup(42)

    ``max_batch`` and ``max_delay_s`` trade latency for batch-engine
    occupancy exactly like the hardware bus packs words per beat;
    ``queue_depth`` bounds admission; ``request_timeout_s`` is the
    per-request deadline measured from admission.
    """

    def __init__(
        self,
        cam: ShardedCam,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        queue_depth: int = 1024,
        request_timeout_s: float = 1.0,
        overflow: str = "block",
        auto_repair: bool = False,
        repair_backoff_s: float = 0.05,
        repair_backoff_max_s: float = 2.0,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ConfigError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {queue_depth}")
        if request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        if overflow not in ("block", "reject"):
            raise ConfigError(
                f"overflow must be 'block' or 'reject', got {overflow!r}"
            )
        if repair_backoff_s <= 0 or repair_backoff_max_s < repair_backoff_s:
            raise ConfigError(
                "repair backoff must satisfy 0 < repair_backoff_s <= "
                f"repair_backoff_max_s, got {repair_backoff_s} / "
                f"{repair_backoff_max_s}"
            )
        self.cam = cam
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.queue_depth = queue_depth
        self.request_timeout_s = request_timeout_s
        self.overflow = overflow
        self.auto_repair = auto_repair
        self.repair_backoff_s = repair_backoff_s
        self.repair_backoff_max_s = repair_backoff_max_s
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._shard_queues: List[asyncio.Queue] = []
        self._tasks: List[asyncio.Task] = []
        self._running = False
        self._draining = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        #: shard -> (next attempt time, current backoff delay).
        self._repair_schedule: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise ServiceError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._shard_queues = [asyncio.Queue()
                              for _ in range(self.cam.num_shards)]
        self._tasks = [asyncio.ensure_future(self._router())]
        self._tasks += [
            asyncio.ensure_future(self._dispatcher(shard))
            for shard in range(self.cam.num_shards)
        ]
        self._running = True
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        if self.auto_repair:
            self._tasks.append(asyncio.ensure_future(self._repair_monitor()))

    async def stop(self) -> None:
        """Drain in-flight work, then shut the pipeline down."""
        if not self._running:
            return
        self._running = False
        await self._queue.put(_STOP)
        await asyncio.gather(*self._tasks)
        self._tasks = []

    async def drain(self) -> None:
        """Stop admitting new requests and wait for in-flight ones.

        After this returns every previously admitted request has
        resolved (ok, timeout, degraded or error) while the pipeline is
        still running -- the graceful-shutdown hook the network server
        uses: new work is refused with
        :class:`~repro.errors.ServiceDrainingError` (mapped onto a
        ``RETRY_LATER`` error frame by :mod:`repro.net.server`) the
        moment drain begins, and :meth:`stop` can then tear the
        pipeline down with nothing left in flight.
        """
        if not self._running:
            return
        self._draining = True
        await self._idle.wait()

    @property
    def draining(self) -> bool:
        """True between :meth:`drain` and the next :meth:`start`."""
        return self._draining

    def _track_admit(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _track_done(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    async def __aenter__(self) -> "CamService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def depth(self) -> int:
        """Current admission queue depth."""
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    async def repair_shard(self, shard: int) -> bool:
        """Rebuild a degraded shard's failed replicas and reinstate it.

        For each failed replica of the shard's
        :class:`~repro.service.replica.ReplicaSet` backend: snapshot a
        healthy donor, yield the loop once so writes admitted meanwhile
        land in the bounded catch-up log, then restore + replay +
        reinstate. If the whole backend comes back healthy, a poison
        fence on the shard is lifted (:meth:`ShardedCam.revive_shard`).
        Returns ``True`` when the shard ends the call fully healthy.
        Requires a replicated backend -- an unreplicated poisoned shard
        has no surviving copy to rebuild from.
        """
        if not 0 <= shard < self.cam.num_shards:
            raise ConfigError(
                f"shard {shard} out of range (0..{self.cam.num_shards - 1})"
            )
        backend = self.cam.sessions[shard]
        failed = getattr(backend, "failed_replicas", None)
        if failed is None:
            return False  # no replica machinery behind this shard
        with obs.span("svc.repair_shard", shard=shard,
                      failed=len(failed)):
            for index in failed:
                try:
                    backend.begin_rebuild(index)
                    # Let concurrently-admitted writes interleave; they
                    # are recorded in the catch-up log and replayed.
                    await asyncio.sleep(0)
                    backend.finish_rebuild(index)
                except ServiceError:
                    self.stats.repairs_failed += 1
                    obs.inc("svc_repairs_failed_total",
                            help="shard repair attempts that failed",
                            shard=shard)
                    continue
                self.stats.repairs_completed += 1
                obs.inc("svc_repairs_total",
                        help="replica rebuilds completed by the service",
                        shard=shard)
        if getattr(backend, "failed_replicas", ()):
            return False
        self.cam.revive_shard(shard)
        return True

    async def _repair_monitor(self) -> None:
        """Background auto-repair loop with per-shard exponential backoff."""
        loop = asyncio.get_running_loop()
        while self._running:
            await asyncio.sleep(self.max_delay_s or 0.001)
            now = loop.time()
            for shard in self.cam.degraded_shards:
                next_at, delay = self._repair_schedule.get(
                    shard, (0.0, self.repair_backoff_s)
                )
                if now < next_at:
                    continue
                if await self.repair_shard(shard):
                    self._repair_schedule.pop(shard, None)
                else:
                    # Wait the current delay, double it for next time.
                    self._repair_schedule[shard] = (
                        loop.time() + delay,
                        min(delay * 2, self.repair_backoff_max_s),
                    )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def lookup(self, key: int) -> ServiceResponse:
        """Search one key; the merged result respects global priority."""
        return await self._admit(_Request("lookup", key=int(key)))

    async def lookup_many(self, keys: Sequence[int]) -> List[ServiceResponse]:
        """Search many keys at once, one :meth:`lookup` per key, so they
        share micro-batches; answers come back in ``keys`` order."""
        return await asyncio.gather(*[self.lookup(key) for key in keys])

    async def insert(self, words: Sequence[RawWord]) -> ServiceResponse:
        """Store a batch of words (routed per shard at admission)."""
        words = list(words)
        if not words:
            raise ConfigError("insert needs at least one word")
        return await self._admit(_Request("insert", words=words))

    async def delete(self, key: int) -> ServiceResponse:
        """Delete-by-content wherever the key may live."""
        return await self._admit(_Request("delete", key=int(key)))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def _admit(self, request: _Request) -> ServiceResponse:
        if not self._running:
            raise ServiceError("service is not running (use 'async with')")
        if self._draining:
            raise ServiceDrainingError(
                "service is draining for shutdown; retry later"
            )
        loop = asyncio.get_running_loop()
        request.admitted_t = loop.time()
        request.deadline = request.admitted_t + self.request_timeout_s
        if self.overflow == "reject":
            try:
                self._queue.put_nowait(request)
            except asyncio.QueueFull:
                self.stats.rejected += 1
                obs.inc("svc_rejections_total",
                        help="requests refused by the full admission queue")
                raise ServiceOverloadError(
                    f"admission queue full ({self.queue_depth} requests)"
                ) from None
        else:
            await self._queue.put(request)
        self._track_admit()
        self.stats.admitted += 1
        depth = self._queue.qsize()
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        obs.set_gauge("svc_queue_depth", depth,
                      help="admission queue occupancy")
        return await request.future

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, request: _Request) -> None:
        """Fan a request out to the shard queues it must touch."""
        if request.kind == "insert":
            # Global addresses bind at routing time, in admission order
            # -- the same numbering the reference model uses -- so the
            # merged priority order never depends on which shard
            # dispatcher happens to flush first.
            try:
                request.parts = self.cam.partition_update(request.words)
            except _CLIENT_ERRORS as exc:
                self._finish(request, "error", error=str(exc))
                return
            request.pending = set(request.parts)
        else:
            request.pending = set(self.cam.shards_for_key(request.key))
        for shard in sorted(request.pending):
            self._shard_queues[shard].put_nowait(request)

    async def _router(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                for queue in self._shard_queues:
                    queue.put_nowait(_STOP)
                return
            obs.set_gauge("svc_queue_depth", self._queue.qsize())
            loop = asyncio.get_running_loop()
            obs.observe("svc_queue_wait_seconds",
                        loop.time() - item.admitted_t,
                        help="admission-to-routing wait",
                        buckets=obs.SECONDS_BUCKETS)
            if loop.time() >= item.deadline:
                self._finish(item, "timeout")
                continue
            self._route(item)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatcher(self, shard: int) -> None:
        queue = self._shard_queues[shard]
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await queue.get()
            if first is _STOP:
                return
            batch = [first]
            flush_at = loop.time() + self.max_delay_s
            while len(batch) < self.max_batch and not stopping:
                remaining = flush_at - loop.time()
                if remaining <= 0:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if item is _STOP:
                    stopping = True
                else:
                    batch.append(item)
            self._flush(shard, batch)
        # Drain anything routed after the flush that raced with STOP.
        leftovers = []
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                leftovers.append(item)
        if leftovers:
            self._flush(shard, leftovers)

    def _flush(self, shard: int, batch: List[_Request]) -> None:
        """Execute one micro-batch on a shard backend, in FIFO order,
        coalescing runs of lookups into single vectorized searches."""
        live: List[_Request] = []
        loop = asyncio.get_running_loop()
        now = loop.time()
        for request in batch:
            if request.future.done():
                self._shard_done(request, shard)
                continue
            if now >= request.deadline:
                obs.inc("svc_timeouts_total",
                        help="requests expired before dispatch",
                        kind=request.kind)
                self._finish(request, "timeout")
                continue
            live.append(request)
        if not live:
            return
        self.stats.dispatches += 1
        self.stats.dispatched_requests += len(live)
        obs.observe("svc_batch_occupancy", len(live),
                    help="requests coalesced per shard micro-batch",
                    buckets=obs.BATCH_BUCKETS, shard=shard)
        started = time.perf_counter()
        with obs.span("svc.flush", shard=shard, occupancy=len(live)):
            index = 0
            while index < len(live):
                request = live[index]
                if request.kind == "lookup":
                    run = [request]
                    while (index + len(run) < len(live)
                           and live[index + len(run)].kind == "lookup"):
                        run.append(live[index + len(run)])
                    self._execute_lookups(shard, run)
                    index += len(run)
                else:
                    self._execute_one(shard, request)
                    index += 1
        obs.observe("svc_shard_latency_seconds",
                    time.perf_counter() - started,
                    help="wall time per shard micro-batch flush",
                    buckets=obs.SECONDS_BUCKETS, shard=shard)

    def _execute_lookups(self, shard: int, run: List[_Request]) -> None:
        keys = [request.key for request in run]
        try:
            answers = self.cam.search_shard(shard, keys)
        except ShardFailedError as exc:
            for request in run:
                self._shard_answer(request, shard, _miss(request.key),
                                   failed=str(exc))
            return
        except _CLIENT_ERRORS as exc:
            for request in run:
                self._finish(request, "error", error=str(exc))
            return
        for request, answer in zip(run, answers):
            self._shard_answer(request, shard, answer)

    def _execute_one(self, shard: int, request: _Request) -> None:
        try:
            if request.kind == "insert":
                shard_words, shard_addresses = request.parts[shard]
                stats = self.cam.update_shard(shard, shard_words,
                                              addresses=shard_addresses)
                request.stats[shard] = stats
                request.shards.append(shard)
                self._shard_done(request, shard)
            else:  # delete
                answer = self.cam.delete_shard(shard, request.key)
                self._shard_answer(request, shard, answer)
        except ShardFailedError as exc:
            request.degraded = str(exc)
            request.pending.discard(shard)
            self._maybe_finish(request)
        except _CLIENT_ERRORS as exc:
            self._finish(request, "error", error=str(exc))

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _shard_answer(self, request: _Request, shard: int,
                      answer: SearchResult,
                      failed: Optional[str] = None) -> None:
        if failed is None:
            request.partials[shard] = answer
            request.shards.append(shard)
        else:
            request.degraded = failed
        request.pending.discard(shard)
        self._maybe_finish(request)

    def _shard_done(self, request: _Request, shard: int) -> None:
        request.pending.discard(shard)
        self._maybe_finish(request)

    def _maybe_finish(self, request: _Request) -> None:
        if request.finished or request.pending:
            return
        status = "shard_failed" if request.degraded else "ok"
        if request.kind == "insert":
            per_shard = list(request.stats.values())
            stats = UpdateStats(
                words=sum(s.words for s in per_shard),
                beats=max((s.beats for s in per_shard), default=0),
                cycles=max((s.cycles for s in per_shard), default=0),
            )
            self._finish(request, status, stats=stats,
                         error=request.degraded)
        else:
            partials = list(request.partials.values())
            merged = (merge_results(request.key, partials)
                      if partials else _miss(request.key))
            self._finish(request, status, result=merged,
                         error=request.degraded)

    def _finish(self, request: _Request, status: str,
                result: Optional[SearchResult] = None,
                stats: Optional[UpdateStats] = None,
                error: Optional[str] = None) -> None:
        if request.finished:
            return
        request.finished = True
        loop = asyncio.get_running_loop()
        latency = loop.time() - request.admitted_t
        self.stats.completed += 1
        if status == "ok":
            self.stats.ok += 1
        elif status == "timeout":
            self.stats.timeouts += 1
        elif status == "shard_failed":
            self.stats.shard_failures += 1
        else:
            self.stats.client_errors += 1
        obs.inc("svc_requests_total", help="service requests by outcome",
                kind=request.kind, status=status)
        obs.observe("svc_request_latency_seconds", latency,
                    help="admission-to-completion latency",
                    buckets=obs.SECONDS_BUCKETS, kind=request.kind)
        if (result is None and request.kind != "insert"
                and status in ("timeout", "shard_failed")):
            result = _miss(request.key)
        if not request.future.done():  # caller may have been cancelled
            request.future.set_result(ServiceResponse(
                kind=request.kind,
                status=status,
                result=result,
                stats=stats,
                shards=tuple(sorted(request.shards)),
                latency_s=latency,
                error=error,
            ))
        self._track_done()
