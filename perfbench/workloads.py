"""The four benchmark workloads and the layer wrappers of the traced run.

Each workload function takes ``(seed, seconds, traced, layer_names)``
and returns an :class:`Outcome`. Inputs are generated here from the seed; the program
under test only ever receives the generated keys, words and lists.
Answers are checked against an oracle built before the timed phase
(``ReferenceCam`` for probes, ``np.intersect1d`` and the batch engine
for intersections), so checking costs a dict lookup per answer.

A phase sends its input in order, pass after pass, and runs until its
time is up and a slice (a fixed chunk of the input) has ended, so each
run sees the same mix of inputs. In a traced run the first half of the
time is measured untraced, the second half with the wrappers of
:func:`trace_probe_stack` or :func:`trace_intersector` installed; the
traced phase runs whole passes, so the exact counts it reports (hit
fraction, bytes per key, words and keys per edge, simulated cycles per
pass) repeat exactly for a given seed.

End-to-end figures are reported at the reference host speed of
:mod:`calibrate`: the loops pause between slices of work to measure the
host, and each slice's times are scaled by the host speed around it.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro import obs
from repro.apps.tc.intersect import CamIntersector
from repro.core import ReferenceCam, binary_entry, unit_for_entries
from repro.errors import ReproError
from repro.graph.datasets import get_dataset
from repro.net import CamClient, CamServer, protocol
from repro.service import CamService, ShardedCam
from repro.service.workload import table09_probe_stream

import calibrate
from spans import Tracer, perf

# The serving stack of both probe workloads: 2 shards x 1024 entries,
# hash policy, batch engine; service settings are the `repro serve`
# defaults.
SHARDS = 2
ENTRIES_PER_SHARD = 1024
DATA_WIDTH = 32
SERVICE = dict(max_batch=64, max_delay_s=0.001, queue_depth=1024,
               request_timeout_s=5.0)
SEED_CHUNK = 64

# probe_batch: closed loop, this many 512-key LOOKUP frames in flight.
FRAME_KEYS = 512
IN_FLIGHT = 2
# probe_single: open loop at about a quarter of the single-key
# saturation rate measured on a 2-core host, in its fast state, at the
# commit that introduced this benchmark; a rate at the reference host
# speed of `calibrate`. At half that rate the p99 of runs on different
# seeds spread about twice as wide.
OFFERED_RATE = 1250.0

# tc_*: edges sampled from the ca-cit-HepPh stand-in; tc_cycle runs 8
# edges of the same sample (the cycle engine does ~100 cycles/s, so a
# run sees only a few dozen edges), chosen by their (shorter, longer)
# list lengths: the middle edge of each eighth of the sample ordered by
# size, over the samples of seeds 1-10.
TC_DATASET = "ca-cit-HepPh"
TC_SAMPLE_EDGES = 2000
TC_CYCLE_SHAPES = ((12, 98), (13, 140), (63, 115), (55, 145), (96, 124),
                   (82, 158), (117, 142), (141, 144))

# set-up is repeated and its median reported, so that work moved into
# set-up shows in `setup_s`.
SETUP_REPEATS = 9
# Longest stretch of work between two host calibrations.
SEGMENT_S = 0.5
# Ops per slice: enough for ten samples beyond a p99. Figures are taken
# per slice and their median reported, because on a shared host a stall
# of a few hundred ms otherwise moves a whole run's tail percentiles.
SLICE_OPS = 1000


class Segment(NamedTuple):
    """Ops ``first`` onwards, run from ``start`` to ``end`` between two
    calibrations; ``scale`` takes their times to the reference speed."""

    first: int
    start: float
    end: float
    scale: float


@dataclass
class Phase:
    """What one measured phase did: a record per op, and the passes.

    A record is ``(op index, latency s, completion time, keys answered,
    simulated cycles since the phase began)``; a failed op has an
    infinite latency. A pass is ``pass_ops`` ops in the order sent; a
    slice is ``SLICE_OPS`` of them, or one pass if that is shorter.

    The loops stop, let every op in flight finish and call :meth:`tick`
    at each slice boundary and whenever ``SEGMENT_S`` has passed since
    the last tick, so every slice is made of whole segments and each
    segment lies between two host calibrations. A ``paced`` phase is
    the open loop, whose rate is set by its schedule.
    """

    pass_ops: int
    paced: bool = False
    whole_passes: bool = False
    records: List[Tuple[int, float, float, int, int]] = field(
        default_factory=list)
    segments: List[Segment] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    started: float = 0.0
    finished: float = 0.0
    late: List[float] = field(default_factory=list)
    segment_first: int = 0
    segment_start: float = 0.0
    calibration: float = 0.0

    @property
    def slice_ops(self) -> int:
        return min(self.pass_ops, SLICE_OPS)

    def begin(self) -> None:
        self.calibration = calibrate.measure()
        self.started = self.segment_start = perf()

    def done(self, index: int, deadline: float) -> bool:
        """Whether the phase ends before op ``index``: its time is up
        and a slice has ended, or a pass if ``whole_passes`` (the traced
        phase, whose counts must repeat exactly)."""
        unit = self.pass_ops if self.whole_passes else self.slice_ops
        return index > 0 and index % unit == 0 and perf() >= deadline

    def due_tick(self, index: int) -> bool:
        """Whether to drain and calibrate before sending op ``index``."""
        return index != self.segment_first and (
            index % self.slice_ops == 0
            or perf() - self.segment_start >= SEGMENT_S)

    def tick(self, index: int) -> None:
        """Close the segment that ends before op ``index``, calibrate,
        and start the next one."""
        end = perf()
        calibration = calibrate.measure()
        self.segments.append(Segment(
            self.segment_first, self.segment_start, end,
            calibrate.scale(self.calibration, calibration)))
        self.calibration = calibration
        self.segment_first = index
        self.segment_start = perf()

    def finish(self, index: int) -> None:
        self.tick(index)
        self.finished = self.segments[-1].end

    def record(self, index: int, latency: float, done: float, keys: int,
               cycles: int) -> None:
        self.records.append((index, latency, done, keys, cycles))

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    @property
    def busy(self) -> float:
        """Time spent in segments, without the calibrations."""
        return sum(segment.end - segment.start for segment in self.segments)

    @property
    def latencies(self) -> List[float]:
        return [record[1] for record in self.records]

    @property
    def ops(self) -> int:
        return sum(1 for record in self.records if record[1] != math.inf)

    @property
    def keys(self) -> int:
        return sum(record[3] for record in self.records)

    @property
    def cycles(self) -> int:
        return max((record[4] for record in self.records), default=0)

    @property
    def passes(self) -> int:
        return len(self.records) // self.pass_ops

    @property
    def reference_busy(self) -> float:
        """:attr:`busy` at the reference speed."""
        return sum((segment.end - segment.start) * segment.scale
                   for segment in self.segments)

    def scales(self) -> List[float]:
        return [segment.scale for segment in self.segments]

    def per_slice(self) -> List[Dict]:
        """Rates and latencies of each slice at the reference speed.

        A slice's time is the sum of its segments' times, each scaled;
        each latency is scaled by the segment it ran in.
        """
        size = self.slice_ops
        firsts = [segment.first for segment in self.segments]
        records = sorted(self.records)
        cycles = 0
        out = []
        for k in range(len(records) // size):
            lo, hi = k * size, (k + 1) * size
            chunk = records[lo:hi]
            segments = self.segments[bisect.bisect_left(firsts, lo):
                                     bisect.bisect_left(firsts, hi)]
            span = sum((segment.end - segment.start) * segment.scale
                       for segment in segments)
            cycle = max(record[4] for record in chunk)
            out.append({
                "keys_per_s": sum(record[3] for record in chunk) / span,
                "ops_per_s": sum(1 for record in chunk
                                 if record[1] != math.inf) / span,
                "sim_cycles_per_s": (cycle - cycles) / span,
                "latencies": [
                    record[1] * self.segments[
                        bisect.bisect_right(firsts, record[0]) - 1].scale
                    for record in chunk],
            })
            cycles = cycle
        return out


@dataclass
class Outcome:
    """A workload's checked result: end-to-end and per-layer metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    layers: Dict[str, float]
    notes: List[str]
    tracer: Optional[Tracer] = None
    # Median segment scale of the run: the host's speed against the
    # reference speed.
    scale: float = 1.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation, so an infinite sample
    stays infinite instead of turning into NaN)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_telemetry_off() -> None:
    if obs.enabled():
        raise RuntimeError("repro.obs is enabled; timed runs need it off")


def end_to_end(phase: Phase, setups: List[float],
               seconds: float) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics of one untraced phase.

    Each rate and percentile is taken per slice, at the reference host
    speed, and the median over the slices is reported, so that a host
    stall in a few slices does not move the run's figure; the unscaled
    whole-phase percentiles are printed beside them. A failed operation
    counts as missing every latency limit: its latency is infinite, and
    an infinite percentile is reported as the run length, which no
    answered operation can exceed.
    """
    slices = phase.per_slice()

    def median(name: str) -> float:
        return statistics.median(s[name] for s in slices)

    def pct_ms(pct: float) -> float:
        value = statistics.median(percentile(s["latencies"], pct)
                                  for s in slices)
        return min(value * 1e3, seconds * 1e3)

    metrics = {
        "setup_s": statistics.median(setups),
        "keys_per_s": median("keys_per_s"),
        "ops_per_s": median("ops_per_s"),
        "lat_p50_ms": pct_ms(50),
        "lat_p90_ms": pct_ms(90),
        "lat_p99_ms": pct_ms(99),
        "sim_cycles_per_s": median("sim_cycles_per_s"),
        "ok_frac": 1.0 - phase.failed / phase.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    n = len(slices[0]["latencies"])
    whole = [percentile(phase.latencies, pct) * 1e3 for pct in (50, 90, 99)]
    scales = phase.scales()
    notes = [
        f"samples: {len(phase.records)} ops in {phase.passes} passes, "
        f"{len(slices)} slices and {len(scales)} segments, {phase.keys} "
        f"keys, {phase.elapsed:.3f} s of which {phase.busy:.3f} s in "
        f"segments, {len(setups)} set-ups",
        f"host scale to reference speed: median "
        f"{statistics.median(scales):.4f}, range {min(scales):.4f}-"
        f"{max(scales):.4f}",
        f"error_frac {phase.failed / phase.attempted:.6f} "
        f"({phase.failed} of {phase.attempted})",
        f"latency samples per slice beyond p50/p90/p99: "
        f"{n - math.ceil(0.5 * n)}/{n - math.ceil(0.9 * n)}/"
        f"{n - math.ceil(0.99 * n)}",
        "whole-phase latency p50/p90/p99 (unscaled): "
        + "/".join(f"{value:.3f}" for value in whole) + " ms",
    ]
    return metrics, notes


def outcome(phases: List[Phase], metrics: Dict[str, float],
            layers: Dict[str, float], notes: List[str],
            tracer: Optional[Tracer]) -> Outcome:
    """Fold the phases of a run into its checked outcome."""
    return Outcome(
        correct=not any(phase.mismatches for phase in phases),
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases),
        metrics=metrics, layers=layers, notes=notes, tracer=tracer,
        scale=statistics.median(scale for phase in phases
                                for scale in phase.scales()),
    )


def scaled_time(started: float, before: float) -> float:
    """Seconds since ``started`` at the reference speed, calibrating
    now; ``before`` is the calibration made just before ``started``."""
    elapsed = perf() - started
    return elapsed * calibrate.scale(before, calibrate.measure())


def zero_layers(names: Sequence[str]) -> Dict[str, float]:
    # A layer a workload does not reach reports 0.
    return {name: 0.0 for name in names}


# ----------------------------------------------------------------------
# probe workloads: CamClient -> CamServer -> CamService -> ShardedCam
# ----------------------------------------------------------------------
class ProbeStack:
    """One serving stack on loopback plus its single client connection."""

    def __init__(self) -> None:
        config = unit_for_entries(ENTRIES_PER_SHARD, block_size=64,
                                  data_width=DATA_WIDTH, bus_width=512)
        self.cam = ShardedCam(config, shards=SHARDS, policy="hash",
                              engine="batch")
        self.service = CamService(self.cam, **SERVICE)
        self.server = CamServer(self.service, port=0,
                                request_timeout_s=SERVICE["request_timeout_s"])
        self.client: Optional[CamClient] = None

    async def open(self, stored: Sequence[int]) -> None:
        await self.service.start()
        await self.server.start()
        host, port = self.server.address
        self.client = CamClient(host, port,
                                request_timeout_s=SERVICE["request_timeout_s"])
        await self.client.connect()
        for start in range(0, len(stored), SEED_CHUNK):
            response = await self.client.insert(stored[start:start + SEED_CHUNK])
            if not response.ok:
                raise RuntimeError(f"seeding failed: {response}")

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
        await self.server.stop()
        await self.service.stop()


async def open_stack(stored: Sequence[int]) -> Tuple[ProbeStack, List[float]]:
    """Set the stack up ``SETUP_REPEATS`` times; keep the last one."""
    setups = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            await stack.close()
        before = calibrate.measure()
        started = perf()
        stack = ProbeStack()
        await stack.open(stored)
        setups.append(scaled_time(started, before))
    return stack, setups


def probe_oracle(stored: Sequence[int],
                 probes: Sequence[int]) -> Dict[int, Tuple[bool, int]]:
    """(hit, first address) per distinct probe from a ReferenceCam."""
    gold = ReferenceCam(SHARDS * ENTRIES_PER_SHARD)
    gold.update([binary_entry(word, DATA_WIDTH) for word in stored])
    expected = {}
    for key in set(probes):
        result = gold.search(key)
        expected[key] = (result.hit, result.address)
    return expected


def check_answers(phase: Phase, keys: Sequence[int], responses,
                  expected: Dict[int, Tuple[bool, int]]) -> int:
    """Check the answers of one frame; returns how many were ok."""
    answered = 0
    for key, response in zip(keys, responses):
        if response.status != "ok":
            phase.failed += 1
            continue
        answered += 1
        if (response.result.hit, response.result.address) != expected[key]:
            phase.mismatches += 1
    return answered


async def closed_loop(stack: ProbeStack, frames: List[List[int]],
                      expected, seconds: float, whole_passes: bool) -> Phase:
    """``IN_FLIGHT`` workers each send the next frame when theirs
    returns, until ``seconds`` have passed and the phase is done (see
    :meth:`Phase.done`). At each tick both workers stop; the loop
    resumes after the calibration."""
    phase = Phase(pass_ops=len(frames), whole_passes=whole_passes)
    client = stack.client
    state = {"next": 0}
    cycles_before = stack.cam.cycle

    async def worker() -> None:
        while True:
            index = state["next"]
            if phase.due_tick(index) or phase.done(index, deadline):
                return
            state["next"] = index + 1
            keys = frames[index % len(frames)]
            sent = perf()
            phase.attempted += len(keys)
            try:
                responses = await client.lookup_many(keys)
            except ReproError:
                phase.failed += len(keys)
                phase.record(index, math.inf, perf(), 0,
                             stack.cam.cycle - cycles_before)
                continue
            done = perf()
            answered = check_answers(phase, keys, responses, expected)
            latency = done - sent if answered == len(keys) else math.inf
            phase.record(index, latency, done, answered,
                         stack.cam.cycle - cycles_before)

    phase.begin()
    deadline = phase.started + seconds
    while True:
        await asyncio.gather(*[worker() for _ in range(IN_FLIGHT)])
        if phase.done(state["next"], deadline):
            break
        phase.tick(state["next"])
    phase.finish(state["next"])
    return phase


async def open_loop(stack: ProbeStack, probes: List[int], expected,
                    seconds: float, whole_passes: bool) -> Phase:
    """Send each single-key request at its due time, until ``seconds``
    have passed and the phase is done (see :meth:`Phase.done`). Latency runs
    from the due time, so a stall also charges the wait it imposes on
    every request due behind it. At each tick the generator waits for
    the requests in flight, and the schedule restarts after the
    calibration.

    ``OFFERED_RATE`` is a rate at the reference host speed: each segment
    is paced at it times the host speed measured just before, so the
    server is offered the same share of what the host can do whether
    the host runs fast or slow.

    The generator waits for a due time by yielding to the event loop,
    not by sleeping: an idle virtual CPU is handed to other guests, and
    the time it then takes to get it back put p99 at 6-16 ms instead of
    2-3 ms, and made it vary with the neighbours from run to run."""
    phase = Phase(pass_ops=len(probes), paced=True,
                  whole_passes=whole_passes)
    client = stack.client
    tasks = set()
    cycles_before = stack.cam.cycle

    async def one(index: int, due: float) -> None:
        key = probes[index % len(probes)]
        try:
            responses = await client.lookup_many([key])
        except ReproError:
            phase.failed += 1
            phase.record(index, math.inf, perf(), 0,
                         stack.cam.cycle - cycles_before)
            return
        done = perf()
        answered = check_answers(phase, [key], responses, expected)
        phase.record(index, done - due if answered else math.inf, done,
                     answered, stack.cam.cycle - cycles_before)

    async def drain() -> None:
        while tasks:
            await asyncio.gather(*list(tasks))

    phase.begin()
    deadline = phase.started + seconds
    sent = 0
    while not phase.done(sent, deadline):
        if phase.due_tick(sent):
            await drain()
            phase.tick(sent)
        rate = OFFERED_RATE * calibrate.REFERENCE_S / phase.calibration
        due = phase.segment_start + (sent - phase.segment_first) / rate
        now = perf()
        if due > now:
            await asyncio.sleep(0)
            continue
        task = asyncio.ensure_future(one(sent, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        phase.late.append(now - due)
        phase.attempted += 1
        sent += 1
    await drain()
    phase.finish(sent)
    return phase


def counting_hits(hits: List[int]) -> Callable:
    """Span count for a session search: the keys searched; the hits
    are added to ``hits[0]``."""

    def count(args, results) -> int:
        hits[0] += sum(1 for result in results if result.hit)
        return len(args[0])
    return count


def trace_probe_stack(tracer: Tracer, stack: ProbeStack,
                      hits: List[int]) -> None:
    """Wrap every layer boundary a probe crosses."""
    for session in stack.cam.sessions:
        tracer.patch(session, "search", "engine.search", counting_hits(hits))
    tracer.patch(stack.cam, "search_shard", "sharded.search_shard",
                 lambda args, results: len(args[1]))
    tracer.patch(stack.service, "lookup", "svc.lookup")
    tracer.patch(stack.client, "lookup_many", "client.lookup_many",
                 lambda args, responses: len(args[0]))
    trace_protocol(tracer)


def trace_protocol(tracer: Tracer) -> None:
    """Wrap the frame and payload codecs of ``repro.net.protocol``."""
    for name in dir(protocol):
        if name.startswith(("encode_", "decode_")) and callable(
                getattr(protocol, name)):
            tracer.patch(protocol, name, f"net.{name}")
    tracer.patch(protocol.FrameDecoder, "feed", "net.FrameDecoder.feed")


def probe_layers(tracer: Tracer, stack: ProbeStack, phase: Phase,
                 hits: int, bytes_moved: int) -> Dict[str, float]:
    totals = tracer.layer_totals()
    search = totals["engine.search"]
    shard = totals["sharded.search_shard"]
    svc = [d * 1e3 for d in tracer.durations("svc.lookup")]
    wire = [d * 1e3 for d in tracer.durations("client.lookup_many")]
    codec_s = sum(entry["self_s"] for name, entry in totals.items()
                  if name.startswith("net."))
    stats = stack.service.stats
    return {
        "engine.search_us_per_key": search["total_s"] / search["count"] * 1e6,
        "engine.keys_per_search": search["count"] / search["calls"],
        "engine.hit_frac": hits / search["count"],
        "sharded.self_us_per_key": shard["self_s"] / shard["count"] * 1e6,
        "svc.lookup_p50_ms": percentile(svc, 50),
        "svc.lookup_p99_ms": percentile(svc, 99),
        "svc.batch_occupancy": stats.mean_batch_occupancy,
        "svc.max_queue_depth": stats.max_queue_depth,
        "net.codec_us_per_key": codec_s / phase.keys * 1e6,
        "net.overhead_ms_p50": percentile(wire, 50) - percentile(svc, 50),
        "net.bytes_per_key": bytes_moved / phase.keys,
        "net.retries": stack.client.retries,
        "net.decode_errors": stack.server.stats.decode_errors,
    }


async def run_probe(seed: int, seconds: float, traced: bool,
                    layer_names: Sequence[str], single: bool) -> Outcome:
    stored, probes = table09_probe_stream(SHARDS * ENTRIES_PER_SHARD,
                                          seed=seed)
    usable = len(probes) - len(probes) % FRAME_KEYS
    frames = [probes[i:i + FRAME_KEYS] for i in range(0, usable, FRAME_KEYS)]

    async def run(stack, span, whole_passes):
        if single:
            return await open_loop(stack, probes, expected, span,
                                   whole_passes)
        return await closed_loop(stack, frames, expected, span,
                                 whole_passes)

    stack, setups = await open_stack(stored)
    try:
        expected = probe_oracle(stored, probes)
        check_telemetry_off()
        timed = await run(stack, seconds / 2 if traced else seconds, False)
        metrics, notes = end_to_end(timed, setups, seconds)
        notes.append(f"generator late p99 {gen_late_ms(timed):.3f} ms, "
                     f"achieved/offered {gen_achieved(timed):.4f}"
                     if single else
                     f"{IN_FLIGHT} frames of {FRAME_KEYS} keys in flight")
        layers = zero_layers(layer_names)
        tracer = None
        phases = [timed]
        if traced:
            tracer = Tracer()
            hits = [0]
            bytes_before = (stack.server.stats.bytes_in
                            + stack.server.stats.bytes_out)
            trace_probe_stack(tracer, stack, hits)
            try:
                phase = await run(stack, seconds / 2, True)
            finally:
                tracer.unpatch()
            bytes_moved = (stack.server.stats.bytes_in
                           + stack.server.stats.bytes_out - bytes_before)
            layers.update(probe_layers(tracer, stack, phase, hits[0],
                                       bytes_moved))
            if single:
                layers["gen.late_p99_ms"] = gen_late_ms(timed)
                layers["gen.achieved_frac"] = gen_achieved(timed)
            layers["trace.overhead_frac"] = trace_overhead(timed, phase)
            layers["trace.spans"] = len(tracer.names)
            phases.append(phase)
            notes.append(f"traced phase: {phase.passes} whole passes, "
                         f"{phase.keys} keys, {phase.failed} failed")
    finally:
        await stack.close()
    return outcome(phases, metrics, layers, notes, tracer)


def gen_late_ms(phase: Phase) -> float:
    return percentile(phase.late, 99) * 1e3


def gen_achieved(phase: Phase) -> float:
    return phase.ops / phase.reference_busy / OFFERED_RATE


def trace_overhead(untraced: Phase, traced: Phase) -> float:
    """Traced against untraced, both at the reference speed: median p50
    latency for the open loop (its rate is fixed), throughput
    otherwise."""
    def figure(phase: Phase) -> float:
        slices = phase.per_slice()
        if phase.paced:
            return 1.0 / statistics.median(
                percentile(s["latencies"], 50) for s in slices)
        return statistics.median(s["ops_per_s"] for s in slices)
    return figure(untraced) / figure(traced) - 1.0


def probe_batch(seed, seconds, traced, layer_names) -> Outcome:
    return asyncio.run(run_probe(seed, seconds, traced, layer_names,
                                 single=False))


def probe_single(seed, seconds, traced, layer_names) -> Outcome:
    return asyncio.run(run_probe(seed, seconds, traced, layer_names,
                                 single=True))


# ----------------------------------------------------------------------
# triangle-counting workloads: CamIntersector on one session
# ----------------------------------------------------------------------
Edge = Tuple[List[int], List[int]]


def sample_edges(seed: int) -> List[Edge]:
    """Oriented adjacency-list pairs of ``TC_SAMPLE_EDGES`` seeded edges
    of the stand-in. Edges with an empty side are skipped (the
    intersector answers them without touching the CAM), and so are lists
    longer than the 512-entry unit."""
    graph = get_dataset(TC_DATASET).standin(seed=seed).graph.oriented()
    src, dst = graph.edge_endpoints()
    rng = np.random.default_rng(seed)
    edges = []
    for index in rng.permutation(src.size):
        a = graph.neighbors(int(src[index])).tolist()
        b = graph.neighbors(int(dst[index])).tolist()
        if a and b and max(len(a), len(b)) <= 512:
            edges.append((a, b))
            if len(edges) == TC_SAMPLE_EDGES:
                break
    return edges


def shaped(edges: List[Edge]) -> List[Edge]:
    """For each of ``TC_CYCLE_SHAPES``, the first edge of the seeded
    sample whose (shorter, longer) list lengths are nearest to it. So few
    edges drawn at random, even one per size stratum, make the per-run
    mix of edge sizes, and with it the cycle engine's latencies and keys
    per second, depend on the seed; fixed shapes keep the mix the same
    for every seed while the lists themselves come from it."""
    def distance(edge: Edge, shape: Tuple[int, int]) -> int:
        short, long = sorted((len(edge[0]), len(edge[1])))
        return abs(short - shape[0]) + abs(long - shape[1])
    return [min(edges, key=lambda edge: distance(edge, shape))
            for shape in TC_CYCLE_SHAPES]


def tc_setup(seed: int, engine: str):
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.measure()
        started = perf()
        edges = sample_edges(seed)
        if engine == "cycle":
            edges = shaped(edges)
        intersector = CamIntersector(engine=engine)
        setups.append(scaled_time(started, before))
    return edges, intersector, setups


def tc_loop(intersector: CamIntersector, edges: List[Edge],
            expected: List[Tuple[int, Optional[int]]], seconds: float,
            whole_passes: bool) -> Phase:
    """Intersect edge after edge until ``seconds`` have passed and the
    phase is done (see :meth:`Phase.done`). An expected cycle count of
    None checks the common count only."""
    phase = Phase(pass_ops=len(edges), whole_passes=whole_passes)
    phase.begin()
    deadline = phase.started + seconds
    index = total_cycles = 0
    while not phase.done(index, deadline):
        if phase.due_tick(index):
            phase.tick(index)
        a, b = edges[index % len(edges)]
        want_common, want_cycles = expected[index % len(edges)]
        phase.attempted += 1
        sent = perf()
        try:
            common, cycles = intersector.intersect(a, b)
        except ReproError:
            phase.failed += 1
            phase.record(index, math.inf, perf(), 0, total_cycles)
            index += 1
            continue
        done = perf()
        total_cycles += cycles
        phase.record(index, done - sent, done, min(len(a), len(b)),
                      total_cycles)
        if common != want_common or (want_cycles is not None
                                     and cycles != want_cycles):
            phase.mismatches += 1
        index += 1
    phase.finish(index)
    return phase


def trace_intersector(tracer: Tracer, intersector: CamIntersector,
                      prefix: str, hits: List[int]) -> None:
    session = intersector.session
    tracer.patch(session, "search", f"{prefix}.search", counting_hits(hits))
    tracer.patch(session, "update", f"{prefix}.update",
                 lambda args, stats: len(args[0]))
    tracer.patch(session, "set_groups", f"{prefix}.set_groups")
    tracer.patch(session, "reset", f"{prefix}.reset")
    tracer.patch(intersector, "intersect", "tc.intersect")


def tc_layers(tracer: Tracer, phase: Phase, prefix: str,
              hits: int) -> Dict[str, float]:
    totals = tracer.layer_totals()
    search, update = totals[f"{prefix}.search"], totals[f"{prefix}.update"]
    regroup_reset = sum(totals[f"{prefix}.{name}"]["total_s"]
                        for name in ("set_groups", "reset"))
    edges = phase.ops
    layers = {
        f"{prefix}.search_us_per_key": search["total_s"] / search["count"] * 1e6,
        f"{prefix}.update_us_per_word": update["total_s"] / update["count"] * 1e6,
        "tc.self_us_per_edge": totals["tc.intersect"]["self_s"] / edges * 1e6,
        "tc.words_per_edge": update["count"] / edges,
        "tc.keys_per_edge": search["count"] / edges,
    }
    if prefix == "engine":
        layers["engine.keys_per_search"] = search["count"] / search["calls"]
        layers["engine.regroup_reset_us_per_edge"] = regroup_reset / edges * 1e6
        layers["engine.hit_frac"] = hits / search["count"]
    else:
        session_s = search["total_s"] + update["total_s"] + regroup_reset
        layers["cycle.us_per_sim_cycle"] = session_s / phase.cycles * 1e6
        layers["cycle.sim_cycles"] = phase.cycles // phase.passes
    return layers


def run_tc(seed: int, seconds: float, traced: bool,
           layer_names: Sequence[str], engine: str) -> Outcome:
    edges, intersector, setups = tc_setup(seed, engine)
    expected: List[Tuple[int, Optional[int]]] = [
        (int(np.intersect1d(a, b).size), None) for a, b in edges
    ]
    notes = []
    if engine == "cycle":
        # The cycle engine is the referee: its common counts and
        # simulated cycles must equal the batch engine's on these edges.
        batch = CamIntersector(engine="batch")
        referee = [batch.intersect(a, b) for a, b in edges]
        if [c for c, _ in referee] != [c for c, _ in expected]:
            raise RuntimeError("batch engine disagrees with np.intersect1d")
        expected = referee
        notes.append(f"batch-engine cycles on these {len(edges)} edges: "
                     f"{sum(c for _, c in referee)}")
    check_telemetry_off()
    timed = tc_loop(intersector, edges, expected,
                    seconds / 2 if traced else seconds, False)
    metrics, e2e_notes = end_to_end(timed, setups, seconds)
    notes = e2e_notes + notes
    layers = zero_layers(layer_names)
    tracer = None
    phases = [timed]
    if traced:
        tracer = Tracer()
        hits = [0]
        prefix = "engine" if engine == "batch" else "cycle"
        trace_intersector(tracer, intersector, prefix, hits)
        try:
            phase = tc_loop(intersector, edges, expected, seconds / 2,
                            True)
        finally:
            tracer.unpatch()
        layers.update(tc_layers(tracer, phase, prefix, hits[0]))
        layers["trace.overhead_frac"] = trace_overhead(timed, phase)
        layers["trace.spans"] = len(tracer.names)
        phases.append(phase)
        notes.append(f"traced phase: {phase.passes} whole passes of "
                     f"{len(edges)} edges")
    return outcome(phases, metrics, layers, notes, tracer)


def tc_batch(seed, seconds, traced, layer_names) -> Outcome:
    return run_tc(seed, seconds, traced, layer_names, engine="batch")


def tc_cycle(seed, seconds, traced, layer_names) -> Outcome:
    return run_tc(seed, seconds, traced, layer_names, engine="cycle")


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "probe_batch": probe_batch,
    "probe_single": probe_single,
    "tc_batch": tc_batch,
    "tc_cycle": tc_cycle,
}
