"""tcp-read-mostly: an open loop of reads against in-process TCP replicas.

Four ``ReplicaServer``s on loopback run the ``optimized`` variant with memory
stores and ``Instrumentation`` on, in the generator's own process and on its
one event-loop thread.  Seeded Poisson arrivals (200/s, 10% writes, one
object) from ``OpenLoopGenerator`` go to the first idle of 8 logical clients
multiplexed over one socket per replica (``MuxEndpoint``).  Latency is timed
from each arrival's due time, so the wait for a free logical client counts.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import layertrace
from perfbench.measure import (
    CheckFailed,
    OpClock,
    Report,
    latency_info,
    own_peak_rss_mb,
    percentile,
)

RATE = 200.0
WRITE_FRACTION = 0.1
LOGICAL_CLIENTS = 8
#: Seconds of arrivals per segment of the window.  The traced run
#: alternates untraced and traced segments; the untraced run sets up
#: ``SETUPS_PER_SEGMENT`` spare fleets after each segment, outside its
#: timing, and ``setup_s`` is the median of all set-ups.  Set-up time on a
#: shared 2-CPU VM wanders within a second by up to 2x, so set-ups spread through the
#: run give a median that holds from run to run, where a burst of them at
#: one moment does not.
SEGMENT_S = 3.0
SETUPS_PER_SEGMENT = 5
WARMUP_OPS = 40
RETRANSMIT_S = 0.2
OP_TIMEOUT_S = 10.0
VARIANT = "optimized"


@dataclass
class Op:
    kind: str
    due: float
    issued: float = 0.0
    end: float = 0.0
    value: Any = None
    result: Any = None
    failed: bool = False


class Fleet:
    """Replicas and logical clients sharing one loop and one socket per replica."""

    def __init__(self, seed: int) -> None:
        from repro import Instrumentation, make_system

        self.config = make_system(1, scheme="hmac", seed=b"cluster-seed-%d" % seed)
        self.instrumentation = Instrumentation()
        self.instrumentation.attach_verification(self.config.verifier.stats)
        self.servers: list = []
        self.endpoint = None
        self.clients: list = []
        self.inboxes: list = []
        self.connect_s = 0.0

    async def start(self) -> "Fleet":
        from repro import MuxEndpoint, OptimizedBftBcClient, OptimizedBftBcReplica, ReplicaServer

        addrs = {}
        for node_id in self.config.quorums.replica_ids:
            replica = OptimizedBftBcReplica(
                node_id, self.config, instrumentation=self.instrumentation
            )
            server = ReplicaServer(replica, batch_verify=True)
            addrs[node_id] = await server.start()
            self.servers.append(server)
        self.endpoint = MuxEndpoint(addrs)
        for index in range(LOGICAL_CLIENTS):
            node_id = f"client:load{index}"
            self.config.registry.register(node_id)
            self.clients.append(OptimizedBftBcClient(
                node_id, self.config, instrumentation=self.instrumentation
            ))
            self.inboxes.append(self.endpoint.register(node_id))
        started = time.perf_counter()
        await self.endpoint.connect()
        self.connect_s = time.perf_counter() - started
        return self

    async def stop(self) -> None:
        await self.endpoint.close()
        for server in self.servers:
            await server.stop()

    async def run_op(self, slot: int, kind: str, value: Any) -> Any:
        """One operation on logical client ``slot``, retransmitting on silence.

        ``PipelinedClient`` deals a FIFO script to whichever slot is idle and
        offers no per-slot operation, so the open loop drives the mux itself
        with the same retransmit and burst-prevalidation steps.
        """
        from repro.core.batching import prevalidate_batch
        from repro.errors import OperationFailedError

        client = self.clients[slot]
        inbox = self.inboxes[slot]
        endpoint = self.endpoint
        sends = client.begin_write(value) if kind == "write" else client.begin_read()
        await endpoint.send(client.node_id, sends)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + OP_TIMEOUT_S
        while client.busy:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise OperationFailedError(f"{kind} timed out after {OP_TIMEOUT_S}s")
            try:
                reply = await asyncio.wait_for(inbox.get(), min(RETRANSMIT_S, remaining))
            except asyncio.TimeoutError:
                await endpoint.reconnect_broken()
                await endpoint.send(client.node_id, client.retransmit())
                continue
            burst = [reply]
            while not inbox.empty():
                burst.append(inbox.get_nowait())
            if len(burst) > 1:
                prevalidate_batch(self.config.verifier, [m for _, m in burst])
            for src, message in burst:
                await endpoint.send(client.node_id, client.deliver(src, message))
        return client.op.result


class OpenLoop:
    """Dispatches a seeded arrival schedule to the first idle logical client."""

    def __init__(self, fleet: Fleet, seed: int) -> None:
        self.fleet = fleet
        self.seed = seed
        self.rng = random.Random(f"tcp-read-mostly-{seed}")
        self.ops: list[Op] = []
        self.lateness: list[float] = []
        self._idle = list(range(LOGICAL_CLIENTS))
        self._slots = asyncio.Semaphore(LOGICAL_CLIENTS)
        self._segment = 0

    def _value(self) -> str:
        return f"s{self.seed}-{len(self.ops)}-{self.rng.getrandbits(64):016x}"

    async def _execute(self, op: Op) -> None:
        from repro.errors import OperationFailedError

        loop = asyncio.get_running_loop()
        async with self._slots:
            slot = min(self._idle)
            self._idle.remove(slot)
            op.issued = loop.time()
            try:
                op.result = await self.fleet.run_op(slot, op.kind, op.value)
            except OperationFailedError:
                op.failed = True
            finally:
                op.end = loop.time()
                self._idle.append(slot)

    async def closed(self, count: int) -> list[Op]:
        """``count`` operations one after another (warm-up)."""
        loop = asyncio.get_running_loop()
        batch = []
        for index in range(count):
            op = Op(kind="write" if index % 4 == 0 else "read", due=loop.time())
            if op.kind == "write":
                op.value = self._value()
            self.ops.append(op)
            await self._execute(op)
            batch.append(op)
        return batch

    async def window(self, seconds: float) -> list[Op]:
        """One open-loop window of ``seconds``; returns its operations."""
        from repro import LoadProfile, OpenLoopGenerator

        self._segment += 1
        profile = LoadProfile(
            rate=RATE,
            duration=seconds,
            write_fraction=WRITE_FRACTION,
            objects=1,
            identities=LOGICAL_CLIENTS,
            seed=self.seed * 1000 + self._segment,
        )
        loop = asyncio.get_running_loop()
        origin = loop.time() + 0.01
        tasks = []
        batch = []
        for arrival in OpenLoopGenerator(profile).arrivals():
            due = origin + arrival.at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(loop.time() - due)
            op = Op(kind=arrival.kind, due=due)
            if op.kind == "write":
                op.value = self._value()
            self.ops.append(op)
            batch.append(op)
            tasks.append(asyncio.create_task(self._execute(op)))
        await asyncio.gather(*tasks)
        return batch


def check_reads(ops: "list[Op]") -> None:
    """Every read returns a written value, never older than a write that
    completed before the read was issued (timestamps order the writes)."""
    writes = sorted(
        (op for op in ops if op.kind == "write" and not op.failed),
        key=lambda op: op.end,
    )
    ts_of = {op.value: op.result for op in writes}
    ends = [op.end for op in writes]
    newest: list = []  # newest[i]: highest timestamp among writes[:i + 1]
    for op in writes:
        newest.append(op.result if not newest or op.result > newest[-1] else newest[-1])
    for read in (op for op in ops if op.kind == "read" and not op.failed):
        if read.result not in ts_of:
            raise CheckFailed(f"read returned {read.result!r}, which no write in the run produced")
        completed = bisect.bisect_left(ends, read.issued)
        if completed and ts_of[read.result] < newest[completed - 1]:
            raise CheckFailed(
                f"stale read: returned {read.result!r} (ts {ts_of[read.result]}) "
                f"after a write with ts {newest[completed - 1]} completed"
            )


async def _setup(seed: int) -> "tuple[float, Fleet]":
    started = time.perf_counter()
    fleet = await Fleet(seed).start()
    return time.perf_counter() - started, fleet


async def _run(seed: int, seconds: float, trace: bool, outdir: Path) -> Report:
    report = Report()
    clock = OpClock().install()
    elapsed, fleet = await _setup(seed)
    setup_times = [elapsed]
    try:
        loop = OpenLoop(fleet, seed)
        await loop.closed(WARMUP_OPS)
        if not trace:
            ops: list[Op] = []
            cpu = wall = 0.0
            while not ops or wall < seconds:
                cpu -= time.process_time()
                wall -= time.perf_counter()
                ops += await loop.window(min(SEGMENT_S, seconds))
                wall += time.perf_counter()
                cpu += time.process_time()
                for _ in range(SETUPS_PER_SEGMENT):
                    elapsed, spare = await _setup(seed)
                    setup_times.append(elapsed)
                    await spare.stop()
            check_reads(loop.ops)
            summarize(report, ops, statistics.median(setup_times), cpu, wall)
            report.notes.append(
                f"{len(ops)} arrivals at {RATE:g}/s in {SEGMENT_S:g} s segments; "
                f"ops_per_s is completed ops per CPU second of this process "
                f"({cpu * 1e3 / len(ops):.3f} ms/op); median of {len(setup_times)} "
                f"set-ups {statistics.median(setup_times) * 1e3:.3f} ms"
            )
            return report

        # Untraced and traced segments of arrivals alternate, so the
        # overhead is not confounded with anything that drifts in a run.
        tracer = layertrace.install(layertrace.Tracer())
        plain: list[Op] = []
        traced: list[Op] = []
        lateness: list[float] = []
        writes = []
        cpu_plain = cpu_traced = wall = 0.0
        began = time.perf_counter()
        while not traced or time.perf_counter() - began < seconds:
            cpu = time.process_time()
            plain += await loop.window(SEGMENT_S)
            cpu_plain += time.process_time() - cpu
            late_from = len(loop.lateness)
            first = len(clock.samples)
            tracer.active = True
            cpu = time.process_time()
            started = time.perf_counter()
            traced += await loop.window(SEGMENT_S)
            wall += time.perf_counter() - started
            cpu_traced += time.process_time() - cpu
            tracer.active = False
            lateness += loop.lateness[late_from:]
            writes += [s for s in clock.samples[first:] if s.kind == "write"]
        check_reads(loop.ops)
        done = [op for op in traced if not op.failed]
        report.attempted = len(plain) + len(traced)
        report.failed = sum(op.failed for op in plain + traced)
        report.metrics.update(layertrace.layer_metrics(tracer.snapshot(), len(done), {
            "core.phases_per_write": statistics.mean(s.phases for s in writes) if writes else 0.0,
            "core.fast_path_rate": sum(s.fast_path for s in writes) / len(writes) if writes else 0.0,
            "cluster.spawn_s": 0.0,
            "cluster.connect_s": fleet.connect_s,
            "load.generator_late_p99_ms": percentile(lateness, 99) * 1e3,
            "load.slot_wait_p50_ms": percentile([op.issued - op.due for op in done], 50) * 1e3,
            "trace.overhead_frac": (cpu_traced / len(traced)) / (cpu_plain / len(plain)) - 1,
            "trace.uncovered_ms_per_op": (wall - tracer.top_level_s) * 1e3 / len(done),
        }))
        written = tracer.write_spans(outdir / "spans-tcp-read-mostly.jsonl")
        report.notes.append(
            f"{len(traced)} traced arrivals in segments alternating with "
            f"{len(plain)} untraced; overhead is generator CPU per op; "
            f"{written} spans written"
        )
        return report
    finally:
        await fleet.stop()


def summarize(
    report: Report, ops: "list[Op]", setup_s: float, cpu_s: float, wall_s: float
) -> None:
    """End-to-end metrics.

    The arrival rate is fixed, so completed ops per wall second only follows
    it; ``ops_per_s`` divides by the CPU seconds this process (generator,
    clients and replicas on one loop) spent in the window instead, so it
    tracks the cost per op at the offered rate.  Latency runs from each
    arrival's due time, and a failed op keeps its (timed-out) latency, so it
    misses every limit.
    """
    report.attempted = len(ops)
    report.failed = sum(op.failed for op in ops)
    done = len(ops) - report.failed
    report.put("setup_s", setup_s, "s")
    report.put("ops_per_s", done / cpu_s, "ops/s")
    report.info["completed_per_wall_s"] = (done / wall_s, "ops/s")
    report.put("peak_rss_mb", own_peak_rss_mb(), "MB")
    for kind in ("read", "write"):
        latency_info(report, kind, [(op.end - op.due) * 1e3 for op in ops if op.kind == kind])


def run(seed: int, seconds: float, trace: bool, outdir: Path) -> Report:
    return asyncio.run(_run(seed, seconds, trace, outdir))
