"""proc-durable-writes: the production shape, real processes and fsync'd WALs.

``deploy(DeploymentSpec(transport="process", variant="fastpath",
store="file", fsync="always", workers=2, pipeline=2))``: two ``python -m
repro serve`` workers, each hosting two replicas, and this process driving
two pipelined logical clients through the deployment handle, closed loop,
100% writes to the one register.  Worker spawn is part of ``setup_s``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path

from perfbench import layertrace
from perfbench.measure import (
    Block,
    CheckFailed,
    OpClock,
    Report,
    latency_info,
    own_peak_rss_mb,
    process_peak_rss_mb,
)

SETUPS = 5
WARMUP_WRITES = 20
#: Writes per ``run_script`` call (about 2 s); the traced run alternates
#: traced and untraced batches.
BATCH = 160
#: Peak memory is read once this many writes are measured: the replicas'
#: heaps grow with every write, so a reading at the end of the window would
#: depend on how fast the machine ran.
RSS_AT_WRITES = 1600
HOOK_DIR = Path(__file__).resolve().parent / "workerhook"


def spec(seed: int, data_dir: Path):
    from repro import DeploymentSpec

    return DeploymentSpec(
        transport="process",
        variant="fastpath",
        store="file",
        fsync="always",
        workers=2,
        pipeline=2,
        seed=seed,
        data_dir=str(data_dir),
    )


class SpawnTimer:
    """Times ``ProcessCluster.start`` (worker spawn) inside each set-up."""

    def __init__(self) -> None:
        from repro import ProcessCluster

        self.times: list[float] = []
        original = ProcessCluster.start
        times = self.times

        def start(cluster):
            started = time.perf_counter()
            try:
                return original(cluster)
            finally:
                times.append(time.perf_counter() - started)

        ProcessCluster.start = start


class Writes:
    """Seeded unique values and batched closed-loop writes."""

    def __init__(self, deployment, seed: int, clock: OpClock) -> None:
        self.deployment = deployment
        self.clock = clock
        self.rng = random.Random(f"proc-durable-writes-{seed}")
        self.seed = seed
        self.count = 0
        self.peak_rss_mb = 0.0

    def script(self, size: int) -> list:
        values = []
        for _ in range(size):
            values.append(("write", f"s{self.seed}-{self.count}-{self.rng.getrandbits(64):016x}"))
            self.count += 1
        return values

    def window(self, seconds: float) -> "tuple[list[Block], int]":
        """Batches until ``seconds`` pass; returns (one block per batch,
        writes that failed)."""
        from repro.errors import NetworkError, OperationFailedError

        started = time.perf_counter()
        blocks: list[Block] = []
        while not blocks or time.perf_counter() - started < seconds:
            first = len(self.clock.samples)
            batch_started = time.perf_counter()
            try:
                self.deployment.run_script(self.script(BATCH))
            except (OperationFailedError, NetworkError):
                return blocks, BATCH - (len(self.clock.samples) - first)
            samples = self.clock.samples[first:]
            blocks.append(Block(
                len(samples),
                time.perf_counter() - batch_started,
                [(s.end - s.start) * 1e3 for s in samples],
            ))
            if not self.peak_rss_mb and sum(b.ops for b in blocks) >= RSS_AT_WRITES:
                self.peak_rss_mb = self.rss_mb()
        return blocks, 0

    def rss_mb(self) -> float:
        """Peak memory of this process plus every worker's."""
        return own_peak_rss_mb() + sum(
            process_peak_rss_mb(worker.pid) for worker in self.deployment.cluster.workers
        )


def check_final(read_value, last_write, fingerprints: dict) -> None:
    """The read after the window returns the last write, and every replica's
    offline-recovered durable state agrees."""
    if read_value != last_write:
        raise CheckFailed(f"read {read_value!r} after the window, last write was {last_write!r}")
    if len(set(fingerprints.values())) != 1:
        raise CheckFailed(f"recovered replica states differ: {fingerprints}")


def run(seed: int, seconds: float, trace: bool, outdir: Path) -> Report:
    from repro import deploy

    report = Report()
    workdir = outdir / "work-proc-durable-writes"
    shutil.rmtree(workdir, ignore_errors=True)
    clock = OpClock().install()
    spawns = SpawnTimer()
    saved_env = dict(os.environ)
    trace_dir = outdir / "worker-traces"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK_DIR)] + ([saved_env["PYTHONPATH"]] if saved_env.get("PYTHONPATH") else [])
        )
        os.environ[layertrace.TRACE_DIR_ENV] = str(trace_dir)
        os.environ[layertrace.ROOT_ENV] = str(HOOK_DIR.parent.parent)
    setup_times = []
    deployment = None
    try:
        for index in range(SETUPS):
            data_dir = workdir / f"cluster-{index}"
            started = time.perf_counter()
            deployment = deploy(spec(seed, data_dir))
            setup_times.append(time.perf_counter() - started)
            if index < SETUPS - 1:
                deployment.close()
                deployment = None
                shutil.rmtree(data_dir)
        os.environ.clear()
        os.environ.update(saved_env)
        writes = Writes(deployment, seed, clock)
        deployment.run_script(writes.script(WARMUP_WRITES))
        if trace:
            traced_window(report, deployment, writes, seconds, trace_dir, outdir, {
                "cluster.spawn_s": statistics.median(spawns.times),
                "cluster.connect_s": statistics.median(
                    setup - spawn for setup, spawn in zip(setup_times, spawns.times)
                ),
            })
        else:
            blocks, failed = writes.window(seconds)
            ops = sum(b.ops for b in blocks)
            report.attempted = ops + failed
            report.failed = failed
            report.put("setup_s", statistics.median(setup_times), "s")
            report.put("ops_per_s", ops / sum(b.seconds for b in blocks), "ops/s")
            report.put("peak_rss_mb", writes.peak_rss_mb or writes.rss_mb(), "MB")
            latency_info(report, "write", [ms for b in blocks for ms in b.latencies_ms])
            report.notes.append(
                f"{len(blocks)} batches of {BATCH} writes; set-ups "
                f"{[round(t, 3) for t in setup_times]} s, of which worker spawn "
                f"{[round(t, 3) for t in spawns.times]} s"
            )
        deployment.write(f"s{seed}-flush-1")
        last = f"s{seed}-flush-2"
        deployment.write(last)
        value = deployment.read()
        # The flush committed with 2f+1 replies; let the fourth replica's
        # WRITE land before the fleet stops and is recovered offline.
        time.sleep(0.5)
        check_final(value, last, deployment.fingerprints())
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        if deployment is not None:
            deployment.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def traced_window(report, deployment, writes, seconds, trace_dir, outdir, setup) -> None:
    """Untraced and traced batches alternate; the workers trace with the
    generator, switched by request between batches.  ``setup`` holds the
    set-up splits (spawn and connect seconds)."""
    tracer = layertrace.install(layertrace.Tracer())
    workers = layertrace.WorkerTraces(
        trace_dir, [worker.pid for worker in deployment.cluster.workers]
    )
    answers = [workers.request(active=False)]
    plain: list[Block] = []
    traced: list[Block] = []
    samples = []
    failed = 0
    started = time.perf_counter()
    while not failed and (not traced or time.perf_counter() - started < seconds):
        blocks, failed = writes.window(0)
        plain += blocks
        if failed:
            break
        answers.append(workers.request(active=True))
        first = len(writes.clock.samples)
        tracer.active = True
        blocks, failed = writes.window(0)
        tracer.active = False
        traced += blocks
        samples += writes.clock.samples[first:]
        answers.append(workers.request(active=False))
    answers.append(workers.request(active=False, final=True))
    stats = tracer.snapshot()
    if all(answer is not None for answer in answers):
        # Inactive workers add nothing, so the last answer less the first
        # is exactly the traced batches' work.
        stats = layertrace.add(stats, layertrace.subtract(answers[-1], answers[0]))
        worker_note = f"{len(workers.pids)} workers traced themselves"
    else:
        worker_note = "workers did not answer: client-side layers only"
    ops = len(samples)
    running = sum(b.seconds for b in traced)
    report.attempted = sum(b.ops for b in plain) + ops + failed
    report.failed = failed
    report.metrics.update(layertrace.layer_metrics(stats, ops, {
        "core.phases_per_write": statistics.mean(s.phases for s in samples),
        "core.fast_path_rate": sum(s.fast_path for s in samples) / ops,
        **setup,
        "load.generator_late_p99_ms": 0.0,
        "load.slot_wait_p50_ms": 0.0,
        "trace.overhead_frac": (running / ops)
        / (sum(b.seconds for b in plain) / sum(b.ops for b in plain)) - 1,
        "trace.uncovered_ms_per_op": (running - tracer.top_level_s) * 1e3 / ops,
    }))
    written = tracer.write_spans(outdir / "spans-proc-durable-writes.jsonl")
    report.notes.append(
        f"{len(traced)} traced batches alternating with {len(plain)} untraced; "
        f"{worker_note}; {written} generator spans written"
    )
