"""sim-writes: the whole sans-I/O stack on one core, in the simulator.

f=1, ``base`` variant, HMAC signatures, memory stores, instrumentation off,
links with a fixed 5 ms delay and no loss.  Eight closed-loop virtual
clients write the one register back to back, in rounds of 25 writes each;
a round ends when every client is done, so each round's history is checked
on its own and the round's in-flight replies drain before the next starts.
Storage, sockets, MACs and ``obs`` are off this path.
"""

from __future__ import annotations

import random
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
)

WRITERS = 8
WRITES_PER_ROUND = 25
LINK_DELAY_S = 0.005
#: Set-ups after each measured round (outside its timing); ``setup_s`` is
#: the median of all of them.  Set-up time on a shared 2-CPU VM wanders
#: within a second by up to 2x, so set-ups spread through the run give a median that holds
#: from run to run, where a burst of them at one moment does not.
SETUPS_PER_ROUND = 5
#: Peak memory is read once this many writes are measured: the cluster's
#: heap grows with every write, so a reading at the end of the window would
#: depend on how fast the machine ran.
RSS_AT_WRITES = 4000
VARIANT = "base"


def build(seed: int):
    from repro import LinkProfile, build_cluster

    cluster = build_cluster(
        f=1,
        variant=VARIANT,
        scheme="hmac",
        seed=seed,
        profile=LinkProfile(min_delay=LINK_DELAY_S, max_delay=LINK_DELAY_S),
    )
    for index in range(WRITERS):
        cluster.add_client(f"w{index}")
    return cluster


class Rounds:
    """Runs seeded rounds of closed-loop writes and checks each round."""

    def __init__(self, cluster, seed: int, clock: OpClock) -> None:
        from repro.analysis.costs import CostModel

        self.cluster = cluster
        self.clock = clock
        self.peak_rss_mb = 0.0
        self.rng = random.Random(f"sim-writes-{seed}")
        self.model = CostModel(cluster.config.quorums)
        self.rounds = 0
        self.measured = 0

    def run_round(self, writes_each: int = WRITES_PER_ROUND) -> "tuple[int, float]":
        """One round; returns (writes, wall seconds the round's run took)."""
        from repro import History, check_register_linearizable, value_for

        cluster = self.cluster
        cluster.recorder.history = History()
        scripts = {
            f"w{index}": [
                ("write", value_for(
                    f"client:w{index}",
                    self.rounds * writes_each + seq,
                    self.rng.getrandbits(128).to_bytes(16, "big").hex(),
                ))
                for seq in range(writes_each)
            ]
            for index in range(WRITERS)
        }
        started = time.perf_counter()
        cluster.run_scripts(scripts)
        elapsed = time.perf_counter() - started
        cluster.settle(0.1)
        self.rounds += 1
        verdict = check_register_linearizable(cluster.history)
        if not verdict.ok:
            raise CheckFailed(f"round {self.rounds} not linearizable: {verdict.violation}")
        return WRITERS * writes_each, elapsed

    def measured_round(self) -> Block:
        """One timed round; checks its closed-form counts."""
        stats = self.cluster.network.stats
        scheme = self.cluster.config.scheme.stats
        sent_before = stats.messages_sent
        signs_before = scheme.signs
        first = len(self.clock.samples)
        writes, elapsed = self.run_round()
        samples = self.clock.samples[first:]
        if len(samples) != writes:
            raise CheckFailed(f"timed {len(samples)} of {writes} writes")
        check_counts(
            writes,
            messages=stats.messages_sent - sent_before,
            signatures=scheme.signs - signs_before,
            model=self.model,
        )
        self.measured += writes
        if not self.peak_rss_mb and self.measured >= RSS_AT_WRITES:
            self.peak_rss_mb = own_peak_rss_mb()
        return Block(writes, elapsed, [(s.end - s.start) * 1e3 for s in samples])

    def final_read(self) -> None:
        """After the window, a read must linearize with the last round."""
        from repro import check_register_linearizable

        reader = self.cluster.clients.get("client:reader") or self.cluster.add_client("reader")
        reader.run_script([("read", None)])
        self.cluster.run()
        verdict = check_register_linearizable(self.cluster.history)
        written = {
            op.arg for op in self.cluster.history.operations() if op.op == "write"
        }
        value = reader.results[-1][1]
        if not verdict.ok or value not in written:
            raise CheckFailed(
                f"read after the window returned {value!r}: {verdict.violation}"
            )


def check_counts(ops: int, *, messages: int, signatures: int, model) -> None:
    """Messages and signatures per write must equal the §3.3 closed forms."""
    want_messages = ops * model.write_messages(VARIANT)
    want_signatures = ops * model.write_signature_ops(VARIANT)
    if messages != want_messages or signatures != want_signatures:
        raise CheckFailed(
            f"{ops} writes sent {messages} messages (model {want_messages}) "
            f"and made {signatures} signatures (model {want_signatures})"
        )


def program_counters(cluster) -> dict[str, int]:
    """The counters the program keeps itself, for cross-checking wrappers."""
    from repro.encoding import encode_stats

    scheme = cluster.config.scheme.stats
    verifier = cluster.config.verifier.stats
    net = cluster.network.stats
    replicas = cluster.replicas.values()
    return {
        "encoding.encode": encode_stats().calls,
        "crypto.sign": scheme.signs + scheme.sign_failures,
        "crypto.verify": scheme.verifies,
        "verifier.backend": verifier.backend_verifies,
        "core.verifier.lookup": verifier.signature_checks,
        "sim.send": net.messages_sent,
        "sim.bytes": net.bytes_sent,
        "sim.delivered": net.messages_delivered,
        "sim.step": cluster.scheduler.events_processed,
        "storage.append": sum(r.store.stats.appends for r in replicas),
        "core.replica.discard": sum(r.stats.total_discards for r in replicas),
    }


def check_wrappers(stats: dict[str, list], program: dict[str, int]) -> None:
    """Every wrapper count must equal the program's own counter."""
    calls = {key: entry[layertrace.CALLS] for key, entry in stats.items()}
    observed = {
        "encoding.encode": calls["encoding.encode"],
        "crypto.sign": calls["crypto.sign"],
        "crypto.verify": calls["crypto.verify"],
        "verifier.backend": calls["crypto.verify"],
        "core.verifier.lookup": calls["core.verifier.lookup"]
        + stats["core.verifier.batch"][layertrace.SIZE],
        "sim.send": calls["sim.send"],
        "sim.bytes": stats["sim.record_send"][layertrace.SIZE],
        "sim.delivered": calls["core.replica.handle"] + calls["core.client.deliver"],
        "sim.step": calls["sim.step"],
        "storage.append": calls["storage.append"],
        "core.replica.discard": calls["core.replica.discard"],
    }
    wrong = {
        key: (observed[key], program[key])
        for key in program
        if observed[key] != program[key]
    }
    if wrong:
        raise CheckFailed(f"wrapper counts differ from program counters: {wrong}")


def run(seed: int, seconds: float, trace: bool, outdir: Path) -> Report:
    report = Report()
    clock = OpClock().install()
    setup_times = []

    def set_up():
        started = time.perf_counter()
        cluster = build(seed)
        setup_times.append(time.perf_counter() - started)
        return cluster

    cluster = set_up()
    rounds = Rounds(cluster, seed, clock)
    rounds.run_round(writes_each=5)  # warm-up, outside every measurement

    if not trace:
        window: list[Block] = []
        started = time.perf_counter()
        while not window or time.perf_counter() - started < seconds:
            window.append(rounds.measured_round())
            for _ in range(SETUPS_PER_ROUND):
                set_up()
        rounds.final_read()
        ops = sum(r.ops for r in window)
        running = sum(r.seconds for r in window)
        report.attempted = ops
        report.put("setup_s", statistics.median(setup_times), "s")
        report.put("ops_per_s", ops / running, "ops/s")
        report.put("peak_rss_mb", rounds.peak_rss_mb or own_peak_rss_mb(), "MB")
        latency_info(report, "write", [ms for r in window for ms in r.latencies_ms])
        report.notes.append(
            f"{len(window)} rounds of {WRITERS}x{WRITES_PER_ROUND} writes in "
            f"{running:.2f} s; median of {len(setup_times)} set-ups; write latency is "
            f"wall time with eight clients sharing one core"
        )
        return report

    # Traced run: untraced and traced rounds alternate, so the tracing
    # overhead is not confounded with anything that drifts through a run.
    tracer = layertrace.install(layertrace.Tracer())
    plain: list[Block] = []
    traced: list[Block] = []
    writes = []
    program = dict.fromkeys(program_counters(cluster), 0)
    wall = 0.0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(rounds.measured_round())
        before = program_counters(cluster)
        first = len(clock.samples)
        tracer.active = True
        round_started = time.perf_counter()
        traced.append(rounds.measured_round())
        wall += time.perf_counter() - round_started
        tracer.active = False
        writes += clock.samples[first:]
        for key, value in program_counters(cluster).items():
            program[key] += value - before[key]
    check_wrappers(tracer.snapshot(), program)
    ops = sum(r.ops for r in traced)
    ops_plain = sum(r.ops for r in plain)
    report.attempted = ops_plain + ops
    report.metrics.update(layertrace.layer_metrics(tracer.snapshot(), ops, {
        "core.phases_per_write": statistics.mean(s.phases for s in writes),
        "core.fast_path_rate": sum(s.fast_path for s in writes) / len(writes),
        "cluster.spawn_s": 0.0,
        "cluster.connect_s": 0.0,
        "load.generator_late_p99_ms": 0.0,
        "load.slot_wait_p50_ms": 0.0,
        "trace.overhead_frac": (sum(r.seconds for r in traced) / ops)
        / (sum(r.seconds for r in plain) / ops_plain) - 1,
        "trace.uncovered_ms_per_op": (wall - tracer.top_level_s) * 1e3 / ops,
    }))
    written = tracer.write_spans(outdir / "spans-sim-writes.jsonl")
    rounds.final_read()
    report.notes.append(
        f"{len(traced)} traced rounds alternating with {len(plain)} untraced; "
        f"wrapper counts equal the program's counters; {written} spans written "
        f"to {outdir.name}/spans-sim-writes.jsonl"
    )
    return report
