"""Per-layer tracing from outside the program.

:func:`install` wraps the calls into each ``repro`` layer's entry points —
functions are re-bound in every module that imported them by name, methods
are replaced on their class — so the program itself is unchanged.  Each
wrapper records a span (name, start, end, parent span, op id) and adds to
per-name aggregates: calls, self time (duration minus the time child spans
cover), total time and a size (bytes, or signatures for a batch).

Wrappers are pass-throughs until :attr:`Tracer.active` is set, and a call
that re-enters the name already at the top of the span stack is not counted
again.  The tracer keeps one span stack, which assumes the wrapped code runs
on one thread at a time; that holds for every workload here (a simulator
loop, an asyncio loop, or a caller blocked on the loop thread).

Process-cluster workers trace themselves: ``workerhook/sitecustomize.py``
calls :func:`start_worker` when the worker starts, and the worker answers
:class:`WorkerTraces` requests by writing its aggregates to a file, because
the cluster stops workers with SIGTERM and ``serve`` installs no handler
that could flush them at exit.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

#: Every aggregate key a wrapper may write (pre-created, so a reader on
#: another thread never sees the dict change size).
KEYS = (
    "encoding.encode",
    "encoding.decode",
    "encoding.intern",
    "crypto.sign",
    "crypto.verify",
    "crypto.mac",
    "crypto.hash",
    "core.replica.handle",
    "core.replica.prevalidate",
    "core.replica.discard",
    "core.client.begin",
    "core.client.deliver",
    "core.client.retransmit",
    "core.messages.from_wire",
    "core.messages.wire_bytes",
    "core.verifier.lookup",
    "core.verifier.batch",
    "storage.append",
    "storage.snapshot",
    "storage.sync",
    "storage.fsync",
    "storage.frame",
    "sim.step",
    "sim.send",
    "sim.deliver",
    "sim.record_send",
    "net.frame",
    "net.feed",
    "net.envelope",
    "obs.hook",
)

CALLS, SELF, TOTAL, SIZE = range(4)

#: Spans kept in memory (and written out) per tracer; aggregates count all.
MAX_SPANS = 50_000

# Span frame slots: name, start, end, parent span index, op id, time
# covered by children, own index in Tracer.spans (-1 when not kept).
_NAME, _START, _END, _PARENT, _OP, _CHILD, _INDEX = range(7)


def _arg_len(position: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[position])


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


class Tracer:
    """Span stack, per-name aggregates and a bounded in-memory span list."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []
        self.stats: dict[str, list] = {key: [0, 0.0, 0.0, 0] for key in KEYS}
        self.spans: list[list] = []
        #: Wall time covered by spans with no parent.
        self.top_level_s = 0.0
        #: Current op id of each client node id.
        self.ops: dict[str, str] = {}
        self._op_counts: dict[str, int] = {}

    # -- op ids -------------------------------------------------------------

    def new_op(self, client_id: str) -> str:
        number = self._op_counts.get(client_id, 0) + 1
        self._op_counts[client_id] = number
        op = f"{client_id}#{number}"
        self.ops[client_id] = op
        return op

    def snapshot(self) -> dict[str, list]:
        return {key: list(entry) for key, entry in self.stats.items()}

    # -- wrappers -------------------------------------------------------------

    def span(
        self,
        fn: Callable,
        key: str,
        size: Optional[Callable[[tuple, Any], int]] = None,
        op_of: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``key``."""
        tracer = self
        stack = self.stack
        spans = self.spans
        entry = self.stats[key]
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (stack and stack[-1][_NAME] == key):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if op_of is not None:
                op = op_of(args)
            else:
                op = parent[_OP] if parent is not None else None
            frame = [key, 0.0, 0.0, -1 if parent is None else parent[_INDEX], op, 0.0, -1]
            if len(spans) < MAX_SPANS:
                frame[_INDEX] = len(spans)
                spans.append(frame)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                frame[_START] = start
                frame[_END] = end
                duration = end - start
                entry[CALLS] += 1
                entry[SELF] += duration - frame[_CHILD]
                entry[TOTAL] += duration
                if parent is None:
                    tracer.top_level_s += duration
                else:
                    parent[_CHILD] += duration
                    if parent[_OP] is None:
                        parent[_OP] = frame[_OP]
            if size is not None:
                entry[SIZE] += size(args, result)
            return result

        return traced

    def count(
        self, fn: Callable, key: str, size: Optional[Callable[[tuple, Any], int]] = None
    ) -> Callable:
        """Wrap ``fn`` so each call is counted (no span; for async or tiny calls)."""
        tracer = self
        entry = self.stats[key]

        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                entry[CALLS] += 1
                if size is not None:
                    entry[SIZE] += size(args, None)
            return fn(*args, **kwargs)

        return counted

    def generator(self, fn: Callable, key: str) -> Callable:
        """Wrap a generator function: each step that yields is one span.

        The work of a generator happens while it is iterated, not when it
        is called, so the span covers each ``next``; laziness is kept.
        """
        tracer = self
        entry = self.stats[key]
        clock = time.perf_counter
        stack = self.stack

        def steps(iterator: Iterator) -> Iterator:
            while True:
                parent = stack[-1] if stack else None
                frame = [key, 0.0, 0.0, -1 if parent is None else parent[_INDEX],
                         None if parent is None else parent[_OP], 0.0, -1]
                stack.append(frame)
                start = clock()
                finished = True
                try:
                    item = next(iterator)
                    finished = False
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    entry[SELF] += duration - frame[_CHILD]
                    entry[TOTAL] += duration
                    if parent is None:
                        tracer.top_level_s += duration
                    else:
                        parent[_CHILD] += duration
                    if not finished:
                        entry[CALLS] += 1
                        entry[SIZE] += len(item)
                        if len(tracer.spans) < MAX_SPANS:
                            frame[_START], frame[_END] = start, end
                            frame[_INDEX] = len(tracer.spans)
                            tracer.spans.append(frame)
                yield item

        def traced(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            if not tracer.active:
                return iterator
            return steps(iterator)

        return traced

    # -- patching -------------------------------------------------------------

    def patch_bindings(
        self,
        original: Callable,
        wrapper: Callable,
        where: Callable[[str], bool] = lambda module: True,
    ) -> None:
        """Re-bind ``original`` to ``wrapper`` in every loaded ``repro`` module.

        Callers such as ``repro.net.simnet`` import functions by name, so
        patching the defining module alone would miss them.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if not where(name):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; spans with no op id inherit
        their parent's (parents are recorded before their children)."""
        spans = self.spans
        for frame in spans:
            if frame[_OP] is None and frame[_PARENT] >= 0:
                frame[_OP] = spans[frame[_PARENT]][_OP]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for frame in spans:
                out.write(json.dumps({
                    "id": frame[_INDEX],
                    "name": frame[_NAME],
                    "start": frame[_START],
                    "end": frame[_END],
                    "parent": None if frame[_PARENT] < 0 else frame[_PARENT],
                    "op": frame[_OP],
                }) + "\n")
        return len(spans)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point the per-layer metrics are taken from."""
    import repro  # noqa: F401  (loads every subpackage, so all bindings exist)
    import repro.core.client as client_mod
    import repro.core.messages as messages
    import repro.core.replica as replica_mod
    import repro.core.verification as verification
    import repro.crypto.authenticators as authenticators
    import repro.crypto.hashing as hashing
    import repro.crypto.signatures as signatures
    import repro.encoding.canonical as canonical
    import repro.encoding.codec as codec
    import repro.encoding.interning as interning
    import repro.net.asyncio_transport as transport
    import repro.net.simnet as simnet
    import repro.obs.instrumentation as instrumentation
    import repro.sim.scheduler as scheduler
    import repro.storage.base as storage_base
    import repro.storage.filelog as filelog

    functions = [
        (canonical.canonical_encode, "encoding.encode", None),
        (canonical.canonical_decode, "encoding.decode", _arg_len(0)),
        (interning.intern_encode, "encoding.intern", None),
        (hashing.digest_bytes, "crypto.hash", None),
        (hashing.digest, "crypto.hash", None),
        (hashing.hash_value, "crypto.hash", None),
        (messages.message_from_wire, "core.messages.from_wire", None),
        (messages.message_wire_bytes, "core.messages.wire_bytes", None),
        (transport._encode_envelope, "net.envelope", None),
        (transport._decode_envelope, "net.envelope", None),
        (transport._decode_envelope_dst, "net.envelope", None),
    ]
    for original, key, size in functions:
        tracer.patch_bindings(original, tracer.span(original, key, size))
    # Framing belongs to the layer that frames: the transport's frames are
    # network bytes, the file store's are the bytes it journals.
    tracer.patch_bindings(
        codec.encode_frame,
        tracer.span(codec.encode_frame, "net.frame", _result_len),
        where=lambda module: module.startswith("repro.net."),
    )
    tracer.patch_bindings(
        codec.encode_frame,
        tracer.span(codec.encode_frame, "storage.frame", _result_len),
        where=lambda module: module == "repro.storage.filelog",
    )

    def client_op(args: tuple) -> Optional[str]:
        return tracer.ops.get(args[0].node_id)

    def begin_op(args: tuple) -> str:
        return tracer.new_op(args[0].node_id)

    def sender_op(args: tuple) -> Optional[str]:
        return tracer.ops.get(args[1], args[1])

    def method(owner: Any, attr: str, key: str, **kwargs: Any) -> None:
        setattr(owner, attr, tracer.span(owner.__dict__[attr], key, **kwargs))

    def counted(owner: Any, attr: str, key: str, size: Any = None) -> None:
        setattr(owner, attr, tracer.count(owner.__dict__[attr], key, size))

    method(signatures.SignatureScheme, "sign", "crypto.sign")
    method(signatures.SignatureScheme, "verify", "crypto.verify")
    method(authenticators.MacAuthenticator, "mac", "crypto.mac")
    method(authenticators.MacAuthenticator, "check", "crypto.mac")

    replica_cls = replica_mod.BftBcReplica
    method(replica_cls, "handle", "core.replica.handle", op_of=sender_op)
    method(replica_cls, "prevalidate", "core.replica.prevalidate")
    counted(replica_mod.ReplicaStats, "discard", "core.replica.discard")
    client_cls = client_mod.BftBcClient
    method(client_cls, "begin_write", "core.client.begin", op_of=begin_op)
    method(client_cls, "begin_read", "core.client.begin", op_of=begin_op)
    method(client_cls, "deliver", "core.client.deliver", op_of=client_op)
    method(client_cls, "retransmit", "core.client.retransmit", op_of=client_op)
    counted(verification.Verifier, "verify", "core.verifier.lookup")
    counted(verification.Verifier, "verify_batch", "core.verifier.batch", _arg_len(1))

    for store_cls in (filelog.FileLogStore, storage_base.MemoryStore):
        method(store_cls, "append", "storage.append")
        method(store_cls, "write_snapshot", "storage.snapshot")
    method(filelog.FileLogStore, "sync", "storage.sync")
    os.fsync = tracer.span(os.fsync, "storage.fsync")

    method(scheduler.Scheduler, "step", "sim.step")
    method(simnet.SimNetwork, "send", "sim.send")
    method(simnet.SimNetwork, "_deliver", "sim.deliver")
    counted(simnet.NetworkStats, "record_send", "sim.record_send",
            lambda args, result: args[2])

    codec.FrameDecoder.feed = tracer.generator(codec.FrameDecoder.__dict__["feed"], "net.feed")

    instr_cls = instrumentation.Instrumentation
    for attr in ("op_span", "phase_span", "handler_span", "event", "observe",
                 "_finish_span"):
        method(instr_cls, attr, "obs.hook")
    for attr in ("verify_statement", "certificate_valid"):
        method(instrumentation._TimedVerifier, attr, "obs.hook")
    for attr in ("append", "load", "write_snapshot", "sync"):
        method(instrumentation._TimedStore, attr, "obs.hook")
    return tracer


# -- per-layer metrics --------------------------------------------------------

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "encoding.encode_calls_per_op": "calls/op",
    "encoding.decode_calls_per_op": "calls/op",
    "encoding.decode_bytes_per_op": "bytes/op",
    "encoding.self_ms_per_op": "ms/op",
    "crypto.sign_calls_per_op": "calls/op",
    "crypto.verify_calls_per_op": "calls/op",
    "crypto.mac_calls_per_op": "calls/op",
    "crypto.hash_calls_per_op": "calls/op",
    "crypto.self_ms_per_op": "ms/op",
    "core.replica_handle_calls_per_op": "calls/op",
    "core.replica_self_ms_per_op": "ms/op",
    "core.client_self_ms_per_op": "ms/op",
    "core.messages_self_ms_per_op": "ms/op",
    "core.verify_memo_hit_rate": "fraction",
    "core.phases_per_write": "phases/write",
    "core.fast_path_rate": "fraction",
    "core.retransmits_per_op": "calls/op",
    "core.discards_per_op": "count/op",
    "storage.appends_per_op": "calls/op",
    "storage.bytes_per_op": "bytes/op",
    "storage.fsyncs_per_op": "calls/op",
    "storage.append_ms_per_op": "ms/op",
    "storage.snapshot_ms_per_op": "ms/op",
    "sim.events_per_op": "events/op",
    "sim.messages_per_op": "msgs/op",
    "sim.bytes_per_op": "bytes/op",
    "sim.self_ms_per_op": "ms/op",
    "net.frames_per_op": "frames/op",
    "net.bytes_per_op": "bytes/op",
    "net.self_ms_per_op": "ms/op",
    "obs.hook_calls_per_op": "calls/op",
    "obs.self_ms_per_op": "ms/op",
    "cluster.spawn_s": "s",
    "cluster.connect_s": "s",
    "load.generator_late_p99_ms": "ms",
    "load.slot_wait_p50_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_ms_per_op": "ms/op",
}


def subtract(after: dict[str, list], before: dict[str, list]) -> dict[str, list]:
    return {
        key: [a - b for a, b in zip(after[key], before[key])] for key in after
    }


def add(left: dict[str, list], right: dict[str, list]) -> dict[str, list]:
    return {
        key: [a + b for a, b in zip(left[key], right.get(key, [0, 0.0, 0.0, 0]))]
        for key in left
    }


def layer_metrics(
    stats: dict[str, list], ops: int, extras: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from window aggregates over ``ops`` completed ops.

    ``extras`` supplies what the wrappers cannot see: phases and fast-path
    share from the op clock, set-up splits, generator lateness and the
    tracing overhead.
    """

    def calls(key: str) -> float:
        return stats[key][CALLS] / ops

    def size(key: str) -> float:
        return stats[key][SIZE] / ops

    def self_ms(prefix: str) -> float:
        return sum(v[SELF] for k, v in stats.items() if k.startswith(prefix)) * 1e3 / ops

    def total_ms(key: str) -> float:
        return stats[key][TOTAL] * 1e3 / ops

    lookups = stats["core.verifier.lookup"][CALLS] + stats["core.verifier.batch"][SIZE]
    backend = stats["crypto.verify"][CALLS]
    values = {
        "encoding.encode_calls_per_op": calls("encoding.encode"),
        "encoding.decode_calls_per_op": calls("encoding.decode"),
        "encoding.decode_bytes_per_op": size("encoding.decode"),
        "encoding.self_ms_per_op": self_ms("encoding."),
        "crypto.sign_calls_per_op": calls("crypto.sign"),
        "crypto.verify_calls_per_op": calls("crypto.verify"),
        "crypto.mac_calls_per_op": calls("crypto.mac"),
        "crypto.hash_calls_per_op": calls("crypto.hash"),
        "crypto.self_ms_per_op": self_ms("crypto."),
        "core.replica_handle_calls_per_op": calls("core.replica.handle"),
        "core.replica_self_ms_per_op": self_ms("core.replica."),
        "core.client_self_ms_per_op": self_ms("core.client."),
        "core.messages_self_ms_per_op": self_ms("core.messages."),
        "core.verify_memo_hit_rate": (lookups - backend) / lookups if lookups else 0.0,
        "core.retransmits_per_op": calls("core.client.retransmit"),
        "core.discards_per_op": calls("core.replica.discard"),
        "storage.appends_per_op": calls("storage.append"),
        "storage.bytes_per_op": size("storage.frame"),
        "storage.fsyncs_per_op": calls("storage.fsync"),
        "storage.append_ms_per_op": total_ms("storage.append"),
        "storage.snapshot_ms_per_op": total_ms("storage.snapshot"),
        "sim.events_per_op": calls("sim.step"),
        "sim.messages_per_op": calls("sim.send"),
        "sim.bytes_per_op": size("sim.record_send"),
        "sim.self_ms_per_op": self_ms("sim."),
        "net.frames_per_op": calls("net.frame"),
        "net.bytes_per_op": size("net.frame"),
        "net.self_ms_per_op": self_ms("net."),
        "obs.hook_calls_per_op": calls("obs.hook"),
        "obs.self_ms_per_op": self_ms("obs."),
    }
    values.update(extras)
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS.items()}


# -- process-cluster workers ----------------------------------------------------

#: Environment variables the benchmark sets for traced workers.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ROOT_ENV = "PERFBENCH_ROOT"
_POLL_S = 0.02
#: Seconds the benchmark waits for every worker to answer a request.
REQUEST_TIMEOUT_S = 10.0


def start_worker(directory: str) -> Tracer:
    """Trace this worker process; answer requests from :class:`WorkerTraces`."""
    tracer = install(Tracer())
    thread = threading.Thread(
        target=_answer_requests, args=(tracer, Path(directory)),
        name="perfbench-trace", daemon=True,
    )
    thread.start()
    return tracer


def _answer_requests(tracer: Tracer, directory: Path) -> None:
    handled = 0
    request_path = directory / "request.json"
    pid = os.getpid()
    while True:
        time.sleep(_POLL_S)
        try:
            request = json.loads(request_path.read_text())
        except (OSError, ValueError):
            continue
        if request["seq"] <= handled:
            continue
        tracer.active = request["active"]
        if request["final"]:
            tracer.write_spans(directory / f"spans-worker-{pid}.jsonl")
        _write_json(directory / f"agg-{pid}.json",
                    {"seq": request["seq"], "stats": tracer.snapshot()})
        handled = request["seq"]


def _write_json(path: Path, payload: Any) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


class WorkerTraces:
    """The benchmark's side of the worker request/answer files."""

    def __init__(self, directory: Path, pids: "list[int]") -> None:
        self.directory = directory
        self.pids = list(pids)
        self.seq = 0

    def request(self, *, active: bool, final: bool = False) -> Optional[dict[str, list]]:
        """Switch every worker's tracer and collect the summed aggregates.

        Returns None if some worker did not answer within ``REQUEST_TIMEOUT_S``.
        """
        self.seq += 1
        _write_json(self.directory / "request.json",
                    {"seq": self.seq, "active": active, "final": final})
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        answers: dict[int, dict] = {}
        while len(answers) < len(self.pids):
            if time.monotonic() > deadline:
                return None
            for pid in self.pids:
                if pid in answers:
                    continue
                try:
                    answer = json.loads((self.directory / f"agg-{pid}.json").read_text())
                except (OSError, ValueError):
                    continue
                if answer["seq"] == self.seq:
                    answers[pid] = answer["stats"]
            time.sleep(_POLL_S)
        total = {key: [0, 0.0, 0.0, 0] for key in KEYS}
        for stats in answers.values():
            total = add(total, stats)
        return total
