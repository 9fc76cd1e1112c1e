"""Measurement helpers shared by the three workloads.

Latencies are kept as raw samples and summarised with exact quantiles
(linear interpolation between order statistics), never through
``repro.obs.LatencyHistogram``, whose factor-2 buckets would round every
quantile to a power of two.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable


class CheckFailed(Exception):
    """A workload's correctness gate rejected the program's output."""


def percentile(values: "list[float]", p: float) -> float:
    """Exact ``p``-th percentile (0..100) of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tails(count: int) -> "list[float]":
    """The tail percentiles (p90..p99.9) with at least ten samples beyond them."""
    return [p for p in (90.0, 95.0, 99.0, 99.9) if round(count * (100.0 - p) / 100.0, 6) >= 10]


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


@dataclass
class OpSample:
    kind: str
    start: float
    end: float
    phases: int
    fast_path: bool


class OpClock:
    """Wall-clock latency of every client operation, timed from outside.

    Wraps the sans-I/O client's public entry points on the class: an
    operation starts when ``begin_write``/``begin_read`` is called and ends
    when a ``deliver`` or ``retransmit`` call leaves the client idle.  The
    same classes run on the simulator, in-process TCP and the process
    cluster's generator, so one clock serves every transport.
    """

    def __init__(self) -> None:
        self.samples: list[OpSample] = []
        self._open: dict[str, tuple[str, float]] = {}

    def install(self) -> "OpClock":
        from repro.core.client import BftBcClient

        clock = time.perf_counter
        opened = self._open
        samples = self.samples

        def beginning(original: Callable, kind: str) -> Callable:
            def begin(client: Any, *args: Any) -> Any:
                started = clock()
                sends = original(client, *args)
                opened[client.node_id] = (kind, started)
                return sends

            return begin

        def finishing(original: Callable) -> Callable:
            def step(client: Any, *args: Any) -> Any:
                sends = original(client, *args)
                if not client.busy:
                    pending = opened.pop(client.node_id, None)
                    if pending is not None:
                        op = client.op
                        samples.append(
                            OpSample(
                                kind=pending[0],
                                start=pending[1],
                                end=clock(),
                                phases=op.phases,
                                fast_path=bool(getattr(op, "fast_path", False)),
                            )
                        )
                return sends

            return step

        for name, wrapper in (
            ("begin_write", beginning(BftBcClient.begin_write, "write")),
            ("begin_read", beginning(BftBcClient.begin_read, "read")),
            ("deliver", finishing(BftBcClient.deliver)),
            ("retransmit", finishing(BftBcClient.retransmit)),
        ):
            setattr(BftBcClient, name, wrapper)
        return self


@dataclass
class Block:
    """One round or batch of the window: ops completed, seconds, latencies."""

    ops: int
    seconds: float
    latencies_ms: list[float]


@dataclass
class Report:
    """One run's outcome, printed by ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit): the end-to-end or per-layer metrics, printed
    #: and carried in the JSON result.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit): printed only; not bounded.
    info: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the metrics.
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def latency_info(report: Report, kind: str, latencies_ms: "list[float]") -> None:
    """Exact p50 and every supported tail of one op kind, with the sample count."""
    report.info[f"{kind}_samples"] = (len(latencies_ms), "count")
    if not latencies_ms:
        return
    for p in [50.0] + supported_tails(len(latencies_ms)):
        report.info[f"{kind}_p{p:g}_ms"] = (percentile(latencies_ms, p), "ms")
