"""The benchmark's own tests: tiny runs print every metric, gates reject
planted wrong results.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import layertrace, proc_durable_writes, run, sim_writes, tcp_read_mostly  # noqa: E402
from perfbench.measure import CheckFailed, percentile, supported_tails  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["attempted"] >= 1 and final["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in final["metrics"].items()
    }
    for metric in declared:
        assert any(line.strip().startswith(f"{metric['name']} = ") and
                   line.strip().endswith(metric["unit"]) for line in lines[:-1])
    if not trace:
        assert all(metric["value"] > 0 for metric in final["metrics"].values())
        printed = {line.split(" = ")[0].strip() for line in lines if " = " in line}
        kinds = ["read", "write"] if workload == "tcp-read-mostly" else ["write"]
        assert {"failed_frac"} | {f"{kind}_p50_ms" for kind in kinds} <= printed


def test_sim_traced_counts_match_the_closed_forms() -> None:
    final = json.loads(_run("sim-writes", 1).stdout.strip().splitlines()[-1])["metrics"]
    assert final["sim.messages_per_op"]["value"] == 24
    assert final["crypto.sign_calls_per_op"]["value"] == 14
    assert final["core.phases_per_write"]["value"] == 3


def test_missing_program_exits_nonzero_without_result(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    result = _run("sim-writes", 0, cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_failed_gate_prints_no_result(monkeypatch, capsys) -> None:
    def planted(*args):
        raise CheckFailed("planted")

    monkeypatch.setattr(sim_writes, "run", planted)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "sim-writes", "--seed", "1", "--seconds", "1"]) == 1
    assert '"correct"' not in capsys.readouterr().out


def test_sim_gate_rejects_one_message_too_many() -> None:
    from repro import QuorumSystem
    from repro.analysis.costs import CostModel

    model = CostModel(QuorumSystem.bft_bc(1))
    sim_writes.check_counts(10, messages=240, signatures=140, model=model)
    with pytest.raises(CheckFailed):
        sim_writes.check_counts(10, messages=241, signatures=140, model=model)
    with pytest.raises(CheckFailed):
        sim_writes.check_counts(10, messages=240, signatures=139, model=model)


def test_sim_gate_rejects_a_wrapper_count_off_by_one() -> None:
    stats = {key: [0, 0.0, 0.0, 0] for key in layertrace.KEYS}
    stats["encoding.encode"][layertrace.CALLS] = 23
    program = {"encoding.encode": 23}
    sim_writes.check_wrappers(stats, program)
    with pytest.raises(CheckFailed):
        sim_writes.check_wrappers(stats, {"encoding.encode": 24})


def _op(kind, issued, end, value=None, result=None):
    return tcp_read_mostly.Op(kind=kind, due=issued, issued=issued, end=end,
                              value=value, result=result)


def test_tcp_gate_rejects_a_stale_read() -> None:
    from repro import Timestamp

    first = _op("write", 0.0, 1.0, "a", Timestamp(1, "client:load0"))
    second = _op("write", 2.0, 3.0, "b", Timestamp(2, "client:load1"))
    fresh = _op("read", 4.0, 5.0, result="b")
    concurrent = _op("read", 2.5, 3.5, result="a")
    tcp_read_mostly.check_reads([first, second, fresh, concurrent])
    with pytest.raises(CheckFailed, match="stale"):
        tcp_read_mostly.check_reads([first, second, _op("read", 4.0, 5.0, result="a")])
    with pytest.raises(CheckFailed, match="no write"):
        tcp_read_mostly.check_reads([first, _op("read", 4.0, 5.0, result="zzz")])


def test_proc_gate_rejects_a_lost_write_or_diverged_replica() -> None:
    agree = {"replica:0": b"x", "replica:1": b"x"}
    proc_durable_writes.check_final("v2", "v2", agree)
    with pytest.raises(CheckFailed):
        proc_durable_writes.check_final("v1", "v2", agree)
    with pytest.raises(CheckFailed):
        proc_durable_writes.check_final("v2", "v2", {**agree, "replica:2": b"y"})


def test_percentiles_are_exact_and_tail_needs_ten_samples_beyond() -> None:
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.5
    assert percentile(values, 99) == pytest.approx(99.01)
    assert supported_tails(1000) == [90.0, 95.0, 99.0]
    assert supported_tails(999) == [90.0, 95.0]
    assert supported_tails(10_000) == [90.0, 95.0, 99.0, 99.9]


def test_declared_per_layer_metrics_are_the_traced_ones() -> None:
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layertrace.LAYER_METRICS)
