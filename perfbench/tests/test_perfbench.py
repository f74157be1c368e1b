"""Tests of the benchmark itself: workloads, checks, tracing arithmetic.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import (
    END_TO_END,
    MIN_SAMPLES,
    PER_LAYER,
    REFERENCE_PROBE_S,
    Measurement,
    determinism_problems,
    end_to_end,
    percentile,
    run,
)
from perfbench.tracing import SpanRecorder, instrument, layer_group, layer_times
from perfbench.workloads import WORKLOADS, Tally, make_workload

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_tiny_with_its_checks_passing(name, tmp_path):
    result = run(name, 3, 0, trace=False, out_dir=tmp_path, size="tiny", min_samples=1)
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    assert result.correct
    assert result.metrics["setup_s"][0] > 0
    assert result.metrics["ops_per_s"][0] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_whose_ops_raise_ends_and_is_not_correct(trace, tmp_path, monkeypatch):
    def broken(self, state, calls):
        raise RuntimeError("engine defect")

    monkeypatch.setattr(WORKLOADS["steady"], "execute", broken)
    result = run("steady", 3, 0.2, trace=trace, out_dir=tmp_path, size="tiny", min_samples=1)
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert any("raised RuntimeError: engine defect" in line for line in result.report)
    assert any("determinism: 0 complete episodes" in p for p in result.problems)


def test_traced_run_reports_every_layer_metric_and_writes_spans(tmp_path):
    result = run("phase_shift", 5, 0, trace=True, out_dir=tmp_path, size="tiny", min_samples=1)
    assert result.correct, result.problems
    assert list(result.metrics) == [name for name, _ in PER_LAYER]
    values = {name: value for name, (value, _) in result.metrics.items()}
    # phase_shift exists for the deopt paths: they must show up as layers.
    assert values["vm.backend.interp.run_from.ms"] > 0
    assert values["core.frames.transfer.calls"] > 0
    assert values["vm.runtime.builds"] > 0 and values["vm.runtime.multiframe_deopts"] > 0
    assert 0 < values["trace.uncovered_share"] < 1
    spans = (tmp_path / "spans-phase_shift-seed5.csv").read_text().splitlines()
    assert spans[0] == "span,name,start_us,end_us,parent,op"
    assert len(spans) > 100
    rows = json.loads((tmp_path / "layers-phase_shift-seed5.json").read_text())
    assert {row["span"] for row in rows} >= {"vm.runtime.call", "(uncovered)"}
    assert (tmp_path / "layers-phase_shift-seed5.csv").exists()

    # A second process-level run with the same seed repeats every count.
    again = run("phase_shift", 5, 0, trace=True, out_dir=tmp_path, size="tiny", min_samples=1)
    counts = [name for name, unit in PER_LAYER if unit == "count" and not name.endswith(".calls")]
    assert {n: values[n] for n in counts} == {n: again.metrics[n][0] for n in counts}


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10) > a [1, 5) > b [2, 3); root > c [6, 9); a second root d [10, 12).
    names = ["op", "a", "b", "c"]
    name_ids = [0, 1, 2, 3, 0]
    starts = [0.0, 1.0, 2.0, 6.0, 10.0]
    ends = [10.0, 5.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    times = layer_times(names, name_ids, starts, ends, parents)
    assert times["op"].calls == 2
    assert times["op"].self_s == pytest.approx(10 - 4 - 3 + 2)
    assert times["a"].self_s == pytest.approx(3.0)
    assert times["b"].self_s == pytest.approx(1.0)
    assert times["c"].self_s == pytest.approx(3.0)
    # The self times add up to the wall time of the roots.
    assert sum(t.self_s for t in times.values()) == pytest.approx(12.0)


def test_recorder_nests_spans_and_restores_the_wrapped_entry_points():
    from repro.engine import Engine

    original = vars(Engine)["call"]
    recorder = SpanRecorder()
    with instrument(recorder):
        assert vars(Engine)["call"] is not original
        engine = Engine.from_source("func f(n) { return n + 1; }")
        with recorder.span("op"):
            assert engine.call("f", [2]).value == 3
    assert vars(Engine)["call"] is original
    names = [recorder.names[i] for i in recorder.name_ids]
    assert names[:3] == ["engine.from_source", "frontend", "ssa.mem2reg"]
    op = names.index("op")
    assert names[op + 1] == "engine.call"
    assert recorder.parents[op + 1] == op
    assert recorder.parents[op + 2] == op + 1  # vm.runtime.call inside engine.call
    assert layer_group("vm.backend.interp.run_from") == "vm.backend"
    assert layer_group("passes.cse") == "passes"


def _tally(**events):
    tally = Tally()
    tally.phase = "ops"
    for name, count in events.items():
        for _ in range(count):
            tally(type(name, (), {"function": "f"})())
    return tally


def test_determinism_check_names_the_count_that_differed():
    first, second = Measurement(), Measurement()
    first.tallies, first.outputs = [_tally(TierUp=1)], ["x"]
    second.tallies, second.outputs = [_tally(TierUp=2)], ["x"]
    problems = determinism_problems([first, second])
    assert len(problems) == 1
    assert "events.ops.TierUp.f: 2 != 1" in problems[0]
    second.tallies, second.outputs = [_tally(TierUp=1)], ["y"]
    assert determinism_problems([first, second]) == [
        "determinism: episode 1 outputs differ from episode 0"
    ]


def test_self_checks_fail_when_a_mechanism_is_skipped(tmp_path):
    phase = make_workload("phase_shift", 1, workdir=tmp_path, size="tiny")
    assert len(phase.check(_tally(GuardFailed=1))) == 5
    steady = make_workload("steady", 1, workdir=tmp_path, size="tiny")
    assert steady.check(_tally()) == []
    assert steady.check(_tally(TierUp=1, GuardFailed=1)) != []
    churn = make_workload("tierup_churn", 1, workdir=tmp_path, size="tiny")
    assert len(churn.check(_tally())) == len(churn.names)


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name in WORKLOADS:
        first = make_workload(name, 11, workdir=tmp_path, size="tiny")
        again = make_workload(name, 11, workdir=tmp_path, size="tiny")
        other = make_workload(name, 12, workdir=tmp_path, size="tiny")
        assert first.script == again.script
        assert [(i.function, i.args, i.memory.snapshot()) for i in first.inputs] == [
            (i.function, i.args, i.memory.snapshot()) for i in again.inputs
        ]
        assert [i.memory.snapshot() for i in first.inputs] != [
            i.memory.snapshot() for i in other.inputs
        ] or first.script != other.script


def test_op_latency_is_the_fastest_timing_of_its_position():
    # Episodes of a two-op script (the last cut short); no op publishes an event,
    # but the second costs more (say, periodic upkeep) and keeps its cost.
    measurement = Measurement()
    measurement.episodes = [[1.0, 5.0], [2.0, 4.0], [3.0]]
    measurement.work = [[(), ()], [(), ()], [()]]
    assert measurement.op_profile() == [1.0, 4.0]
    assert measurement.ops_per_s == pytest.approx(2 / 5.0)


def test_times_are_scaled_by_the_fastest_probe_of_the_run():
    # A host twice as slow as the reference: every time halves, the rate doubles.
    measurement = Measurement()
    measurement.episodes = [[float(i) for i in range(1, MIN_SAMPLES + 1)]]
    measurement.work = [[()] * MIN_SAMPLES]
    measurement.setups = [3.0, 2.0]
    measurement.probes = [4 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert measurement.host_scale == pytest.approx(0.5)
    metrics, rows = end_to_end(measurement)
    assert metrics["setup_s"][0] == pytest.approx(1.0)
    assert metrics["op_p50_us"][0] == pytest.approx(51 * 1e6 / 2)
    assert metrics["ops_per_s"][0] == pytest.approx(2 * measurement.ops_per_s)
    by_name = {row["metric"]: row for row in rows}
    assert by_name["setup_s"]["measured"] == 2.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(MIN_SAMPLES - 1)), 0.9) is None
    assert percentile(list(range(MIN_SAMPLES)), 0.9) == 90
    assert percentile(list(range(21)), 0.5) == 10


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_run_refuses_a_checkout_without_the_engine(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
