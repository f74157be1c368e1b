"""The measurement loop, the metrics and the checks of one benchmark run.

One run measures one workload for a number of seconds.  End-to-end
metrics come from an untraced run; a traced run (``trace=True``) spends
half its time untraced and half with every layer wrapped
(:mod:`perfbench.tracing`), and reports the per-layer metrics, the
tracing overhead and the traced wall time no layer span covers.
"""

from __future__ import annotations

import gc
import hashlib
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.ops.render import format_rows

from .tracing import ROOT_SPANS, SpanRecorder, instrument, layer_group
from .workloads import Tally, Workload, make_workload

__all__ = [
    "END_TO_END",
    "MIN_SAMPLES",
    "PER_LAYER",
    "PERCENTILES",
    "RunResult",
    "REFERENCE_PROBE_S",
    "calibrate",
    "percentile",
    "run",
]

#: Smallest sample count a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

PERCENTILES = {"op_p50_us": 0.50, "op_p90_us": 0.90}

#: The fewest ops per script that leave ``TAIL_SAMPLES`` beyond ``op_p90_us``.
MIN_SAMPLES = 101

#: End-to-end metrics: (name, unit).  ``failed_op_ratio`` is printed too
#: but is not in this list; see README.md for why.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics: (name, unit).  Times are self times per episode
#: unless the name says otherwise; counts are per episode.
_SELF_MS = [
    "frontend", "ssa.mem2reg",
    *(f"passes.{name}" for name in (
        "lcssa", "constprop", "sccp", "cse", "licm", "sink", "adce", "fuse",
        "loopcanon", "speculate", "inline",
    )),
    "core.forward_mapping", "core.deopt_plans", "vm.profile.merged",
    "analysis.soundness.verify", "vm.backend.compiled.run",
    "core.frames.transfer", "core.osrkit.make_continuation",
    "vm.backend.interp.run_from", "ir.interp.run",
    "store.get", "store.decode", "store.save",
]
_EVENT_COUNTS = {
    "vm.runtime.osr_entries": "osr_entries",
    "vm.runtime.guard_failures": "guard_failures",
    "vm.runtime.osr_exits": "osr_exits",
    "vm.runtime.multiframe_deopts": "multiframe_deopts",
    "vm.runtime.invalidations": "invalidations",
    "vm.runtime.versions_added": "versions_added",
    "vm.runtime.versions_retired": "versions_retired",
    "passes.speculate.guards": "guards",
}
PER_LAYER: List[Tuple[str, str]] = [
    *((f"{layer}.ms", "ms") for layer in _SELF_MS),
    ("core.osr_trans.self_ms", "ms"),
    ("engine.call.self_ms", "ms"),
    ("store.hydrate.self_ms", "ms"),
    ("vm.runtime.call.self_us", "us"),
    *((f"{layer}.calls", "count") for layer in (
        "ssa.mem2reg", "analysis.soundness.verify", "core.frames.transfer",
        "vm.backend.interp.run_from", "vm.codegen",
    )),
    ("core.osr_trans.ir_in", "count"),
    ("core.osr_trans.ir_out", "count"),
    ("vm.codegen.misses", "count"),
    ("vm.codegen.source_bytes", "bytes"),
    ("vm.runtime.builds", "count"),
    *((name, "count") for name in _EVENT_COUNTS),
    ("vm.runtime.continuation_hit_ratio", "ratio"),
    ("vm.runtime.useful_build_ratio", "ratio"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("host.calibration_ms", "ms"),
]


#: Seconds one pass of :func:`probe` takes on the host the benchmark's
#: figures are scaled to (a 2-vCPU cloud VM on a quiet minute).
REFERENCE_PROBE_S = 1.2e-3

#: Probes timed before every episode.
PROBES_PER_EPISODE = 5


def probe(loops: int = 20_000) -> float:
    """Seconds one pass of a fixed pure-Python loop takes: the host's speed.

    No change to the engine can make it faster or slower.
    """
    start = perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return perf_counter() - start


def calibrate(repeats: int = 5) -> float:
    """Best-of-``repeats`` milliseconds of the probe, at the start of a run.

    Recorded beside every run's metrics so absolute times from different
    machines can be read side by side (divide by it to compare).
    """
    return min(probe() for _ in range(repeats)) * 1e3


def percentile(ordered: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` unless ``TAIL_SAMPLES`` lie beyond it."""
    if not ordered:
        return None
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    if len(ordered) - 1 - index < TAIL_SAMPLES:
        return None
    return ordered[index]


@dataclass
class Measurement:
    """What one stretch of episodes measured."""

    #: Latency of every op, one list per episode in script order.
    episodes: List[List[float]] = field(default_factory=list)
    #: What every op did, parallel to ``episodes``: the engine events it
    #: published.
    work: List[List[tuple]] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: One tally per complete episode.
    tallies: List[Tally] = field(default_factory=list)
    #: Digest of every complete episode's outputs.
    outputs: List[str] = field(default_factory=list)
    #: Every probe time, ``PROBES_PER_EPISODE`` before each episode.
    probes: List[float] = field(default_factory=list)

    @property
    def host_scale(self) -> float:
        """Factor that scales this stretch's times to the reference host.

        The host's speed drifts by more than the bounds over minutes, so
        the fastest op timings of one run and of the next differ by
        more than the bounds as well.  The probe, timed between episodes
        of the same run, drifts with it: dividing by its fastest time
        (the same estimator the op latencies use) takes the host's
        speed out of the figures, and leaves the engine's.
        """
        return REFERENCE_PROBE_S / min(self.probes) if self.probes else 1.0

    @property
    def attempted(self) -> int:
        return sum(len(latencies) for latencies in self.episodes)

    def op_profile(self) -> List[float]:
        """Each op of the script: its fastest timing over the episodes.

        A shared host slows a process down, in bursts and for whole
        minutes, by more than the benchmark's bounds.  Every episode
        replays the script on fresh engines, so the op at one position
        of the script does the same work in every episode, at a
        different moment; the fastest of its timings is the least
        disturbed one.  Timings are only compared between episodes in
        which the op published the same engine events, so a run whose
        episodes diverge (which the determinism check reports) keeps
        each variant apart.
        """
        fastest: Dict[tuple, float] = {}
        for latencies, work in zip(self.episodes, self.work):
            for key, latency in zip(enumerate(work), latencies):
                if latency < fastest.get(key, float("inf")):
                    fastest[key] = latency
        longest = max(self.work, key=len, default=[])
        return [fastest[key] for key in enumerate(longest)]

    @property
    def ops_per_s(self) -> float:
        """Ops per second inside the engine, at the profile's op latencies."""
        profile = self.op_profile()
        return len(profile) / sum(profile) if profile else 0.0


def measure(
    workload: Workload,
    expected,
    seconds: float,
    *,
    recorder: Optional[SpanRecorder] = None,
    min_episodes: int = 2,
    min_samples: int = 0,
) -> Measurement:
    """Run episodes until ``seconds`` passed, ``min_episodes`` completed and
    ``min_samples`` ops ran, or until ``seconds`` passed and an op failed
    (a failing op may keep every episode from completing).  Untraced
    stretches may stop mid-episode; a traced one stops only between
    episodes, so per-episode layer times are exact."""
    if len(workload.script) < min_samples:
        raise ValueError(
            f"{workload.name} has {len(workload.script)} ops per episode, "
            f"fewer than the {min_samples} its percentiles need"
        )
    result = Measurement()
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    deadline = perf_counter() + seconds

    def done() -> bool:
        return perf_counter() >= deadline and (
            result.failed > 0
            or (
                len(result.tallies) >= min_episodes
                and max(map(len, result.episodes), default=0) >= min_samples
            )
        )

    while not done():
        gc.collect()  # the previous episode's engines, outside any timing
        result.probes.extend(probe() for _ in range(PROBES_PER_EPISODE))
        tally = Tally()
        start = perf_counter()
        with span("setup"):
            state = workload.setup(tally)
        result.setups.append(perf_counter() - start)
        tally.phase = "ops"
        latencies: List[float] = []
        work: List[tuple] = []
        result.episodes.append(latencies)
        result.work.append(work)
        digest = hashlib.sha256()
        complete = True
        try:
            for op in workload.script:
                if recorder is None and done():
                    complete = False
                    break
                calls = [(workload.inputs[i], workload.inputs[i].memory.copy()) for i in op]
                error = None
                tally.op_events.clear()
                if recorder is not None:
                    recorder.op_id = result.attempted
                start = perf_counter()
                try:
                    with span("op"):
                        values = workload.execute(state, calls)
                except Exception as exc:  # an op that raised counts as failed
                    values, error = None, exc
                latencies.append(perf_counter() - start)
                workload.settle(state, tally)
                work.append(tuple(tally.op_events))
                if error is not None:
                    _fail(result, f"op {op} raised {type(error).__name__}: {error}")
                    complete = False
                    continue
                for index, value, (_, memory) in zip(op, values, calls):
                    outcome = (value, memory.snapshot())
                    digest.update(repr((value, sorted(outcome[1].items()))).encode())
                    if outcome != expected[index]:
                        item = workload.inputs[index]
                        _fail(
                            result,
                            f"@{item.function}{item.args}: got {value}, "
                            f"reference {expected[index][0]} (or memory differs)",
                        )
                        break
            if recorder is not None:
                recorder.op_id = -1
            if complete:
                workload.finish(state, tally)
                result.tallies.append(tally)
                result.outputs.append(digest.hexdigest())
        finally:
            workload.teardown(state)
    return result


def _fail(result: Measurement, message: str) -> None:
    result.failed += 1
    if len(result.failures) < 5:
        result.failures.append(message)


def determinism_problems(measurements: List[Measurement]) -> List[str]:
    """Every complete episode must match the first: counts and outputs."""
    tallies = [t for m in measurements for t in m.tallies]
    outputs = [o for m in measurements for o in m.outputs]
    if len(tallies) < 2:
        return [f"determinism: {len(tallies)} complete episodes, too few to compare"]
    first = tallies[0].counts()
    problems = []
    for number, tally in enumerate(tallies[1:], start=1):
        counts = tally.counts()
        differing = sorted(
            key for key in first.keys() | counts.keys() if first.get(key, 0) != counts.get(key, 0)
        )
        if differing:
            key = differing[0]
            problems.append(
                f"determinism: episode {number} differs from episode 0 in {len(differing)} "
                f"counts, first {key}: {counts.get(key, 0)} != {first.get(key, 0)}"
            )
        if outputs[number] != outputs[0]:
            problems.append(f"determinism: episode {number} outputs differ from episode 0")
    return problems


@dataclass
class RunResult:
    """Everything one run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: Human-readable report lines (printed before the JSON line).
    report: List[str]
    problems: List[str]

    def as_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def end_to_end(measurement: Measurement) -> Tuple[Dict[str, Tuple[float, str]], List[Dict]]:
    """The end-to-end metrics and one summary row per printed metric.

    Times are scaled to the reference host (``Measurement.host_scale``);
    the rows also carry them as measured.
    """
    ordered = sorted(measurement.op_profile())
    scale = measurement.host_scale
    rows = [
        {"metric": "setup_s", "measured": min(measurement.setups),
         "unit": "s", "samples": len(measurement.setups)},
        {"metric": "ops_per_s", "measured": measurement.ops_per_s,
         "unit": "1/s", "samples": len(ordered)},
    ]
    for name, fraction in PERCENTILES.items():
        value = percentile(ordered, fraction)
        rows.append({"metric": name, "measured": None if value is None else value * 1e6,
                     "unit": "us", "samples": len(ordered)})
    for row in rows:
        if row["measured"] is not None:
            factor = 1 / scale if row["unit"] == "1/s" else scale
            row["value"] = row["measured"] * factor
    rows.append({"metric": "failed_op_ratio",
                 "value": measurement.failed / max(measurement.attempted, 1),
                 "unit": "ratio", "samples": measurement.attempted})
    rows.append({"metric": "peak_rss_mb",
                 "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "unit": "MB", "samples": 1})
    by_name = {row["metric"]: row for row in rows}
    metrics = {
        name: (by_name[name]["value"], unit)
        for name, unit in END_TO_END
        if by_name[name].get("value") is not None
    }
    return metrics, rows


def layer_metrics(
    recorder: SpanRecorder, traced: Measurement, untraced: Measurement, calibration_ms: float
) -> Tuple[Dict[str, float], List[Dict], List[Dict]]:
    """Per-layer metrics plus the per-span and per-layer table rows."""
    times = recorder.times()
    episodes = len(traced.tallies)
    # Every layer span nests inside a root span, so the self times add
    # up to the traced wall time.
    wall = sum(t.self_s for t in times.values())
    values: Dict[str, float] = {}

    def self_s(layer: str) -> float:
        return times[layer].self_s if layer in times else 0.0

    def calls(layer: str) -> int:
        return times[layer].calls if layer in times else 0

    for layer in _SELF_MS:
        values[f"{layer}.ms"] = self_s(layer) * 1e3 / episodes
    for layer in ("core.osr_trans", "engine.call", "store.hydrate"):
        values[f"{layer}.self_ms"] = self_s(layer) * 1e3 / episodes
    runtime_calls = calls("vm.runtime.call")
    values["vm.runtime.call.self_us"] = (
        self_s("vm.runtime.call") * 1e6 / runtime_calls if runtime_calls else 0.0
    )
    for layer in ("ssa.mem2reg", "analysis.soundness.verify", "core.frames.transfer",
                  "vm.backend.interp.run_from", "vm.codegen"):
        values[f"{layer}.calls"] = calls(layer) / episodes
    for name in ("core.osr_trans.ir_in", "core.osr_trans.ir_out",
                 "vm.codegen.misses", "vm.codegen.source_bytes"):
        values[name] = recorder.counters[name] / episodes

    tally = traced.tallies[0]
    builds = tally.count("TierUp")
    values["vm.runtime.builds"] = builds
    for name, stat in _EVENT_COUNTS.items():
        values[name] = tally.total(stat)
    hits, misses = tally.total("dispatch_hits"), tally.total("dispatch_misses")
    values["vm.runtime.continuation_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    wasted = tally.total("invalidations") + tally.total("versions_retired")
    values["vm.runtime.useful_build_ratio"] = (builds - wasted) / builds if builds else 0.0
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s
    values["trace.traced_ops_per_s"] = traced.ops_per_s
    values["trace.slowdown"] = (
        untraced.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0
    )
    root_self = sum(self_s(name) for name in ROOT_SPANS)
    values["trace.uncovered_share"] = root_self / wall if wall else 0.0
    values["host.calibration_ms"] = calibration_ms

    share = (lambda seconds: seconds / wall) if wall else (lambda seconds: 0.0)
    span_rows = [
        {
            "span": name,
            "calls_per_episode": round(t.calls / episodes, 2),
            "self_ms_per_episode": t.self_s * 1e3 / episodes,
            "share": share(t.self_s),
        }
        for name, t in times.items()
        if name not in ROOT_SPANS
    ]
    span_rows.append({"span": "(uncovered)", "calls_per_episode": None,
                      "self_ms_per_episode": root_self * 1e3 / episodes,
                      "share": share(root_self)})
    span_rows.sort(key=lambda row: -row["self_ms_per_episode"])
    groups: Dict[str, float] = {}
    for name, t in times.items():
        group = "(uncovered)" if name in ROOT_SPANS else layer_group(name)
        groups[group] = groups.get(group, 0.0) + t.self_s
    group_rows = [
        {"layer": group, "self_ms_per_episode": total * 1e3 / episodes,
         "share": share(total)}
        for group, total in sorted(groups.items(), key=lambda item: -item[1])
    ]
    return values, span_rows, group_rows


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    out_dir: Path,
    size: str = "full",
    min_samples: Optional[int] = None,
) -> RunResult:
    """One benchmark run.

    It runs at least ``min_samples`` ops, by default enough for every
    end-to-end percentile to have ``TAIL_SAMPLES`` samples beyond it.
    """
    if min_samples is None:
        min_samples = MIN_SAMPLES
    calibration_ms = calibrate()
    workload = make_workload(workload_name, seed, workdir=out_dir, size=size)
    expected = workload.references()
    report = [
        f"workload {workload_name}  seed {seed}  size {size}  "
        f"calibration {calibration_ms:.3f} ms (the host-speed probe, best of 5)"
    ]
    if not trace:
        plain = measure(workload, expected, seconds, min_samples=min_samples)
        measurements = [plain]
        metrics, rows = end_to_end(plain)
        report.append(format_rows(
            rows, ["metric", "value", "unit", "samples", "measured"],
            title=f"end-to-end, untraced, {len(plain.episodes)} episodes (an op's latency is "
                  f"its fastest timing over the episodes; setup_s is the fastest set-up; "
                  f"percentiles are over the script; times are scaled by "
                  f"{plain.host_scale:.4f} to the reference host, on which the probe takes "
                  f"{REFERENCE_PROBE_S * 1e3:g} ms, and measured ones are beside them)"))
    else:
        plain = measure(workload, expected, seconds / 2, min_samples=min_samples)
        recorder = SpanRecorder()
        with instrument(recorder):
            traced = measure(workload, expected, seconds / 2, recorder=recorder, min_episodes=1)
        measurements = [plain, traced]
        if not traced.tallies:
            # No traced episode completed (its ops raised): there is
            # nothing to divide the layer times by.  The failed ops are
            # reported below.
            metrics = {}
        else:
            values, span_rows, group_rows = layer_metrics(
                recorder, traced, plain, calibration_ms)
            metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = f"{workload_name}-seed{seed}"
            recorder.write_csv(out_dir / f"spans-{stem}.csv")
            span_columns = ["span", "calls_per_episode", "self_ms_per_episode", "share"]
            for fmt in ("csv", "json"):
                (out_dir / f"layers-{stem}.{fmt}").write_text(
                    format_rows(span_rows, span_columns, fmt) + "\n"
                )
            report.append(format_rows(
                group_rows, ["layer", "self_ms_per_episode", "share"],
                title=f"per-layer self time, traced ({len(traced.tallies)} episodes, "
                      f"{len(recorder)} spans, written to {out_dir.name}/spans-{stem}.csv)"))
            report.append(format_rows(span_rows, span_columns, title="per-span self time"))
            report.append(format_rows(
                [{"metric": name, "value": values[name], "unit": unit}
                 for name, unit in PER_LAYER],
                ["metric", "value", "unit"], title="per-layer metrics"))
    problems = [p for m in measurements for t in m.tallies for p in t.problems]
    problems = list(dict.fromkeys(problems))  # the same check fails once per episode
    problems += determinism_problems(measurements)
    failed = sum(m.failed for m in measurements)
    attempted = sum(m.attempted for m in measurements)
    failures = [f for m in measurements for f in m.failures]
    report.extend(f"FAILED OP: {message}" for message in failures[:5])
    report.extend(f"CHECK FAILED: {message}" for message in problems)
    return RunResult(
        correct=failed == 0 and not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )
