"""Cross-checks of an engine's event-derived stats against the mechanism.

:class:`~repro.engine.stats.EngineStats` is a fold over the event stream
and the runtime keeps no duplicate counters, so a transition whose event
is forgotten (or double-fired) must be caught some other way.
:func:`assert_stats_consistent` checks three independent things:

(a) the gauges against the mechanism's structural state (the version
    table, the continuation cache, the call count);
(b) conservation laws between the counters — every guard failure ends
    in exactly one of a dispatch hit, a dispatch miss or a multi-frame
    deopt, and every OSR exit is one of those deopts or a forced one;
(c) a replay of the retained event log through a fresh
    :class:`~repro.engine.stats.StatsCollector` reproducing the stats.

The checks that read the event log, (c) and the OSR-exit law, run only
when the bounded recorder dropped nothing.  Call the helper once the
engine is quiescent (no compile in flight, no concurrent callers).
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine import REREGISTERED, DeoptimizingOSR, Invalidated, StatsCollector


def _events_since_registration(engine, name):
    """``name``'s retained events after its last re-registration."""
    events = [event for event in engine.events if event.function == name]
    for index in range(len(events) - 1, -1, -1):
        event = events[index]
        if isinstance(event, Invalidated) and event.reason == REREGISTERED:
            return events[index + 1 :]
    return events


def assert_stats_consistent(engine, name):
    """Assert ``engine.stats(name)`` agrees with the mechanism and the log."""
    stats = engine.stats(name)
    state = engine.runtime.functions[name]

    # (a) Gauges against structural state.
    with state.lock:
        calls = state.call_count
        versions = len(state.versions)
        continuations = len(state.continuations)
        newest = state.version
    gauges = {
        "calls": calls,
        "versions": versions,
        "continuations": continuations,
        "compiled": int(newest is not None),
        "speculative": int(newest is not None and newest.speculative),
        "guards": len(newest.pair.guard_points()) if newest else 0,
        "inlined_frames": newest.inlined_frames if newest else 0,
    }
    for field, expected in gauges.items():
        actual = getattr(stats, field)
        assert actual == expected, f"gauge {field}: fold {actual}, mechanism {expected}"

    # (b) Conservation laws.
    assert stats.guard_failures == (
        stats.dispatch_hits + stats.dispatch_misses + stats.multiframe_deopts
    ), f"conservation: guard failures do not all end in a deopt path: {stats}"
    recorder = engine.bus.recorder
    if recorder is None or recorder.dropped:
        return stats
    events = _events_since_registration(engine, name)
    forced = sum(
        1
        for event in events
        if isinstance(event, DeoptimizingOSR) and not event.from_guard
    )
    assert stats.osr_exits == (
        stats.dispatch_misses + stats.multiframe_deopts + forced
    ), f"conservation: OSR exits ({forced} forced) do not add up: {stats}"

    # (c) Replay of the retained log.
    collector = StatsCollector()
    for event in engine.events:
        collector(event)
    replayed = replace(collector.function(name), calls=calls)
    assert replayed == stats, f"replay: log gives {replayed}, fold {stats}"
    return stats
