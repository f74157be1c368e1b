"""The stats cross-check, and the per-version guard-failure counters.

`EngineStats` is the only source of tiering statistics: the runtime keeps
no duplicate counters to compare it against.  The mutation tests below
show that :func:`stats_checks.assert_stats_consistent` still catches an
event the runtime forgets to publish — through a conservation law when
the event is a counted transition, through a gauge when it changes the
mechanism's structural state.

The introspection tests pin the per-version ``guard_failures`` map of
``AdaptiveRuntime.introspect``: every guard failure counts on the version
that raised it, whatever the failure's reason or the multiverse bound.
"""

from __future__ import annotations

import pytest

from repro.engine import ContinuationCached, DispatchedOSR, Engine, EngineConfig
from repro.ir.instructions import Guard
from repro.vm import AdaptiveRuntime
from repro.workloads import speculative_arguments, speculative_source
from stats_checks import assert_stats_consistent

BACKENDS = ("interp", "compiled")


def _dispatch_engine(backend="compiled", **overrides):
    config = EngineConfig(
        hotness_threshold=3, min_samples=2, opt_backend=backend, **overrides
    )
    return Engine.from_source(speculative_source("dispatch"), config=config)


def _warm_then_violate(engine, violations):
    for _ in range(5):
        args, memory = speculative_arguments("dispatch")
        engine.call("dispatch", args, memory=memory)
    for _ in range(violations):
        args, memory = speculative_arguments("dispatch", violate=True)
        engine.call("dispatch", args, memory=memory)


def _drop_published(monkeypatch, event_type):
    """Make the runtime silently stop publishing ``event_type``."""
    publish = AdaptiveRuntime._publish

    def lossy(self, event):
        if not isinstance(event, event_type):
            publish(self, event)

    monkeypatch.setattr(AdaptiveRuntime, "_publish", lossy)


def test_missing_dispatched_osr_breaks_a_conservation_law(monkeypatch):
    _drop_published(monkeypatch, DispatchedOSR)
    engine = _dispatch_engine(max_versions=1)
    _warm_then_violate(engine, 3)
    with pytest.raises(AssertionError, match="conservation: guard failures"):
        assert_stats_consistent(engine, "dispatch")


def test_missing_continuation_cached_breaks_a_gauge(monkeypatch):
    _drop_published(monkeypatch, ContinuationCached)
    engine = _dispatch_engine(max_versions=1)
    _warm_then_violate(engine, 3)
    with pytest.raises(AssertionError, match="gauge continuations"):
        assert_stats_consistent(engine, "dispatch")


def _strip_guard_reasons(monkeypatch):
    """Build versions whose guards carry no reason."""
    build = AdaptiveRuntime._build_version

    def reasonless(self, state):
        version = build(self, state)
        for _, inst in version.optimized.instructions():
            if isinstance(inst, Guard):
                inst.reason = None
        return version

    monkeypatch.setattr(AdaptiveRuntime, "_build_version", reasonless)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "max_versions, reasons", [(1, True), (4, False)], ids=["single", "reasonless"]
)
def test_every_guard_failure_counts_on_its_version(
    backend, max_versions, reasons, monkeypatch
):
    if not reasons:
        _strip_guard_reasons(monkeypatch)
    engine = _dispatch_engine(backend, max_versions=max_versions)
    _warm_then_violate(engine, 3)

    stats = assert_stats_consistent(engine, "dispatch")
    assert stats.guard_failures == 3
    (version,) = engine.runtime.introspect("dispatch")["versions"]
    assert sum(version["guard_failures"].values()) == 3
