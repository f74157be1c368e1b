"""Module-level adaptive runtime with speculative and interprocedural tiers.

A multi-tier execution engine that exercises the OSR framework the way a
speculating JIT would (the paper's TinyVM testbed plays the same role;
the dispatched-OSR tier follows Flückiger et al.'s *Deoptless*, and the
inlining tier follows the compensation-based treatment of aggressive
transformations in "On-Stack Replacement à la Carte").

The runtime tiers **every function of a module**: callees are registered
alongside their callers, every ``call @f(...)`` executed by *any* engine
— the profiled interpreter or the closure-compiled backend — dispatches
back through :meth:`AdaptiveRuntime.call`, so each callee is counted,
profiled, and compiled independently, and a guard failure inside a
callee's optimized code is handled entirely within that callee's
activation.

* **Tier 0 — base.**  Functions start in the interpreter running f_base,
  with a :class:`~repro.vm.profile.ShardedValueProfile` recording
  register values, branch directions and per-call-site callee/argument
  facts into per-thread shards.

* **Tier 1 — speculative optimized, interprocedural.**  At the hotness
  threshold the runtime builds an optimized version with the
  interprocedural pipeline (:func:`~repro.passes.interprocedural_pipeline`):
  hot call sites are speculatively inlined (callee profiles merged in
  under renamed registers), guards are inserted for monomorphic values —
  including argument values and registers inside inlined bodies — and
  biased branches, and the standard passes optimize the merged body.
  The version is installed only when **every** guard has a
  deoptimization plan (:func:`~repro.core.frames.build_deopt_plans`);
  a guard inside inlined code gets a *multi-frame* plan.

* **Guard failure — multi-frame deoptimizing OSR.**  A failing guard
  raises :class:`~repro.ir.interp.GuardFailure`.  For a guard in
  straight caller code the runtime transfers the live state through the
  single-frame plan and finishes the call in f_base (caching a
  Deoptless-style dispatched continuation for repeat failures).  For a
  guard inside inlined code the runtime materializes the whole virtual
  stack: the innermost callee frame resumes in the base tier at the
  mapped callee point, its return value is bound into the enclosing
  frame's call destination, and each enclosing frame resumes just past
  its call site — innermost to outermost — until the caller's own
  f_base completes the call.

* **Recursion fuel.**  Because every inter-function call funnels through
  :meth:`call`, the runtime enforces a backend-independent call-depth
  budget: deep recursion exhausts fuel deterministically (same depth,
  same :class:`~repro.ir.interp.StepLimitExceeded`) on both engines
  instead of overflowing the host Python stack.

Concurrency model
=================

The runtime is safe for concurrent callers (see the README's
"Concurrency & background compilation" section for the embedder view):

* **Per-execution-context state.**  Recursion fuel lives in a
  per-thread :class:`ExecutionContext` created at the root call and
  discarded when it unwinds — interleaved callers never charge each
  other's budget, and no unwind path can leak a depth increment into a
  later call.  Profiling writes go to per-thread shards.

* **Atomic version installs.**  Everything a compiled tier needs (the
  version pair, its deoptimization plans, the forward mapping, the
  K_avail keep-alive set, the speculative flag) is built off to the
  side as one immutable :class:`CompiledVersion` and published with a
  single assignment under the function's lock.  Executing threads read
  the version **once** per activation and resolve any guard failure
  against exactly the version that raised it — there is no window in
  which a reader can observe the pair of one version with the plans of
  another.

* **Background compilation.**  With ``EngineConfig.compile_workers >= 1``
  the compile job runs on a bounded worker pool: the triggering call
  (and every call racing it) keeps executing the base tier, and the
  finished version is picked up by subsequent calls.  ``0`` keeps the
  historical synchronous compile-then-OSR-mid-call behavior, which
  deterministic tests rely on.  A failed background compile is sticky:
  the stored exception re-raises on the next call of that function
  rather than vanishing into the worker.

* **Locked shared structures.**  Per-function call counts, the bounded
  continuation cache, the failure bookkeeping and the event bus are all
  lock-protected; locks are never held across user-code execution or
  subscriber callbacks.

The runtime is deliberately small: its purpose is to demonstrate and
test end-to-end transitions, not to be fast.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..analysis.soundness import (
    PROVED,
    UNCHECKED,
    VIOLATED,
    WARNED,
    UnsoundVersionError,
    VerifyReport,
    verify_version,
)
from ..core.frames import DeoptPlan, FrameState
from ..core.mapping import OSRMapping
from ..core.osr_trans import OSRTransDriver, VersionPair
from ..core.osrkit import ContinuationInfo, make_continuation
from ..engine.config import EngineConfig, verify_deopt_from_env
from ..engine.events import (
    REREGISTERED,
    ContinuationCached,
    ContinuationEvicted,
    DeoptimizingOSR,
    DispatchedOSR,
    EntryDispatched,
    EventBus,
    GuardFailed,
    Invalidated,
    MultiFrameDeopt,
    OptimizingOSR,
    OSREntryRejected,
    RingBufferRecorder,
    RuntimeEvent,
    SoundnessViolation,
    SpeculationRejected,
    Tier,
    TierUp,
    VersionAdded,
    VersionRestored,
    VersionRetired,
)
from ..engine.policy import HotnessPolicy, TieringPolicy
from ..ir.expr import evaluate, free_vars
from ..ir.function import Function, Module, ProgramPoint
from ..ir.instructions import Guard
from ..ir.interp import (
    ExecutionResult,
    GuardFailure,
    Interpreter,
    Memory,
    NativeFunction,
    StepLimitExceeded,
)
from ..passes import (
    ConstantPropagationPass,
    interprocedural_pipeline,
    speculative_pipeline,
    standard_pipeline,
)
from .backend import ExecutionBackend, resolve_backend
from .profile import (
    GENERIC_KEY,
    EntryClusterer,
    FunctionProfile,
    RegisterProfile,
    ShardedValueProfile,
    VersionKey,
)

__all__ = [
    "ContinuationKey",
    "CachedContinuation",
    "CompiledVersion",
    "SpecializedVersion",
    "ExecutionContext",
    "TieredFunction",
    "AdaptiveRuntime",
]

#: Identity of a dispatched-OSR target: the version (by its entry-profile
#: key — at most one version per key is ever live), the failing guard's
#: program point in the optimized code, plus the *shape* of the live
#: state being transferred (the set of variables live at the landing
#: point).  For the strict mappings the runtime builds today the shape is
#: fully determined by the point — its job is defensive: a cached
#: continuation's parameter list derives from the shape, so if a future
#: non-strict mapping ever produces a different live set at the same
#: point, it gets its own continuation instead of a mis-parameterized
#: call.  Keying by version keeps a continuation specialized against one
#: version from ever serving another's deopt.
ContinuationKey = Tuple[VersionKey, ProgramPoint, FrozenSet[str]]


@dataclass
class CachedContinuation:
    """One specialized continuation plus its dispatch statistics."""

    info: ContinuationInfo
    hits: int = 0


@dataclass(frozen=True)
class CompiledVersion:
    """One installed optimized tier, complete and immutable.

    Built entirely off to the side (possibly on a compile worker) and
    published into :attr:`TieredFunction.version` with a single
    assignment: an executing thread that read the version once holds a
    consistent view — its pair, its plans, its forward mapping and its
    keep-alive set all belong to the same build, no matter how many
    invalidations or reinstalls happen concurrently.
    """

    pair: VersionPair
    #: Per-guard deoptimization plans (multi-frame for guards inside
    #: inlined code); the install-time coverage contract is that every
    #: guard point has one.
    plans: Mapping[ProgramPoint, DeoptPlan]
    #: Mapped f_base → f_opt entry points for optimizing OSR.
    forward_mapping: OSRMapping
    #: Registers the deopt compensations read even though they are dead
    #: in the optimized code (the paper's K_avail): the runtime must keep
    #: them alive across an optimizing OSR entry.
    keep_alive: FrozenSet[str]
    speculative: bool
    #: Full f_opt → f_base mapping, carried only by versions hydrated
    #: from a persisted artifact: their pair has no
    #: :class:`~repro.core.codemapper.CodeMapper` to rebuild one from,
    #: so the mapping itself is part of the artifact.  ``None`` on
    #: locally built versions (rebuilt lazily from the mapper instead).
    backward: Optional[OSRMapping] = None
    #: Inlined-frame count override for hydrated versions (the live count
    #: is derived from the mapper, which a hydrated pair lacks).
    restored_frames: Optional[int] = None

    @property
    def optimized(self) -> Function:
        return self.pair.optimized

    @property
    def inlined_frames(self) -> int:
        if self.restored_frames is not None:
            return self.restored_frames
        return len(self.pair.inlined_frames())


@dataclass
class SpecializedVersion:
    """One live entry of a function's version multiverse.

    Pairs an immutable :class:`CompiledVersion` with the entry-profile
    :class:`~repro.vm.profile.VersionKey` it was specialized for and the
    mutable per-version bookkeeping (dispatch statistics, per-guard
    failure counters, the lazy backward-mapping cache).  All mutable
    fields are protected by the owning :class:`TieredFunction`'s lock.
    """

    key: VersionKey
    version: CompiledVersion
    #: Entry dispatches served by this version.
    hits: int = 0
    #: Dispatch sequence number of the most recent hit (LRU retirement).
    last_used: int = 0
    #: Per-guard-point failure counters of *this* version.
    failures_at: Dict[ProgramPoint, int] = field(default_factory=dict)
    #: Full backward mapping of this version: built lazily, or seeded
    #: with :attr:`CompiledVersion.backward` when hydrated.
    backward_cache: Optional[OSRMapping] = None
    #: The static soundness verifier's report for this version (``None``
    #: when it was published with ``verify_deopt="off"``) — the
    #: inspection API renders per-guard obligation statuses from it.
    verify_report: Optional[VerifyReport] = None


class ExecutionContext:
    """Per-root-call mutable state (today: the recursion fuel).

    One context exists per thread per *root* entry into
    :meth:`AdaptiveRuntime.call`; nested calls (dispatched back through
    the runtime by either engine) share their root's context, so the
    depth budget still measures one logical call stack — but two
    interleaved callers (two threads, or two successive root calls on
    one thread) can no longer charge each other's fuel, and a context
    dies with its root call, so no unwind path can leak depth into a
    later call.
    """

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0


@dataclass
class TieredFunction:
    """Per-function state kept by the runtime.

    Mutable fields are protected by :attr:`lock` (the call count, the
    continuation cache, failure bookkeeping, compile-pipeline flags);
    :attr:`versions` is additionally safe to *read* without the lock —
    it only ever holds a complete immutable tuple of
    :class:`SpecializedVersion` entries, swapped with a single
    assignment (the same no-torn-install discipline the single-version
    runtime used for its one slot).
    """

    base: Function
    #: The version multiverse: every live optimized version, oldest
    #: first, each wrapped with its entry-profile key.  At most one live
    #: entry per key; bounded by ``EngineConfig.max_versions``.
    versions: Tuple[SpecializedVersion, ...] = ()
    #: Entry-profile clusterer feeding the specialization keys.
    clusterer: EntryClusterer = field(default_factory=EntryClusterer)
    #: Calls so far (the policy's hotness input and the ``calls`` gauge;
    #: every other statistic is the event fold, see
    #: :class:`~repro.engine.stats.StatsCollector`).
    call_count: int = 0
    #: Monotonic entry-dispatch clock (drives per-version LRU stamps).
    dispatch_seq: int = 0
    #: Key the most recent call dispatched to (``None`` before the first
    #: optimized call) — the inspection API marks this one.
    last_dispatched_key: Optional[VersionKey] = None
    #: Cluster key a failing version's guards nominated for the next
    #: specialized build (consumed by the claim path).
    pending_key: Optional[VersionKey] = None
    #: Key the in-flight compile claim is building for.
    compile_key: Optional[VersionKey] = None
    #: Guard reasons refuted by repeated runtime failures, scoped to the
    #: version key whose build speculated them: the next compilation
    #: *for that key* excludes them so it stops paying a deoptimization
    #: on every call, while sibling versions (whose entry profile may
    #: make the same speculation perfectly sound) keep theirs.
    refuted_reasons: Dict[VersionKey, set] = field(default_factory=dict)
    continuations: Dict[ContinuationKey, CachedContinuation] = field(
        default_factory=dict
    )
    #: True while a compile job (sync or background) is claimed.
    compile_inflight: bool = False
    #: Set when the in-flight compile finishes (success or failure).
    compile_done: Optional[threading.Event] = None
    #: A background compile failure, re-raised on the next call.
    compile_error: Optional[BaseException] = None
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def version(self) -> Optional[CompiledVersion]:
        """The newest live version (``None`` while base-tier)."""
        versions = self.versions
        return versions[-1].version if versions else None


class AdaptiveRuntime:
    """The tiering *mechanism*: an N-tier, module-level runtime.

    The runtime executes, compiles, OSR-enters, deoptimizes, unwinds and
    caches; every *decision* (when to compile, where to enter, whether
    to cache or invalidate) is delegated to a
    :class:`~repro.engine.policy.TieringPolicy`, every knob comes from a
    frozen :class:`~repro.engine.config.EngineConfig`, and every
    transition is published as a typed
    :class:`~repro.engine.events.RuntimeEvent` on the event bus.

    Prefer embedding through :class:`repro.engine.Engine`, which wires
    config, policy, bus and stats reduction together.

    One runtime may be shared by any number of threads; registration
    (:meth:`register`/:meth:`register_module`) is the only operation
    expected to happen before the callers start (re-registration during
    traffic is supported but the *name switch* is the atomic unit, see
    :meth:`register`).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        policy: Optional[TieringPolicy] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.policy: TieringPolicy = policy if policy is not None else HotnessPolicy()
        self.bus = (
            bus
            if bus is not None
            else EventBus(RingBufferRecorder(self.config.event_buffer_size))
        )
        self.profile = ShardedValueProfile()
        #: Resolved soundness-verifier mode: ``config.verify_deopt`` when
        #: set, otherwise ``REPRO_VERIFY_DEOPT`` (validated eagerly), so
        #: directly constructed configs honor the environment the same
        #: way :meth:`EngineConfig.from_env` does.
        self.verify_deopt: str = (
            self.config.verify_deopt
            if self.config.verify_deopt is not None
            else verify_deopt_from_env()
        )
        self.opt_backend: ExecutionBackend = resolve_backend(
            self.config.opt_backend, step_limit=self.config.step_limit
        )
        self.base_backend: ExecutionBackend = resolve_backend(
            self.config.base_backend, step_limit=self.config.step_limit
        )
        if not self.base_backend.supports_profiling:
            raise ValueError(
                f"base tier requires a profiling backend, got "
                f"{self.base_backend.name!r}"
            )
        for backend in (self.opt_backend, self.base_backend):
            # A module-bearing backend resolves callees internally,
            # bypassing the per-function dispatchers this runtime relies
            # on for independent tiering and the call-depth fuel — reject
            # it rather than silently losing both guarantees.
            if getattr(backend, "module", None) is not None:
                raise ValueError(
                    "runtime backends must not carry a module; register "
                    "functions with register_module() so calls dispatch "
                    "through the runtime"
                )
        self.functions: Dict[str, TieredFunction] = {}
        #: Host dispatchers for every registered function: the hook that
        #: routes residual ``call`` instructions (in any tier, on any
        #: engine) back through :meth:`call`.
        self._dispatchers: Dict[str, NativeFunction] = {}
        self._tls = threading.local()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    def _publish(self, event: RuntimeEvent) -> None:
        self.bus.publish(event)

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle.
    # ------------------------------------------------------------------ #
    def _ensure_executor(self) -> Optional[ThreadPoolExecutor]:
        with self._executor_lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.compile_workers,
                    thread_name_prefix="repro-compile",
                )
            return self._executor

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the compile worker pool (idempotent).

        With ``wait=True`` any in-flight compile finishes (and publishes)
        first.  Functions keep executing in whatever tier they reached;
        new compile claims after shutdown fall back to the base tier.
        """
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "AdaptiveRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def wait_for_compilation(
        self, name: Optional[str] = None, *, timeout: Optional[float] = None
    ) -> bool:
        """Block until in-flight compiles (of ``name``, or all) finish.

        ``timeout`` is one shared budget for the whole wait, not a
        per-function allowance.  Returns ``False`` on timeout.  Only
        waits for compiles already claimed — it does not make anything
        hot.  A background compile failure is surfaced on the next
        :meth:`call`, not here.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        states = (
            [self.functions[name]]
            if name is not None
            else list(self.functions.values())
        )
        for state in states:
            with state.lock:
                done = state.compile_done if state.compile_inflight else None
            if done is None:
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            if not done.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Registration and compilation.
    # ------------------------------------------------------------------ #
    def register(
        self, function: Function, *, replace: bool = False
    ) -> TieredFunction:
        """Register a function for tiering.

        Registering a name that already exists is a loud error by
        default: silently superseding a :class:`TieredFunction` orphans
        its optimized version, cached continuations and statistics.
        Pass ``replace=True`` to do it deliberately — the runtime swaps
        in a fresh state, discards the old profile (the new body's
        program points need not line up with the old one's), and
        publishes :class:`~repro.engine.events.Invalidated` with
        ``reason=REREGISTERED`` so observers (including the stats fold)
        drop everything derived from the old version.  Calls already
        executing the old version finish on it — the name switch is the
        atomic unit, not the in-flight activations; events those
        trailing activations publish land *after* the stats reset, so
        the fold's gauges match the fresh state again only once the old
        version's activations have drained.
        """
        existing = self.functions.get(function.name)
        if existing is not None and not replace:
            raise ValueError(
                f"a function named @{function.name} is already registered; "
                f"pass replace=True to supersede it (the old version, its "
                f"cached continuations and its statistics are discarded)"
            )
        state = TieredFunction(
            base=function,
            clusterer=EntryClusterer(max_clusters=self.config.max_versions),
        )
        self.functions[function.name] = state
        if existing is not None:
            self.profile.discard(function.name)
            self._publish(Invalidated(function.name, None, reason=REREGISTERED))
        if function.name not in self._dispatchers:
            dispatcher = self._make_dispatcher(function.name)
            self._dispatchers[function.name] = dispatcher
            self.opt_backend.register_native(function.name, dispatcher)
            if self.base_backend is not self.opt_backend:
                self.base_backend.register_native(function.name, dispatcher)
        return state

    def register_module(
        self, module: Module, *, replace: bool = False
    ) -> List[TieredFunction]:
        """Register every function of a module for independent tiering."""
        return [self.register(function, replace=replace) for function in module]

    def _make_dispatcher(self, name: str) -> NativeFunction:
        def dispatch(args: List[int], memory: Memory) -> int:
            result = self.call(name, args, memory=memory)
            return result.value if result.value is not None else 0

        return dispatch

    def _resolve_base(self, name: str) -> Optional[Function]:
        state = self.functions.get(name)
        return state.base if state is not None else None

    def _excluded_reasons_locked(
        self, state: TieredFunction, key: VersionKey
    ) -> FrozenSet[str]:
        """Guard reasons a build for ``key`` must not re-speculate.

        Blacklists are scoped per version key: a reason refuted against
        one version never poisons a *sibling* whose entry profile makes
        the same speculation sound.  A specialized build does inherit
        the generic version's refutations — its mixed traffic is what
        nominated the cluster in the first place — **except** constant
        assumptions about the very parameters the key pins: for those,
        the pinned profile (monomorphic by construction) is the
        authority, and re-enabling them is the point of per-key scoping.
        Caller must hold ``state.lock``.
        """
        exclude = set(state.refuted_reasons.get(key, ()))
        if not key.generic:
            params = state.base.params
            pinned_names = {
                params[index] for index, _ in key.pinned if index < len(params)
            }
            for reason in state.refuted_reasons.get(GENERIC_KEY, ()):
                if reason.startswith("assume-constant "):
                    name = reason.split(" ", 2)[1]
                    if name in pinned_names:
                        continue
                exclude.add(reason)
        return frozenset(exclude)

    def _pin_profile(
        self, state: TieredFunction, profile: FunctionProfile, key: VersionKey
    ) -> FunctionProfile:
        """A clone of ``profile`` with ``key``'s parameters pinned.

        Specialization to an entry-profile cluster reuses the existing
        speculative machinery wholesale: each pinned parameter is given
        a perfectly monomorphic histogram, so the speculative pass
        guards it as an assumed constant and constant propagation folds
        the dispatch arms it selects — no dedicated compiler pass.

        Value histograms of *non-parameter* registers and all branch
        biases are dropped: the shared profile aggregates every entry
        cluster, so an intermediate register (say, a dispatch
        comparison) or a dispatch-arm branch can look monomorphic only
        because a *different* phase dominated the recording.
        Speculating on it inside a build whose pinned parameters imply
        the other outcome constant-folds the guard predicate to
        false — a version that deoptimizes on every call.  Call-site
        profiles are kept (inlining decisions survive); the pinned
        parameters themselves carry the specialization.
        """
        pinned = profile.clone()
        params = state.base.params
        pinned.values = {
            name: prof for name, prof in pinned.values.items() if name in params
        }
        pinned.branches = {}
        weight = max(self.config.min_samples, 1)
        for index, value in key.pinned:
            if index < len(params):
                pinned.values[params[index]] = RegisterProfile(
                    Counter({value: weight})
                )
        return pinned

    def _build_version(self, state: TieredFunction) -> CompiledVersion:
        """Build an optimized tier, speculatively when safely possible.

        Pure construction: reads a merged snapshot of the per-thread
        profile shards, never mutates the published state, and may run
        on a compile worker while request threads keep executing f_base.
        The in-flight claim's :class:`~repro.vm.profile.VersionKey`
        selects the entry-profile cluster to specialize for; the
        generic key builds exactly the historical version.
        """
        config = self.config
        with state.lock:
            key = state.compile_key or GENERIC_KEY
        if config.effective_speculate:
            snapshot = self.profile.merged()
            caller_profile = snapshot.function(state.base.name)
            with state.lock:
                exclude = self._excluded_reasons_locked(state, key)
            if not key.generic:
                caller_profile = self._pin_profile(state, caller_profile, key)
            if config.effective_inline:
                merged = caller_profile.clone()
                pipeline = interprocedural_pipeline(
                    caller_profile,
                    merged,
                    resolve=self._resolve_base,
                    callee_profile=snapshot.function,
                    min_samples=config.min_samples,
                    min_ratio=config.min_ratio,
                    min_site_calls=config.inline_min_calls,
                    max_callee_size=config.max_callee_size,
                    max_inline_depth=config.max_inline_depth,
                    exclude=exclude,
                )
            else:
                pipeline = speculative_pipeline(
                    caller_profile,
                    min_samples=config.min_samples,
                    min_ratio=config.min_ratio,
                    exclude=exclude,
                )
            pair = OSRTransDriver(pipeline).run(state.base)
            plans, uncovered = pair.deopt_plans(config.mode)
            if not uncovered:
                keep_alive: FrozenSet[str] = frozenset()
                for plan in plans.values():
                    keep_alive |= plan.keep_alive()
                return CompiledVersion(
                    pair=pair,
                    plans=plans,
                    forward_mapping=pair.forward_mapping(config.mode),
                    keep_alive=keep_alive,
                    speculative=bool(pair.guard_points()),
                )
            # Some guard cannot deoptimize: discard the speculative build.
            self._publish(SpeculationRejected(state.base.name, uncovered[0]))
        pipeline = (
            list(config.passes) if config.passes is not None else standard_pipeline()
        )
        pair = OSRTransDriver(pipeline).run(state.base)
        plans, _ = pair.deopt_plans(config.mode)
        return CompiledVersion(
            pair=pair,
            plans=plans,
            forward_mapping=pair.forward_mapping(config.mode),
            keep_alive=frozenset(),
            speculative=False,
        )

    def _verify_before_publish(
        self,
        state: TieredFunction,
        version: CompiledVersion,
        key: VersionKey,
        restored: bool,
    ) -> Optional[VerifyReport]:
        """Run the static soundness verifier against an unpublished version.

        The publication gate of ``EngineConfig.verify_deopt``: ``off``
        skips (returns ``None``), ``strict`` raises
        :class:`~repro.analysis.soundness.UnsoundVersionError` — the
        version never reaches the table, and on the background pipeline
        the error goes sticky exactly like a compiler crash — and
        ``warn`` publishes anyway but announces each failed obligation as
        a :class:`~repro.engine.events.SoundnessViolation` event.  The
        report is attached to the published entry so ``repro inspect
        --show guards`` can render per-guard statuses.
        """
        if self.verify_deopt == "off":
            return None
        report = verify_version(
            version, key=key, function_name=state.base.name
        )
        if report.ok:
            return report
        if self.verify_deopt == "strict":
            origin = "restored artifact" if restored else "compiled version"
            raise UnsoundVersionError(
                report,
                context=(
                    f"refusing to publish {origin} for @{state.base.name} "
                    f"[key {key}]"
                ),
            )
        for violation in report.violations:
            self._publish(
                SoundnessViolation(
                    state.base.name,
                    (
                        ProgramPoint.parse(violation.point)
                        if violation.point is not None
                        else None
                    ),
                    obligation=violation.name,
                    detail=violation.detail,
                    key=str(key),
                )
            )
        return report

    def _admit_version(
        self,
        state: TieredFunction,
        version: CompiledVersion,
        key: VersionKey,
        report: Optional[VerifyReport],
    ) -> Tuple[int, List[SpecializedVersion], int]:
        """Insert ``version`` into the table under the state lock.

        Replaces any live entry with the same key, retires the
        least-recently-dispatched entries beyond ``max_versions``, and
        flushes continuations belonging to replaced/retired keys (a
        continuation specialized against a dead version must not serve
        a live one).  A hydrated version's backward mapping seeds the
        lazy cache directly, since its pair cannot rebuild one.  Returns
        ``(live_count, retired_entries, surviving_continuations)`` for
        the caller to publish outside the lock.  Caller must hold
        ``state.lock``.
        """
        entries = [e for e in state.versions if e.key != key]
        state.dispatch_seq += 1
        entries.append(
            SpecializedVersion(
                key=key,
                version=version,
                last_used=state.dispatch_seq,
                backward_cache=version.backward,
                verify_report=report,
            )
        )
        retired: List[SpecializedVersion] = []
        while len(entries) > self.config.max_versions:
            victim = min(entries[:-1], key=lambda e: (e.last_used, e.hits))
            entries.remove(victim)
            retired.append(victim)
        state.versions = tuple(entries)
        dead_keys = {key} | {victim.key for victim in retired}
        for ckey in [c for c in state.continuations if c[0] in dead_keys]:
            del state.continuations[ckey]
        return len(entries), retired, len(state.continuations)

    def publish_version(
        self,
        state: TieredFunction,
        version: CompiledVersion,
        key: VersionKey = GENERIC_KEY,
        *,
        restored: bool = False,
        compile_seconds: float = 0.0,
    ) -> None:
        """Verify, prepare and atomically publish a version into the table.

        The one publication path, for versions built here and versions
        hydrated from a persisted artifact (``restored``; a persisted
        multiverse is one call per version, oldest first, each under its
        own ``key``).  The two differ only in what they announce: a
        build publishes :class:`~repro.engine.events.TierUp` (plus
        :class:`~repro.engine.events.VersionAdded` when the multiverse
        grew), a restore publishes
        :class:`~repro.engine.events.VersionRestored` — no compilation
        happened in this process, warm-start clients count tier-ups to
        prove exactly that, and ``versions_added`` stays a local-growth
        counter.  A state superseded by a re-registration meanwhile
        publishes nothing.
        """
        # The soundness gate runs first, on the publishing thread: a
        # strict rejection must happen before the backend spends work on
        # an artifact that will never be published.  Hydrated artifacts
        # are *less* trusted than local builds — they may come from an
        # older engine or a hand-edited store — so the gate covers them
        # identically.
        report = self._verify_before_publish(state, version, key, restored)
        # Pre-build the backend artifact off the request path so the
        # published version is ready to *run*: without this, the first
        # optimized call would pay the closure lowering on the request
        # path — exactly the stall background compilation exists to
        # remove.  (Synchronous mode merely moves the cost within the
        # triggering call.)
        self.opt_backend.prepare(version.optimized)
        name = state.base.name
        with state.lock:
            if self.functions.get(name) is not state:
                return  # superseded by a re-registration meanwhile
            live, retired, continuations = self._admit_version(
                state, version, key, report
            )
        shape = dict(
            speculative=version.speculative,
            guards=len(version.pair.guard_points()),
            inlined_frames=version.inlined_frames,
        )
        if restored:
            self._publish(VersionRestored(name, key=str(key), versions=live, **shape))
        else:
            self._publish(
                TierUp(
                    name,
                    key=str(key),
                    versions=live,
                    compile_seconds=round(compile_seconds, 6),
                    **shape,
                )
            )
            if key.specificity > 0 or live > 1 or retired:
                self._publish(VersionAdded(name, key=str(key), versions=live))
        # Gauges on a retirement describe the newest survivor.
        for victim in retired:
            self._publish(
                VersionRetired(
                    name,
                    key=str(victim.key),
                    versions=live,
                    continuations=continuations,
                    **shape,
                )
            )

    def _compile_now(self, state: TieredFunction, *, sticky_errors: bool) -> None:
        """Run one claimed compile job to completion (build + publish).

        The caller must hold the compile claim (``compile_inflight``).
        With ``sticky_errors`` a failure is stored on the state and
        re-raised on the function's next call — the background pipeline
        must never swallow a compiler bug silently.
        """
        try:
            start = time.perf_counter()
            version = self._build_version(state)
            with state.lock:
                key = state.compile_key or GENERIC_KEY
            self.publish_version(
                state,
                version,
                key,
                compile_seconds=time.perf_counter() - start,
            )
        except BaseException as exc:
            if sticky_errors:
                with state.lock:
                    state.compile_error = exc
            raise
        finally:
            self._release_compile_claim(state)

    def _submit_compile(self, state: TieredFunction) -> None:
        """Hand a claimed compile job to the worker pool."""
        executor = self._ensure_executor()
        if executor is None:
            self._release_compile_claim(state)
            return

        def job() -> None:
            try:
                self._compile_now(state, sticky_errors=True)
            except BaseException:
                pass  # stored as compile_error; re-raised on the next call

        try:
            executor.submit(job)
        except RuntimeError:  # pool shut down between claim and submit
            self._release_compile_claim(state)

    @staticmethod
    def _claim_compile_locked(state: TieredFunction, key: VersionKey) -> None:
        """Take the function's compile claim for ``key`` (lock held)."""
        state.compile_inflight = True
        state.compile_key = key
        state.compile_done = threading.Event()

    @staticmethod
    def _release_compile_claim(state: TieredFunction) -> None:
        """Drop the compile claim and wake everyone waiting on it."""
        with state.lock:
            state.compile_inflight = False
            state.compile_key = None
            done, state.compile_done = state.compile_done, None
        if done is not None:
            done.set()

    def ensure_compiled(self, name: str) -> CompiledVersion:
        """The installed version of ``name``, compiling (and waiting) if needed."""
        return self._ensure_compiled_state(name)[1].version

    def _ensure_compiled_state(
        self, name: str
    ) -> Tuple[TieredFunction, SpecializedVersion]:
        """The current state *and* its newest live entry, as a matched pair.

        The state is re-fetched by name on every loop turn: a
        ``register(replace=True)`` can supersede the TieredFunction
        mid-wait, in which case publications against the old state are
        refused — looping on the stale object would claim, build and be
        refused forever.
        """
        while True:
            state = self.functions[name]
            with state.lock:
                if state.versions:
                    return state, state.versions[-1]
                if state.compile_error is not None:
                    raise state.compile_error
                if not state.compile_inflight:
                    self._claim_compile_locked(state, GENERIC_KEY)
                    done = None
                else:
                    done = state.compile_done
            if done is None:
                self._compile_now(state, sticky_errors=self.config.compile_workers >= 1)
            else:
                done.wait()

    def _osr_entry_candidates(
        self, state: TieredFunction, version: CompiledVersion
    ) -> Tuple[List[ProgramPoint], List[ProgramPoint]]:
        """Mapped, pause-capable OSR entry points of f_base (+ loop subset).

        Optimizing OSR is most valuable when a long-running loop is
        already in flight, so the loop subset is computed for the policy
        to prefer.  Phi points are excluded: a block's leading phi run
        executes as one parallel step before ``break_at`` checks, so the
        interpreter can never pause there.
        """
        from ..cfg.graph import ControlFlowGraph
        from ..cfg.loops import find_loops
        from ..ir.instructions import Phi

        cfg = ControlFlowGraph(state.base)
        loops = find_loops(cfg)
        loop_blocks = {label for loop in loops for label in loop.body}
        candidates = [
            point
            for point in version.forward_mapping.domain()
            if isinstance(point, ProgramPoint)
            and not isinstance(state.base.instruction_at(point), Phi)
        ]
        loop_points = [point for point in candidates if point.block in loop_blocks]
        return candidates, loop_points

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def call(
        self,
        name: str,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Call a registered function, applying the tiering policy.

        Nested calls (from either engine) re-enter here through the
        per-function dispatchers and share the thread's root
        :class:`ExecutionContext`, so the depth accounting below is the
        *backend-independent* recursion fuel of one logical call stack —
        never shared between threads or across root calls.
        """
        context = getattr(self._tls, "context", None)
        root = context is None
        if root:
            context = ExecutionContext()
            self._tls.context = context
        context.depth += 1
        try:
            if context.depth > self.config.max_call_depth:
                raise StepLimitExceeded(
                    f"call depth exceeded the budget of "
                    f"{self.config.max_call_depth} activations (at @{name})"
                )
            return self._call_tiered(name, args, memory)
        finally:
            context.depth -= 1
            if root:
                self._tls.context = None

    def _select_locked(
        self, state: TieredFunction, args: Sequence[int]
    ) -> Optional[SpecializedVersion]:
        """The best-matching live version for ``args`` (lock held).

        Every pinned slot of a candidate's key must match; among matches
        the most *specific* key wins (a specialized version beats the
        generic one for its own cluster), newest-installed breaking
        ties.  The scan is O(versions × pinned slots) integer compares —
        the call fast path stays cheap because ``max_versions`` is
        small.
        """
        best: Optional[SpecializedVersion] = None
        for candidate in state.versions:
            if candidate.key.matches(args) and (
                best is None or candidate.key.specificity >= best.key.specificity
            ):
                best = candidate
        return best

    def _dispatch(
        self, state: TieredFunction, args: Sequence[int]
    ) -> Optional[SpecializedVersion]:
        """Select a version for ``args`` and record the dispatch.

        :class:`~repro.engine.events.EntryDispatched` announces *version
        switches* (the selected key differs from the previous call's),
        not every optimized call — steady-state traffic inside one phase
        stays event-free, exactly like the warm single-version fast
        path, while each phase transition in a polymorphic workload
        leaves a typed trace.
        """
        publish: Optional[Tuple[str, int]] = None
        with state.lock:
            entry = self._select_locked(state, args)
            if entry is None:
                return None
            state.dispatch_seq += 1
            entry.hits += 1
            entry.last_used = state.dispatch_seq
            switched = state.last_dispatched_key != entry.key
            state.last_dispatched_key = entry.key
            if switched and (len(state.versions) > 1 or not entry.key.generic):
                publish = (str(entry.key), len(state.versions))
        if publish is not None:
            self._publish(
                EntryDispatched(
                    state.base.name, key=publish[0], versions=publish[1]
                )
            )
        return entry

    def _propose_key_locked(
        self,
        state: TieredFunction,
        args: Sequence[int],
        matched: Optional[SpecializedVersion],
    ) -> Optional[VersionKey]:
        """The key to claim a compile for, or ``None`` (lock held).

        Three ways a build starts:

        * **Empty table** — the historical compile decision
          (``policy.should_compile``).  The very first build is always
          generic; after an invalidation emptied the table, the
          triggering call's own cluster is specialized instead when it
          is hot and stable (the guard failures that killed the generic
          version seeded exactly this profile).
        * **No matching version** — all live versions are specialized
          away from ``args`` (the generic one was invalidated): grow the
          multiverse with this call's cluster, or re-grow a generic
          version when clustering is unstable.
        * **Nominated cluster** — a live version's guards keep failing
          for a cluster (``pending_key``, set by the failure path): the
          first call *from that cluster* claims the specialized build,
          so the new version pins the profile that was refuting the old
          one.

        Growth (the latter two) additionally needs the cluster hot and
        the policy's :meth:`should_add_version` consent.
        """
        config = self.config
        if not state.versions:
            if not self.policy.should_compile(state, config):
                return None
            # An empty table with no refuted reason has never held a
            # version; one with a refutation was emptied by invalidation.
            if config.max_versions <= 1 or not state.refuted_reasons:
                return GENERIC_KEY
            key = state.clusterer.key_for(args)
            if (
                key.generic
                or state.clusterer.cluster_samples(key) < config.hotness_threshold
            ):
                return GENERIC_KEY
            return key
        if config.max_versions <= 1:
            return None
        if matched is None:
            key = state.clusterer.key_for(args)
        else:
            key = state.pending_key if state.pending_key is not None else None
            if key is None or not key.matches(args):
                return None
        if any(entry.key == key for entry in state.versions):
            if state.pending_key == key:
                state.pending_key = None
            return None
        if not key.generic and (
            state.clusterer.cluster_samples(key) < config.hotness_threshold
        ):
            return None
        should_add = getattr(self.policy, "should_add_version", None)
        if should_add is not None and not should_add(state, key, config):
            return None
        if state.pending_key == key:
            state.pending_key = None
        return key

    def _call_tiered(
        self,
        name: str,
        args: Sequence[int],
        memory: Optional[Memory],
    ) -> ExecutionResult:
        state = self.functions[name]
        with state.lock:
            state.call_count += 1
            state.clusterer.observe(args)
            error = state.compile_error
            claim_key = None
            if error is None and not state.compile_inflight:
                matched = self._select_locked(state, args)
                claim_key = self._propose_key_locked(state, args, matched)
                if claim_key is not None:
                    self._claim_compile_locked(state, claim_key)
        if error is not None:
            raise error

        # Hot enough (per the policy) and no suitable version: in
        # synchronous mode compile now and OSR into the optimized code
        # mid-execution of this very call; in background mode submit the
        # job and keep this call (and everything racing it) in its
        # current tier until the finished version is published.
        compiled_now = False
        if claim_key is not None:
            if self.config.compile_workers >= 1:
                self._submit_compile(state)
            else:
                self._compile_now(state, sticky_errors=False)
                compiled_now = True

        entry = self._dispatch(state, args)
        if entry is None:
            return self.base_backend.run(
                state.base, args, memory=memory, profiler=self.profile
            )
        if compiled_now:
            candidates, loop_points = self._osr_entry_candidates(
                state, entry.version
            )
            osr_point = self.policy.select_osr_point(
                state, candidates, loop_points, self.config
            )
            if osr_point is not None:
                if osr_point not in candidates:
                    raise ValueError(
                        f"policy selected OSR point {osr_point}, which is "
                        f"not a mapped pause-capable point of @{name}"
                    )
                return self._call_with_osr(state, entry, args, memory, osr_point)
        return self._run_optimized(state, entry, args, memory)

    def _run_optimized(
        self,
        state: TieredFunction,
        entry: SpecializedVersion,
        args: Sequence[int],
        memory: Optional[Memory],
    ) -> ExecutionResult:
        # ``entry`` was dispatched exactly once by the caller: with
        # recursion or concurrency, another activation's guard failure
        # may invalidate and replace table entries while this one is on
        # the stack — its own failure must resolve against the plans of
        # the version that actually raised it.
        try:
            return self.opt_backend.run(
                entry.version.optimized, args, memory=memory
            )
        except GuardFailure as failure:
            return self._handle_guard_failure(state, failure, entry, args)

    def _break_interpreter(self) -> Interpreter:
        """An interpreter whose calls dispatch through the runtime.

        Used for the pause-at-a-point paths (``break_at``), which only
        the interpreter supports; module callees still tier normally.
        A fresh instance per use: nothing is shared across threads.
        """
        return Interpreter(
            step_limit=self.config.step_limit,
            natives=self._dispatchers,
            profiler=self.profile,
        )

    def _call_with_osr(
        self,
        state: TieredFunction,
        entry_version: SpecializedVersion,
        args: Sequence[int],
        memory: Optional[Memory],
        osr_point: ProgramPoint,
    ) -> ExecutionResult:
        version = entry_version.version
        interpreter = self._break_interpreter()
        paused = interpreter.run(state.base, args, memory=memory, break_at=osr_point)
        if paused.stopped_at is None:
            return paused  # the loop never ran; nothing to transfer
        entry = version.forward_mapping.lookup(osr_point)
        assert entry is not None

        def finish_in_base() -> ExecutionResult:
            """Reject the OSR entry: complete this call in f_base."""
            self._publish(OSREntryRejected(state.base.name, osr_point))
            return interpreter.resume(
                state.base,
                paused.stopped_at,
                paused.env,
                memory=paused.memory,
                previous_block=paused.previous_block,
            )

        # Entering speculative code mid-flight skips every guard that sits
        # before the landing point; their assumptions must be validated
        # against the in-flight state instead of silently trusted.
        if version.speculative and not self._speculation_holds(
            version, paused.env, entry.target
        ):
            return finish_in_base()

        landing_env = version.forward_mapping.transfer(osr_point, paused.env)

        # K_avail support: deopt compensations may read values that are
        # dead at the landing point of the *forward* transition; the
        # runtime keeps them alive by carrying them across.  If one is
        # not reconstructible from the paused base state, entering the
        # optimized code would make a later guard failure unrecoverable —
        # finish this call in f_base instead.
        for name in sorted(version.keep_alive):
            if name in landing_env:
                continue
            if name not in paused.env:
                return finish_in_base()
            landing_env[name] = paused.env[name]

        self._publish(OptimizingOSR(state.base.name, osr_point))
        try:
            # The backend's OSR entry stub maps the landing ProgramPoint
            # into its own dispatch (a resume for the interpreter, a
            # compiled stub entering mid-loop for the closure backend).
            return self.opt_backend.run_from(
                version.optimized,
                entry.target,
                landing_env,
                memory=paused.memory,
                previous_block=paused.previous_block,
            )
        except GuardFailure as failure:
            return self._handle_guard_failure(state, failure, entry_version, args)

    def _speculation_holds(
        self,
        version: CompiledVersion,
        env: Dict[str, int],
        landing: ProgramPoint,
    ) -> bool:
        """Check that the speculated facts hold for an in-flight state.

        The guards needing validation are exactly those that *dominate*
        the landing point: an OSR entry jumps over them, yet the code it
        lands in already relies on their speculated constants.  Their
        conditions are evaluated against the paused f_base environment —
        the speculative pass keeps register names aligned with f_base,
        and a dominating guard's condition registers were computed by
        the base run before the pause, with this iteration's values.

        A guard that does *not* dominate the landing point needs no
        check: it sits immediately after its speculated definition (or
        in place of its speculated branch), so any path from the landing
        point to a speculated use re-executes the definition and the
        guard first, which protects itself.  A dominating guard whose
        condition cannot be evaluated rejects the entry: correctness
        over speed.  Guards inside inlined code read renamed callee
        registers that no f_base state ever holds, so a dominating
        inlined guard always rejects the mid-flight entry — fresh calls
        still run the inlined version from its entry.
        """
        from ..cfg.dominance import DominatorTree
        from ..cfg.graph import ControlFlowGraph

        optimized = version.optimized
        domtree = DominatorTree(ControlFlowGraph(optimized))
        for point, inst in optimized.instructions():
            if not isinstance(inst, Guard):
                continue
            if point.block == landing.block:
                if point.index >= landing.index:
                    continue
            elif not (
                domtree.dominates(point.block, landing.block)
            ):
                continue
            if not free_vars(inst.cond) <= set(env):
                return False  # cannot validate the assumption: stay in f_base
            if evaluate(inst.cond, env) == 0:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Guard failure: multi-frame deopt + dispatched continuations.
    # ------------------------------------------------------------------ #
    def _nominate_cluster_locked(
        self,
        state: TieredFunction,
        entry: SpecializedVersion,
        args: Optional[Sequence[int]],
    ) -> None:
        """Seed the next specialized build from a refuting call's profile.

        The failing call's entry cluster is nominated as
        :attr:`TieredFunction.pending_key`: the next call *from that
        cluster* claims a build that pins exactly the values which kept
        refuting ``entry``'s speculation — the multiverse answer to a
        phase change, replacing the single-version engine's global
        blacklist-and-recompile cycle.  Caller must hold ``state.lock``.
        """
        if args is None or self.config.max_versions <= 1:
            return
        seed = state.clusterer.key_for(args)
        if seed.generic or seed == entry.key:
            return
        if any(live.key == seed for live in state.versions):
            return
        state.pending_key = seed

    def _record_failure(
        self,
        state: TieredFunction,
        failure: GuardFailure,
        entry: SpecializedVersion,
        count: int,
        args: Optional[Sequence[int]] = None,
    ) -> None:
        """Refute a speculation that keeps failing and schedule a recompile.

        A *multi-frame* guard that fails ``invalidate_after`` times was
        built from an unrepresentative profile (typically a callee that
        tiered up before its histograms converged), and unlike
        single-frame failures it has no cached-continuation fast path —
        every failure pays a full stack reconstruction.  Its reason is
        blacklisted *for this version's key* and the failing version is
        discarded; the next build for that key excludes the assumption.
        Sibling versions — whose entry profiles may make the same
        speculation perfectly sound — stay live and keep serving their
        clusters, and the failing call's own cluster is nominated for a
        specialized build (:meth:`_nominate_cluster_locked`).
        (Single-frame repeat failures are served by the Deoptless
        dispatch cache instead and never invalidate.)

        Only the version that actually failed is discarded: if a
        concurrent activation already invalidated it (or a newer build
        for its key was installed meanwhile), the refuted reason is
        still recorded for the next compilation but nothing else
        changes.

        Known limitation: reasons embed the inliner's frame tags, and a
        recompile in which the *set* of hot sites grew can renumber the
        tags, so a refuted reason may fail to match once and cost one
        extra refute/recompile round before the matching string is
        recorded — a transient performance hiccup, never unsoundness.

        ``count`` is the failing point's tally on ``entry``, already
        bumped by :meth:`_handle_guard_failure`.
        """
        if failure.reason is None or not self.policy.should_invalidate(
            state, failure.point, count, self.config
        ):
            return
        with state.lock:
            state.refuted_reasons.setdefault(entry.key, set()).add(
                failure.reason
            )
            self._nominate_cluster_locked(state, entry, args)
            if not any(live is entry for live in state.versions):
                return  # already invalidated or replaced concurrently
            state.versions = tuple(
                live for live in state.versions if live is not entry
            )
            survivors = state.versions
            newest = survivors[-1].version if survivors else None
            for ckey in [
                c for c in state.continuations if c[0] == entry.key
            ]:
                del state.continuations[ckey]
            continuations = len(state.continuations)
        self._publish(
            Invalidated(
                state.base.name,
                failure.point,
                reason=failure.reason,
                tier=Tier.OPTIMIZED if newest is not None else Tier.BASE,
                key=str(entry.key),
                versions=len(survivors),
                speculative=newest.speculative if newest else False,
                guards=len(newest.pair.guard_points()) if newest else 0,
                inlined_frames=newest.inlined_frames if newest else 0,
                continuations=continuations,
            )
        )

    def _note_single_frame_failure(
        self,
        state: TieredFunction,
        failure: GuardFailure,
        entry: SpecializedVersion,
        count: int,
        args: Sequence[int],
    ) -> None:
        """Multiverse growth trigger for repeated single-frame failures.

        Single-frame failures never invalidate — the dispatched
        continuation cache makes them cheap — so in the single-version
        engine a phase change leaves the function bouncing off the same
        guard forever.  With a multiverse, once such a guard crosses the
        policy's invalidation threshold the failing call's cluster is
        nominated for its own specialized build; the failing version
        stays live (its own cluster still runs it guard-free, and the
        specialized newcomer out-matches it for the refuting cluster).
        """
        if self.config.max_versions <= 1 or failure.reason is None:
            return
        with state.lock:
            if not self.policy.should_invalidate(
                state, failure.point, count, self.config
            ):
                return
            self._nominate_cluster_locked(state, entry, args)

    def _handle_guard_failure(
        self,
        state: TieredFunction,
        failure: GuardFailure,
        entry: SpecializedVersion,
        args: Optional[Sequence[int]] = None,
    ) -> ExecutionResult:
        version = entry.version
        with state.lock:
            # Every failure counts on the failing version, whatever its
            # reason or the multiverse bound: the policy and the
            # inspection API read the same per-point tally.
            count = entry.failures_at.get(failure.point, 0) + 1
            entry.failures_at[failure.point] = count
        plan = version.plans.get(failure.point)
        if plan is None:  # pragma: no cover - install guarantees coverage
            raise RuntimeError(
                f"guard at {failure.point} fired with no deoptimization plan"
            )
        self._publish(
            GuardFailed(
                state.base.name,
                failure.point,
                reason=failure.reason,
                multiframe=plan.is_multiframe,
            )
        )
        if plan.is_multiframe:
            return self._unwind_multiframe(state, failure, plan, entry, count, args)
        if args is not None:
            self._note_single_frame_failure(state, failure, entry, count, args)

        frame = plan.frames[0]
        landing_env = frame.transfer(failure.env)
        key: ContinuationKey = (entry.key, failure.point, frozenset(landing_env))
        previous_block = (
            failure.previous_block
            if failure.previous_block in state.base.blocks
            else None
        )

        with state.lock:
            cached = state.continuations.get(key)
            if cached is not None:
                # Dispatched OSR: jump straight into the specialized
                # continuation instead of re-deoptimizing through f_base.
                cached.hits += 1
                hits = cached.hits
        if cached is not None:
            self._publish(
                DispatchedOSR(state.base.name, failure.point, hits=hits)
            )
            # Strict lookup: a parameter missing from both environments
            # is a state-transfer bug that must fail loudly, not run the
            # continuation on a fabricated value.
            call_args = [
                failure.env[param] if param in failure.env else landing_env[param]
                for param in cached.info.entry_params
            ]
            return self.opt_backend.run(
                cached.info.function, call_args, memory=failure.memory
            )

        # Slow path: classic deoptimizing OSR back into f_base.
        self._publish(
            DeoptimizingOSR(state.base.name, failure.point, from_guard=True)
        )
        result = self.base_backend.run_from(
            state.base,
            frame.target,
            landing_env,
            memory=failure.memory,
            previous_block=previous_block,
            profiler=self.profile,
        )
        # Pay the continuation build off the critical path of *this*
        # failure; the next failure with the same shape dispatches.  Skip
        # the cache when the installed version is no longer the one that
        # failed (another activation invalidated it): a continuation
        # specialized against a stale version must not serve a new one.
        # Plans with value seeds are also excluded: a seeded variable is
        # rebuilt only by the plan's transfer, which the baked-in
        # continuation entry cannot reproduce — those guards always take
        # the slow path.  The policy gets the final (non-correctness)
        # veto, and the cache is bounded: oldest entry out first.  The
        # insert re-checks version identity and key absence under the
        # lock, so concurrent failures of the same shape cache (and
        # publish) exactly once.
        if (
            any(live is entry for live in state.versions)
            and not frame.param_seeds
            and self.policy.should_cache_continuation(
                state, failure.point, plan, self.config
            )
        ):
            continuation = self._build_continuation(state, failure.point, plan, version)
            evicted: List[ProgramPoint] = []
            with state.lock:
                stored = (
                    any(live is entry for live in state.versions)
                    and key not in state.continuations
                )
                if stored:
                    state.continuations[key] = CachedContinuation(continuation)
                    while (
                        len(state.continuations)
                        > self.config.continuation_cache_size
                    ):
                        evicted_key = next(iter(state.continuations))
                        del state.continuations[evicted_key]
                        evicted.append(evicted_key[1])
            if stored:
                self._publish(ContinuationCached(state.base.name, failure.point))
                for point in evicted:
                    self._publish(ContinuationEvicted(state.base.name, point))
        return result

    def _unwind_multiframe(
        self,
        state: TieredFunction,
        failure: GuardFailure,
        plan: DeoptPlan,
        entry: SpecializedVersion,
        count: int,
        args: Optional[Sequence[int]] = None,
    ) -> ExecutionResult:
        """Materialize and resume the reconstructed virtual call stack.

        Every frame's environment is rebuilt from the *same* failure
        snapshot first (outer frames must not observe state mutated by
        resuming inner ones), then the stack unwinds innermost-to-
        outermost in the base tier: each frame runs to completion and its
        return value is bound into the enclosing frame's call
        destination before that frame resumes past its call site.
        """
        self._publish(
            MultiFrameDeopt(state.base.name, failure.point, frames=len(plan.frames))
        )
        self._record_failure(state, failure, entry, count, args)
        environments = [frame.transfer(failure.env) for frame in plan.frames]
        failure.frames = [
            FrameState(
                function=frame.function.name,
                point=frame.target,
                env=dict(env),
                dest=frame.dest,
            )
            for frame, env in zip(plan.frames, environments)
        ]
        inner = plan.frames[0]
        result = self.base_backend.run_from(
            inner.function,
            inner.target,
            environments[0],
            memory=failure.memory,
            previous_block=inner.translate_block(failure.previous_block),
            profiler=self.profile,
        )
        value = result.value
        for frame, env in zip(plan.frames[1:], environments[1:]):
            if frame.dest is not None:
                env[frame.dest] = value if value is not None else 0
            result = self.base_backend.run_from(
                frame.function,
                frame.target,
                env,
                memory=failure.memory,
                previous_block=None,
                profiler=self.profile,
            )
            value = result.value
        return result

    def _build_continuation(
        self,
        state: TieredFunction,
        point: ProgramPoint,
        plan: DeoptPlan,
        version: CompiledVersion,
    ) -> ContinuationInfo:
        """Specialize an f_base continuation for one guard's deopt target."""
        frame = plan.frames[0]
        live_at_source = sorted(version.pair.opt_view.live_in(point))
        info = make_continuation(
            state.base,
            frame.target,
            frame.compensation,
            live_at_source,
            name=f"{state.base.name}.deopt.{point.block}.{point.index}",
        )
        # The continuation is not SSA (compensation re-defines registers of
        # the code it jumps into), so only run transforms that are sound
        # without SSA: constant folding.
        ConstantPropagationPass().run(info.function)
        return info

    # ------------------------------------------------------------------ #
    # Forced deoptimization (external invalidation).
    # ------------------------------------------------------------------ #
    def deopt_mapping(self, name: str) -> OSRMapping:
        """The full point-by-point deoptimization mapping of a function.

        Guard failures are served by per-guard plans, so this mapping is
        only needed by the external-invalidation path
        (:meth:`deoptimize_at`) and by clients inspecting deoptimizable
        points — it is built lazily on first use (compiling the function
        first if necessary, waiting for an in-flight background compile).
        """
        state, entry = self._ensure_compiled_state(name)
        return self._backward_mapping(state, entry)

    def _backward_mapping(
        self, state: TieredFunction, entry: SpecializedVersion
    ) -> OSRMapping:
        """The backward mapping of exactly ``entry``'s version (built once)."""
        with state.lock:
            mapping = entry.backward_cache
        if mapping is None:
            mapping = entry.version.pair.backward_mapping(self.config.mode)
            with state.lock:
                entry.backward_cache = mapping
        return mapping

    def deoptimize_at(
        self,
        name: str,
        point: ProgramPoint,
        args: Sequence[int],
        *,
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Run the optimized code until ``point``, then OSR back to f_base.

        Models invalidation of a speculative assumption by an external
        event (the classic deoptimization the seed runtime supported).
        Raises :class:`KeyError` when ``point`` has no backward mapping
        entry — deoptimization is simply not supported there.
        """
        # Resolve the state, the entry and its mapping as ONE matched
        # set: resolving the mapping through a second by-name lookup
        # could pair this version's paused environment with a
        # concurrently rebuilt version's register mapping.  A guard
        # failure below resolves against the same entry, even if it has
        # been invalidated or replaced meanwhile.
        state, entry = self._ensure_compiled_state(name)
        version = entry.version
        mapping = self._backward_mapping(state, entry)
        landing = mapping.lookup(point)
        if landing is None:
            raise KeyError(f"deoptimization not supported at {point}")
        try:
            # Pausing at an arbitrary point needs ``break_at``, which only
            # the interpreter provides: a forced external invalidation is
            # an observation-heavy path, so it runs observably regardless
            # of the optimized tier's backend.
            paused = Interpreter(
                step_limit=self.config.step_limit, natives=self._dispatchers
            ).run(version.optimized, args, memory=memory, break_at=point)
        except GuardFailure as failure:
            # A speculation failed before reaching the requested point;
            # the guard's own deoptimization wins.
            return self._handle_guard_failure(state, failure, entry, list(args))
        if paused.stopped_at is None:
            return paused
        landing_env = mapping.transfer(point, paused.env)
        self._publish(DeoptimizingOSR(name, point, from_guard=False))
        return self.base_backend.run_from(
            state.base,
            landing.target,
            landing_env,
            memory=paused.memory,
            previous_block=paused.previous_block,
        )

    @staticmethod
    def _guard_obligations(entry: SpecializedVersion) -> Dict[str, str]:
        """Per-guard-point obligation status of one published version.

        ``proved`` — the verifier discharged every obligation anchored
        at the point; ``warned`` — warn mode published the version
        despite a violation there (or a whole-version violation that
        taints every guard); ``unchecked`` — the version was published
        with the verifier off.
        """
        guard_points = [str(p) for p in entry.version.pair.guard_points()]
        report = entry.verify_report
        if report is None:
            return {point: UNCHECKED for point in guard_points}
        global_violation = any(v.point is None for v in report.violations)
        statuses: Dict[str, str] = {}
        for point in guard_points:
            status = report.guard_status.get(point, PROVED)
            if status == VIOLATED or (status == PROVED and global_violation):
                status = WARNED
            statuses[point] = status
        return statuses

    def introspect(self, name: str) -> Dict[str, object]:
        """A read-only, JSON-safe snapshot of one function's tier state.

        The operator-surface view the ``repro inspect`` CLI renders: the
        facts the event-derived counters summarize away — the live
        version table (per-version dispatch
        hits and per-guard-point failure counters), the continuation
        cache's entries with their hit counts, the refuted speculation
        reasons scoped per version key, and the compile pipeline's
        in-flight claim.  Taken atomically under the state lock; the
        result is plain data, safe to hold, render, or serialize while
        the runtime keeps tiering.
        """
        state = self.functions[name]
        with state.lock:
            versions = [
                {
                    "key": str(entry.key),
                    "speculative": entry.version.speculative,
                    "guards": len(entry.version.pair.guard_points()),
                    "inlined_frames": entry.version.inlined_frames,
                    "hits": entry.hits,
                    "last_used": entry.last_used,
                    "dispatched": entry.key == state.last_dispatched_key,
                    "guard_failures": {
                        str(point): count
                        for point, count in sorted(
                            entry.failures_at.items(), key=lambda kv: str(kv[0])
                        )
                    },
                    "guard_obligations": self._guard_obligations(entry),
                    "soundness_violations": (
                        [
                            {
                                "obligation": violation.name,
                                "point": violation.point,
                                "detail": violation.detail,
                            }
                            for violation in entry.verify_report.violations
                        ]
                        if entry.verify_report is not None
                        else []
                    ),
                }
                for entry in state.versions
            ]
            continuations = [
                {
                    "key": str(ckey[0]),
                    "point": str(ckey[1]),
                    "live": sorted(ckey[2]),
                    "hits": cached.hits,
                }
                for ckey, cached in sorted(
                    state.continuations.items(),
                    key=lambda kv: (str(kv[0][0]), str(kv[0][1])),
                )
            ]
            refuted = {
                str(key): sorted(str(reason) for reason in reasons)
                for key, reasons in sorted(
                    state.refuted_reasons.items(), key=lambda kv: str(kv[0])
                )
                if reasons
            }
            return {
                "function": name,
                "tier": "optimized" if state.versions else "base",
                "calls": state.call_count,
                "params": list(state.base.params),
                "verify_deopt": self.verify_deopt,
                "versions": versions,
                "continuations": continuations,
                "continuation_capacity": self.config.continuation_cache_size,
                "refuted_reasons": refuted,
                "compile_inflight": state.compile_inflight,
                "compile_key": (
                    str(state.compile_key)
                    if state.compile_key is not None
                    else None
                ),
                "compile_error": (
                    repr(state.compile_error)
                    if state.compile_error is not None
                    else None
                ),
            }

