"""The benchmark's four workloads.

Every workload drives the public :class:`repro.engine.Engine` API from
one thread as a closed loop (one caller, next op only when the previous
one returned) with ``compile_workers=0``, so builds are synchronous and
every count repeats exactly.  A workload is run as a sequence of
*episodes*: a set-up (a fresh engine made ready for its first op) and
then the workload's seeded script of ops.  Every episode replays the
same script on fresh engines, which is what the determinism check
compares.

The seed makes the inputs the engine sees: argument values and array
contents, the order of the ops and, on ``phase_shift``, where each
kernel's cycle of input regimes starts.  The programs and the shape of
each script are fixed, so that one seed's run can be compared with
another's: ``tierup_churn``'s module is a fixed corpus of generated
bodies, because the build cost of a freshly drawn set of a few dozen
random bodies varies from seed to seed by more than the benchmark's
bounds (see README.md).
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import Engine, EngineConfig
from repro.frontend import compile_program
from repro.ir.interp import Interpreter, Memory
from repro.workloads import (
    BENCHMARK_SOURCES,
    CALL_KERNEL_SOURCES,
    POLYMORPHIC_NAMES,
    POLYMORPHIC_SOURCES,
    SPECULATIVE_NAMES,
    SPECULATIVE_SOURCES,
    STRAIGHT_LINE_NAMES,
    STRAIGHT_LINE_SOURCES,
    benchmark_arguments,
    call_kernel_arguments,
    polymorphic_arguments,
    random_minic_function,
    speculative_arguments,
    straightline_arguments,
)

__all__ = ["WORKLOADS", "Input", "Tally", "Workload", "make_workload"]

#: Settings every workload shares; each names the rest explicitly so the
#: REPRO_BACKEND / REPRO_VERIFY_DEOPT environment cannot change a run.
BASE_CONFIG = EngineConfig(compile_workers=0, opt_backend="compiled", verify_deopt="off")

#: Multi-frame deopts need the inlined callee's cold branch speculated,
#: which needs its profile sampled before the callee tiers up itself.
INLINING_CONFIG = BASE_CONFIG.replace(min_samples=2, inline_min_calls=2)


@dataclass(frozen=True)
class Input:
    """One call: the function, its arguments and the memory it starts from."""

    function: str
    args: Tuple[int, ...]
    memory: Memory


class Tally:
    """What one episode did: events by phase and function, stats per engine.

    Subscribed to every engine of the episode.  ``phase`` is switched
    from ``"setup"`` to ``"ops"`` when the timed ops begin, so the
    self-checks can tell set-up work from work done by the ops.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.events: Counter = Counter()
        self.stats: Counter = Counter()
        self.problems: List[str] = []
        #: Event types published by the op being timed, in order.
        self.op_events: List[str] = []

    def __call__(self, event) -> None:
        name = type(event).__name__
        self.events[(self.phase, name, event.function)] += 1
        self.op_events.append(name)

    def fold(self, engine: Engine) -> None:
        """Add ``engine``'s event-derived stats (read once, when it is done)."""
        for function, stats in engine.stats_all().items():
            for name, value in stats.as_dict().items():
                self.stats[(function, name)] += value

    def count(self, event_type: str, phase: Optional[str] = None) -> int:
        return sum(
            value
            for (event_phase, name, _), value in self.events.items()
            if name == event_type and phase in (None, event_phase)
        )

    def total(self, stat: str) -> int:
        return sum(value for (_, name), value in self.stats.items() if name == stat)

    def counts(self) -> Dict[str, int]:
        """Every count as one flat mapping (what the determinism check compares)."""
        flat = {f"events.{p}.{t}.{f}": v for (p, t, f), v in self.events.items()}
        flat.update({f"stats.{f}.{s}": v for (f, s), v in self.stats.items()})
        return flat


@dataclass
class EpisodeState:
    """The engines of one episode."""

    engine: Optional[Engine] = None
    #: Engines created by ops (warm_start restarts), folded after each op.
    restarts: List[Engine] = field(default_factory=list)
    store: Optional[Path] = None


class Workload:
    """Seeded inputs, set-up, ops, reference outputs and self-checks."""

    name = ""
    why = ""
    config = BASE_CONFIG
    source = ""

    def __init__(self, seed: int, *, workdir: Path, size: str = "full") -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: List[Input] = []
        #: One op per entry: the indices of the inputs it calls, in order.
        self.script: List[Tuple[int, ...]] = []

    def draw_seed(self) -> int:
        return self.rng.randrange(1 << 30)

    def add_input(self, function: str, args: Sequence[int], memory: Memory) -> int:
        self.inputs.append(Input(function, tuple(int(a) for a in args), memory))
        return len(self.inputs) - 1

    def references(self) -> List[Tuple[Optional[int], Dict[int, int]]]:
        """Value and final memory of every input under the plain interpreter."""
        module = compile_program(self.source)
        expected = []
        for item in self.inputs:
            memory = item.memory.copy()
            result = Interpreter(module).run(
                module.get(item.function), item.args, memory=memory
            )
            expected.append((result.value, memory.snapshot()))
        return expected

    def new_engine(self, tally: Tally) -> Engine:
        engine = Engine.from_source(self.source, config=self.config)
        engine.subscribe(tally)
        return engine

    def warm(self, engine: Engine, indices: Sequence[int], rounds: int) -> None:
        for _ in range(rounds):
            for index in indices:
                item = self.inputs[index]
                engine.call(item.function, item.args, memory=item.memory.copy())

    # -- per-episode protocol (the harness times setup and execute) ----- #
    def setup(self, tally: Tally) -> EpisodeState:
        raise NotImplementedError

    def execute(self, state: EpisodeState, calls: Sequence[Tuple[Input, Memory]]):
        """Run one op; returns one result value per call."""
        engine = state.engine
        return [
            engine.call(item.function, item.args, memory=memory).value
            for item, memory in calls
        ]

    def settle(self, state: EpisodeState, tally: Tally) -> None:
        """Untimed bookkeeping after each op."""
        for engine in state.restarts:
            tally.fold(engine)
        state.restarts.clear()

    def finish(self, state: EpisodeState, tally: Tally) -> None:
        """Untimed end of a complete episode: fold stats, run the self-checks."""
        if state.engine is not None:
            tally.fold(state.engine)
        tally.problems.extend(self.check(tally))

    def teardown(self, state: EpisodeState) -> None:
        if state.store is not None:
            shutil.rmtree(state.store, ignore_errors=True)

    def check(self, tally: Tally) -> List[str]:
        """Self-checks: the mechanism this workload exists for was exercised."""
        return []


class Steady(Workload):
    """Warm calls only: every function is optimized before the first op."""

    name = "steady"
    why = "warmed engines serve requests of warm calls to fib, straight-line, call and loop kernels: the warm-call dispatch path, no builds or deopts"
    LOOP_KERNELS = ("bzip2", "hmmer", "sjeng", "vp8")
    #: fib(12) re-enters runtime dispatch for every one of its ~465 calls.
    FIB_N = 12
    #: An op is one request: a straight-line or call kernel on each of
    #: its ``VARIANTS`` data variants, ``PASSES`` times over; a loop
    #: kernel on each of its ``LOOP_VARIANTS``; or one fib call.  A
    #: request of several warm calls is timed as a whole, because the
    #: first call of a kernel after other work waits on the host's
    #: caches: on a shared host one call's time swings by 2x from one
    #: minute to the next.  Per round: one request per kernel and four
    #: fib calls, which puts the median among the kernel requests and
    #: the 90th percentile in the middle of the fib calls, away from the
    #: edges between groups, where a percentile would jump with small
    #: changes.
    VARIANTS = 4
    PASSES = 2
    LOOP_VARIANTS = 2
    FIB_PER_ROUND = 4
    ROUNDS = {"full": 10, "tiny": 3}
    WARM_ROUNDS = 12

    def __init__(self, seed: int, *, workdir: Path, size: str = "full") -> None:
        super().__init__(seed, workdir=workdir, size=size)
        self.source = "\n".join(
            [STRAIGHT_LINE_SOURCES[name] for name in STRAIGHT_LINE_NAMES]
            + [CALL_KERNEL_SOURCES[name] for name in ("helper_loop", "chain", "fib", "clamp_call")]
            + [BENCHMARK_SOURCES[name] for name in self.LOOP_KERNELS]
        )
        requests: List[Tuple[int, ...]] = []
        for name in STRAIGHT_LINE_NAMES:
            variants = tuple(
                self.add_input(name, *straightline_arguments(name, seed=self.draw_seed()))
                for _ in range(self.VARIANTS)
            )
            requests.append(variants * self.PASSES)
        for name in ("helper_loop", "chain", "clamp_call"):
            variants = tuple(
                self.add_input(name, *call_kernel_arguments(name, seed=self.draw_seed()))
                for _ in range(self.VARIANTS)
            )
            requests.append(variants * self.PASSES)
        for name in self.LOOP_KERNELS:
            requests.append(tuple(
                self.add_input(name, *benchmark_arguments(name, seed=self.draw_seed()))
                for _ in range(self.LOOP_VARIANTS)
            ))
        fib = self.add_input("fib", (self.FIB_N,), Memory())
        requests.extend([(fib,)] * self.FIB_PER_ROUND)
        for _ in range(self.ROUNDS[size]):
            self.rng.shuffle(requests)
            self.script.extend(requests)

    def setup(self, tally: Tally) -> EpisodeState:
        engine = self.new_engine(tally)
        # Warm until a whole round publishes no event: every function is
        # optimized and every speculation it keeps holds for every input.
        indices = range(len(self.inputs))
        for round_index in range(self.WARM_ROUNDS):
            before = sum(tally.events.values())
            self.warm(engine, indices, 1)
            if round_index > self.config.hotness_threshold and sum(tally.events.values()) == before:
                break
        return EpisodeState(engine=engine)

    def check(self, tally: Tally) -> List[str]:
        problems = []
        for event in ("TierUp", "GuardFailed"):
            if tally.count(event, "ops"):
                problems.append(f"steady: {tally.count(event, 'ops')} {event} events in the timed ops")
        return problems


class TierupChurn(Workload):
    """Cold functions called just past the hotness threshold: builds dominate."""

    name = "tierup_churn"
    why = "a cold module of many generated bodies, each called just past the hotness threshold under strict verification: builds dominate"
    config = BASE_CONFIG.replace(verify_deopt="strict")
    #: Generator seeds of the corpus (fixed; the run seed draws the inputs).
    CORPUS_SEED = 7919
    FUNCTIONS = {"full": 30, "tiny": 4}
    #: The loop bound every call passes: a fixed input size.
    N = 6

    def __init__(self, seed: int, *, workdir: Path, size: str = "full") -> None:
        super().__init__(seed, workdir=workdir, size=size)
        names = [f"churn{i}" for i in range(self.FUNCTIONS[size])]
        self.source = "\n".join(
            random_minic_function(name, self.CORPUS_SEED + i) for i, name in enumerate(names)
        )
        calls = self.config.hotness_threshold + 1
        for name in names:
            for _ in range(calls):
                memory = Memory()
                base = memory.allocate(8)
                memory.write_array(base, [self.rng.randint(-20, 20) for _ in range(8)])
                self.add_input(name, (base, self.N), memory)
        order = list(range(len(self.inputs)))
        self.rng.shuffle(order)
        self.script = [(index,) for index in order]
        self.names = names

    def setup(self, tally: Tally) -> EpisodeState:
        return EpisodeState(engine=self.new_engine(tally))

    def check(self, tally: Tally) -> List[str]:
        problems = []
        for name in self.names:
            builds = tally.events[("ops", "TierUp", name)]
            if builds != 1:
                problems.append(f"tierup_churn: @{name} was built {builds} times, expected once")
        if tally.count("SoundnessViolation"):
            problems.append("tierup_churn: soundness violations were published")
        return problems


class PhaseShift(Workload):
    """Input regimes that shift in blocks: guard failures, deopts, evictions."""

    name = "phase_shift"
    why = "speculative, polymorphic and inlining kernels whose input regime shifts in blocks: guard failures, deopts, invalidation, version eviction"
    config = INLINING_CONFIG
    #: Regimes per kernel; the first is the warm-up regime.  The
    #: polymorphic kernels get six modes, more than ``max_versions`` holds.
    REGIMES: Dict[str, Tuple[int, ...]] = {
        "dispatch": (0, 1, 2),
        "clamp_sum": (0, 1),
        "phase_field": (0, 1),
        **{name: tuple(range(6)) for name in POLYMORPHIC_NAMES},
        "clamp_call": (0, 1),
    }
    BLOCKS = {"full": 12, "tiny": 6}
    BLOCK_ROUNDS = 8

    def __init__(self, seed: int, *, workdir: Path, size: str = "full") -> None:
        super().__init__(seed, workdir=workdir, size=size)
        self.source = "\n".join(
            [SPECULATIVE_SOURCES[name] for name in SPECULATIVE_NAMES]
            + [POLYMORPHIC_SOURCES[name] for name in POLYMORPHIC_NAMES]
            + [CALL_KERNEL_SOURCES["clamp_call"]]
        )
        # Two data variants per (kernel, regime).
        self.pool: Dict[Tuple[str, int], List[int]] = {}
        for kernel, regimes in self.REGIMES.items():
            for regime in regimes:
                self.pool[(kernel, regime)] = [
                    self.add_input(kernel, *self._arguments(kernel, regime))
                    for _ in range(2)
                ]
        # Each kernel steps through its regimes in a fixed cyclic order
        # from a seeded start, so every seed shifts regime as often: the
        # polymorphic kernels never meet a mode still in their version
        # table, and every mechanism appears in every episode.
        start = {kernel: self.rng.randrange(len(regimes)) for kernel, regimes in self.REGIMES.items()}
        for block in range(self.BLOCKS[size]):
            for _ in range(self.BLOCK_ROUNDS):
                kernels = list(self.REGIMES)
                self.rng.shuffle(kernels)
                for kernel in kernels:
                    regimes = self.REGIMES[kernel]
                    regime = regimes[(start[kernel] + block) % len(regimes)]
                    self.script.append((self.rng.choice(self.pool[(kernel, regime)]),))

    def _arguments(self, kernel: str, regime: int):
        seed = self.draw_seed()
        if kernel == "dispatch":
            args, memory = speculative_arguments(kernel, seed=seed)
            return [regime, *args[1:]], memory
        if kernel in SPECULATIVE_NAMES:
            return speculative_arguments(kernel, seed=seed, violate=bool(regime))
        if kernel in POLYMORPHIC_NAMES:
            return polymorphic_arguments(kernel, regime, seed=seed)
        return call_kernel_arguments(kernel, seed=seed, violate=bool(regime))

    def setup(self, tally: Tally) -> EpisodeState:
        engine = self.new_engine(tally)
        warm = [self.pool[(kernel, regimes[0])][0] for kernel, regimes in self.REGIMES.items()]
        self.warm(engine, warm, self.config.hotness_threshold + 2)
        return EpisodeState(engine=engine)

    def check(self, tally: Tally) -> List[str]:
        required = {
            "GuardFailed": "guard failures",
            "DispatchedOSR": "continuation hits",
            "DeoptimizingOSR": "slow deopts",
            "MultiFrameDeopt": "multi-frame deopts",
            "Invalidated": "invalidations",
            "VersionRetired": "retired versions",
        }
        return [
            f"phase_shift: no {label} in the timed ops"
            for event, label in required.items()
            if not tally.count(event, "ops")
        ]


class WarmStart(Workload):
    """Restarts from a filled artifact store: the store layer on every op."""

    name = "warm_start"
    why = "each op reopens the engine from a store filled in set-up and calls every entry once: store decode, hydrate and strict verification"
    # Inlining makes clamp_call's version carry a multi-frame deopt plan,
    # so restores decode and verify one.
    config = INLINING_CONFIG.replace(verify_deopt="strict")
    ENTRIES = ("poly8", "clamp_call")
    #: Enough restarts per episode for a 90th percentile over them.
    RESTARTS = {"full": 110, "tiny": 3}

    def __init__(self, seed: int, *, workdir: Path, size: str = "full") -> None:
        super().__init__(seed, workdir=workdir, size=size)
        self.source = STRAIGHT_LINE_SOURCES["poly8"] + CALL_KERNEL_SOURCES["clamp_call"]
        variants: Dict[str, List[int]] = {
            "poly8": [self.add_input("poly8", *args) for args in self._poly8_variants()],
            "clamp_call": [
                self.add_input("clamp_call", *call_kernel_arguments("clamp_call", seed=self.draw_seed()))
                for _ in range(2)
            ],
        }
        for _ in range(self.RESTARTS[size]):
            self.script.append(tuple(self.rng.choice(variants[name]) for name in self.ENTRIES))
        self.functions = sorted(
            function.name for function in compile_program(self.source)
        )

    def _poly8_variants(self):
        """Two seeded ``poly8`` inputs whose arguments differ in every position.

        Where both share an argument, the profile sees a constant and the
        engine specializes on it: the stored version grows by half and
        every restart takes a fifth longer, on about a third of the
        seeds.  Distinct arguments keep the restored versions the same
        shape on every seed (``clamp_call``'s arguments are fixed).
        """
        first = straightline_arguments("poly8", seed=self.draw_seed())
        while True:
            second = straightline_arguments("poly8", seed=self.draw_seed())
            if all(a != b for a, b in zip(first[0], second[0])):
                return first, second

    def setup(self, tally: Tally) -> EpisodeState:
        engine = self.new_engine(tally)
        self.warm(engine, range(len(self.inputs)), self.config.hotness_threshold + 2)
        self.workdir.mkdir(parents=True, exist_ok=True)
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        engine.save(store)
        return EpisodeState(engine=engine, store=store)

    def execute(self, state: EpisodeState, calls: Sequence[Tuple[Input, Memory]]):
        engine = Engine.open(self.source, state.store, config=self.config)
        state.restarts.append(engine)
        return [
            engine.call(item.function, item.args, memory=memory).value
            for item, memory in calls
        ]

    def settle(self, state: EpisodeState, tally: Tally) -> None:
        for engine in state.restarts:
            # Hydration publishes before anyone can subscribe: read the
            # restart's own event log instead.
            for event in engine.events:
                tally(event)
            missing = sorted(set(self.functions) - set(engine.restored_functions))
            if missing:
                tally.problems.append(f"warm_start: restart did not restore {missing}")
        super().settle(state, tally)

    def check(self, tally: Tally) -> List[str]:
        builds = tally.count("TierUp", "ops")
        return [f"warm_start: {builds} TierUp events after restarts"] if builds else []


WORKLOADS = {cls.name: cls for cls in (Steady, TierupChurn, PhaseShift, WarmStart)}


def make_workload(name: str, seed: int, *, workdir: Path, size: str = "full") -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return cls(seed, workdir=workdir, size=size)
