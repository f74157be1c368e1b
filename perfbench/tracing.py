"""Layer spans recorded from outside the engine.

Nothing under ``src/`` knows it is being traced: :func:`instrument`
temporarily replaces the public entry point of each layer (a class
method, or a module function at the name its caller resolves) with a
wrapper that records one span per call — name, start, end, parent span
and op id — into a :class:`SpanRecorder`, and restores the originals on
exit.  Spans stay in memory (flat arrays, a few dozen bytes each) until
:meth:`SpanRecorder.write_csv` writes them out at the end of a run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`layer_times`).  The benchmark's
own root spans (:data:`ROOT_SPANS`) wrap every set-up and every op, so
their self time is the traced wall time no layer span covers.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ROOT_SPANS",
    "LayerTime",
    "SpanRecorder",
    "instrument",
    "layer_group",
    "layer_times",
]

#: Spans the benchmark opens itself around each set-up and each op.
ROOT_SPANS = ("setup", "op")


@dataclass
class LayerTime:
    """Calls and self time (seconds) of one span name."""

    calls: int = 0
    self_s: float = 0.0


def layer_times(
    names: Sequence[str],
    name_ids: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, LayerTime]:
    """Self time per span name: duration minus the time child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root.  Spans of one thread nest strictly, so the children of a span
    never overlap and the covered part is the sum of their durations.
    """
    covered = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    times: Dict[str, LayerTime] = {}
    for index, name_id in enumerate(name_ids):
        entry = times.setdefault(names[name_id], LayerTime())
        entry.calls += 1
        entry.self_s += ends[index] - starts[index] - covered[index]
    return times


def layer_group(name: str) -> str:
    """The layer a span belongs to: ``vm.<module>``, else its first component."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "vm" else parts[0]


class SpanRecorder:
    """In-memory span store of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        #: Id of the op being executed (``-1`` outside ops, e.g. in set-up).
        self.op_id = -1
        #: Work counted at the layer boundaries (IR sizes, artifacts built).
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._artifacts: "weakref.WeakSet" = weakref.WeakSet()

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def __len__(self) -> int:
        return len(self.starts)

    def _begin(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call; ``after`` counts work."""
        name_id = self.name_id(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def times(self) -> Dict[str, LayerTime]:
        return layer_times(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def write_csv(self, path: Path) -> None:
        """Every span, times in microseconds from the first span's start."""
        origin = self.starts[0] if len(self.starts) else 0.0
        names = self.names
        rows = zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)
        with open(path, "w") as handle:
            # Span names are dotted identifiers, so no field needs quoting.
            handle.write("span,name,start_us,end_us,parent,op\n")
            handle.writelines(
                f"{index},{names[name_id]},{(start - origin) * 1e6:.3f},"
                f"{(end - origin) * 1e6:.3f},{parent},{op}\n"
                for index, (name_id, start, end, parent, op) in enumerate(rows)
            )


def _instruction_count(function) -> int:
    return sum(1 for _ in function.instructions())


def _count_ir(recorder: SpanRecorder, args: tuple, pair) -> None:
    # OSRTransDriver.run(self, function): the base is left untouched.
    recorder.counters["core.osr_trans.ir_in"] += _instruction_count(args[1])
    recorder.counters["core.osr_trans.ir_out"] += _instruction_count(pair.optimized)


def _count_artifact(recorder: SpanRecorder, args: tuple, artifact) -> None:
    # ClosureCompiler.compile returns a cached artifact on a hit; an
    # object never seen before is a newly lowered one.
    if artifact not in recorder._artifacts:
        recorder._artifacts.add(artifact)
        recorder.counters["vm.codegen.misses"] += 1
        recorder.counters["vm.codegen.source_bytes"] += len(artifact.source)


def _targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, counter hook)`` per wrapped entry point."""
    import repro.engine.facade as facade
    import repro.frontend.lowering as lowering
    import repro.store.persist as persist
    import repro.vm.runtime as runtime
    from repro.core.frames import FramePlan
    from repro.core.osr_trans import OSRTransDriver, VersionPair
    from repro.ir.interp import Interpreter
    from repro.passes import (
        AggressiveDCE,
        CodeSinking,
        CommonSubexpressionElimination,
        ConstantPropagationPass,
        InlineCalls,
        LoopCanonicalization,
        LoopClosedSSA,
        LoopInvariantCodeMotion,
        SparseConditionalConstantPropagation,
        SpeculativeGuards,
        SuperinstructionFusion,
    )
    from repro.vm.backend import CompiledBackend, InterpreterBackend
    from repro.vm.closure_compile import ClosureCompiler
    from repro.vm.profile import ShardedValueProfile

    passes = {
        "lcssa": LoopClosedSSA,
        "constprop": ConstantPropagationPass,
        "sccp": SparseConditionalConstantPropagation,
        "cse": CommonSubexpressionElimination,
        "licm": LoopInvariantCodeMotion,
        "sink": CodeSinking,
        "adce": AggressiveDCE,
        "fuse": SuperinstructionFusion,
        "loopcanon": LoopCanonicalization,
        "speculate": SpeculativeGuards,
        "inline": InlineCalls,
    }
    Engine = facade.Engine
    return [
        ("engine.from_source", Engine, "from_source", None),
        ("engine.open", Engine, "open", None),
        ("engine.call", Engine, "call", None),
        # Engine.from_source resolves compile_program in the facade module.
        ("frontend", facade, "compile_program", None),
        ("ssa.mem2reg", lowering, "promote_memory_to_registers", None),
        *((f"passes.{name}", cls, "run", None) for name, cls in passes.items()),
        ("core.osr_trans", OSRTransDriver, "run", _count_ir),
        ("core.forward_mapping", VersionPair, "forward_mapping", None),
        ("core.deopt_plans", VersionPair, "deopt_plans", None),
        ("core.frames.transfer", FramePlan, "transfer", None),
        ("core.osrkit.make_continuation", runtime, "make_continuation", None),
        ("vm.profile.merged", ShardedValueProfile, "merged", None),
        ("analysis.soundness.verify", runtime, "verify_version", None),
        ("vm.runtime.call", runtime.AdaptiveRuntime, "call", None),
        ("vm.codegen", ClosureCompiler, "compile", _count_artifact),
        ("vm.backend.compiled.run", CompiledBackend, "run", None),
        ("vm.backend.compiled.run_from", CompiledBackend, "run_from", None),
        ("vm.backend.interp.run", InterpreterBackend, "run", None),
        ("vm.backend.interp.run_from", InterpreterBackend, "run_from", None),
        ("ir.interp.run", Interpreter, "run", None),
        ("store.get", persist.ArtifactStore, "get", None),
        # Engine.open and Engine.snapshot import these from the module at
        # call time; hydrate_runtime calls decode_version by module name.
        ("store.hydrate", persist, "hydrate_runtime", None),
        ("store.decode", persist, "decode_version", None),
        ("store.snapshot", persist, "snapshot_runtime", None),
        ("store.save", persist.EngineSnapshot, "save", None),
    ]


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block."""
    patches = []
    try:
        for name, owner, attribute, after in _targets():
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__, after))
            else:
                wrapped = recorder.wrap(name, original, after)
            setattr(owner, attribute, wrapped)
            patches.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
