"""Layer tracing from outside the program.

:class:`Tracer` wraps public functions of ``repro`` classes while it is
installed, recording one span per call: name, start, end (``perf_counter_ns``)
and the index of the enclosing span.  Spans stay in memory in flat arrays
and are written out only when asked.  A span's self time is its duration
minus the durations of its direct children.

Nothing in the program is changed on disk; :meth:`Tracer.remove` puts the
original functions back, so untraced rounds run unwrapped code.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

#: ``(module, class, function)`` triples wrapped by the tracer.  The span
#: name is ``Class.function``.
TRACED = (
    ("repro.runtime.engine", "StreamEngine", "process"),
    ("repro.runtime.engine", "StreamEngine", "process_many"),
    ("repro.runtime.engine", "StreamEngine", "flush"),
    ("repro.runtime.engine", "StreamEngine", "pop_results"),
    ("repro.runtime.engine", "StreamEngine", "add_query"),
    ("repro.runtime.engine", "StreamEngine", "remove_query"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "process"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "process_many"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "flush"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "pop_results_all"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "add_query"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "remove_query"),
    ("repro.runtime.sharding", "ShardedStreamEngine", "reshard"),
    ("repro.runtime.sharding", "ShardPlanner", "maybe_reshard"),
    ("repro.core.chain_base", "SlicedChainBase", "process_batch"),
    ("repro.operators.sliced_join", "SlicedBinaryJoin", "process_batch"),
    ("repro.operators.count_join", "CountSlicedBinaryJoin", "process_batch"),
    ("repro.engine.spill", "SpilledState", "purge"),
    ("repro.engine.spill", "SpilledState", "probe"),
    ("repro.engine.spill", "SpilledState", "flush"),
    ("repro.engine.spill", "SpillableJoinMixin", "spill"),
    ("repro.engine.spill", "SpillableJoinMixin", "spill_flush"),
    ("repro.engine.metrics", "MetricsCollector", "snapshot"),
)

#: The span whose return value is the list of joined pairs a chain produced.
_CHAIN = "SlicedChainBase.process_batch"


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{class_name}.{function}" for _, class_name, function in TRACED]
        self._originals: list[tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counts."""
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._current = -1
        self.chain_matches = 0

    def install(self) -> None:
        import importlib

        for name_id, (module_name, class_name, function) in enumerate(TRACED):
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[function]
            self._originals.append((cls, function, original))
            setattr(cls, function, self._wrap(original, name_id, self.names[name_id] == _CHAIN))

    def remove(self) -> None:
        for cls, function, original in reversed(self._originals):
            setattr(cls, function, original)
        self._originals = []

    def _wrap(self, original, name_id: int, count_matches: bool):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(tracer.start)
            parent = tracer._current
            tracer.name_of.append(name_id)
            tracer.parent.append(parent)
            tracer.end.append(0)
            tracer._current = index
            tracer.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer._current = parent
            if count_matches:
                tracer.chain_matches += len(result)
            return result

        return traced

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_of, dtype=np.int32)
        duration = (end - start).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) / 1e6 for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.name_of, dtype=np.int32), minlength=len(self.names)
        )
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON: names plus ``[name, start, end, parent]`` rows."""
        rows = [
            [self.name_of[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": rows}, handle)
