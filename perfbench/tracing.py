"""In-memory spans around the benchmark's calls into the library.

Spans are recorded from the benchmark's own code, at each call into a
public function of a ksparadox module; the library itself is not
instrumented.  A span's name is "<layer>.<what>", where the layer is the
ksparadox module called ("ksgraph", "solver", ...), "cli" for a CLI child
process, or "bench" for the benchmark's own checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Records (name, start, end, parent, operation id) spans in memory.

    While disabled it records nothing, so an untraced operation pays only
    for entering an empty context manager.  Spans are written out by the
    caller when the run ends.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = ""
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, op_ids: set[str]) -> list[float]:
        """Durations of the spans called name within the given operations."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["op"] in op_ids
        ]

    def self_times(self, op_ids: set[str]) -> dict[str, list[float]]:
        """Per layer, its self time in each of the given operations.

        A span's self time is its duration minus the durations of its
        children; a layer's self time in an operation sums its spans'.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        per_op: dict[str, dict[str, float]] = {op: {} for op in op_ids}
        for s in self.spans:
            if s["op"] in per_op:
                layer = s["name"].split(".", 1)[0]
                own = s["end"] - s["start"] - child_time[s["id"]]
                per_op[s["op"]][layer] = per_op[s["op"]].get(layer, 0.0) + own
        layers = {layer for times in per_op.values() for layer in times}
        return {
            layer: [times.get(layer, 0.0) for times in per_op.values()]
            for layer in layers
        }
