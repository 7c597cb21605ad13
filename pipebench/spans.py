"""Span recorder for the traced run, kept in the benchmark's own files.

The recorder wraps the public calls into each layer where the caller
looks the name up -- a module global such as ``repro.fleet.matrix.gcr``
or a method on its class -- one span per call, and restores every name
when the traced pass ends. Spans stay in memory (name, start, end,
parent, op id) until the run ends; a span's self time is its duration
minus the time its direct children cover. :meth:`write_chrome_trace`
dumps them as Chrome trace-event JSON (open in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: The layer spans, in pipeline order. ``data.parse`` and ``mining.mine``
#: are opened by the workloads themselves around the reader and builder.
LAYERS = (
    "data.parse",
    "data.index_build",
    "data.support_counts",
    "mining.mine",
    "core.gcr",
    "core.bound",
    "core.deviate",
    "core.qualify",
    "stream.push",
    "stream.sketch",
    "stats.membership",
    "stats.draw",
    "stats.replicate",
    "stats.null",
    "fleet.exhaustive",
    "fleet.pruned",
    "fleet.bound_matrix",
    "fleet.from_sketches",
    "wire.pack",
    "wire.unpack",
    "resilience.checkpoint",
)

#: ``(module, attribute, span)``: ``attribute`` is a module global or
#: ``Class.method``, named where the calling code looks it up.
TARGETS = (
    ("repro.data.transactions", "BitmapIndex.__init__", "data.index_build"),
    ("repro.data.transactions", "BitmapIndex.support_counts",
     "data.support_counts"),
    ("repro.fleet.matrix", "gcr", "core.gcr"),
    ("repro.fleet.federated", "gcr", "core.gcr"),
    ("repro.fleet.matrix", "upper_bound_deviation", "core.bound"),
    ("repro.fleet.federated", "upper_bound_deviation", "core.bound"),
    ("repro.stream.monitor", "deviation_from_counts", "core.deviate"),
    ("repro.stats.resample_plan", "deviation_from_counts", "core.deviate"),
    ("repro.fleet.matrix", "deviation_from_counts", "core.deviate"),
    ("repro.fleet.federated", "deviation_from_counts", "core.deviate"),
    ("repro.core.monitor", "ChangeMonitor.observe_precomputed", "core.qualify"),
    ("repro.stream.monitor", "OnlineChangeMonitor.push", "stream.push"),
    ("repro.stream.sketch", "SupportSketch.from_transactions", "stream.sketch"),
    ("repro.stream.sketch", "SupportSketch.from_dataset", "stream.sketch"),
    ("repro.stream.sketch", "PartitionSketch.from_dataset", "stream.sketch"),
    ("repro.stream.monitor", "lits_membership", "stats.membership"),
    ("repro.stats.resample_plan", "lits_membership", "stats.membership"),
    ("repro.stats.resample_plan", "draw_multiplicities", "stats.draw"),
    ("repro.stats.resample_plan", "LitsResamplePlan.replicate_counts",
     "stats.replicate"),
    ("repro.stats.resample_plan", "PackedLitsResamplePlan.replicate_counts",
     "stats.replicate"),
    ("repro.stats.resample_plan", "PartitionResamplePlan.replicate_counts",
     "stats.replicate"),
    ("repro.stats.resample_plan", "ResamplePlan.null_deviations", "stats.null"),
    ("repro.fleet.matrix", "FleetDeviationMatrix.exhaustive",
     "fleet.exhaustive"),
    ("repro.fleet.federated", "SketchFleet.exhaustive", "fleet.exhaustive"),
    ("repro.fleet.matrix", "FleetDeviationMatrix.pruned", "fleet.pruned"),
    ("repro.fleet.federated", "SketchFleet.pruned", "fleet.pruned"),
    ("repro.fleet.matrix", "FleetDeviationMatrix.bound_matrix",
     "fleet.bound_matrix"),
    ("repro.fleet.federated", "SketchFleet.bound_matrix", "fleet.bound_matrix"),
    ("repro.fleet.matrix", "FleetDeviationMatrix.from_sketches",
     "fleet.from_sketches"),
    ("repro.wire", "pack", "wire.pack"),
    ("repro.resilience.checkpoint", "pack", "wire.pack"),
    ("repro.wire", "unpack", "wire.unpack"),
    ("repro.fleet.federated", "read_envelope", "wire.unpack"),
    ("repro.fleet.federated", "model_from_envelope", "wire.unpack"),
    ("repro.stream.monitor", "OnlineChangeMonitor.checkpoint",
     "resilience.checkpoint"),
)

#: ``(module, attribute)``: calls whose first argument's length is added
#: to :data:`ROWS_WRITTEN` -- the rows a checkpoint rewrites.
ROW_WRITERS = (
    ("repro.resilience.checkpoint", "save_transactions"),
    ("repro.resilience.checkpoint", "save_tabular"),
)
ROWS_WRITTEN = "resilience.checkpoint.rows_written"

#: regions returned by every ``core.gcr`` call
GCR_REGIONS = "core.gcr.regions"

_NAME, _START, _END, _PARENT, _OP = range(5)


class _Span:
    __slots__ = ("_recorder", "_name", "_index")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._index = self._recorder._open(self._name)

    def __exit__(self, *exc: object) -> None:
        self._recorder._close(self._index)


class SpanRecorder:
    """In-memory layer spans and call counters of the traced passes."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: ``(start, end)`` of every traced pass
        self.passes: list[tuple[float, float]] = []
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        """Start a new operation: a stream chunk or a fleet matrix."""
        self.op += 1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts_regions = name == "core.gcr"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts_regions:
                self.counters[GCR_REGIONS] += len(result.regions)
            return result

        return traced

    def _count_rows(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counters[ROWS_WRITTEN] += len(args[0])
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def traced_pass(self) -> Iterator["SpanRecorder"]:
        """Patch every target for one pass, then restore the originals."""
        undo = []
        try:
            for module, attribute, name in TARGETS:
                undo.append(_patch(
                    module, attribute,
                    lambda fn, name=name: self._wrap(name, fn),
                ))
            for module, attribute in ROW_WRITERS:
                undo.append(_patch(module, attribute, self._count_rows))
            start = time.perf_counter()
            yield self
            self.passes.append((start, time.perf_counter()))
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    @property
    def traced_wall_s(self) -> float:
        return sum(end - start for start, end in self.passes)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over every traced pass."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        totals = {name: [0, 0.0] for name in LAYERS}
        for span, children in zip(self.spans, covered):
            total = totals[span[_NAME]]
            total[0] += 1
            total[1] += span[_END] - span[_START] - children
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def unattributed_s(self) -> float:
        """Traced wall time that no top-level layer span covers."""
        top = sum(
            span[_END] - span[_START] for span in self.spans if span[_PARENT] < 0
        )
        return self.traced_wall_s - top

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        origin = self.passes[0][0] if self.passes else 0.0
        events = [
            {
                "name": "pass", "cat": "pass", "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            }
            for start, end in self.passes
        ]
        events += [
            {
                "name": span[_NAME], "cat": span[_NAME].split(".")[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (span[_START] - origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "args": {"op": span[_OP], "parent": span[_PARENT]},
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": metadata}
        ))


def _patch(
    module: str, attribute: str, make: Callable[[Callable[..., Any]], Any]
) -> tuple[Any, str, Any]:
    """Replace ``module.attribute`` by ``make(original)``; return the undo."""
    owner: Any = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    try:
        original = vars(owner)[name]
    except KeyError:
        raise LookupError(
            f"trace target {module}.{attribute} no longer exists; update "
            "spans.TARGETS"
        ) from None
    if isinstance(original, classmethod):
        replacement: Any = classmethod(make(original.__func__))
    else:
        replacement = make(original)
    setattr(owner, name, replacement)
    return owner, name, original
