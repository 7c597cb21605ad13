"""Streaming deviation measurement: incremental, mergeable, online.

The paper's motivating loop -- "analyze the data thoroughly only if the
current snapshot differs significantly" -- is a *streaming* workload:
data arrives continuously and every window of it needs a deviation
verdict against a reference. This subsystem makes that loop incremental
end to end, for **both** dataset kinds (transactions / lits-models and
tabular / partition models):

* :mod:`repro.stream.chunks` -- chunked stream sources plus the
  appendable :class:`TransactionLog` (live incremental bitmap index)
  and :class:`TabularLog` (grow-in-place ``X``/``y`` buffers);
* :mod:`repro.stream.sketch` -- mergeable sketches:
  :class:`SupportSketch` (itemset supports) and
  :class:`PartitionSketch` (per-(cell x class) histograms), both
  combining with ``+`` and subtracting for window retirement;
* :mod:`repro.stream.executor` -- serial / thread / process map-merge
  backends for shard-parallel counting of either kind;
* :mod:`repro.stream.windows` -- the :class:`ChunkSketcher` protocol,
  its :class:`TransactionChunkSketcher` / :class:`PartitionChunkSketcher`
  implementations, and :class:`WindowManager`: tumbling and sliding
  window maintenance with no rescan of surviving rows;
* :mod:`repro.stream.monitor` -- :class:`OnlineChangeMonitor`, the
  drift loop over a live stream of either kind, layered on
  :class:`repro.core.monitor.ChangeMonitor`.
"""

from repro.stream.chunks import (
    TabularLog,
    TransactionLog,
    iter_chunks,
    iter_tabular_chunks,
    stream_tabular_chunks,
    stream_transaction_chunks,
)
from repro.stream.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    shard_dataset,
    shard_ranges,
    sharded_index_sketch,
    sharded_partition_sketch,
    sharded_support_sketch,
)
from repro.stream.monitor import OnlineChangeMonitor
from repro.stream.sketch import (
    PartitionSketch,
    SupportSketch,
    as_partition_plan,
    canonical_itemsets,
)
from repro.stream.windows import (
    ChunkSketcher,
    PartitionChunkSketcher,
    TransactionChunkSketcher,
    Window,
    WindowManager,
)

__all__ = [
    "ChunkSketcher",
    "OnlineChangeMonitor",
    "PartitionChunkSketcher",
    "PartitionSketch",
    "ProcessExecutor",
    "SerialExecutor",
    "SupportSketch",
    "TabularLog",
    "ThreadExecutor",
    "TransactionChunkSketcher",
    "TransactionLog",
    "Window",
    "WindowManager",
    "as_partition_plan",
    "canonical_itemsets",
    "get_executor",
    "iter_chunks",
    "iter_tabular_chunks",
    "shard_dataset",
    "shard_ranges",
    "sharded_index_sketch",
    "sharded_partition_sketch",
    "sharded_support_sketch",
    "stream_tabular_chunks",
    "stream_transaction_chunks",
]
