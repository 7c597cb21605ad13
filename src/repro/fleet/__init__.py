"""Fleet-scale pairwise deviation: one all-pairs engine, two count sources.

The paper's marketing scenario at production scale: ``N`` stores, all
``N (N - 1) / 2`` pairwise deviations, computed by filling the no-scan
delta* bound matrix first and measuring exactly only the pairs the
bound cannot certify. One engine owns the pairs, their memo, the
bounds, pruning and the matrices; two count sources feed it:

* :mod:`repro.fleet.matrix` -- the engine, :class:`FleetMatrix` (the
  result), and :class:`FleetDeviationMatrix`, whose counts come from
  the stores' rows: every dataset scanned once per GCR family (not once
  per pair), optional thread/process fan-out, and incremental
  single-store updates when a log appends;
* :mod:`repro.fleet.federated` -- :class:`SketchFleet`, whose counts
  come from exchanged wire payloads (no rows at the comparer); built
  via :meth:`FleetDeviationMatrix.from_sketches`;
* :mod:`repro.fleet.vocab` -- :class:`LitsVocabulary`, the fleet-wide
  itemset id space every lits pair (GCR, counts, delta*) gathers from;
* :mod:`repro.fleet.counting` -- the batched per-store scans;
* :mod:`repro.fleet.analysis` -- grouping (threshold components),
  report assembly, and CSV export.
"""

from repro.fleet.analysis import components, fleet_report, matrix_to_csv
from repro.fleet.counting import count_lits_stores, prime_partition_passes
from repro.fleet.federated import SketchFleet
from repro.fleet.matrix import FleetDeviationMatrix, FleetMatrix
from repro.fleet.vocab import LitsVocabulary, probe_itemsets

__all__ = [
    "FleetDeviationMatrix",
    "FleetMatrix",
    "LitsVocabulary",
    "SketchFleet",
    "components",
    "count_lits_stores",
    "fleet_report",
    "matrix_to_csv",
    "prime_partition_passes",
    "probe_itemsets",
]
