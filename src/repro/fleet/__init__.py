"""Fleet-scale pairwise deviation: delta*-pruned all-pairs matrices.

The paper's marketing scenario at production scale: ``N`` store
datasets, all ``N (N - 1) / 2`` pairwise deviations, computed by
filling the no-scan delta* bound matrix first and exactly re-scanning
only the pairs the bound cannot certify -- with every dataset scanned
once per GCR family (not once per pair), optional thread/process
fan-out, and incremental single-store updates when a log appends.

* :mod:`repro.fleet.matrix` -- :class:`FleetDeviationMatrix` (the
  engine) and :class:`FleetMatrix` (the result);
* :mod:`repro.fleet.vocab` -- :class:`LitsVocabulary`, the fleet-wide
  itemset id space every lits pair (GCR, counts, delta*) gathers from;
* :mod:`repro.fleet.counting` -- the batched per-store scans;
* :mod:`repro.fleet.analysis` -- grouping (threshold components),
  report assembly, and CSV export;
* :mod:`repro.fleet.federated` -- :class:`SketchFleet`, the same matrix
  computed purely from exchanged wire payloads (no rows at the
  comparer); built via :meth:`FleetDeviationMatrix.from_sketches`.
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
