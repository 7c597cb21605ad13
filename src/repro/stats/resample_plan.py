"""Count-space bootstrap: the whole significance null from one scan.

The qualification procedure (Section 3.4) estimates the null deviation
distribution by pooling the two datasets and repeatedly resampling pairs
of the original sizes. The naive loop materialises two resampled
datasets per replicate and re-scans each from scratch, so ``n_boot``
replicates cost ``n_boot`` full dataset scans.

When the GCR structure is held fixed (``refit_models=False``, the
paper's construction), every replicate's region counts are a *linear
functional of row multiplicities*: resampling ``n`` rows with
replacement from the pool is a multinomial draw of a multiplicity
vector ``w``, and the count of region ``r`` under the resample is
``sum_i w_i * [row i in r]``. So the pooled data only needs to be
scanned **once**, into a per-row region-membership representation:

* :class:`LitsResamplePlan` -- an ``(n_rows x n_regions)`` 0/1
  membership matrix (:func:`lits_membership`: one stripe gather per
  itemset length through the collection's cached
  :class:`~repro.data.transactions.SupportCountingPlan`, unpacked
  straight into the GEMM's layout and dtype); all ``B`` replicates'
  counts are one ``(B x n_rows) @ (n_rows x n_regions)`` product.
* :class:`PartitionResamplePlan` -- the pooled cell-assignment vector
  from the partition structure's counting plan (regions are disjoint,
  so membership collapses to one index per row); replicate counts are
  ``B`` weighted bincounts.
* :class:`CountsResamplePlan` -- for *disjoint, exhaustive* regions the
  rows themselves are exchangeable within a region, so the pooled
  region counts alone determine the null: each replicate is a
  multinomial draw over region bins. Zero row-level state -- this is
  how the streaming monitor bootstraps from sketches without ever
  materialising window rows.

Exactness: multiplicities and memberships are small non-negative
integers, so every partial sum in the products is an integer below the
float mantissa limit -- replicate counts are *exact*. The row-level
plans draw their multiplicities straight into the products' float
dtype (float32 below 2**24 pooled rows, where every count is an exact
float32 integer), from the exact generator stream the loop consumes
(:func:`draw_multiplicities`). The null is
assembled in one shot -- ``f`` over the stacked ``(B, R)`` count
matrices, ``g`` once per replicate row -- which is element for element
what :func:`repro.core.deviation.deviation_from_counts` computes per
replicate, so the null equals
:func:`repro.stats.bootstrap.significance_of_statistic`'s under the
same seed, not just under shared draws (the property suite pins both).

Reproducibility: every draw goes through the caller's
``numpy.random.Generator``. Passing neither ``rng`` nor ``seed`` falls
back to an *unseeded* generator and emits a :class:`UserWarning`,
because significance numbers published from an unseeded run cannot be
reproduced.

The null is computed in-process, in one path. Fanning replicate blocks
over threads measured no faster (the lits GEMM already runs on the
host's BLAS threads), and over processes several times slower (each
block pickles the compiled membership).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro._typing import DatasetLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation_from_counts
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.model import LitsStructure, PartitionStructure, Structure
from repro.errors import IncompatibleModelsError, InvalidParameterError
from repro.obs import metrics

if TYPE_CHECKING:
    from repro.core.deviation import DeviationResult
    from repro.stats.bootstrap import BootstrapResult

#: Row counts at or above 2**24 overflow float32's exact-integer range;
#: the membership matmul then switches to float64 (still exact: counts
#: stay far below 2**53).
_FLOAT32_EXACT_ROWS = 1 << 24


def _exact_dtype(n_pooled: int) -> type[np.floating[Any]]:
    """The float dtype a lits pool of ``n_pooled`` rows counts in exactly.

    Multiplicities, memberships and every partial sum of the replicate
    GEMM are integers no larger than ``n_pooled``: float32 holds them
    exactly below 2**24 rows, float64 far beyond.
    """
    return np.float64 if n_pooled >= _FLOAT32_EXACT_ROWS else np.float32


#: Version of the bootstrap's random stream, part of the seed contract:
#: a seeded null reproduces only under the same scheme, so monitor
#: checkpoints record it and refuse to resume across a change.
#: Scheme 1 drew one ``rng.multinomial`` per side; scheme 2 draws the
#: ``(B, n1 + n2)`` row-pick matrix (:func:`draw_multiplicities`), the
#: stream the per-replicate loop oracle consumes. Scheme 3 keeps those
#: picks, draws the counts-only plan's multinomials replicate by
#: replicate, and gives every monitor qualification a child generator
#: seeded by one draw from the monitor's; the qualification draws its
#: replicates in at most two blocks and stops once its verdict is
#: settled (:class:`repro.core.monitor.ChangeMonitor`).
DRAW_SCHEME = 3

#: Cap on the transient draw state per replicate chunk: the int64 pick
#: matrix, the int64 counts of both sides and their cast to the plan's
#: float dtype (:meth:`RowResamplePlan._replicate_count_pairs`). Beyond
#: it, replicates are drawn and counted in chunks -- numpy's generator
#: draws are sequential, so chunked draws consume the identical stream
#: (pinned by test) and same-seed results never depend on the cap.
_MAX_DRAW_BYTES = 1 << 28  # 256 MiB

#: Cap on the dense lits membership matrix (float32 bytes). A pool
#: whose ``rows x regions`` product would exceed it compiles to the
#: packed plan instead (:class:`PackedLitsResamplePlan`): membership
#: stays in bit-packed form (32-64x smaller) and the GEMM runs over
#: unpacked row blocks, so the dense matrix is never resident.
_MAX_MEMBERSHIP_BYTES = 1 << 31  # 2 GiB

#: Transient budget for one unpacked membership block inside the packed
#: plan's GEMM loop (bytes of the exact float dtype). Exactness does not
#: depend on the blocking -- partial sums are integers either way -- so
#: this only trades temporaries against matmul call overhead.
_MEMBERSHIP_BLOCK_BYTES = 1 << 26  # 64 MiB


def _resolve_rng(
    rng: np.random.Generator | None, seed: int | None, caller: str
) -> np.random.Generator:
    """The caller's generator, a seeded one, or (with a warning) entropy.

    The unseeded fallback keeps ad-hoc exploration frictionless but is
    loudly discouraged: a significance number computed from OS entropy
    cannot be reproduced, which is exactly the wrong property for a
    published qualification verdict.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    warnings.warn(
        f"{caller}: no rng or seed given; falling back to an unseeded "
        "generator, so the significance estimate is not reproducible. "
        "Pass rng=np.random.default_rng(seed) or seed=... to pin it.",
        UserWarning,
        stacklevel=3,
    )
    return np.random.default_rng()


def draw_multiplicities(
    n_rows: int,
    n_sample: int | Sequence[int],
    n_boot: int,
    rng: np.random.Generator,
    dtype: type[np.number[Any]] = np.int64,
) -> np.ndarray:
    """Multiplicity vectors of ``n_boot`` with-replacement resamples.

    Each replicate picks its rows uniformly with replacement -- one
    ``rng.integers(0, n_rows, size=(n_boot, sum(sizes)))`` call, a row
    of picks per replicate -- and counts how often each pool row was
    picked (:func:`multiplicities_from_indices`). ``n`` uniform picks
    counted per row are exactly Multinomial(n, 1/n_rows).

    ``n_sample`` is one sample size, giving ``(n_boot, n_rows)``, or a
    sequence of side sizes such as a resampled pair ``(n1, n2)``. Each
    replicate's pick row then holds the sides' picks back to back, and
    the result stacks the sides side-major, ``(len(sizes) * n_boot,
    n_rows)``. That layout consumes the generator exactly as
    :func:`repro.data.sampling.bootstrap_pair` does replicate by
    replicate, so a count-space null equals the per-replicate loop's
    under the same seed (:data:`DRAW_SCHEME` 2). Drawing the replicates
    in consecutive chunks consumes the same stream as one call.

    Every side is counted by one offset ``bincount``: the picks of side
    ``s`` in replicate ``b`` are shifted in place into the bins of
    output row ``s * n_boot + b``. ``dtype`` is the result's; a float
    dtype hands the counts straight to a plan's exact-float product.
    """
    sizes = (
        [int(n_sample)] if isinstance(n_sample, (int, np.integer))
        else [int(n) for n in n_sample]
    )
    if n_rows < 1:
        raise InvalidParameterError("cannot resample from an empty pool")
    if n_boot < 0 or any(n < 0 for n in sizes):
        raise InvalidParameterError("n_sample and n_boot must be >= 0")
    picks = rng.integers(0, n_rows, size=(n_boot, sum(sizes)))
    replicate = np.arange(n_boot, dtype=np.int64)[:, None]
    start = 0
    for side, size in enumerate(sizes):
        picks[:, start : start + size] += (side * n_boot + replicate) * n_rows
        start += size
    counts = np.bincount(picks.ravel(), minlength=len(sizes) * n_boot * n_rows)
    del picks  # freed before the cast allocates, to keep the peak down
    return counts.reshape(-1, n_rows).astype(dtype, copy=False)


def multiplicities_from_indices(indices: np.ndarray, n_rows: int) -> np.ndarray:
    """Row-index draws ``(B, k)`` -> multiplicity vectors ``(B, n_rows)``.

    One offset ``bincount`` over all replicates: replicate ``b``'s picks
    are shifted into bins ``[b * n_rows, (b + 1) * n_rows)``. This is
    the counting half of :func:`draw_multiplicities`, and the bridge
    between the per-replicate loop oracle (which materialises
    ``pooled.take(indices[b])``) and the count-space engine: feeding
    both the same index draws must produce bit-identical nulls.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise InvalidParameterError("indices must be a (n_boot, k) matrix")
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise InvalidParameterError(f"indices must lie in [0, {n_rows})")
    n_boot = indices.shape[0]
    offsets = np.arange(n_boot, dtype=np.int64)[:, None] * n_rows
    counts = np.bincount(
        (indices + offsets).ravel(), minlength=n_boot * n_rows
    )
    return counts.reshape(n_boot, n_rows)


def _membership_bits(structure: LitsStructure, index: Any) -> np.ndarray:
    """Packed ``(n_regions, ceil(n/8))`` membership: the lits plans'
    compilation scan, through the counting plan the itemset collection
    caches (shared with the chunk sketcher)."""
    metrics().inc("bootstrap.membership.scans")
    return structure.itemsets.plan().intersection_bits(index)


def lits_membership(structure: LitsStructure, index: Any) -> np.ndarray:
    """``(n_transactions, n_regions)`` 0/1 float32 membership of an index.

    Column ``r`` is the index's ``intersection_bits`` of itemset ``r``
    (property-tested), from one compiled stripe gather per itemset
    length, unpacked straight into the C-contiguous layout the replicate
    GEMM reads, in float32: the GEMM's exact dtype below 2**24 pooled
    rows, so a plan adopts the block uncopied.
    """
    packed = _membership_bits(structure, index)
    n_regions, n_bytes = packed.shape
    # plane k holds bit k (MSB first) of every (byte, region) cell; row
    # 8 * byte + k of the result is plane k's row ``byte``, so one
    # masking cast interleaves the planes into the C layout
    by_byte = np.ascontiguousarray(packed.T)
    planes = np.empty((8, n_bytes, n_regions), dtype=np.uint8)
    for bit in range(8):
        np.right_shift(by_byte, 7 - bit, out=planes[bit])
    rows = np.empty((8 * n_bytes, n_regions), dtype=np.float32)
    np.bitwise_and(
        planes.transpose(1, 0, 2), 1,
        out=rows.reshape(n_bytes, 8, n_regions), casting="unsafe",
    )
    return rows[: index.n_transactions]


def _packed_prefix_counts(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-row popcount of the first ``n_bits`` bits of packed rows."""
    n_bytes = n_bits >> 3
    counts = np.bitwise_count(packed[:, :n_bytes]).sum(
        axis=1, dtype=np.int64
    )
    if n_bits & 7:
        mask = np.uint8((0xFF << (8 - (n_bits & 7))) & 0xFF)
        counts += np.bitwise_count(packed[:, n_bytes] & mask).astype(np.int64)
    return counts


# --------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------- #


class ResamplePlan(ABC):
    """Compiled count-space bootstrap of a fixed structure over a pool.

    A plan captures everything the null construction needs from the
    pooled data in one scan; :meth:`null_deviations` then emits the
    entire null vector with zero resampled-dataset materialisation, and
    :meth:`significance` packages it as a
    :class:`~repro.stats.bootstrap.BootstrapResult`.
    """

    def __init__(self, structure: Structure, n1: int, n2: int) -> None:
        if n1 < 0 or n2 < 0:
            raise InvalidParameterError("dataset sizes must be >= 0")
        if n1 + n2 < 1:
            raise InvalidParameterError("cannot resample from an empty pool")
        self.structure = structure
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.n_pooled = self.n1 + self.n2

    @abstractmethod
    def observed_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The two observed count vectors (aligned with the regions)."""

    @abstractmethod
    def _replicate_count_pairs(
        self,
        n_boot: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_boot`` replicate ``(counts1, counts2)`` matrices."""

    # ------------------------------------------------------------------ #
    # Deviation assembly
    # ------------------------------------------------------------------ #

    def observed_deviation(
        self, f: DifferenceFunction = ABSOLUTE, g: AggregateFunction = SUM
    ) -> "DeviationResult":
        """``delta_1`` of the observed split, from the compiled counts.

        Equals ``deviation_over_structure(structure, d1, d2, f, g)``
        without touching either dataset again.
        """
        counts1, counts2 = self.observed_counts()
        return deviation_from_counts(
            self.structure, counts1, counts2, self.n1, self.n2, f, g
        )

    def _null_from_count_pairs(
        self,
        counts1: np.ndarray,
        counts2: np.ndarray,
        f: DifferenceFunction,
        g: AggregateFunction,
    ) -> np.ndarray:
        """Per-replicate ``delta_1`` values from stacked count matrices.

        ``f`` is elementwise over regions, so one call over the ``(B,
        R)`` matrices gives every replicate's per-region deviations, and
        ``g`` folds each row -- the floats ``deviation_from_counts``
        computes replicate by replicate, bit for bit, without building a
        result object per replicate.
        """
        per_region = f(counts1, counts2, self.n1, self.n2)
        return np.array([g(row) for row in per_region], dtype=np.float64)

    def null_deviations(
        self,
        n_boot: int,
        rng: np.random.Generator | None = None,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
        seed: int | None = None,
    ) -> np.ndarray:
        """The whole bootstrap null vector, in count-space.

        Every draw comes from one rng stream, independent of how the
        replicates are chunked, so the result is deterministic for a
        given generator state.
        """
        if n_boot < 1:
            raise InvalidParameterError("n_boot must be >= 1")
        rng = _resolve_rng(rng, seed, "null_deviations")
        counts1, counts2 = self._replicate_count_pairs(n_boot, rng)
        return self._null_from_count_pairs(counts1, counts2, f, g)

    def significance(
        self,
        n_boot: int,
        rng: np.random.Generator | None = None,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
        seed: int | None = None,
    ) -> "BootstrapResult":
        """Observed deviation + count-space null as a ``BootstrapResult``."""
        from repro.stats.bootstrap import BootstrapResult

        observed = self.observed_deviation(f, g).value
        null = self.null_deviations(n_boot, rng, f=f, g=g, seed=seed)
        return BootstrapResult(observed=observed, null_values=null)


class RowResamplePlan(ResamplePlan):
    """A plan holding per-row state: replicates are multiplicity draws.

    Replicate ``b`` picks ``n1`` pool rows for side 1 and then ``n2``
    for side 2 (:func:`draw_multiplicities`), so under the same seed the
    null equals the per-replicate loop oracle's value for value. The
    multiplicities are drawn in the plan's exact float dtype ``_dtype``,
    the dtype its count kernel multiplies in.
    """

    _dtype: type[np.floating[Any]] = np.float64

    def _replicate_count_pairs(
        self,
        n_boot: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        # per replicate, at the draw's peak: both sides' int64 bincount
        # rows, plus either its int64 pick row (freed once counted) or
        # the two rows of their cast to the draw dtype
        itemsize = np.dtype(self._dtype).itemsize
        per_replicate = (16 + max(8, 2 * itemsize)) * self.n_pooled
        chunk = max(1, _MAX_DRAW_BYTES // per_replicate)
        parts1: list[np.ndarray] = []
        parts2: list[np.ndarray] = []
        # Paper-scale pools (millions of rows x many replicates) would
        # make the draw state multi-GB, so replicates are drawn and
        # counted in chunks; the stream is the same either way. Each
        # chunk counts both sides' stacked multiplicities in one call.
        for start in range(0, n_boot, chunk):
            b = min(chunk, n_boot - start)
            stacked_w = draw_multiplicities(
                self.n_pooled, (self.n1, self.n2), b, rng, dtype=self._dtype
            )
            stacked = self.replicate_counts(stacked_w)
            parts1.append(stacked[:b])
            parts2.append(stacked[b:])
        return np.vstack(parts1), np.vstack(parts2)

    @abstractmethod
    def replicate_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        """``(B, n_pooled)`` multiplicities -> exact ``(B, R)`` counts."""

    def _check_multiplicities(self, w: np.ndarray) -> np.ndarray:
        """Validated multiplicities in the kernel's dtype (only external
        draws need the cast)."""
        w = np.asarray(w)
        if w.ndim != 2 or w.shape[1] != self.n_pooled:
            raise InvalidParameterError(
                f"multiplicities must be (n_boot, {self.n_pooled}), got "
                f"shape {tuple(w.shape)}"
            )
        return w.astype(self._dtype, copy=False)

    def null_from_multiplicities(
        self,
        w1: np.ndarray,
        w2: np.ndarray,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
    ) -> np.ndarray:
        """The null vector for externally supplied multiplicity draws.

        This is the shared-draw seam the property suite exercises: feed
        the same draws here and to the per-replicate loop oracle and the
        two nulls must be exactly equal.
        """
        counts1 = self.replicate_counts(w1)
        counts2 = self.replicate_counts(w2)
        return self._null_from_count_pairs(counts1, counts2, f, g)


class LitsResamplePlan(RowResamplePlan):
    """Membership-matrix bootstrap for (overlapping) itemset regions.

    Memory: the compiled membership is dense -- ``4 * n_rows *
    n_regions`` bytes (float32) -- which is what buys the single-GEMM
    null. At very large scales (millions of pooled rows times
    thousands of regions) that residency dominates; callers that
    cannot afford it should fall back to the per-replicate loop
    (:func:`repro.stats.bootstrap.significance_of_statistic`), which
    stays O(rows). Replicate draws are chunked automatically, so they
    never add more than a bounded transient on top.

    Parameters
    ----------
    structure:
        The fixed :class:`~repro.core.model.LitsStructure`.
    membership_parts:
        Row blocks of the pooled ``(n_rows x n_regions)`` 0/1 membership
        matrix, in pool order (dataset 1's rows first). Keeping the
        parts separate lets a streaming caller reuse a long-lived
        reference block across windows without re-copying it.
    n1, n2:
        The original dataset sizes (``n1 + n2`` rows in the pool).
    """

    def __init__(
        self,
        structure: LitsStructure,
        membership_parts: Sequence[np.ndarray],
        n1: int,
        n2: int,
    ) -> None:
        super().__init__(structure, n1, n2)
        n_regions = len(structure.regions)
        self._dtype = dtype = _exact_dtype(self.n_pooled)
        parts: list[np.ndarray] = []
        offsets: list[int] = []
        offset = 0
        for part in membership_parts:
            part = np.asarray(part)
            if part.ndim != 2 or part.shape[1] != n_regions:
                raise InvalidParameterError(
                    f"membership parts must have {n_regions} columns, got "
                    f"shape {tuple(part.shape)}"
                )
            parts.append(np.ascontiguousarray(part, dtype=dtype))
            offsets.append(offset)
            offset += part.shape[0]
        if offset != self.n_pooled:
            raise InvalidParameterError(
                f"membership parts cover {offset} rows, expected "
                f"{self.n_pooled} (= n1 + n2)"
            )
        self._parts = tuple(parts)
        self._offsets = tuple(offsets)

    @classmethod
    def from_datasets(
        cls,
        structure: LitsStructure,
        dataset1: DatasetLike,
        dataset2: DatasetLike,
    ) -> "LitsResamplePlan":
        """Compile from the two datasets' bitmap indexes (one scan each)."""
        return cls(
            structure,
            (
                lits_membership(structure, dataset1.index),
                lits_membership(structure, dataset2.index),
            ),
            len(dataset1),
            len(dataset2),
        )

    def observed_counts(self) -> tuple[np.ndarray, np.ndarray]:
        sums = [part.sum(axis=0) for part in self._parts]
        n_regions = len(self.structure.regions)
        counts1 = np.zeros(n_regions, dtype=np.float64)
        counts2 = np.zeros(n_regions, dtype=np.float64)
        for part_sum, off, part in zip(sums, self._offsets, self._parts):
            # a part straddling the n1 boundary is split column-sum-wise
            if off + part.shape[0] <= self.n1:
                counts1 += part_sum
            elif off >= self.n1:
                counts2 += part_sum
            else:
                split = self.n1 - off
                counts1 += part[:split].sum(axis=0)
                counts2 += part[split:].sum(axis=0)
        return (
            np.rint(counts1).astype(np.int64),
            np.rint(counts2).astype(np.int64),
        )

    def replicate_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        """Replicate counts via part-wise matmul.

        The multiplicities are in the parts' exact float dtype; the
        counts are the sum of one GEMM per membership part, each reading
        its column slice of ``w`` in place. Every term is a small
        non-negative integer, so all partial sums stay exactly
        representable and the rounded result is exact.
        """
        w = self._check_multiplicities(multiplicities)
        metrics().inc("bootstrap.replicates.gemm", int(w.shape[0]))
        acc = np.zeros((w.shape[0], len(self.structure.regions)), dtype=w.dtype)
        for part, off in zip(self._parts, self._offsets):
            acc += w[:, off : off + part.shape[0]] @ part
        return np.rint(acc).astype(np.int64)


class PackedLitsResamplePlan(RowResamplePlan):
    """Bit-packed membership bootstrap: the over-cap lits plan.

    Holds the same information as :class:`LitsResamplePlan` at 1/32nd
    (float32 pools) to 1/64th (float64 pools) the residency: membership
    stays in the bitmap index's packed form -- one
    ``(n_regions, ceil(rows/8))`` uint8 matrix per pool part -- and the
    replicate GEMM streams over byte-aligned row blocks, unpacking at
    most :data:`_MEMBERSHIP_BLOCK_BYTES` of dense float at a time.
    Partial sums are the same exact integers in a different association
    order, so the emitted null is bit-identical to the dense plan's
    (regression-pinned), just slower per replicate. This is what lifts
    the old hard 2 GiB compile ceiling: pools past
    :data:`_MAX_MEMBERSHIP_BYTES` now compile here instead of falling
    back to the per-replicate loop.

    Parameters
    ----------
    structure:
        The fixed :class:`~repro.core.model.LitsStructure`.
    packed_parts:
        Bit-packed membership per pool part, ``(n_regions,
        ceil(part_rows/8))`` uint8 each, MSB-first within a byte (the
        bitmap index's native layout); bits past a part's row count
        must be zero.
    part_rows:
        Row count of each part, in pool order (dataset 1's rows first).
    n1, n2:
        The original dataset sizes (``n1 + n2`` rows in the pool).
    """

    def __init__(
        self,
        structure: LitsStructure,
        packed_parts: Sequence[np.ndarray],
        part_rows: Sequence[int],
        n1: int,
        n2: int,
    ) -> None:
        super().__init__(structure, n1, n2)
        n_regions = len(structure.regions)
        if len(packed_parts) != len(part_rows):
            raise InvalidParameterError(
                "packed_parts and part_rows must align"
            )
        parts: list[np.ndarray] = []
        offsets: list[int] = []
        rows_list: list[int] = []
        offset = 0
        for packed, rows in zip(packed_parts, part_rows):
            packed = np.ascontiguousarray(packed, dtype=np.uint8)
            rows = int(rows)
            if packed.ndim != 2 or packed.shape[0] != n_regions or (
                packed.shape[1] < (rows + 7) >> 3
            ):
                raise InvalidParameterError(
                    f"packed parts must be (n_regions={n_regions}, "
                    f">= ceil(rows/8)) uint8, got shape "
                    f"{tuple(packed.shape)} for {rows} rows"
                )
            parts.append(packed)
            offsets.append(offset)
            rows_list.append(rows)
            offset += rows
        if offset != self.n_pooled:
            raise InvalidParameterError(
                f"packed parts cover {offset} rows, expected "
                f"{self.n_pooled} (= n1 + n2)"
            )
        self._packed_parts = tuple(parts)
        self._part_rows = tuple(rows_list)
        self._offsets = tuple(offsets)
        self._dtype = _exact_dtype(self.n_pooled)
        per_row = max(1, np.dtype(self._dtype).itemsize * n_regions)
        self._block_rows = max(8, (_MEMBERSHIP_BLOCK_BYTES // per_row) & ~7)

    @classmethod
    def from_datasets(
        cls,
        structure: LitsStructure,
        dataset1: DatasetLike,
        dataset2: DatasetLike,
    ) -> "PackedLitsResamplePlan":
        """Compile from the two bitmap indexes, never unpacking membership."""
        n1, n2 = len(dataset1), len(dataset2)
        return cls(
            structure,
            (
                _membership_bits(structure, dataset1.index),
                _membership_bits(structure, dataset2.index),
            ),
            (n1, n2),
            n1,
            n2,
        )

    def observed_counts(self) -> tuple[np.ndarray, np.ndarray]:
        n_regions = len(self.structure.regions)
        counts1 = np.zeros(n_regions, dtype=np.int64)
        counts2 = np.zeros(n_regions, dtype=np.int64)
        for packed, rows, off in zip(
            self._packed_parts, self._part_rows, self._offsets
        ):
            if off + rows <= self.n1:
                counts1 += _packed_prefix_counts(packed, rows)
            elif off >= self.n1:
                counts2 += _packed_prefix_counts(packed, rows)
            else:
                split = self.n1 - off
                head = _packed_prefix_counts(packed, split)
                counts1 += head
                counts2 += _packed_prefix_counts(packed, rows) - head
        return counts1, counts2

    def replicate_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        """Replicate counts from *packed* membership.

        Each part is unpacked in byte-aligned row blocks small enough to
        fit the block budget and fed to the same exact-integer GEMM the
        dense plan uses. Identical partial sums in a different
        association order of exact integers -- the result is
        bit-identical to the dense path.
        """
        w = self._check_multiplicities(multiplicities)
        metrics().inc("bootstrap.replicates.packed_gemm", int(w.shape[0]))
        block_rows, dtype = self._block_rows, self._dtype
        acc = np.zeros((w.shape[0], len(self.structure.regions)), dtype=dtype)
        for packed, rows, off in zip(
            self._packed_parts, self._part_rows, self._offsets
        ):
            for start in range(0, rows, block_rows):
                stop = min(start + block_rows, rows)
                # block starts are multiples of 8, so the byte slice is
                # bit-aligned and ``count`` trims the tail exactly
                block = np.unpackbits(
                    packed[:, start >> 3 : (stop + 7) >> 3],
                    axis=1, count=stop - start,
                )
                acc += w[:, off + start : off + stop] @ block.T.astype(dtype)
        return np.rint(acc).astype(np.int64)


class PartitionResamplePlan(RowResamplePlan):
    """Assignment-vector bootstrap for disjoint partition regions.

    ``assignments`` maps every pooled row to its region index in
    ``[0, n_regions]``; the sentinel ``n_regions`` marks rows excluded
    by an active focus (they occupy pool slots -- the resample can draw
    them -- but count toward no region, exactly as in
    :meth:`~repro.core.partition_plan.PartitionCountingPlan.counts`).
    """

    def __init__(
        self,
        structure: PartitionStructure,
        assignments: np.ndarray,
        n1: int,
        n2: int,
    ) -> None:
        super().__init__(structure, n1, n2)
        assignments = np.ascontiguousarray(assignments, dtype=np.int64)
        if assignments.shape != (self.n_pooled,):
            raise InvalidParameterError(
                f"assignments must be a ({self.n_pooled},) vector, got "
                f"shape {tuple(assignments.shape)}"
            )
        n_regions = len(structure.regions)
        if assignments.size and (
            assignments.min() < 0 or assignments.max() > n_regions
        ):
            raise InvalidParameterError(
                f"assignments must lie in [0, {n_regions}] (the top bin "
                "marks focus-excluded rows)"
            )
        self._assignments = assignments
        self._n_regions = n_regions

    @classmethod
    def from_datasets(
        cls,
        structure: PartitionStructure,
        dataset1: DatasetLike,
        dataset2: DatasetLike,
    ) -> "PartitionResamplePlan":
        """Compile from the structure's counting plan (one pass per side)."""
        plan = structure.plan
        return cls(
            structure,
            np.concatenate(
                [
                    plan.region_assignments(dataset1),
                    plan.region_assignments(dataset2),
                ]
            ),
            len(dataset1),
            len(dataset2),
        )

    def observed_counts(self) -> tuple[np.ndarray, np.ndarray]:
        r = self._n_regions
        head = self._assignments[: self.n1]
        tail = self._assignments[self.n1 :]
        counts1 = np.bincount(head, minlength=r + 1)[:r].astype(np.int64)
        counts2 = np.bincount(tail, minlength=r + 1)[:r].astype(np.int64)
        return counts1, counts2

    def replicate_counts(self, multiplicities: np.ndarray) -> np.ndarray:
        """Replicate counts via one weighted bincount per replicate.

        The trailing bin (index ``n_regions``) collects rows excluded by
        an active focus and is dropped; the float64 weights accumulate
        exactly for integer values below 2**53.
        """
        w = self._check_multiplicities(multiplicities)
        metrics().inc("bootstrap.replicates.bincount", int(w.shape[0]))
        r = self._n_regions
        out = np.empty((w.shape[0], r), dtype=np.int64)
        for b in range(w.shape[0]):
            binned = np.bincount(self._assignments, weights=w[b], minlength=r + 1)
            out[b] = np.rint(binned[:r]).astype(np.int64)
        return out


class CountsResamplePlan(ResamplePlan):
    """Counts-only bootstrap for disjoint regions: no row-level state.

    For a structure whose regions are pairwise disjoint, pooled rows
    within one region are exchangeable under uniform resampling, so the
    joint distribution of a replicate's counts is exactly a multinomial
    over the region bins (plus one bin for rows outside every region).
    The pooled counts -- e.g. a stored reference vector plus a window
    sketch -- are all the state needed, which is what lets the
    streaming monitor qualify a partition window without materialising
    a single row.

    Only valid for disjoint regions. Lits structures are rejected
    outright -- itemset regions overlap by construction (a row in
    ``{A, B}`` is also in ``{A}``), and no counts vector can reveal
    that, so a multinomial over their bins would destroy the
    cross-region correlations and bias every marginal low; use
    :class:`LitsResamplePlan` there. For other structures the
    constructor additionally rejects counts that sum past the pool
    size, which a disjoint region set can never produce.
    """

    def __init__(
        self,
        structure: Structure,
        counts1: np.ndarray,
        counts2: np.ndarray,
        n1: int,
        n2: int,
    ) -> None:
        super().__init__(structure, n1, n2)
        if isinstance(structure, LitsStructure):
            raise InvalidParameterError(
                "itemset regions overlap, so their pooled counts do not "
                "determine the bootstrap null; use LitsResamplePlan "
                "(per-row membership) for lits structures"
            )
        n_regions = len(structure.regions)
        counts1 = np.asarray(counts1, dtype=np.int64)
        counts2 = np.asarray(counts2, dtype=np.int64)
        if counts1.shape != (n_regions,) or counts2.shape != (n_regions,):
            raise InvalidParameterError(
                f"counts must align with the {n_regions} regions"
            )
        if counts1.size and (counts1.min() < 0 or counts2.min() < 0):
            raise InvalidParameterError("counts must be non-negative")
        pooled = counts1 + counts2
        outside = self.n_pooled - int(pooled.sum())
        if outside < 0:
            raise InvalidParameterError(
                "pooled counts exceed the pool size: regions overlap, so "
                "the counts-only resample plan does not apply (use a "
                "row-level plan)"
            )
        self._counts1 = counts1
        self._counts2 = counts2
        self._pvals = np.append(pooled, outside) / self.n_pooled

    @classmethod
    def from_sketches(
        cls, sketch1: object, sketch2: object
    ) -> "CountsResamplePlan":
        """Compile from two mergeable partition sketches -- no rows needed.

        The federated qualification path: two sites each ship a
        :class:`~repro.stream.sketch.PartitionSketch` (kilobytes), and
        the comparer bootstraps the pair's significance from the counts
        alone. The sketches must measure the same structure in the same
        region order (``sketch.key`` equality, the sketches' own merge
        rule); disjointness then holds by construction because partition
        regions are disjoint.
        """
        from repro.stream.sketch import PartitionSketch

        if not (
            isinstance(sketch1, PartitionSketch)
            and isinstance(sketch2, PartitionSketch)
        ):
            raise InvalidParameterError(
                "from_sketches takes two PartitionSketch objects, got "
                f"{type(sketch1).__name__} and {type(sketch2).__name__} "
                "(support sketches have overlapping itemset regions; see "
                "LitsResamplePlan)"
            )
        if sketch1.key != sketch2.key:
            raise IncompatibleModelsError(
                "sketches measure different partition structures (or the "
                "same regions in a different order); their counts cannot "
                "be pooled into one bootstrap null"
            )
        return cls(
            sketch1.plan.structure,
            sketch1.counts,
            sketch2.counts,
            sketch1.n_rows,
            sketch2.n_rows,
        )

    def observed_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return self._counts1, self._counts2

    def _replicate_count_pairs(
        self,
        n_boot: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        # one multinomial per side and replicate over a few bins
        metrics().inc("bootstrap.replicates.multinomial", n_boot)
        r = len(self._counts1)
        # replicate-major, side 1 then side 2 per replicate: consecutive
        # blocks of replicates consume the same stream as one call
        counts = rng.multinomial(
            [self.n1, self.n2], self._pvals, size=(n_boot, 2)
        )[:, :, :r].astype(np.int64)
        return counts[:, 0], counts[:, 1]


def compile_resample_plan(
    structure: Structure,
    dataset1: DatasetLike,
    dataset2: DatasetLike,
) -> ResamplePlan | None:
    """Compile the count-space bootstrap for a structure/dataset pair.

    Lits pools pick their representation by the dense membership
    footprint: below the cap (:data:`_MAX_MEMBERSHIP_BYTES`) the dense
    single-GEMM :class:`LitsResamplePlan` compiles; past it the
    bit-packed block-streaming :class:`PackedLitsResamplePlan` takes
    over with the identical (bit-for-bit) null. Returns ``None`` only
    when no count-space representation applies at all: an unknown
    structure kind, an empty pool, or transaction data without a
    bitmap index -- callers fall back to the per-replicate loop.
    """
    if len(dataset1) + len(dataset2) < 1:
        return None
    if (
        isinstance(structure, LitsStructure)
        and hasattr(dataset1, "index")
        and hasattr(dataset2, "index")
    ):
        n_pooled = len(dataset1) + len(dataset2)
        # the same dtype rule the plans themselves apply: huge pools
        # need float64 columns, doubling the bytes the cap must cover
        item_bytes = np.dtype(_exact_dtype(n_pooled)).itemsize
        metrics().inc("bootstrap.pooled_scans")
        if item_bytes * n_pooled * len(structure.regions) > _MAX_MEMBERSHIP_BYTES:
            return PackedLitsResamplePlan.from_datasets(
                structure, dataset1, dataset2
            )
        return LitsResamplePlan.from_datasets(structure, dataset1, dataset2)
    if isinstance(structure, PartitionStructure):
        metrics().inc("bootstrap.pooled_scans")
        return PartitionResamplePlan.from_datasets(structure, dataset1, dataset2)
    return None
