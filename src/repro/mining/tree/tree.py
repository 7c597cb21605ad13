"""Decision-tree structure: nodes, prediction, and leaf partitions.

A fitted :class:`DecisionTree` exposes exactly what FOCUS needs from a
dt-model (Section 2.1):

* ``predict`` -- majority-class prediction per tuple (used by the
  misclassification-error instantiation, Section 5.2.1);
* ``leaf_assign`` -- vectorised tuple -> leaf-id mapping (the fast path
  for measuring GCR regions in one scan);
* ``leaf_predicates`` -- the conjunctive predicate of each leaf, whose
  cross product with the class labels forms the structural component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.attribute import Attribute, AttributeSpace
from repro.core.predicate import Conjunction, Interval, ValueSet
from repro.errors import NotFittedError
from repro.mining.tree.splits import CategoricalSplit, NumericSplit, Split


@dataclass
class Node:
    """A tree node; internal nodes carry a split, leaves a class histogram."""

    class_counts: np.ndarray
    split: Split | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    leaf_id: int = -1
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def prediction(self) -> int:
        return int(np.argmax(self.class_counts))

    @property
    def n_tuples(self) -> int:
        return int(self.class_counts.sum())


@dataclass
class DecisionTree:
    """A fitted binary decision tree over an :class:`AttributeSpace`."""

    space: AttributeSpace
    root: Node
    leaves: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.leaves:
            self._collect_leaves()

    def _collect_leaves(self) -> None:
        self.leaves = []

        def walk(node: Node) -> None:
            if node.is_leaf:
                node.leaf_id = len(self.leaves)
                self.leaves.append(node)
            else:
                assert node.left is not None and node.right is not None
                walk(node.left)
                walk(node.right)

        walk(self.root)

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def depth(self) -> int:
        def walk(node: Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    @property
    def n_classes(self) -> int:
        return self.space.n_classes

    # ------------------------------------------------------------------ #
    # Vectorised evaluation
    # ------------------------------------------------------------------ #

    def leaf_assign(self, columns: Mapping[str, np.ndarray], n_rows: int) -> np.ndarray:
        """Leaf id for each row, via the compiled level-synchronous descent.

        The tree is flattened once (:class:`_FlatTree`) into parallel
        node arrays; every row then descends one level per iteration
        with a handful of whole-column gathers -- O(depth) numpy ops
        total instead of the masked recursion's O(nodes). That floor is
        what makes streaming chunks cheap: assigning a 250-row chunk is
        no longer dominated by per-node call overhead.
        """
        if not self.leaves:
            raise NotFittedError("tree has no leaves")
        flat = self._flat()
        if flat is None:  # uncompilable (huge sparse categorical codes)
            return self.leaf_assign_masked(columns, n_rows)
        return flat.assign(columns, n_rows)

    def leaf_assign_masked(
        self, columns: Mapping[str, np.ndarray], n_rows: int
    ) -> np.ndarray:
        """Reference implementation: per-node masked descents.

        Kept as the oracle the flat descent is property-tested against.
        """
        if not self.leaves:
            raise NotFittedError("tree has no leaves")
        out = np.empty(n_rows, dtype=np.int64)
        stack: list[tuple[Node, np.ndarray]] = [
            (self.root, np.arange(n_rows, dtype=np.int64))
        ]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.leaf_id
                continue
            assert node.split is not None
            assert node.left is not None and node.right is not None
            column = columns[node.split.attribute][idx]
            left_mask = node.split.left_mask(column)
            stack.append((node.left, idx[left_mask]))
            stack.append((node.right, idx[~left_mask]))
        return out

    def _flat(self) -> "_FlatTree | None":
        """The compiled descent arrays, built once per tree.

        ``None`` (cached) when the tree cannot be compiled -- splits on
        categorical codes so sparse that a dense membership table would
        be enormous -- in which case the masked descent serves instead.
        """
        flat = getattr(self, "_flat_cache", None)
        if flat is None:
            try:
                flat = _FlatTree(self)
            except _UncompilableTreeError:
                flat = False
            self._flat_cache = flat
        return flat or None

    def assign_dataset(self, dataset) -> np.ndarray:
        """Leaf id per row of a :class:`TabularDataset`."""
        return self.leaf_assign(dataset.columns, dataset.n_rows)

    def predict(self, dataset) -> np.ndarray:
        """Majority-class prediction per row (in the space's label alphabet).

        Leaf histograms are indexed by class *position*; predictions are
        translated back to the actual labels of ``space.class_labels``.
        """
        leaf_ids = self.assign_dataset(dataset)
        labels = np.array(self.space.class_labels, dtype=np.int64)
        predictions = np.array(
            [labels[leaf.prediction] for leaf in self.leaves], dtype=np.int64
        )
        return predictions[leaf_ids]

    # ------------------------------------------------------------------ #
    # Structural component
    # ------------------------------------------------------------------ #

    def leaf_predicates(self) -> list[Conjunction]:
        """The box predicate of each leaf, indexed by leaf id.

        The boxes partition the attribute space: each split sends
        ``x < t`` left and ``x >= t`` right (numeric), or
        ``x in S`` left and ``x in domain \\ S`` right (categorical).
        """
        predicates: list[Conjunction | None] = [None] * self.n_leaves

        def attr(name: str) -> Attribute:
            return self.space.attribute(name)

        def walk(node: Node, predicate: Conjunction) -> None:
            if node.is_leaf:
                predicates[node.leaf_id] = predicate
                return
            assert node.split is not None
            assert node.left is not None and node.right is not None
            split = node.split
            if isinstance(split, NumericSplit):
                left_c = Conjunction({split.attribute: Interval(hi=split.threshold)})
                right_c = Conjunction({split.attribute: Interval(lo=split.threshold)})
            else:
                assert isinstance(split, CategoricalSplit)
                domain = frozenset(attr(split.attribute).values)
                left_c = Conjunction({split.attribute: ValueSet(split.left_values)})
                right_c = Conjunction(
                    {split.attribute: ValueSet(domain - split.left_values)}
                )
            walk(node.left, predicate.intersect(left_c))
            walk(node.right, predicate.intersect(right_c))

        walk(self.root, Conjunction())
        assert all(p is not None for p in predicates)
        return predicates  # type: ignore[return-value]

    def leaf_class_fractions(self) -> np.ndarray:
        """``(n_leaves, n_classes)`` matrix of training-tuple fractions.

        Row ``i`` holds the fraction of *all* training tuples that fall in
        leaf ``i`` with each class -- exactly the per-leaf measure pairs the
        paper draws beside each leaf in Figure 1.
        """
        total = max(self.root.n_tuples, 1)
        out = np.zeros((self.n_leaves, self.n_classes))
        for leaf in self.leaves:
            out[leaf.leaf_id] = leaf.class_counts / total
        return out

    def describe(self) -> str:
        """An indented textual rendering of the tree."""
        lines: list[str] = []

        def walk(node: Node, indent: str, tag: str) -> None:
            if node.is_leaf:
                counts = ",".join(str(int(c)) for c in node.class_counts)
                lines.append(
                    f"{indent}{tag}leaf#{node.leaf_id} -> class {node.prediction} "
                    f"[{counts}]"
                )
                return
            assert node.split is not None
            if isinstance(node.split, NumericSplit):
                cond = f"{node.split.attribute} < {node.split.threshold:g}"
            else:
                vals = ",".join(str(v) for v in sorted(node.split.left_values))
                cond = f"{node.split.attribute} in {{{vals}}}"
            lines.append(f"{indent}{tag}if {cond}:")
            assert node.left is not None and node.right is not None
            walk(node.left, indent + "  ", "then ")
            walk(node.right, indent + "  ", "else ")

        walk(self.root, "", "")
        return "\n".join(lines)


#: Largest bin-grid a tree is compiled onto; beyond it the descent path
#: is used. 2^17 int32 cells is half a megabyte of lookup table.
_GRID_CELL_CAP = 1 << 17

#: Widest categorical code *range* (max - min) a dense membership table
#: covers. Categorical domains are arbitrary integer codes, so a split
#: on e.g. {0, 10**9} would otherwise allocate gigabytes; such trees
#: fall back to the masked descent (np.isin handles them fine).
_CAT_RANGE_CAP = 1 << 16


class _UncompilableTreeError(Exception):
    """Raised during compilation when dense tables would be unreasonable."""


class _FlatTree:
    """A tree compiled for vectorised assignment, two ways.

    **Level-synchronous descent** (always built): nodes are numbered in
    preorder; leaves self-loop (``children == self`` with a ``+inf``
    threshold, so a settled row keeps re-selecting its own node). One
    descent level is a fixed handful of whole-column ops -- gather the
    split column per row, compare, pick a child -- regardless of how
    many nodes that level has, and ``depth`` iterations settle every
    row. Categorical splits are answered from a dense ``(node, code)``
    membership table covering the observed code range; codes outside the
    range fall right, matching ``np.isin``.

    **Grid-code lookup** (built when the split structure is small
    enough): every split threshold of an attribute becomes a bin
    boundary, so each leaf is a union of grid cells. Assignment is then
    one ``searchsorted`` per used attribute, one ``ravel_multi_index``,
    and one table ``take`` -- O(used attributes) numpy calls however
    deep the tree is, which is what keeps small streaming chunks cheap.
    The cell -> leaf table is filled exactly, by running the descent
    once over one representative tuple per cell (splits are constant
    within a cell, so the representative's leaf is the cell's leaf).
    """

    def __init__(self, tree: DecisionTree) -> None:
        nodes: list[Node] = []

        def collect(node: Node) -> None:
            nodes.append(node)
            if not node.is_leaf:
                collect(node.left)
                collect(node.right)

        collect(tree.root)
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)

        used: list[str] = []
        used_pos: dict[str, int] = {}
        for node in nodes:
            if node.split is not None and node.split.attribute not in used_pos:
                used_pos[node.split.attribute] = len(used)
                used.append(node.split.attribute)
        self.used_names = tuple(used)

        self.depth = tree.depth
        self.feature = np.zeros(n, dtype=np.int64)
        self.threshold = np.full(n, np.inf)
        #: children[i] = (right, left): indexing with the go-left bool
        #: picks the child in one fused gather (leaves self-loop).
        self.children = np.repeat(
            np.arange(n, dtype=np.int64)[:, None], 2, axis=1
        )
        self.leaf_of = np.zeros(n, dtype=np.int64)

        cat_codes: dict[int, frozenset[int]] = {}
        for i, node in enumerate(nodes):
            if node.is_leaf:
                self.leaf_of[i] = node.leaf_id
                continue
            split = node.split
            self.feature[i] = used_pos[split.attribute]
            self.children[i, 0] = index[id(node.right)]
            self.children[i, 1] = index[id(node.left)]
            if isinstance(split, NumericSplit):
                self.threshold[i] = split.threshold
            else:
                self.threshold[i] = -np.inf  # numeric test says "right"
                cat_codes[i] = frozenset(int(v) for v in split.left_values)

        self.has_categorical = bool(cat_codes)
        if self.has_categorical:
            all_codes = [c for codes in cat_codes.values() for c in codes]
            self.cat_lo = min(all_codes)
            width = max(all_codes) - self.cat_lo + 1
            if width > _CAT_RANGE_CAP:
                raise _UncompilableTreeError(
                    f"categorical code range {width} exceeds the dense-"
                    f"table cap {_CAT_RANGE_CAP}"
                )
            # Width + 1: the last column is an always-False sentinel that
            # out-of-range codes are mapped to once per assign, so the
            # per-level step needs no range check. Rows of non-categorical
            # nodes are all-False too, so no is_cat mask is needed either:
            # a numeric node's membership lookup just returns False.
            self.cat_left = np.zeros((n, width + 1), dtype=bool)
            for i, codes in cat_codes.items():
                for c in codes:
                    self.cat_left[i, c - self.cat_lo] = True

        self._compile_grid(nodes)

    def _compile_grid(self, nodes: list[Node]) -> None:
        """Compile the partition onto a bin grid, if small enough.

        Numeric attributes cut at their split thresholds; categorical
        attributes cut at the half-integers around their observed codes
        (plus open out-of-range bins on both sides, which route right
        exactly like ``np.isin``). Every cell of the resulting grid lies
        on one side of every split, so the cell -> leaf map built from
        representative tuples reproduces the descent exactly.
        """
        self.grid_cuts: list[np.ndarray] | None = None
        cuts_of: dict[str, np.ndarray] = {}
        reps_of: dict[str, np.ndarray] = {}
        for name in self.used_names:
            numeric_ts = [
                node.split.threshold
                for node in nodes
                if isinstance(node.split, NumericSplit)
                and node.split.attribute == name
            ]
            cat_values = [
                v
                for node in nodes
                if isinstance(node.split, CategoricalSplit)
                and node.split.attribute == name
                for v in node.split.left_values
            ]
            if cat_values:
                # Half-integer cuts give one bin per whole code in
                # [lo, hi] plus open out-of-range bins on both ends;
                # representatives must be whole codes (the membership
                # table truncates), out-of-range ones route right.
                lo, hi = min(cat_values), max(cat_values)
                cuts = np.arange(lo, hi + 2, dtype=np.float64) - 0.5
                reps = np.arange(lo - 1, hi + 2, dtype=np.float64)
            else:
                cuts = np.unique(np.asarray(numeric_ts, dtype=np.float64))
                # Bin b >= 1 starts at cuts[b-1] (inclusive under
                # side="right"); bin 0's representative sits below.
                reps = np.concatenate([[cuts[0] - 1.0], cuts])
            cuts_of[name] = cuts
            reps_of[name] = reps
        dims = tuple(len(cuts_of[name]) + 1 for name in self.used_names)
        n_cells = 1
        for d in dims:  # Python ints: no silent int64 overflow
            n_cells *= d
        if not dims or n_cells > _GRID_CELL_CAP:
            return
        mesh = np.meshgrid(*[reps_of[n] for n in self.used_names], indexing="ij")
        cells = np.column_stack([m.ravel() for m in mesh])
        self.grid_leaf = self._descend(cells).astype(np.int32)
        self.grid_cuts = [cuts_of[name] for name in self.used_names]
        self.grid_dims = dims

    def assign(self, columns: Mapping[str, np.ndarray], n_rows: int) -> np.ndarray:
        """Leaf id per row: grid-code lookup, or level descent beyond the cap."""
        if not self.used_names:  # single-leaf tree
            return np.full(n_rows, self.leaf_of[0], dtype=np.int64)
        if self.grid_cuts is not None:
            codes = [
                np.searchsorted(cuts, columns[name], side="right")
                for name, cuts in zip(self.used_names, self.grid_cuts)
            ]
            flat = np.ravel_multi_index(codes, self.grid_dims)
            return self.grid_leaf[flat].astype(np.int64, copy=False)
        X = np.column_stack([columns[name] for name in self.used_names])
        return self._descend(X)

    def _descend(self, X: np.ndarray) -> np.ndarray:
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int64)
        if not self.has_categorical:
            for _ in range(self.depth):
                values = X[rows, self.feature[node]]
                go_left = values < self.threshold[node]
                node = self.children[node, go_left.view(np.int8)]
            return self.leaf_of[node]
        # Categorical codes are normalised once: shifted to table
        # positions, with anything outside the table (including numeric
        # columns' values) clamped onto the False sentinel column.
        sentinel = self.cat_left.shape[1] - 1
        with np.errstate(invalid="ignore"):
            C = np.nan_to_num(X, nan=-1.0).astype(np.int64) - self.cat_lo
        C[(C < 0) | (C > sentinel)] = sentinel
        for _ in range(self.depth):
            feat = self.feature[node]
            values = X[rows, feat]
            go_left = values < self.threshold[node]
            go_left |= self.cat_left[node, C[rows, feat]]
            node = self.children[node, go_left.view(np.int8)]
        return self.leaf_of[node]
