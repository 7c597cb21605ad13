"""Model persistence: mine once, compare later.

The delta* workflow (Section 4.1.1) assumes mined models are kept around
-- "which will probably fit in main memory, unlike the datasets" -- so a
production deployment stores models, not data. This module round-trips
both model classes through JSON:

* :class:`LitsModel` -- itemsets + supports + threshold;
* :class:`DecisionTree` / :class:`DtModel` -- the split tree, leaf
  histograms, and the attribute space;
* :class:`ClusterModel` -- the grid, densities, and cluster assignment.

Each model class has a ``*_to_dict``/``*_from_dict`` pair (the exact
payload the JSON files carry), used both here and by the binary wire
codecs in :mod:`repro.wire.models` -- one canonical dict form, two
transports. :func:`save_packed_model`/:func:`load_packed_model` write
the compact checksummed wire envelope instead of JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.core.model import _Canonical
from repro.data.io import _space_from_dict, _space_to_dict
from repro.errors import InvalidParameterError
from repro.mining.tree.splits import CategoricalSplit, NumericSplit
from repro.mining.tree.tree import DecisionTree, Node

if TYPE_CHECKING:  # circular at runtime: cluster_model imports repro.data
    from repro.core.cluster_model import ClusterModel


def lits_model_to_dict(model: LitsModel) -> dict[str, Any]:
    """The canonical JSON-able form of a lits-model."""
    return {
        "kind": "lits-model",
        "min_support": model.min_support,
        "n_items": model.n_items,
        "itemsets": [
            {"items": sorted(itemset), "support": model.supports[itemset]}
            for itemset in _Canonical.ordered(model.supports)
        ],
    }


def lits_model_from_dict(payload: dict[str, Any]) -> LitsModel:
    """Rebuild a lits-model from :func:`lits_model_to_dict` output."""
    if payload.get("kind") != "lits-model":
        raise InvalidParameterError("payload does not describe a lits-model")
    supports = {
        frozenset(entry["items"]): float(entry["support"])
        for entry in payload["itemsets"]
    }
    return LitsModel(supports, payload["min_support"], payload["n_items"])


def save_lits_model(model: LitsModel, path: str | Path) -> None:
    """Write a lits-model as JSON."""
    Path(path).write_text(json.dumps(lits_model_to_dict(model), indent=1))


def load_lits_model(path: str | Path) -> LitsModel:
    """Read a lits-model written by :func:`save_lits_model`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "lits-model":
        raise InvalidParameterError(f"{path} does not contain a lits-model")
    return lits_model_from_dict(payload)


def _node_to_dict(node: Node) -> dict[str, Any]:
    out: dict[str, Any] = {"class_counts": [int(c) for c in node.class_counts]}
    if node.is_leaf:
        return out
    split = node.split
    if isinstance(split, NumericSplit):
        out["split"] = {
            "type": "numeric",
            "attribute": split.attribute,
            "threshold": split.threshold,
            "gain": split.gain,
        }
    else:
        assert isinstance(split, CategoricalSplit)
        out["split"] = {
            "type": "categorical",
            "attribute": split.attribute,
            "left_values": sorted(split.left_values),
            "gain": split.gain,
        }
    assert node.left is not None and node.right is not None
    out["left"] = _node_to_dict(node.left)
    out["right"] = _node_to_dict(node.right)
    return out


def _node_from_dict(d: dict[str, Any], depth: int = 0) -> Node:
    node = Node(
        class_counts=np.array(d["class_counts"], dtype=np.int64), depth=depth
    )
    if "split" in d:
        s = d["split"]
        if s["type"] == "numeric":
            node.split = NumericSplit(s["attribute"], s["threshold"], s["gain"])
        else:
            node.split = CategoricalSplit(
                s["attribute"], frozenset(s["left_values"]), s["gain"]
            )
        node.left = _node_from_dict(d["left"], depth + 1)
        node.right = _node_from_dict(d["right"], depth + 1)
    return node


def dt_model_to_dict(model: DtModel | DecisionTree) -> dict[str, Any]:
    """The canonical JSON-able form of a dt-model."""
    tree = model.tree if isinstance(model, DtModel) else model
    return {
        "kind": "dt-model",
        "space": _space_to_dict(tree.space),
        "root": _node_to_dict(tree.root),
    }


def dt_model_from_dict(payload: dict[str, Any]) -> DtModel:
    """Rebuild a dt-model from :func:`dt_model_to_dict` output."""
    if payload.get("kind") != "dt-model":
        raise InvalidParameterError("payload does not describe a dt-model")
    space = _space_from_dict(payload["space"])
    tree = DecisionTree(space=space, root=_node_from_dict(payload["root"]))
    return DtModel(tree)


def save_dt_model(model: DtModel | DecisionTree, path: str | Path) -> None:
    """Write a decision-tree model as JSON."""
    Path(path).write_text(json.dumps(dt_model_to_dict(model), indent=1))


def load_dt_model(path: str | Path) -> DtModel:
    """Read a dt-model written by :func:`save_dt_model`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "dt-model":
        raise InvalidParameterError(f"{path} does not contain a dt-model")
    return dt_model_from_dict(payload)


def cluster_model_to_dict(model: ClusterModel) -> dict[str, Any]:
    """The canonical JSON-able form of a cluster-model.

    Floats pass through ``repr`` (the json encoder's float form), which
    round-trips Python floats exactly -- the rebuilt grid's cut points,
    hence its cell predicates and ``counts_key``, equal the original's.
    """
    clustering = model.clustering
    grid = clustering.grid
    return {
        "kind": "cluster-model",
        "space": _space_to_dict(grid.space),
        "attributes": list(grid.attributes),
        "cuts": {
            name: [float(c) for c in cuts] for name, cuts in grid.cuts.items()
        },
        "densities": [float(d) for d in clustering.densities],
        "dense_cells": [int(c) for c in clustering.dense_cells],
        "cluster_of_cell": [
            [int(cell), int(cid)]
            for cell, cid in sorted(clustering.cluster_of_cell.items())
        ],
        "n_clusters": int(clustering.n_clusters),
    }


def cluster_model_from_dict(payload: dict[str, Any]) -> "ClusterModel":
    """Rebuild a cluster-model from :func:`cluster_model_to_dict` output."""
    from repro.core.cluster_model import ClusterModel
    from repro.mining.cluster.grid import Grid, GridClustering

    if payload.get("kind") != "cluster-model":
        raise InvalidParameterError(
            "payload does not describe a cluster-model"
        )
    grid = Grid(
        space=_space_from_dict(payload["space"]),
        attributes=tuple(payload["attributes"]),
        cuts={
            name: np.array(cuts, dtype=np.float64)
            for name, cuts in payload["cuts"].items()
        },
    )
    clustering = GridClustering(
        grid=grid,
        densities=np.array(payload["densities"], dtype=np.float64),
        dense_cells=np.array(payload["dense_cells"], dtype=np.int64),
        cluster_of_cell={
            int(cell): int(cid) for cell, cid in payload["cluster_of_cell"]
        },
        n_clusters=int(payload["n_clusters"]),
    )
    return ClusterModel(clustering)


def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    """Write a cluster-model as JSON."""
    Path(path).write_text(json.dumps(cluster_model_to_dict(model), indent=1))


def load_cluster_model(path: str | Path) -> ClusterModel:
    """Read a cluster-model written by :func:`save_cluster_model`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "cluster-model":
        raise InvalidParameterError(f"{path} does not contain a cluster-model")
    return cluster_model_from_dict(payload)


def save_packed_model(
    model: LitsModel | DtModel | ClusterModel, path: str | Path
) -> None:
    """Write a model as a compact checksummed wire envelope.

    The binary sibling of the JSON savers: same canonical dict form,
    shipped through the :mod:`repro.wire` envelope (magic, version, kind
    tag, per-section CRC32) -- the format sketches travel in, so a model
    file and a sketch payload are verified by the same reader.
    """
    # imported lazily: repro.wire imports this module's dict converters
    from repro.wire import pack

    Path(path).write_bytes(pack(model))


def load_packed_model(path: str | Path) -> LitsModel | DtModel | ClusterModel:
    """Read a model written by :func:`save_packed_model` (CRC-verified)."""
    from repro.wire.models import unpack_model

    return unpack_model(Path(path).read_bytes())
