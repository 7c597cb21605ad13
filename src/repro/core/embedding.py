"""Embedding dataset collections by their pairwise deviations (Section 4.1.1).

The paper: "delta* also satisfies the triangle inequality, and can
therefore be used to embed a collection of datasets in a k-dimensional
space for visually comparing their relative differences." This module
provides exactly that pipeline:

1. a pairwise distance matrix over a collection of models -- either the
   instant ``delta*`` (models only) or the exact deviation (with the
   datasets);
2. classical multidimensional scaling (Torgerson double-centering +
   eigendecomposition) mapping the matrix to ``k``-dimensional points.

Everything is numpy-only; no SciPy needed at runtime.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro._typing import DatasetLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.lits import LitsModel
from repro.core.model import Model
from repro.errors import IncompatibleModelsError, InvalidParameterError


def _check_fleet_size(models: Sequence[Any], what: str) -> None:
    """Shared matrix-input validation: a non-empty fleet of >= 2 models."""
    n = len(models)
    if n == 0:
        raise InvalidParameterError(
            f"cannot build a {what} over an empty fleet of models"
        )
    if n < 2:
        raise InvalidParameterError(
            f"a {what} needs at least two models to compare, got {n}"
        )


def _check_fleet_of_models(models: Sequence[Any], what: str) -> None:
    """Matrix-input validation for delta* products: size plus all-lits."""
    _check_fleet_size(models, what)
    for i, m in enumerate(models):
        if not isinstance(m, LitsModel):
            raise IncompatibleModelsError(
                f"delta* (Definition 4.1) is defined for lits-models only; "
                f"model {i} is a {type(m).__name__}"
            )


def upper_bound_matrix(
    models: Sequence[LitsModel], g: AggregateFunction = SUM
) -> np.ndarray:
    """Pairwise ``delta*`` distances over lits-models (no dataset scans).

    The fleet vocabulary's kernel: each entry equals
    :func:`~repro.core.upper_bound.upper_bound_deviation` bit for bit.
    """
    from repro.fleet.vocab import LitsVocabulary  # cycle-free at call

    _check_fleet_of_models(models, "delta* matrix")
    return LitsVocabulary(models).bound_matrix(g)


def deviation_matrix(
    models: Sequence[Model],
    datasets: Sequence[DatasetLike],
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
) -> np.ndarray:
    """Pairwise exact deviations over any model class (scans datasets).

    Routes through :class:`repro.fleet.FleetDeviationMatrix`, so each
    dataset is scanned once per GCR family (lits fleets are batched per
    store, partition fleets reuse the memoised assigner passes) instead
    of once per pair. For threshold-pruned variants, incremental
    updates, or the pruning statistics, use the engine directly.
    """
    from repro.fleet.matrix import FleetDeviationMatrix  # cycle-free at call

    if len(models) != len(datasets):
        raise InvalidParameterError(
            f"models and datasets must be aligned: got {len(models)} models "
            f"vs {len(datasets)} datasets"
        )
    _check_fleet_size(models, "deviation matrix")
    engine = FleetDeviationMatrix(models, datasets, f=f, g=g)
    return engine.exhaustive().values


def classical_mds(distances: np.ndarray, k: int = 2) -> np.ndarray:
    """Classical (Torgerson) MDS: ``(n, k)`` coordinates from distances.

    Double-centres the squared-distance matrix and keeps the top ``k``
    non-negative eigen-directions. Distances that embed exactly in
    ``k`` dimensions are reproduced exactly; others are approximated in
    the least-squares (strain) sense.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise InvalidParameterError("distance matrix must be square")
    if not np.allclose(distances, distances.T, atol=1e-9):
        raise InvalidParameterError("distance matrix must be symmetric")
    if k < 1 or k >= n:
        raise InvalidParameterError(f"k must be in [1, {n - 1}]")
    j_centre = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j_centre @ (distances**2) @ j_centre
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:k]
    top_values = np.clip(eigenvalues[order], 0.0, None)
    return eigenvectors[:, order] * np.sqrt(top_values)


def embed_models(
    models: Sequence[LitsModel], k: int = 2, g: AggregateFunction = SUM
) -> np.ndarray:
    """One-call pipeline: ``delta*`` matrix -> classical MDS coordinates."""
    return classical_mds(upper_bound_matrix(models, g=g), k=k)
