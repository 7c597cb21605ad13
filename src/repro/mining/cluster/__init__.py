"""Clustering substrates: grid-density clustering."""

from repro.mining.cluster.grid import Grid, GridClustering, grid_cluster

__all__ = ["Grid", "GridClustering", "grid_cluster"]
