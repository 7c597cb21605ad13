"""Tests for grid clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute import AttributeSpace, numeric
from repro.data.tabular import TabularDataset
from repro.errors import InvalidParameterError
from repro.mining.cluster.grid import Grid, grid_cluster


@pytest.fixture
def blob_space() -> AttributeSpace:
    return AttributeSpace((numeric("x", 0, 10), numeric("y", 0, 10)))


@pytest.fixture
def two_blobs(blob_space) -> TabularDataset:
    rng = np.random.default_rng(3)
    a = rng.normal([2.5, 2.5], 0.4, size=(200, 2))
    b = rng.normal([7.5, 7.5], 0.4, size=(200, 2))
    X = np.clip(np.vstack([a, b]), 0, 9.999)
    return TabularDataset(blob_space, X)


class TestGrid:
    def test_shape(self, blob_space):
        grid = Grid.uniform(blob_space, bins=4)
        assert grid.shape() == (4, 4)

    def test_projection(self, blob_space):
        grid = Grid.uniform(blob_space, bins=4, attributes=("x",))
        assert grid.shape() == (4,)

    def test_assign_matches_predicates(self, two_blobs):
        grid = Grid.uniform(two_blobs.space, bins=5)
        assigned = grid.assign(two_blobs)
        for cell in np.unique(assigned):
            predicate = grid.cell_predicate(int(cell))
            mask = two_blobs.predicate_mask(predicate)
            assert np.array_equal(mask, assigned == cell)

    def test_cells_partition_space(self, two_blobs):
        grid = Grid.uniform(two_blobs.space, bins=3)
        total = np.zeros(len(two_blobs), dtype=int)
        for cell in range(9):
            total += two_blobs.predicate_mask(grid.cell_predicate(cell))
        assert (total == 1).all()

    def test_edge_cells_are_unbounded(self, blob_space):
        grid = Grid.uniform(blob_space, bins=2)
        import math

        first = grid.cell_predicate(0).constraints["x"]
        assert first.lo == -math.inf
        last = grid.cell_predicate(3).constraints["x"]
        assert last.hi == math.inf

    def test_infinite_domain_rejected(self):
        space = AttributeSpace((numeric("x"),))
        with pytest.raises(InvalidParameterError):
            Grid.uniform(space, bins=3)

    def test_categorical_assign_is_vectorised_by_value(self):
        from repro.core.attribute import categorical

        space = AttributeSpace((categorical("colour", (4, 2, 9)),))
        grid = Grid(space, ("colour",), {})
        dataset = TabularDataset(
            space, np.array([[9.0], [4.0], [2.0], [4.0]])
        )
        # one cell per domain value, in declaration order
        assert grid.assign(dataset).tolist() == [2, 0, 1, 0]

    def test_unseen_category_raises_schema_error(self):
        from repro.core.attribute import categorical
        from repro.errors import SchemaError

        space = AttributeSpace((categorical("colour", (4, 2, 9)),))
        grid = Grid(space, ("colour",), {})
        dataset = TabularDataset(space, np.array([[4.0], [5.0]]))
        with pytest.raises(SchemaError, match="value 5"):
            grid.assign(dataset)

    def test_bins_validation(self, blob_space):
        with pytest.raises(InvalidParameterError):
            Grid.uniform(blob_space, bins=0)


class TestGridCluster:
    def test_finds_two_blobs(self, two_blobs):
        clustering = grid_cluster(two_blobs, bins=5, density_threshold=0.05)
        assert clustering.n_clusters == 2

    def test_densities_sum_to_one(self, two_blobs):
        clustering = grid_cluster(two_blobs, bins=4)
        assert clustering.densities.sum() == pytest.approx(1.0)

    def test_cluster_sizes_cover_dense_mass(self, two_blobs):
        clustering = grid_cluster(two_blobs, bins=5, density_threshold=0.05)
        sizes = clustering.cluster_sizes()
        assert len(sizes) == clustering.n_clusters
        assert sizes.sum() <= 1.0 + 1e-9
        assert sizes.sum() > 0.8  # blobs are tight: most mass is dense

    def test_cluster_regions_accessible(self, two_blobs):
        clustering = grid_cluster(two_blobs, bins=5, density_threshold=0.05)
        regions = clustering.cluster_regions(0)
        assert regions
        # every region predicate is non-empty
        assert all(not r.is_empty for r in regions)

    def test_single_cluster_when_threshold_low(self, two_blobs):
        clustering = grid_cluster(two_blobs, bins=2, density_threshold=0.0)
        # all cells dense and mutually adjacent -> one component
        assert clustering.n_clusters == 1


class TestClusterModelDeviation:
    def test_deviation_between_shifted_distributions(self, blob_space):
        from repro.core.cluster_model import ClusterModel
        from repro.core.deviation import deviation

        rng = np.random.default_rng(4)
        d1 = TabularDataset(
            blob_space,
            np.clip(rng.normal([3, 3], 0.7, (300, 2)), 0, 9.999),
        )
        d2 = TabularDataset(
            blob_space,
            np.clip(rng.normal([7, 7], 0.7, (300, 2)), 0, 9.999),
        )
        d1b = TabularDataset(
            blob_space,
            np.clip(rng.normal([3, 3], 0.7, (300, 2)), 0, 9.999),
        )
        m1 = ClusterModel.fit(d1, bins=4)
        m2 = ClusterModel.fit(d2, bins=4)
        m1b = ClusterModel.fit(d1b, bins=4)
        same = deviation(m1, m1b, d1, d1b).value
        cross = deviation(m1, m2, d1, d2).value
        assert same < cross

    def test_gcr_of_different_grids(self, blob_space, two_blobs):
        from repro.core.cluster_model import ClusterModel
        from repro.core.deviation import deviation

        m1 = ClusterModel.fit(two_blobs, bins=3)
        m2 = ClusterModel.fit(two_blobs, bins=4)
        result = deviation(m1, m2, two_blobs, two_blobs)
        # Same data measured over the overlay: zero deviation.
        assert result.value == pytest.approx(0.0)
        # Overlay of 3x3 and 4x4 grids: at most 36 1-D cuts per axis...
        # exactly (3+4-1)^2 = 36 cells when cuts interleave.
        assert len(result.regions) == 36
