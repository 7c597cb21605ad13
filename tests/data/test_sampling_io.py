"""Tests for sampling utilities and flat-file IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.io import (
    load_tabular,
    load_transactions,
    save_tabular,
    save_transactions,
)
from repro.data.sampling import (
    bootstrap_pair,
    sample,
    sample_indices,
    sample_n,
    split_halves,
)
from repro.errors import InvalidParameterError


class TestSampling:
    def test_fraction_size(self, small_tabular, rng):
        s = sample(small_tabular, 0.5, rng)
        assert len(s) == len(small_tabular) // 2

    def test_fraction_bounds(self, small_tabular, rng):
        with pytest.raises(InvalidParameterError):
            sample(small_tabular, 0.0, rng)
        with pytest.raises(InvalidParameterError):
            sample(small_tabular, 1.5, rng)

    def test_without_replacement_has_no_duplicates(self, rng):
        idx = sample_indices(100, 50, rng, replace=False)
        assert len(set(idx.tolist())) == 50

    def test_without_replacement_cannot_oversample(self, rng):
        with pytest.raises(InvalidParameterError):
            sample_indices(10, 20, rng, replace=False)

    def test_with_replacement_can_oversample(self, rng):
        idx = sample_indices(10, 20, rng, replace=True)
        assert len(idx) == 20

    def test_sample_n_on_transactions(self, small_transactions, rng):
        s = sample_n(small_transactions, 4, rng)
        assert len(s) == 4
        assert s.n_items == small_transactions.n_items

    def test_bootstrap_pair_sizes(self, small_tabular, rng):
        d1, d2 = bootstrap_pair(small_tabular, 10, 20, rng)
        assert len(d1) == 10
        assert len(d2) == 20

    def test_split_halves(self, small_tabular, rng):
        a, b = split_halves(small_tabular, rng)
        assert len(a) + len(b) == len(small_tabular)

    def test_reproducible_with_same_seed(self, small_tabular):
        a = sample(small_tabular, 0.3, np.random.default_rng(5))
        b = sample(small_tabular, 0.3, np.random.default_rng(5))
        assert np.array_equal(a.X, b.X)


class TestIo:
    def test_tabular_roundtrip(self, small_tabular, tmp_path):
        path = tmp_path / "data.npz"
        save_tabular(small_tabular, path)
        loaded = load_tabular(path)
        assert np.array_equal(loaded.X, small_tabular.X)
        assert np.array_equal(loaded.y, small_tabular.y)
        assert loaded.space.compatible_with(small_tabular.space)

    def test_unlabelled_tabular_roundtrip(self, two_d_space, tmp_path):
        from repro.core.attribute import AttributeSpace
        from repro.data.tabular import TabularDataset

        space = AttributeSpace(two_d_space.attributes, ())
        data = TabularDataset(space, np.array([[1.0, 2.0]]))
        path = tmp_path / "unlabelled.npz"
        save_tabular(data, path)
        loaded = load_tabular(path)
        assert loaded.y is None
        assert np.array_equal(loaded.X, data.X)

    def test_unbounded_schema_is_strict_json(self, tmp_path):
        """An unbounded attribute's schema is JSON a strict parser
        accepts (no ``Infinity``), and it loads back equal."""
        import json

        from repro.core.attribute import AttributeSpace, numeric
        from repro.data.tabular import TabularDataset

        data = TabularDataset(
            AttributeSpace((numeric("x"),), ()), np.array([[1.0], [-2.5]])
        )
        path = tmp_path / "unbounded.npz"
        save_tabular(data, path)

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with np.load(path) as archive:
            json.loads(str(archive["schema"]), parse_constant=refuse)
        loaded = load_tabular(path)
        assert loaded.space == data.space
        assert np.array_equal(loaded.X, data.X)

    def test_schema_written_with_infinity_still_loads(self, tmp_path):
        import json

        from repro.core.attribute import Attribute, AttributeKind

        attribute = {"name": "x", "kind": "numeric", "values": []}
        schema = {"attributes": [attribute], "class_labels": []}
        path = tmp_path / "older.npz"
        attribute.update(low=-float("inf"), high=float("inf"))
        np.savez(path, X=np.zeros((1, 1)), schema=np.array(json.dumps(schema)))
        assert load_tabular(path).space.attributes == (
            Attribute("x", AttributeKind.NUMERIC),
        )
        # a categorical attribute's bounds go unchecked by Attribute itself
        attribute.update(kind="categorical", values=[0, 1], low=float("nan"))
        np.savez(path, X=np.zeros((1, 1)), schema=np.array(json.dumps(schema)))
        with pytest.raises(InvalidParameterError, match="NaN"):
            load_tabular(path)

    def test_transactions_roundtrip(self, small_transactions, tmp_path):
        path = tmp_path / "txns.txt"
        save_transactions(small_transactions, path)
        loaded = load_transactions(path)
        assert loaded.transactions == small_transactions.transactions
        assert loaded.n_items == small_transactions.n_items

    def test_transactions_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2\n")
        with pytest.raises(InvalidParameterError):
            load_transactions(path)
