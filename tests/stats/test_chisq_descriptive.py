"""Tests for the chi-squared tail and descriptive statistics helpers."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.stats.chisq import chi2_cdf, chi2_sf, gammainc_lower, gammainc_upper
from repro.stats.descriptive import (
    mean_std,
    normal_sf,
    pearson_correlation,
    quantiles,
    spearman_correlation,
)

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


class TestChiSquared:
    def test_sf_matches_scipy(self):
        for df in (1, 2, 5, 10, 50):
            for x in (0.1, 1.0, 5.0, 20.0, 100.0):
                assert chi2_sf(x, df) == pytest.approx(
                    scipy_stats.chi2.sf(x, df), rel=1e-8, abs=1e-12
                )

    def test_cdf_complements_sf(self):
        assert chi2_cdf(5.0, 3) + chi2_sf(5.0, 3) == pytest.approx(1.0)

    def test_boundaries(self):
        assert chi2_sf(0.0, 4) == 1.0
        assert chi2_sf(-1.0, 4) == 1.0
        assert chi2_sf(1e6, 4) < 1e-12

    def test_gammainc_matches_scipy(self):
        for a in (0.5, 1.0, 3.5, 10.0):
            for x in (0.1, 1.0, 5.0, 20.0):
                assert gammainc_lower(a, x) == pytest.approx(
                    scipy_special.gammainc(a, x), rel=1e-8
                )
                assert gammainc_upper(a, x) == pytest.approx(
                    scipy_special.gammaincc(a, x), rel=1e-8, abs=1e-12
                )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            chi2_sf(1.0, 0)
        with pytest.raises(InvalidParameterError):
            gammainc_lower(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            gammainc_upper(1.0, -1.0)


class TestDescriptive:
    def test_mean_std(self):
        mean, std = mean_std([2.0, 4.0, 6.0])
        assert mean == pytest.approx(4.0)
        assert std == pytest.approx(2.0)

    def test_mean_std_single_value(self):
        mean, std = mean_std([5.0])
        assert (mean, std) == (5.0, 0.0)

    def test_mean_std_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            mean_std([])

    def test_quantiles(self):
        qs = quantiles(list(range(101)), (0.25, 0.5, 0.75))
        assert qs == [25.0, 50.0, 75.0]

    def test_pearson_perfect_correlation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_correlation(x, [2 * v for v in x]) == pytest.approx(1.0)
        assert pearson_correlation(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_pearson_matches_scipy(self, rng):
        x = rng.normal(0, 1, 60)
        y = x + rng.normal(0, 0.6, 60)
        assert pearson_correlation(x, y) == pytest.approx(
            scipy_stats.pearsonr(x, y).statistic, abs=1e-9
        )

    def test_pearson_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            pearson_correlation([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            pearson_correlation([1.0], [1.0])
        with pytest.raises(InvalidParameterError):
            pearson_correlation([1.0, 2.0], [1.0])

    def test_spearman_matches_scipy(self, rng):
        x = rng.normal(0, 1, 40)
        y = x**3 + rng.normal(0, 0.1, 40)
        assert spearman_correlation(x, y) == pytest.approx(
            scipy_stats.spearmanr(x, y).statistic, abs=1e-9
        )

    def test_normal_sf(self):
        assert normal_sf(0.0) == pytest.approx(0.5)
        assert normal_sf(1.96) == pytest.approx(0.025, abs=1e-3)
