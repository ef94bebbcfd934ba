"""Autocorrelation and ESS estimators against analytic processes."""

import numpy as np
import pytest

from ncbayes import diagnostics
from ncbayes.errors import ConstantSeries, NonFinite, ShapeError


def ar1(phi, n, rng, burn=500):
    eps = rng.standard_normal(n + burn)
    x = np.empty(n + burn)
    x[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + eps[t]
    return x[burn:]


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rho = diagnostics.autocorrelation(
            np.random.default_rng(0).standard_normal(500), 20
        )
        assert rho[0] == pytest.approx(1.0, abs=1e-12)
        assert rho.shape == (21,)

    def test_white_noise_band(self):
        n = 10_000
        x = np.random.default_rng(1).standard_normal(n)
        rho = diagnostics.autocorrelation(x, 40)
        assert np.all(np.abs(rho[1:]) < 4.0 / np.sqrt(n))

    def test_ar1_matches_analytic_decay(self):
        x = ar1(0.9, 100_000, np.random.default_rng(2))
        rho = diagnostics.autocorrelation(x, 10)
        for k in range(1, 11):
            assert rho[k] == pytest.approx(0.9 ** k, abs=0.05)

    def test_matches_direct_quadratic_computation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        rho = diagnostics.autocorrelation(x, 5)
        c = x - x.mean()
        denom = np.dot(c, c)
        for k in range(6):
            want = np.dot(c[: 400 - k], c[k:]) / denom
            assert rho[k] == pytest.approx(want, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            diagnostics.autocorrelation(np.ones(200), 10)

    def test_lag_bounds(self):
        with pytest.raises(ShapeError):
            diagnostics.autocorrelation(np.arange(10.0), 10)


class TestEffectiveSampleSize:
    def test_iid_series(self):
        x = np.random.default_rng(4).standard_normal(4000)
        ess = diagnostics.effective_sample_size(x)
        assert 3400 <= ess <= 4600

    def test_ar1_integrated_time(self):
        x = ar1(0.9, 100_000, np.random.default_rng(5))
        want = 100_000 * (1.0 - 0.9) / (1.0 + 0.9)
        assert diagnostics.effective_sample_size(x) == pytest.approx(
            want, rel=0.20
        )

    def test_duplication_halves_per_draw_efficiency(self):
        x = ar1(0.8, 20_000, np.random.default_rng(6))
        doubled = np.repeat(x, 2)
        ess_x = diagnostics.effective_sample_size(x)
        ess_d = diagnostics.effective_sample_size(doubled)
        # information content unchanged, so efficiency per draw halves
        assert ess_d == pytest.approx(ess_x, rel=0.15)
        eff_x = ess_x / x.size
        eff_d = ess_d / doubled.size
        assert eff_d == pytest.approx(0.5 * eff_x, rel=0.15)

    def test_affine_invariance(self):
        x = ar1(0.7, 5000, np.random.default_rng(7))
        a = diagnostics.effective_sample_size(x)
        b = diagnostics.effective_sample_size(4.2 * x - 17.0)
        assert b == pytest.approx(a, rel=1e-9)

    def test_thinning_never_gains_information(self):
        x = ar1(0.9, 50_000, np.random.default_rng(8))
        full = diagnostics.effective_sample_size(x)
        for t in (2, 5):
            thinned = diagnostics.effective_sample_size(x[::t])
            assert thinned <= full * 1.10

    def test_clamped_to_n_for_antithetic_series(self):
        x = np.tile([1.0, -1.0], 2000)
        assert diagnostics.effective_sample_size(x) == 4000.0

    def test_clamped_below_by_one(self):
        x = np.cumsum(np.random.default_rng(9).standard_normal(500))
        ess = diagnostics.effective_sample_size(x)
        assert 1.0 <= ess < 50.0

    def test_short_series_rejected(self):
        with pytest.raises(ShapeError):
            diagnostics.effective_sample_size(np.random.default_rng(0).standard_normal(99))

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            diagnostics.effective_sample_size(np.zeros(500))


class TestEssReport:
    def test_per_coordinate_and_summaries(self):
        rng = np.random.default_rng(10)
        iid = rng.standard_normal(20_000)
        slow = ar1(0.95, 20_000, rng)
        report = diagnostics.ess_report(np.column_stack([iid, slow]))
        assert report.per_coordinate_ess.shape == (2,)
        assert report.per_coordinate_ess[0] > 4 * report.per_coordinate_ess[1]
        assert report.min_ess <= report.median_ess <= report.max_ess
        assert report.min_ess == report.per_coordinate_ess.min()
        assert np.all(report.per_coordinate_ess >= 1.0)
        assert np.all(report.per_coordinate_ess <= 20_000.0)

    def test_autocorr_matrix_shape_and_lag0(self):
        rng = np.random.default_rng(11)
        report = diagnostics.ess_report(rng.standard_normal((500, 3)), max_lag=30)
        assert report.autocorr.shape == (31, 3)
        np.testing.assert_allclose(report.autocorr[0], 1.0, atol=1e-12)

    def test_vector_input(self):
        report = diagnostics.ess_report(
            np.random.default_rng(12).standard_normal(1000)
        )
        assert report.per_coordinate_ess.shape == (1,)
        assert report.median_ess == report.per_coordinate_ess[0]

    @pytest.mark.parametrize("n, max_lag", [(100, 100), (300, 100), (4000, 30)])
    def test_columns_equal_the_single_series_estimators(self, n, max_lag):
        rng = np.random.default_rng(15)
        draws = np.column_stack([rng.standard_normal(n),
                                 ar1(0.9, n, rng), ar1(-0.5, n, rng)])
        report = diagnostics.ess_report(draws, max_lag=max_lag)
        lag = min(max_lag, n - 1)
        for j in range(draws.shape[1]):
            np.testing.assert_array_equal(
                report.per_coordinate_ess[j],
                diagnostics.effective_sample_size(draws[:, j]))
            np.testing.assert_array_equal(
                report.autocorr[:, j],
                diagnostics.autocorrelation(draws[:, j], lag))

    def test_constant_column_rejected(self):
        draws = np.column_stack([np.arange(200.0), np.full(200, 3.3)])
        with pytest.raises(ConstantSeries):
            diagnostics.ess_report(draws)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
class TestNonFiniteChains:
    """One non-finite draw raises instead of giving a NaN ESS."""

    def series(self, bad):
        x = np.random.default_rng(13).standard_normal(500)
        x[137] = bad
        return x

    def test_autocorrelation(self, bad):
        with pytest.raises(NonFinite):
            diagnostics.autocorrelation(self.series(bad), 10)

    def test_effective_sample_size(self, bad):
        with pytest.raises(NonFinite):
            diagnostics.effective_sample_size(self.series(bad))

    def test_ess_report(self, bad):
        draws = np.column_stack([np.random.default_rng(14).standard_normal(500),
                                 self.series(bad)])
        with pytest.raises(NonFinite):
            diagnostics.ess_report(draws)

    def test_every_value_non_finite(self, bad):
        with pytest.raises(NonFinite):
            diagnostics.effective_sample_size(np.full(500, bad))
