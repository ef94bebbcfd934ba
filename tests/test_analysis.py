"""Squared-correlation formulas, their Hessian oracle, limits, and the
two-step chain specialization."""

import warnings

import numpy as np
import pytest

from ncbayes import analysis, graph, modelzoo
from ncbayes.analysis import LocalFactorSummary
from ncbayes.errors import NumericError, SignError, ZeroScale


class NotNegativeDefinite(NumericError):
    """A Hessian block fails the oracle's negative-definiteness check."""


# the Hessian oracle of the closed forms
def cp_local_hessian(s: LocalFactorSummary) -> np.ndarray:
    """2x2 Hessian of the local log-joint in (y, z) coordinates."""
    return np.array([
        [s.alpha - s.w ** 2 / s.sigma ** 2, s.w / s.sigma ** 2],
        [s.w / s.sigma ** 2, s.beta - 1.0 / s.sigma ** 2],
    ])


def dncp_local_hessian(s: LocalFactorSummary) -> np.ndarray:
    """2x2 Hessian of the local log-joint in (y, eps) coordinates."""
    return np.array([
        [s.alpha + s.w ** 2 * s.beta, s.sigma * s.w * s.beta],
        [s.sigma * s.w * s.beta, s.sigma ** 2 * s.beta - 1.0],
    ])


def squared_correlation_from_hessian(H, i, j) -> float:
    """Squared correlation of coordinates i, j of a Gaussian with Hessian H.

    Uses only the 2x2 principal submatrix on {i, j}; requires it to be
    negative definite.  The boundary case H_ij^2 == H_ii H_jj (perfect
    correlation) returns 1.0 with a warning.
    """
    H = np.asarray(H, dtype=np.float64)
    hii, hjj = H[i, i], H[j, j]
    hij = 0.5 * (H[i, j] + H[j, i])
    if hii >= 0.0 or hjj >= 0.0:
        raise NotNegativeDefinite("diagonal entries must be negative")
    rho_sq = (hij * hij) / (hii * hjj)
    if rho_sq > 1.0 + analysis._RHO_SLACK:
        raise NotNegativeDefinite("principal 2x2 submatrix is indefinite")
    if rho_sq >= 1.0 - analysis._RHO_SLACK:
        warnings.warn("perfect correlation: submatrix is singular",
                      RuntimeWarning, stacklevel=2)
        return min(rho_sq, 1.0)
    return rho_sq


def random_summary(rng):
    return LocalFactorSummary(
        alpha=-np.exp(rng.uniform(-2, 2)),
        beta=-np.exp(rng.uniform(-2, 2)),
        w=rng.standard_normal(),
        sigma=np.exp(rng.uniform(-2, 2)),
    )


class TestSummaryValidation:
    def test_scale_must_be_positive(self):
        with pytest.raises(ZeroScale):
            LocalFactorSummary(alpha=-1.0, beta=-1.0, w=1.0, sigma=0.0)

    def test_curvatures_must_be_negative(self):
        with pytest.raises(SignError):
            LocalFactorSummary(alpha=0.5, beta=-1.0, w=1.0, sigma=1.0)
        with pytest.raises(SignError):
            LocalFactorSummary(alpha=-1.0, beta=0.0, w=1.0, sigma=1.0)


class TestSquaredCorrelations:
    def test_unit_case(self):
        s = LocalFactorSummary(alpha=-1.0, beta=-1.0, w=1.0, sigma=1.0)
        assert analysis.cp_squared_correlation(s) == pytest.approx(0.25, abs=1e-15)
        assert analysis.dncp_squared_correlation(s) == pytest.approx(0.25, abs=1e-15)

    def test_zero_weight_decouples(self):
        s = LocalFactorSummary(alpha=-2.0, beta=-3.0, w=0.0, sigma=0.7)
        assert analysis.cp_squared_correlation(s) == 0.0
        assert analysis.dncp_squared_correlation(s) == 0.0

    def test_closed_forms_match_hessian_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            s = random_summary(rng)
            h_cp = cp_local_hessian(s)
            h_dncp = dncp_local_hessian(s)
            assert analysis.cp_squared_correlation(s) == pytest.approx(
                squared_correlation_from_hessian(h_cp, 0, 1),
                rel=1e-10, abs=1e-300,
            )
            assert analysis.dncp_squared_correlation(s) == pytest.approx(
                squared_correlation_from_hessian(h_dncp, 0, 1),
                rel=1e-10, abs=1e-300,
            )

    def test_hessian_formula_matches_covariance_route(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            s = random_summary(rng)
            H = cp_local_hessian(s)
            C = -np.linalg.inv(H)
            want = C[0, 1] ** 2 / (C[0, 0] * C[1, 1])
            got = squared_correlation_from_hessian(H, 0, 1)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_preference_matches_correlation_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            s = random_summary(rng)
            cp = analysis.cp_squared_correlation(s)
            dncp = analysis.dncp_squared_correlation(s)
            assert (cp > dncp) == analysis.prefer_dncp(s.sigma, s.beta)


class TestPreferDncp:
    def test_direct_inequalities(self):
        assert analysis.prefer_dncp(0.1, -2.0) is True
        assert analysis.prefer_dncp(1.0, -2.0) is False

    def test_tie_reports_false_and_correlations_coincide(self):
        # sigma chosen dyadic so 1/sigma^2 == -beta holds exactly
        sigma, beta = 0.5, -4.0
        assert analysis.prefer_dncp(sigma, beta) is False
        s = LocalFactorSummary(alpha=-1.3, beta=beta, w=0.7, sigma=sigma)
        assert analysis.cp_squared_correlation(s) == pytest.approx(
            analysis.dncp_squared_correlation(s), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(SignError):
            analysis.prefer_dncp(1.0, 0.0)
        with pytest.raises(ZeroScale):
            analysis.prefer_dncp(-1.0, -1.0)


class TestCorrelationFromHessian:
    def test_symmetric_example(self):
        H = np.array([[-2.0, 1.0], [1.0, -2.0]])
        assert squared_correlation_from_hessian(H, 0, 1) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_diagonal_gives_zero(self):
        H = np.diag([-3.0, -0.5])
        assert squared_correlation_from_hessian(H, 0, 1) == 0.0

    def test_singular_boundary_flagged(self):
        H = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.warns(RuntimeWarning):
            rho = squared_correlation_from_hessian(H, 0, 1)
        assert rho == 1.0

    def test_indefinite_rejected(self):
        with pytest.raises(NotNegativeDefinite):
            squared_correlation_from_hessian(
                np.array([[-1.0, 2.0], [2.0, -1.0]]), 0, 1
            )
        with pytest.raises(NotNegativeDefinite):
            squared_correlation_from_hessian(
                np.array([[1.0, 0.0], [0.0, -1.0]]), 0, 1
            )

    def test_uses_named_pair_of_larger_matrix(self):
        H = np.diag([-1.0, -2.0, -4.0])
        H[1, 2] = H[2, 1] = 1.0
        assert squared_correlation_from_hessian(H, 1, 2) == pytest.approx(
            1.0 / 8.0, abs=1e-15
        )


class TestLimits:
    def summary(self):
        return LocalFactorSummary(alpha=-1.5, beta=-2.5, w=0.8, sigma=0.6)

    def test_tabulated_pairs(self):
        s = self.summary()
        cases = {
            "sigma->0": (1.0, 0.0),
            "sigma->inf": (0.0, 0.5161290322580645),
            "beta->0": (0.5423728813559322, 0.0),
            "beta->-inf": (0.0, 1.0),
            "alpha->0": (0.5263157894736842, 0.47368421052631576),
            "alpha->-inf": (0.0, 0.0),
        }
        for which, want in cases.items():
            got = analysis.correlation_limits(s, which)
            assert got == pytest.approx(want, rel=1e-14), which

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            analysis.correlation_limits(self.summary(), "sigma->2")

    def test_small_scale_convergence_is_monotone(self):
        errs_cp, errs_dncp = [], []
        for k in range(1, 7):
            s = LocalFactorSummary(alpha=-1.2, beta=-0.8, w=1.3,
                                   sigma=10.0 ** -k)
            errs_cp.append(abs(analysis.cp_squared_correlation(s) - 1.0))
            errs_dncp.append(abs(analysis.dncp_squared_correlation(s) - 0.0))
        assert errs_cp[-1] < 1e-3 and errs_dncp[-1] < 1e-3
        assert all(a > b for a, b in zip(errs_cp, errs_cp[1:]))
        assert all(a > b for a, b in zip(errs_dncp, errs_dncp[1:]))

    def test_strong_child_curvature_convergence_is_monotone(self):
        errs_cp, errs_dncp = [], []
        for k in range(1, 7):
            s = LocalFactorSummary(alpha=-1.2, beta=-(10.0 ** k), w=1.3,
                                   sigma=0.7)
            errs_cp.append(abs(analysis.cp_squared_correlation(s) - 0.0))
            errs_dncp.append(abs(analysis.dncp_squared_correlation(s) - 1.0))
        assert errs_cp[-1] < 1e-3 and errs_dncp[-1] < 1e-3
        assert all(a > b for a, b in zip(errs_cp, errs_cp[1:]))
        assert all(a > b for a, b in zip(errs_dncp, errs_dncp[1:]))

    def test_extremes_are_complementary(self):
        s = LocalFactorSummary(alpha=-1.2, beta=-0.8, w=1.3, sigma=1e-6)
        total = (analysis.cp_squared_correlation(s)
                 + analysis.dncp_squared_correlation(s))
        assert total == pytest.approx(1.0, abs=1e-3)
        s = LocalFactorSummary(alpha=-1.2, beta=-1e6, w=1.3, sigma=0.7)
        total = (analysis.cp_squared_correlation(s)
                 + analysis.dncp_squared_correlation(s))
        assert total == pytest.approx(1.0, abs=1e-3)


class TestHessianLogPosterior:
    def test_quadratic_model_constant_hessian(self):
        model = graph.build_model({"nodes": [
            {"id": "z", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "x", "kind": "observed", "dim": 2, "family": "gaussian",
             "parents": ["z"], "link": {"weights": {"z": [[1.0, 0.3], [0.0, 0.8]]}},
             "scale": 0.6},
        ]})
        data = {"x": np.array([0.4, -0.2])}
        a = analysis.hessian_log_posterior(
            model, np.zeros(0), {**data, "z": np.zeros(2)})
        b = analysis.hessian_log_posterior(
            model, np.zeros(0), {**data, "z": np.array([2.0, -3.0])})
        np.testing.assert_allclose(a, b, atol=1e-6)
        w = np.array([[1.0, 0.3], [0.0, 0.8]])
        want = -np.eye(2) - w.T @ w / 0.36
        np.testing.assert_allclose(a, want, atol=1e-6)

    def test_lds_centered_matches_closed_form(self):
        sx, sz = 1.5, 0.5
        model = modelzoo.build_lds_model(sx, sz)
        H = analysis.hessian_log_posterior(
            model, np.zeros(0), {"x1": np.zeros(1), "x2": np.zeros(1)}, "cp")
        want = np.array([
            [-1.0 - 1.0 / sx ** 2 - 1.0 / sz ** 2, 1.0 / sz ** 2],
            [1.0 / sz ** 2, -1.0 / sx ** 2 - 1.0 / sz ** 2],
        ])
        np.testing.assert_allclose(H, want, atol=1e-7)

    def test_lds_noise_coordinates_match_closed_form(self):
        sx, sz = 1.5, 0.5
        model = modelzoo.build_lds_model(sx, sz)
        H = analysis.hessian_log_posterior(
            model, np.zeros(0), {"x1": np.zeros(1), "x2": np.zeros(1)}, "dncp")
        want = np.array([
            [-1.0 - 2.0 / sx ** 2, -sz / sx ** 2],
            [-sz / sx ** 2, -1.0 - sz ** 2 / sx ** 2],
        ])
        np.testing.assert_allclose(H, want, atol=1e-7)
        # off-diagonal magnitude of the two-step chain
        assert abs(H[0, 1]) == pytest.approx(sz / sx ** 2, abs=1e-7)

    def test_nonlinear_model_defaults_to_mean_forward_point(self):
        model = graph.build_model({"nodes": [
            {"id": "z1", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "z2", "dim": 2, "family": "gaussian", "parents": ["z1"],
             "link": {"activation": "tanh", "weights": {"z1": [[0.7, 0.1], [0.2, 0.4]]}},
             "scale": 0.5},
        ]})
        H = analysis.hessian_log_posterior(model, np.zeros(0), {})
        assert H.shape == (4, 4)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        assert np.all(np.diag(H) < 0.0)

    def test_unknown_coordinate_system(self):
        model = graph.build_model(
            {"nodes": [{"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0}]}
        )
        with pytest.raises(ValueError):
            analysis.hessian_log_posterior(model, np.zeros(0), {}, "both")


class TestPriorMeanPoint:
    def test_rules_per_family(self):
        model = graph.build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 4.0}},
            {"id": "y", "dim": 1, "family": "lognormal", "parents": ["r"],
             "link": {"weights": {"r": [[1.0]]}}, "scale": 0.6},
            {"id": "z", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "d", "dim": 2, "family": "gaussian", "parents": ["z"],
             "link": {"activation": "tanh", "weights": {"z": [[1.0, 0.0], [0.5, 0.5]]}},
             "scale": 0.0},
        ]})
        point = analysis.prior_mean_point(model, np.zeros(0))
        assert point["r"] == pytest.approx(0.25)
        assert point["y"] == pytest.approx(np.exp(0.25 + 0.18), rel=1e-12)
        np.testing.assert_array_equal(point["z"], np.zeros(2))
        np.testing.assert_array_equal(point["d"], np.zeros(2))

    def test_overrides_condition_downstream(self):
        model = graph.build_model({"nodes": [
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "d", "dim": 1, "family": "gaussian", "parents": ["z"],
             "link": {"activation": "tanh", "weights": {"z": "identity"}},
             "scale": 0.0},
        ]})
        point = analysis.prior_mean_point(
            model, np.zeros(0), overrides={"z": np.array([0.8])}
        )
        assert point["d"] == pytest.approx(np.tanh(0.8), rel=1e-12)


class TestLdsCorrelations:
    def test_unit_scales(self):
        report = analysis.lds_correlations(1.0, 1.0)
        assert report.rho_sq_cp == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert report.rho_sq_dncp == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert report.prefer_dncp is False

    def test_strong_prior_coupling(self):
        report = analysis.lds_correlations(1.0, 0.02)
        assert report.rho_sq_cp > 0.99
        assert report.rho_sq_dncp < 0.01
        assert report.prefer_dncp is True

    def test_weak_prior_coupling(self):
        report = analysis.lds_correlations(1.0, 50.0)
        assert report.rho_sq_cp < 1e-4
        assert report.prefer_dncp is False

    def test_threshold_on_grid(self):
        scales = [0.02, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0]
        for sx in scales:
            for sz in scales:
                report = analysis.lds_correlations(sx, sz)
                assert report.prefer_dncp == (sz < sx)
                if sz != sx:
                    assert ((report.rho_sq_dncp < report.rho_sq_cp)
                            == report.prefer_dncp)

    def test_hessians_in_report_are_negative_definite(self):
        report = analysis.lds_correlations(1.3, 0.4)
        for H in (report.hessian_cp, report.hessian_dncp):
            eig = np.linalg.eigvalsh(H)
            assert np.all(eig < 0.0)

    def test_scale_validation(self):
        with pytest.raises(ZeroScale):
            analysis.lds_correlations(0.0, 1.0)
