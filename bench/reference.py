"""Closed-form and plain-numpy references the benchmark checks against.

Nothing here calls into ncbayes: each density is written out from the
model's definition, so an agreement with the package is evidence that both
are right, not that one copies the other.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.special import expit, logsumexp

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _normal_logpdf(x, mean, scale):
    r = (x - mean) / scale
    return np.sum(-0.5 * r * r - math.log(scale) - HALF_LOG_2PI, axis=-1)


def _bernoulli_logpmf(x, logits):
    return np.sum(x * logits - np.logaddexp(0.0, logits), axis=-1)


class DbnReference:
    """The DBN of the paper in centered coordinates, written out in numpy.

    z_1 ~ N(0, I); z_t ~ N(tanh(W_z z_{t-1} + b_z), sigma^2 I) for t >= 2;
    x_t ~ Bernoulli(sigmoid(W_x z_t)).  ``z`` is (rows, T, d).
    """

    def __init__(self, W_z, b_z, W_x, sigma, x):
        self.W_z = np.asarray(W_z, dtype=np.float64)
        self.b_z = np.asarray(b_z, dtype=np.float64)
        self.W_x = np.asarray(W_x, dtype=np.float64)
        self.sigma = float(sigma)
        self.x = np.asarray(x, dtype=np.float64)  # (T, obs_dim)
        self.T, self.d = self.x.shape[0], self.W_z.shape[0]

    def _means(self, z):
        """Conditional means of z_2..z_T given their predecessors."""
        return np.tanh(z[:, :-1] @ self.W_z.T + self.b_z)

    def log_joint(self, z):
        z = np.asarray(z, dtype=np.float64)
        value = _normal_logpdf(z[:, 0], 0.0, 1.0)
        value = value + np.sum(
            _normal_logpdf(z[:, 1:], self._means(z), self.sigma), axis=-1)
        logits = z @ self.W_x.T
        return value + np.sum(_bernoulli_logpmf(self.x, logits), axis=-1)

    def grad_log_joint(self, z):
        """Analytic gradient with respect to every z_t, shaped like ``z``."""
        z = np.asarray(z, dtype=np.float64)
        m = self._means(z)
        resid = (z[:, 1:] - m) / self.sigma ** 2
        g = np.zeros_like(z)
        g[:, 0] -= z[:, 0]
        g[:, 1:] -= resid
        # each z_{t-1} moves the mean of z_t through tanh
        g[:, :-1] += ((1.0 - m * m) * resid) @ self.W_z
        g += (self.x - expit(z @ self.W_x.T)) @ self.W_x
        return g

    def eps_from_z(self, z):
        """Noise coordinates of ``z``: eps_1 = z_1, eps_t = (z_t - mean)/sigma."""
        z = np.asarray(z, dtype=np.float64)
        eps = np.empty_like(z)
        eps[:, 0] = z[:, 0]
        eps[:, 1:] = (z[:, 1:] - self._means(z)) / self.sigma
        return eps

    def log_jacobian(self):
        """log |dz/deps|: sigma once per coordinate of z_2..z_T."""
        return (self.T - 1) * self.d * math.log(self.sigma)


class LinearGaussian:
    """A log density that is a sum of Gaussian factors of linear maps.

    Each factor ``(a, c, s)`` contributes log N(c; a . u, s).  The
    posterior precision is the sum of a a^T / s^2 over the factors.
    """

    def __init__(self, factors):
        self.factors = [(np.asarray(a, dtype=np.float64), float(c), float(s))
                        for a, c, s in factors]

    def log_density(self, u):
        u = np.asarray(u, dtype=np.float64)
        total = 0.0
        for a, c, s in self.factors:
            r = (c - u @ a) / s
            total = total - 0.5 * r * r - math.log(s) - HALF_LOG_2PI
        return total

    def precision(self):
        return sum(np.outer(a, a) / s ** 2 for a, _, s in self.factors)


def lds_reference(sigma_x, sigma_z, x1, x2, system):
    """The two-step chain z1 -> z2 with x_i ~ N(z_i, sigma_x^2).

    ``system="cp"`` uses u = (z1, z2); ``"dncp"`` uses u = (z1, eps) with
    z2 = z1 + sigma_z eps, whose log-Jacobian sigma_z is folded into the
    density of eps.
    """
    if system == "cp":
        return LinearGaussian([
            ((1.0, 0.0), 0.0, 1.0),
            ((1.0, 0.0), x1, sigma_x),
            ((-1.0, 1.0), 0.0, sigma_z),
            ((0.0, 1.0), x2, sigma_x),
        ])
    return LinearGaussian([
        ((1.0, 0.0), 0.0, 1.0),
        ((1.0, 0.0), x1, sigma_x),
        ((0.0, 1.0), 0.0, 1.0),
        ((1.0, sigma_z), x2, sigma_x),
    ])


def squared_correlation(precision):
    p = np.asarray(precision, dtype=np.float64)
    return p[0, 1] ** 2 / (p[0, 0] * p[1, 1])


def local_factor_correlations(alpha, beta, w, sigma):
    """Squared correlations of the (y, z) and (y, eps) pairs of one factor.

    The local log-joint is alpha y^2/2 - (z - w y)^2/(2 sigma^2) + beta z^2/2;
    the non-centered form substitutes z = w y + sigma eps.
    """
    h_cp = np.array([[alpha - w * w / sigma ** 2, w / sigma ** 2],
                     [w / sigma ** 2, beta - 1.0 / sigma ** 2]])
    h_dncp = np.array([[alpha + beta * w * w, beta * w * sigma],
                       [beta * w * sigma, beta * sigma ** 2 - 1.0]])
    return squared_correlation(-h_cp), squared_correlation(-h_dncp)


class LinearGaussianLatent:
    """z ~ N(0, I_k), x | z ~ N(W z + b, s^2 I): exact log marginal of x."""

    def __init__(self, W, b, s):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.s = float(s)

    def log_marginal(self, x):
        cov = self.W @ self.W.T + self.s ** 2 * np.eye(self.b.size)
        return stats.multivariate_normal(self.b, cov).logpdf(x)

    def estimator_error_bound(self, x, L, rng, draws=20000, z_score=5.0):
        """Tolerance for the mean over rows of an L-sample log-mean estimate.

        The estimate for one row, log mean_l p(x | z_l) with z_l from the
        prior, has bias about -v/(2L) and spread about sqrt(v/L), where v is
        the relative variance of p(x | z) under the prior; v is measured
        here by plain Monte Carlo.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = rng.standard_normal((draws, self.W.shape[1]))
        mean = z @ self.W.T + self.b
        logw = np.stack([_normal_logpdf(xi, mean, self.s) for xi in x])
        log_mean = logsumexp(logw, axis=1) - math.log(draws)
        rel = np.exp(2.0 * (logw - log_mean[:, None]))
        v = float(np.mean(rel.mean(axis=1) - 1.0))
        n = x.shape[0]
        return v / (2.0 * L) + z_score * math.sqrt(v / (L * n))
