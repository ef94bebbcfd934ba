"""Autocorrelation and effective-sample-size estimates for chain output.

ESS uses the initial-positive-sequence rule: autocorrelations are summed
in adjacent pairs (lag 0+1, 2+3, ...) for as long as each pair sum stays
non-negative, which is where the estimator stops being trustworthy for a
reversible chain.  The result is clamped to [1, N] so pathological series
(trends, antithetic oscillation) stay on a meaningful scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .errors import ConstantSeries, NonFinite, ShapeError


def autocorrelation(series, max_lag) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag, biased normalization.

    The biased estimator (lag-0 denominator throughout) trades a little
    bias for guaranteed positive-definiteness, which the pairwise
    truncation rule relies on.  A series holding NaN or an infinity (or
    spanning more than the float range) raises :class:`NonFinite`.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    max_lag = int(max_lag)
    if max_lag < 0 or max_lag >= n:
        raise ShapeError(f"max_lag {max_lag} outside [0, {n - 1}]")
    spread = np.ptp(x)
    if not np.isfinite(spread):
        raise NonFinite("series holds a non-finite value or its range overflows")
    if spread == 0.0:
        raise ConstantSeries("series has zero variance")
    x = x - x.mean()
    size = next_fast_len(2 * n)
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:max_lag + 1] / n
    return acov / acov[0]


def _truncated_autocorr_time(rho) -> float:
    total = 0.0
    m = 0
    while 2 * m + 1 < rho.size:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair < 0.0:
            break
        total += pair
        m += 1
    return 2.0 * total - 1.0


def _all_lags(series) -> np.ndarray:
    """Autocorrelation of a series of at least 100 draws at every lag."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if n < 100:
        raise ShapeError(f"need at least 100 draws, got {n}")
    return autocorrelation(x, n - 1)


def _ess(rho) -> float:
    """ESS of a series from its autocorrelation at every lag."""
    n = rho.size
    tau = _truncated_autocorr_time(rho)
    ess = float(n) if tau <= 0.0 else n / tau
    return float(min(max(ess, 1.0), float(n)))


def effective_sample_size(series) -> float:
    """Number of independent draws carrying the same information.

    N / (1 + 2 sum of autocorrelations), truncated by the
    initial-positive-sequence rule and clamped to [1, N].
    """
    return _ess(_all_lags(series))


@dataclass(frozen=True)
class EssReport:
    """Per-coordinate effective sample sizes with summary statistics."""

    per_coordinate_ess: np.ndarray
    median_ess: float
    min_ess: float
    max_ess: float
    autocorr: np.ndarray  # (max_lag + 1, coordinates)


def ess_report(draws, max_lag=100) -> EssReport:
    """Summarize a chain's draws, one ESS per coordinate.

    ``draws`` is (N,) or (N, d).  The stored autocorrelation matrix is
    truncated to ``max_lag`` rows (capped at N - 1); the ESS itself always
    uses every available lag.
    """
    a = np.asarray(draws, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeError("draws must be a vector or a matrix of rows")
    n, d = a.shape
    max_lag = min(int(max_lag), n - 1)
    # one FFT per coordinate serves its ESS and its stored autocorrelation
    ess, ac = np.empty(d), []
    for j in range(d):
        rho = _all_lags(a[:, j])
        ess[j] = _ess(rho)
        ac.append(rho[:max_lag + 1])
    if max_lag < 0:
        raise ShapeError(f"max_lag {max_lag} outside [0, {n - 1}]")
    ac = np.column_stack(ac)
    return EssReport(
        per_coordinate_ess=ess,
        median_ess=float(np.median(ess)),
        min_ess=float(ess.min()),
        max_ess=float(ess.max()),
        autocorr=ac,
    )
