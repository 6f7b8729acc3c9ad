"""Convergence-bound evaluators, rate exponents, and noise estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import Partition, subset_sqnorms


def _check_finite(**params) -> None:
    """Reject a NaN or infinite float parameter (scalar or array), which no
    comparison below would catch and which would print a NaN or inf bound.
    The step count T is an int, always finite."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def _finite_terms(bound, *names):
    """``bound`` when each of its terms ``names`` is finite; otherwise a
    ValueError names the first term, in the order computed, that overflowed
    or came out NaN."""
    for name in names:
        value = getattr(bound, name)
        if not math.isfinite(value):
            raise ValueError(f"the bound's {name} is {value}: it overflows a "
                             f"float at these inputs")
    return bound


# ---------------------------------------------------------------------------
# high-probability bound for subspace momentum with norm-adaptive step sizes

@dataclass(frozen=True)
class MomentumBound:
    alpha: float
    eta_star: float
    deterministic_term: float
    noise_term: float
    concentration_term: float

    @property
    def total(self) -> float:
        return self.deterministic_term + self.noise_term + self.concentration_term


def momentum_bound(delta1: float, L: float, sigma: float, T: int,
                   beta1: float, fail_prob: float) -> MomentumBound:
    """Bound on min_t E-like ||grad||^2 after T steps at the tuned step size.

    delta1 is the initial suboptimality f(x_1) - f*, L the smoothness
    constant, sigma the sub-gaussian noise level, beta1 the momentum
    parameter, fail_prob the allowed failure probability. A term that
    overflows a float, or an eta_star lost to 0, raises ValueError.
    """
    _check_finite(delta1=delta1, L=L, sigma=sigma, beta1=beta1,
                  fail_prob=fail_prob)
    if not 0 <= beta1 < 1:
        raise ValueError("beta1 must lie in [0, 1)")
    if min(delta1, L, T) <= 0 or sigma < 0 or not 0 < fail_prob < 1:
        raise ValueError("invalid bound parameters")
    try:
        sigma_sq = sigma ** 2
    except OverflowError:
        raise ValueError(f"the bound's sigma**2 overflows a float at "
                         f"sigma={sigma}") from None
    alpha = (3.0 - beta1) * L / (2.0 * (1.0 - beta1))
    if sigma > 0:
        eta_star = min(1.0 / (2.0 * alpha),
                       math.sqrt(delta1 / (sigma_sq * alpha * T)))
    else:
        eta_star = 1.0 / (2.0 * alpha)
    bound = _finite_terms(MomentumBound(
        alpha=alpha,
        eta_star=eta_star,
        deterministic_term=8.0 * delta1 * alpha / T,
        noise_term=7.0 * sigma * math.sqrt(alpha * delta1) / math.sqrt(T),
        concentration_term=48.0 * sigma_sq * math.log(1.0 / fail_prob) / T,
    ), "alpha", "eta_star", "deterministic_term", "noise_term",
        "concentration_term", "total")
    if not eta_star > 0:  # delta1 > 0 and every term finite: a lost ratio
        raise ValueError("the bound's eta_star comes out 0: sigma**2 * alpha * T "
                         "overflows a float, or delta1 over it underflows")
    return bound


# ---------------------------------------------------------------------------
# high-probability bound for subset-norm adaptive step sizes

@dataclass(frozen=True)
class SubsetNormBound:
    G: float
    I: float
    H: float
    rhs: float


# an overflow (to inf) or an invalid value (NaN) shows in the terms, which
# are checked before they are returned
@np.errstate(over="ignore", invalid="ignore")
def subsetnorm_bound(delta1: float, L: float, eta: float, T: int,
                     sigma_subsets: np.ndarray, b0: np.ndarray,
                     fail_prob: float) -> SubsetNormBound:
    """Bound on (1/T) sum_t ||grad f(x_t)||^2 for subset-norm AdaGrad.

    sigma_subsets[i] is the sub-gaussian noise level of subset i (the
    2-norm over that subset's coordinates); b0[i] is the initial
    denominator of subset i, whose square b0[i]**2 starts its accumulator,
    as ``AdaGradSubsetNorm.b0`` does. A term that overflows a float or
    comes out NaN raises ValueError.
    """
    sigma_subsets = np.asarray(sigma_subsets, dtype=np.float64)
    b0 = np.asarray(b0, dtype=np.float64)
    _check_finite(delta1=delta1, L=L, eta=eta, sigma_subsets=sigma_subsets,
                  b0=b0, fail_prob=fail_prob)
    if sigma_subsets.shape != b0.shape or sigma_subsets.ndim != 1:
        raise ValueError("sigma_subsets and b0 must be matching 1D arrays")
    if not sigma_subsets.size:
        raise ValueError("sigma_subsets and b0 need at least one subset")
    if np.any(b0 <= 0):
        raise ValueError("b0 entries must be positive")
    if np.any(sigma_subsets < 0):  # a noise level is a norm
        raise ValueError("sigma_subsets entries must be >= 0")
    if min(delta1, L, eta, T) <= 0 or not 0 < fail_prob < 1:
        raise ValueError("invalid bound parameters")
    c = sigma_subsets.size
    delta = fail_prob
    log1d = math.log(1.0 / delta)
    logTd = math.log(T / delta)
    b0_min = float(b0.min())
    sig_sq = sigma_subsets ** 2
    sum_sig = float(sigma_subsets.sum())  # sum_i ||sigma_{Psi_i}||
    sig_l2_sq = float(sig_sq.sum())  # ||sigma||_2^2 over all coordinates
    sigma_max = float(sigma_subsets.max(initial=0.0))

    alpha = sigma_max * math.sqrt(c * log1d)
    H = float(np.sum(
        (logTd * sig_sq + 2.0 * alpha)
        * (8.0 * sig_sq * log1d / b0 ** 2
           + 2.0 * np.log(1.0 + sig_sq * T + sig_sq * log1d))
    ))
    I = (float(b0.sum()) + 2.0 * delta1 / eta
         + (8.0 * log1d / b0_min) * sig_l2_sq
         + math.sqrt(log1d) * sum_sig
         + 8.0 * eta * L * c * math.log(4.0 * eta * L / b0_min))
    G = (delta1 / eta + H
         + (logTd * sig_l2_sq + c * eta * L
            + 4.0 * c ** 1.5 * sigma_max * math.sqrt(log1d))
         * math.log((4.0 * math.sqrt(T) * sum_sig + I) / b0_min))
    rhs = G * (4.0 * sum_sig / math.sqrt(T) + I / T)
    return _finite_terms(SubsetNormBound(G=G, I=I, H=H, rhs=rhs),
                         "H", "I", "G", "rhs")


# ---------------------------------------------------------------------------
# asymptotic rate exponents under (beta, alpha)-dense noise

@dataclass(frozen=True)
class RateExponents:
    """Exponents e such that the named quantity scales as d^e.

    For each step-size family the pair is (numerator-exponent of the
    constant in front of 1/sqrt(T), i.e. dimension dependence, at slow /
    fast noise regimes).
    """

    coord: tuple
    norm: tuple
    subset_slow: float
    subset_fast: float
    optimal_k_exponent: float


def rate_exponents(beta: float) -> RateExponents:
    """Dimension-dependence exponents when d^beta coordinates carry noise."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if beta <= 2.0 / 3.0:
        subset_fast = beta + 1.0
    else:
        subset_fast = 1.6 * beta + 0.6
    return RateExponents(
        coord=(1.5 + beta, 2.5),
        norm=(2.5 * beta, 3.0 * beta),
        subset_slow=0.3 + 1.8 * beta,
        subset_fast=subset_fast,
        optimal_k_exponent=min(1.0, max(0.0, 1.4 * beta - 0.6)),
    )


# ---------------------------------------------------------------------------
# empirical noise estimation

@dataclass(frozen=True)
class NoiseEstimate:
    per_coord_var: np.ndarray  # unbiased sample variance per coordinate
    noisy_count: int  # coordinates with variance above threshold
    mean_noisy_var: float  # mean variance over the detected coordinates


def estimate_noise(grad_samples: np.ndarray, threshold: float = 1e-12
                   ) -> NoiseEstimate:
    """Per-coordinate gradient-noise variance from n >= 2 stochastic grads.

    grad_samples has shape (n, d): n independent stochastic gradients at a
    fixed point.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    grad_samples = np.asarray(grad_samples, dtype=np.float64)
    if grad_samples.ndim != 2 or grad_samples.shape[0] < 2:
        raise ValueError("need an (n, d) array with n >= 2 samples")
    var = grad_samples.var(axis=0, ddof=1)
    noisy = var > threshold
    count = int(noisy.sum())
    mean_var = float(var[noisy].mean()) if count else 0.0
    return NoiseEstimate(per_coord_var=var, noisy_count=count,
                         mean_noisy_var=mean_var)


def subset_sigmas(p: Partition, per_coord_sigma: np.ndarray) -> np.ndarray:
    """||sigma_{Psi_i}||_2 per subset from per-coordinate noise levels."""
    per_coord_sigma = np.asarray(per_coord_sigma, dtype=np.float64)
    if per_coord_sigma.shape != (p.d,):
        raise ValueError("per_coord_sigma must have one entry per coordinate")
    return np.sqrt(subset_sqnorms(p, per_coord_sigma))
