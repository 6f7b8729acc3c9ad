"""Test objectives and synthetic gradient-noise models.

Objectives evaluate one point ``x`` of shape ``(d,)`` or S points at once,
``(S, d)``, one per row; the oracle draws each row's noise from its own
seed, so S points stepping in lockstep see the noise each would alone. Rows
that share a seed share one draw of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# deterministic objectives with exact gradients

class Quadratic:
    """f(x) = 0.5 * sum_i lam_i x_i^2, minimum 0 at the origin."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.asarray(lam, dtype=np.float64)
        if self.lam.ndim != 1 or np.any(self.lam < 0):
            raise ValueError("lam must be a 1D nonnegative array")
        self.d = self.lam.size
        self.smoothness = float(self.lam.max(initial=0.0))
        self.f_star = 0.0

    def value(self, x: np.ndarray):
        """f(x): a float for one point, ``(S,)`` values for ``(S, d)``."""
        return 0.5 * (self.lam * x * x).sum(axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x


class MLP2:
    """Two-layer tanh network, squared loss, parameters packed into one vector.

    Layout: W1 (h x d_in) then W2 (1 x h), row-major. Gradients via manual
    backprop; checkable against finite differences.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, hidden: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be (n, d_in) with y of length n")
        self.hidden = int(hidden)
        self.d_in = self.X.shape[1]
        self.d = self.hidden * self.d_in + self.hidden
        self.f_star = None
        self.smoothness = None  # not globally smooth in closed form

    def _unpack(self, x: np.ndarray):
        h, din = self.hidden, self.d_in
        lead = x.shape[:-1]
        W1 = x[..., : h * din].reshape(lead + (h, din))
        W2 = x[..., h * din:].reshape(lead + (1, h))
        return W1, W2

    def value(self, x: np.ndarray):
        W1, W2 = self._unpack(x)
        pred = (W2 @ np.tanh(W1 @ self.X.T))[..., 0, :]
        return 0.5 * np.mean((pred - self.y) ** 2, axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        W1, W2 = self._unpack(x)
        n = self.X.shape[0]
        Z = W1 @ self.X.T  # ([S,] h, n)
        A = np.tanh(Z)
        err = (W2 @ A)[..., 0, :] - self.y  # ([S,] n)
        gW2 = (err[..., None, :] @ A.mT) / n  # ([S,] 1, h)
        dA = (W2.mT @ err[..., None, :]) * (1.0 - A * A)  # ([S,] h, n)
        gW1 = dA @ self.X / n  # ([S,] h, d_in)
        lead = x.shape[:-1]
        return np.concatenate([gW1.reshape(lead + (-1,)), gW2.reshape(lead + (-1,))],
                              axis=-1)


# ---------------------------------------------------------------------------
# additive gradient-noise models

@dataclass(frozen=True)
class NoiseModel:
    """Additive per-coordinate noise xi with E[xi] = 0.

    density_beta/density_alpha: exactly ceil(d**density_beta) coordinates
    get noise level density_alpha, the rest are noiseless. With
    density_beta=None every coordinate gets level `sigma`.

    distribution "gaussian" draws N(0, sigma_i^2); "bounded" draws
    uniform sign * sigma_i (still sigma_i-sub-gaussian).
    """

    sigma: float = 0.0
    density_beta: float | None = None
    density_alpha: float = 1.0
    placement: str = "contiguous"  # contiguous | random
    distribution: str = "gaussian"  # gaussian | bounded
    placement_seed: int = 0

    def __post_init__(self):
        for name in ("sigma", "density_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def per_coord_sigma(self, d: int) -> np.ndarray:
        if self.density_beta is None:
            return np.full(d, self.sigma)
        if not 0.0 <= self.density_beta <= 1.0:
            raise ValueError("density_beta must lie in [0, 1]")
        k = min(d, math.ceil(d ** self.density_beta))
        out = np.zeros(d)
        if self.placement == "contiguous":
            idx = np.arange(k)
        elif self.placement == "random":
            rng = np.random.default_rng(self.placement_seed)
            idx = rng.choice(d, size=k, replace=False)
        else:
            raise ValueError(f"unknown placement {self.placement!r}")
        out[idx] = self.density_alpha
        return out

    def sample(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """One noise vector of length d.

        Only the coordinates up to the last noisy one are drawn; that draw
        is a prefix of the full-length one, so the vector is the same.
        """
        sig, nz = _noisy_prefix(self, d)
        if self.distribution == "gaussian":
            head = rng.standard_normal(nz) * sig
        elif self.distribution == "bounded":
            head = rng.choice((-1.0, 1.0), size=nz) * sig
        else:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if nz == d:
            return head
        out = np.zeros(d)
        out[:nz] = head
        return out


@functools.lru_cache(maxsize=16)
def _noisy_prefix(noise: NoiseModel, d: int):
    """(levels of the first nz coordinates, nz), nz = 1 + last noisy index.

    Dense noise has one level, a scalar. Cached, so a run computes the
    pattern once rather than on every draw.
    """
    if noise.density_beta is None:
        return noise.sigma, d
    sig = noise.per_coord_sigma(d)
    nz = int(np.flatnonzero(sig)[-1]) + 1 if sig.any() else 0
    head = sig[:nz]
    head.flags.writeable = False
    return head, nz


def stoch_grad(obj, noise: NoiseModel, x: np.ndarray, seed, t: int,
               true_grad: np.ndarray | None = None) -> np.ndarray:
    """Stochastic gradient grad f(x) + xi, deterministic in (seed, t).

    ``x`` is one point with one ``seed``, or ``(S, d)`` with a sequence of S
    seeds; row s adds noise from ``default_rng(SeedSequence([seed[s], t]))``.
    Seeds may repeat: each distinct seed is drawn once and its vector added
    to every row that carries it. ``true_grad`` is grad f(x) when the caller
    already has it.
    """
    g = np.array(obj.grad(x) if true_grad is None else true_grad, dtype=np.float64)
    rows = g.reshape(-1, obj.d)
    rows_of: dict[int, list[int]] = {}
    for i, s in enumerate(np.atleast_1d(seed).tolist()):
        rows_of.setdefault(s, []).append(i)
    for s, idx in rows_of.items():
        xi = noise.sample(obj.d, np.random.default_rng(np.random.SeedSequence([s, t])))
        for i in idx:
            rows[i] += xi
    return g


# ---------------------------------------------------------------------------
# sub-gaussian verification

@dataclass(frozen=True)
class SubgaussianReport:
    passed: bool
    sigma_fit: float | None  # smallest level on the grid passing the MGF test
    worst_ratio: float  # max over lambdas of E[exp(l^2 xi^2)] / exp(l^2 s^2)


def verify_subgaussian(samples: np.ndarray, sigma_grid: np.ndarray | None = None,
                       tol: float = 1.1) -> SubgaussianReport:
    """Empirical MGF check: E[exp(l^2 xi^2)] <= exp(l^2 s^2) for |l| <= 1/s.

    Scans a geometric grid of candidate levels s and reports the smallest
    one for which the check holds at l in {0.25, 0.5, 1}/s, up to a
    Monte-Carlo slack factor `tol`. Heavy-tailed samples fail for every s
    on the (capped) grid because E[exp(xi^2 / s^2)] diverges.
    """
    xi = np.asarray(samples, dtype=np.float64).ravel()
    if xi.size < 10:
        raise ValueError("need at least 10 samples")
    # robust scale: heavy tails must not inflate the candidate grid, or the
    # test at lambda = 1/s becomes vacuous for large s
    scale = float(np.median(np.abs(xi))) / 0.6745
    if scale == 0.0:
        scale = float(np.sqrt(np.mean(xi * xi)))
    if scale == 0.0:
        return SubgaussianReport(passed=True, sigma_fit=0.0, worst_ratio=0.0)
    if sigma_grid is None:
        sigma_grid = scale * np.geomspace(0.5, 8.0, 25)
    best = None
    last_worst = math.inf
    for s in np.sort(np.asarray(sigma_grid, dtype=np.float64)):
        worst = 0.0
        for lam in (0.25 / s, 0.5 / s, 1.0 / s):
            with np.errstate(over="ignore"):
                lhs = float(np.mean(np.exp(np.clip(lam ** 2 * xi * xi, None, 700.0))))
            rhs = math.exp(lam ** 2 * s ** 2)
            worst = max(worst, lhs / rhs)
        last_worst = worst
        if worst <= tol:
            best = float(s)
            break
    return SubgaussianReport(passed=best is not None, sigma_fit=best,
                             worst_ratio=last_worst)
