"""Co-sufficient floodgate: the mMSE floodgate run inside batches, with
X redrawn from its law given (Z, T) for a per-batch sufficient statistic
T of the X | Z model family, so only the family (not its parameters) is
needed.

Rows are shuffled and cut into n1 contiguous batches of size n2
(remainder dropped). mmse.moment_samples, given the batch's law of X
given (Z_m, T_m) as the model, turns each batch m into

    R_m = (1/n2) sum_i Y_i (mu_i - E[mu_i | Z_m, T_m])
    V_m = (1/n2) sum_i Var(mu_i | Z_m, T_m)

and the across-batch delta-method LCB is
max{ R-bar / sqrt(V-bar) - z_alpha s / sqrt(n1), 0 }.

Supported models: a Gaussian X | Z, linear in Z with a known variance
sigma2 (GaussianLinearModel or Ar1Model with one focal column; T is the
batch vector (sum X_i, sum X_i Z_i), and the conditional law is
N(H X, sigma2 (I - H)) for the hat matrix H of (1, Z)), and the discrete
Markov chain (T is the neighbor-pair count table; the conditional law
uniformly permutes the focal values within each neighbor-pair stratum).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import (Dataset, LcbReport, MMSE_GAP, as_confidence_level,
                   philox_rng, ratio_lcb)
from .covariates import DiscreteMarkovChain, NullCopies, _GaussianConditional
from .errors import ShapeError, SizeError, ValidationError
from .regression import WorkingRegression, full_rank_qr
from .mmse import FloodgateConfig, moment_samples


def _basis(z: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of the columns of U = (1, Z) for one batch."""
    return full_rank_qr(np.hstack([np.ones((len(z), 1)), z]),
                        "batch design (1, Z) is rank deficient")[0]


def hat_matrix(z: np.ndarray) -> np.ndarray:
    """Projection onto the column space of U = (1, Z) for one batch."""
    q = _basis(z)
    return q @ q.T


class _GaussianBatch:
    """X | (Z, T) on one batch of a Gaussian X | Z with known sigma2:
    draws H x + (I - H) eps keep U'X~ = U'x; H = Q Q' is never formed."""

    def __init__(self, x: np.ndarray, z: np.ndarray, sigma2: float) -> None:
        self.q, self.sigma2 = _basis(z), sigma2
        self.hx = self.q @ (self.q.T @ x)

    def conditional_x_moments(self, z):
        h_diag = np.einsum("ij,ij->i", self.q, self.q)
        return self.hx[:, None], (self.sigma2 * (1.0 - h_diag))[:, None, None]

    def sample_null_copies(self, z, big_k, seed):
        eps = math.sqrt(self.sigma2) * philox_rng(seed).standard_normal(
            (big_k, len(self.hx)))
        return NullCopies((self.hx + eps - (eps @ self.q) @ self.q.T)[:, :, None])


def gaussian_conditional_resample(x: np.ndarray, z: np.ndarray, sigma2: float,
                                  seed: int, copies: int) -> np.ndarray:
    """Draws from X | (Z, T) for the Gaussian linear model with known
    sigma2: X~ = H X + (I - H) eps with eps ~ N(0, sigma2 I), which
    preserves U'X~ = U'X exactly and has the correct conditional law
    N(H X, sigma2 (I - H)). Returns shape (copies, n2)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != len(z):
        raise ShapeError("x and z row counts differ")
    if sigma2 < 0:
        raise ValidationError("sigma2 must be nonnegative")
    return _GaussianBatch(x, z, sigma2).sample_null_copies(
        z, copies, seed).copies[:, :, 0]


def dmc_strata(model: DiscreteMarkovChain, z: np.ndarray) -> list[np.ndarray]:
    """Row-index lists grouped by the (left, right) neighbor states of
    the focal variable; the neighbor-pair count table is the sufficient
    statistic and each stratum is exchangeable given it."""
    k1, k2 = model.neighbor_states(z)
    key = k1 * model.num_states + k2
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


class _ChainBatch:
    """X | (Z, T) on one batch of a DiscreteMarkovChain: a row takes each
    focal value of its stratum with that value's share of the stratum."""

    def __init__(self, model: DiscreteMarkovChain, x, z) -> None:
        self.x, self.num_states = x, model.num_states
        self.strata = dmc_strata(model, z)

    def conditional_pmf(self, z):
        states = self.x.astype(np.int64)
        pmf = np.empty((len(states), self.num_states))
        for s in self.strata:
            pmf[s] = np.bincount(states[s], minlength=self.num_states) / len(s)
        return pmf

    def sample_null_copies(self, z, big_k, seed):
        rng = philox_rng(seed)
        out = np.tile(self.x, (big_k, 1))
        for s in self.strata:
            out[:, s] = rng.permuted(out[:, s], axis=1)
        return NullCopies(out[:, :, None])


def dmc_conditional_resample(model: DiscreteMarkovChain, x: np.ndarray,
                             z: np.ndarray, seed: int, copies: int) -> np.ndarray:
    """Uniformly permutes the observed focal values within each
    neighbor-pair stratum; preserves the count table exactly."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return _ChainBatch(model, x, z).sample_null_copies(
        z, copies, seed).copies[:, :, 0]


def check_batch_counts(n2: int, mc_k: int) -> None:
    """Rejects n2 < 1, and an mc_k that is neither 0 (exact) nor >= 2."""
    if mc_k == 1 or mc_k < 0:
        raise ValidationError("mc_k must be 0 (exact) or >= 2")
    if n2 < 1:
        raise ValidationError(f"batch size n2 must be >= 1, got {n2}")


def cosufficient_lcb(infer_part: Dataset, mu: WorkingRegression, model,
                     n2: int, alpha=0.05, mc_k: int = 100,
                     seed: int = 0) -> LcbReport:
    """Across-batch delta-method LCB for the co-sufficient functional.

    mc_k = 0 requests exact within-batch conditional moments (partially
    linear mu for a Gaussian model; always available for the DMC);
    mc_k >= 2 estimates them from conditional resamples.
    """
    check_batch_counts(n2, mc_k)
    level = as_confidence_level(alpha)
    n = infer_part.n
    if infer_part.d_x != 1:
        raise ShapeError("co-sufficient inference supports a single focal column")
    if isinstance(model, _GaussianConditional) and model.d_x == 1:
        if n2 <= infer_part.d_z + 2:
            raise SizeError(
                f"Gaussian co-sufficient needs n2 > d_z + 2 = {infer_part.d_z + 2}, "
                f"got n2 = {n2}")
        sigma2 = model.conditional_x_moments(infer_part.z[:0])[1][0, 0]
        batch_law = partial(_GaussianBatch, sigma2=float(sigma2))
    elif isinstance(model, DiscreteMarkovChain):
        if not np.isin(infer_part.x, np.arange(model.num_states)).all():
            raise ValidationError(
                f"chain focal values must be states 0..{model.num_states - 1}")
        batch_law = partial(_ChainBatch, model)
    else:
        raise ValidationError(
            "co-sufficient inference supports a Gaussian X | Z with one "
            "focal column (GaussianLinearModel, Ar1Model) or "
            "DiscreteMarkovChain")
    n1, dropped = divmod(n, n2)
    if n1 < 2:
        raise SizeError(f"batch size n2={n2} leaves fewer than 2 batches of n={n}")
    order = philox_rng(seed).permutation(n)
    samples = []
    for m in range(n1):
        batch = infer_part.take(order[m * n2:(m + 1) * n2])
        cfg = FloodgateConfig(big_k=mc_k, center_y=False,
                              seed=seed + 1_000_003 * (m + 1))
        r, v, scale = moment_samples(
            batch, mu, batch_law(batch.x[:, 0], batch.z), cfg)
        samples.append((np.mean(r), np.mean(v), scale))
    r, v, scale = np.array(samples).T
    report = ratio_lcb(r, v, level, estimand=MMSE_GAP,
                       mu_scale_sq=float(scale.mean()), seed=seed)
    report.diagnostics.update(n1=n1, n2=n2, dropped=dropped)
    return report
