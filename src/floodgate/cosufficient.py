"""Co-sufficient floodgate: batched inference that conditions on a
per-batch sufficient statistic of the X | Z model family, so only the
family (not its parameters) is needed.

Rows are shuffled and cut into n1 contiguous batches of size n2
(remainder dropped). Each batch m yields

    R_m = (1/n2) sum_i Y_i (mu_i - E[mu_i | Z_m, T_m])
    V_m = (1/n2) sum_i Var(mu_i | Z_m, T_m)

and the across-batch delta-method LCB is
max{ R-bar / sqrt(V-bar) - z_alpha s / sqrt(n1), 0 }.

Supported models: a Gaussian X | Z, linear in Z with a known variance
sigma2 (GaussianLinearModel or Ar1Model with one focal column; T is the
batch vector (sum X_i, sum X_i Z_i), and the conditional law is Gaussian
through the hat matrix of (1, Z)), and the discrete Markov chain (T is
the neighbor-pair count table; the conditional law uniformly permutes
the focal values within each neighbor-pair stratum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Dataset, LcbReport, MMSE_GAP, as_confidence_level,
                   philox_rng, ratio_lcb)
from .covariates import DiscreteMarkovChain, _GaussianConditional
from .errors import (ShapeError, SingularDesignError, SizeError,
                     UnsupportedClosedFormError, ValidationError)
from .regression import WorkingRegression
from .mmse import _predict_rows, mu_on_copies


@dataclass(frozen=True)
class BatchPlan:
    """How n rows are cut into batches: n1 batches of n2 rows each,
    with the remainder dropped."""

    n2: int
    n1: int
    dropped: int

    def __post_init__(self) -> None:
        if self.n2 < 1 or self.n1 < 2 or self.dropped < 0:
            raise ValidationError("need n2 >= 1, n1 >= 2, dropped >= 0")

    @property
    def n_used(self) -> int:
        return self.n1 * self.n2


def make_batch_plan(n: int, n2: int) -> BatchPlan:
    n1 = n // n2
    if n1 < 2:
        raise SizeError(f"batch size n2={n2} leaves fewer than 2 batches of n={n}")
    return BatchPlan(n2=n2, n1=n1, dropped=n - n1 * n2)


def hat_matrix(z: np.ndarray) -> np.ndarray:
    """Projection onto the column space of U = (1, Z) for one batch."""
    u = np.hstack([np.ones((len(z), 1)), z])
    q, r = np.linalg.qr(u)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise SingularDesignError("batch design (1, Z) is rank deficient")
    return q @ q.T


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
    h = hat_matrix(z)
    hx = h @ x
    eps = math.sqrt(sigma2) * philox_rng(seed).standard_normal((copies, len(x)))
    return hx[None, :] + eps - eps @ h.T


def dmc_strata(model: DiscreteMarkovChain, z: np.ndarray) -> list[np.ndarray]:
    """Row-index lists grouped by the (left, right) neighbor states of
    the focal variable; the neighbor-pair count table is the sufficient
    statistic and each stratum is exchangeable given it."""
    k1, k2 = model.neighbor_states(z)
    key = k1 * model.num_states + k2
    order = np.argsort(key, kind="stable")
    splits = np.flatnonzero(np.diff(key[order])) + 1
    return [s for s in np.split(order, splits)]


def dmc_conditional_resample(model: DiscreteMarkovChain, x: np.ndarray,
                             z: np.ndarray, seed: int, copies: int) -> np.ndarray:
    """Uniformly permutes the observed focal values within each
    neighbor-pair stratum; preserves the count table exactly."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rng = philox_rng(seed)
    out = np.tile(x, (copies, 1))
    for stratum in dmc_strata(model, z):
        if len(stratum) < 2:
            continue
        for c in range(copies):
            out[c, stratum] = x[stratum[rng.permutation(len(stratum))]]
    return out


def _gaussian_sigma2(model, z: np.ndarray) -> float | None:
    """sigma2 of a one-column Gaussian X | Z model, None for any other."""
    if not isinstance(model, _GaussianConditional) or model.d_x != 1:
        return None
    return float(model.conditional_x_moments(z[:0])[1][0, 0])


def _batch_moments(x, z, y, mu, model, mc_k, seed):
    """(R_m, V_m, mean centered-mu^2) for one batch."""
    mu_obs = _predict_rows(mu, x[:, None], z)
    sigma2 = _gaussian_sigma2(model, z)
    is_gaussian = sigma2 is not None
    if mc_k:
        tilde_x = (gaussian_conditional_resample(x, z, sigma2, seed, mc_k)
                   if is_gaussian
                   else dmc_conditional_resample(model, x, z, seed, mc_k))
        tilde = mu_on_copies(mu, tilde_x[:, :, None], z)
        cond_mean = tilde.mean(axis=0)
        cond_var = tilde.var(axis=0, ddof=1)
    elif is_gaussian:
        a = getattr(mu, "linear_focal_coef", None)
        if a is None:
            raise UnsupportedClosedFormError(
                "closed-form batch moments need a partially linear mu")
        a = float(np.atleast_1d(a)[0])
        h = hat_matrix(z)
        cond_mean = _predict_rows(mu, (h @ x)[:, None], z)
        cond_var = a * a * sigma2 * (1.0 - np.diag(h))
    else:
        # The conditional marginal of each row is uniform over its
        # stratum's observed values, so the moments are exact averages.
        cond_mean = np.empty(len(x))
        cond_var = np.empty(len(x))
        for stratum in dmc_strata(model, z):
            vals = mu_obs[stratum]
            cond_mean[stratum] = vals.mean()
            cond_var[stratum] = vals.var()
    centered = mu_obs - cond_mean
    return (float(np.mean(y * centered)), float(np.mean(cond_var)),
            float(np.mean(centered ** 2)))


def cosufficient_lcb(infer_part: Dataset, mu: WorkingRegression, model,
                     n2: int, alpha=0.05, mc_k: int = 100,
                     seed: int = 0) -> LcbReport:
    """Across-batch delta-method LCB for the co-sufficient functional.

    mc_k = 0 requests exact within-batch conditional moments (partially
    linear mu for a Gaussian model; always available for the DMC);
    mc_k >= 2 estimates them from conditional resamples.
    """
    if mc_k == 1 or mc_k < 0:
        raise ValidationError("mc_k must be 0 (exact) or >= 2")
    level = as_confidence_level(alpha)
    n = infer_part.n
    if infer_part.d_x != 1:
        raise ShapeError("co-sufficient inference supports a single focal column")
    if _gaussian_sigma2(model, infer_part.z) is not None:
        if n2 <= infer_part.d_z + 2:
            raise SizeError(
                f"Gaussian co-sufficient needs n2 > d_z + 2 = {infer_part.d_z + 2}, "
                f"got n2 = {n2}")
    elif not isinstance(model, DiscreteMarkovChain):
        raise ValidationError(
            "co-sufficient inference supports a Gaussian X | Z with one "
            "focal column (GaussianLinearModel, Ar1Model) or "
            "DiscreteMarkovChain")
    plan = make_batch_plan(n, n2)
    rng = philox_rng(seed)
    order = rng.permutation(n)
    r = np.empty(plan.n1)
    v = np.empty(plan.n1)
    scale = np.empty(plan.n1)
    for m in range(plan.n1):
        rows = order[m * n2:(m + 1) * n2]
        x = infer_part.x[rows, 0]
        z = infer_part.z[rows]
        y = infer_part.y[rows]
        r[m], v[m], scale[m] = _batch_moments(
            x, z, y, mu, model, mc_k, seed + 1_000_003 * (m + 1))
    report = ratio_lcb(r, v, level, n_eff=plan.n1, estimand=MMSE_GAP,
                       mu_scale_sq=float(scale.mean()), seed=seed)
    report.diagnostics.update(n1=plan.n1, n2=plan.n2, dropped=plan.dropped)
    return report
