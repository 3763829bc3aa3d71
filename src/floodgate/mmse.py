"""Lower confidence bounds for the mMSE gap.

The LCB is built from per-row numerator/denominator samples
R_i = Y_i (mu_i - E[mu | Z_i]) and V_i = Var(mu | Z_i), aggregated by a
delta-method standard error for the ratio of means R-bar / sqrt(V-bar).
Conditional moments of mu come either in closed form
(`conditional_moments`) or from K Monte Carlo null copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ConfidenceLevel, Dataset, LcbReport, MMSE_GAP,
                   MMSE_GAP_SCALE_FREE, as_confidence_level, philox_rng,
                   ratio_lcb)
from .covariates import CovariateModel
from .errors import (ShapeError, SizeError, UnsupportedClosedFormError,
                     ValidationError)
from .regression import LinearWorkingRegression, WorkingRegression


@dataclass(frozen=True)
class FloodgateConfig:
    """Settings for one floodgate LCB computation.

    big_k = 0 requests closed-form conditional moments (only valid when
    the covariate model and mu support them); big_k >= 2 requests the
    Monte Carlo estimators with K null copies. big_k = 1 is rejected
    because the K-copy variance estimator needs at least two copies.
    """

    alpha: ConfidenceLevel | float = 0.05
    big_k: int = 500
    center_y: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_confidence_level(self.alpha))
        if self.big_k == 1 or self.big_k < 0:
            raise ValidationError(
                f"big_k must be 0 (closed form) or >= 2, got {self.big_k}")


# Values held at once: the copies of one block of null_mu_blocks (every
# Monte Carlo path), and the tiled z per generic-mu chunk in mu_on_copies.
# A block's steps run in place, so about one block (4 MB) is alive at a
# time. Each block also pays O(n d_z) for the conditional mean and z @
# coef, so much smaller blocks slow a bound on many rows.
_BLOCK_VALUES = 1 << 19

# Values in the weighted bound's one buffer for its weighted squares.
_WEIGHTED_SLICE_VALUES = 1 << 14


def mu_on_copies(mu: WorkingRegression, copies: np.ndarray,
                 z: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """mu on a (K, n, d_x) stack of copies of x, each paired with the n
    rows of z; shape (K, n). A generic mu gets chunks of copies whose
    tiled z holds about _BLOCK_VALUES values, so its value on a row must
    not depend on the other rows in the call. One computing ``z @ coef``
    breaks this in the last bits: BLAS rounds a product's last rows
    differently, so moving the chunk cuts can change them. With
    overwrite and one focal column, mu is evaluated into the copies' own
    storage, which the result then shares."""
    big_k, n, d_x = copies.shape
    if isinstance(mu, LinearWorkingRegression):
        # Evaluate the z part once instead of retiling it per copy.
        base = np.full(n, mu.intercept)
        if len(mu.z_coef):
            base = base + z @ mu.z_coef
        # One (K, n) array, then in place; a sum has the same bits in
        # either operand order.
        if d_x == 1 and len(mu.x_coef) == 1:
            f = np.multiply(copies[:, :, 0], mu.x_coef[0],
                            out=copies[:, :, 0] if overwrite else None)
        else:
            f = copies @ mu.x_coef
        f += base[None, :]
        if mu.link == "binary_mean":
            f /= 2.0
            np.tanh(f, out=f)
        return f
    step = max(1, _BLOCK_VALUES // max(n * z.shape[1], 1))
    z_rep = np.tile(z, (min(step, big_k), 1))
    # A chunk's copies are read before its values are written.
    out = copies[:, :, 0] if overwrite and d_x == 1 else np.empty((big_k, n))
    for lo in range(0, big_k, step):
        part = copies[lo:lo + step]
        out[lo:lo + len(part)] = mu.predict(
            part.reshape(-1, d_x), z_rep[:len(part) * n]).reshape(len(part), n)
    return out


def conditional_moments(model, mu: WorkingRegression, z: np.ndarray):
    """Per-row (mean, variance) of mu(X, Z) given Z in closed form: any
    mu under a finite `conditional_pmf` (column k is focal value k), or a
    partially linear mu (a.x + g(z)) under a Gaussian law whose
    covariance is (d_x, d_x) for all rows or (n, d_x, d_x). Raises
    UnsupportedClosedFormError otherwise."""
    if hasattr(model, "conditional_pmf"):
        pmf = model.conditional_pmf(z)
        keep = np.flatnonzero(pmf.any(axis=0))    # values a row can take
        at = mu_on_copies(mu, np.broadcast_to(
            keep[:, None, None].astype(float), (len(keep), len(z), 1)), z).T
        mean = np.sum(pmf[:, keep] * at, axis=1)
        return mean, np.sum(pmf[:, keep] * (at - mean[:, None]) ** 2, axis=1)
    a = getattr(mu, "linear_focal_coef", None)
    if a is None:
        raise UnsupportedClosedFormError(
            "mu does not declare a linear focal coefficient")
    mean_x, cov = model.conditional_x_moments(z)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape[0] != mean_x.shape[1]:
        raise ShapeError("focal coefficient length does not match d_x")
    return mu.predict(mean_x, z), np.full(len(mean_x), a @ cov @ a)


def mu_null_values(mu: WorkingRegression, model: CovariateModel,
                   z: np.ndarray, big_k: int,
                   seed: int | np.random.Generator) -> np.ndarray:
    """mu on K null copies of x drawn from model; shape (K, n). A
    Generator seed continues its stream, as in sample_null_copies. The
    draws are fresh, so a linear mu is evaluated over them."""
    return mu_on_copies(mu, model.sample_null_copies(z, big_k, seed).copies,
                        z, overwrite=True)


def null_mu_blocks(mu: WorkingRegression, model: CovariateModel,
                   z: np.ndarray, count: int, rng: int | np.random.Generator):
    """Yield mu on count null copies in (rows, n) blocks of at most
    max(1, _BLOCK_VALUES // n) copies, one mu_null_values call each, from
    one continuing stream (a Generator continues across calls)."""
    rng = philox_rng(rng)
    step = max(1, _BLOCK_VALUES // len(z))
    for start in range(0, count, step):
        yield mu_null_values(mu, model, z, min(step, count - start), rng)


def fold_sum(total: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """total plus block's axis-0 sum (overwriting block), in numpy's
    axis-0 row order: bit-identical to summing the stacked blocks."""
    if total is not None:
        block[0] += total
    return block.sum(axis=0)


def sum_blocks(blocks) -> np.ndarray:
    """The axis-0 sum over a stream of (rows, n) blocks (overwriting
    them), bit-identical to summing the stacked blocks."""
    total = None
    for block in blocks:
        total = fold_sum(total, block)
        del block           # freed before the next block is drawn
    return total


def block_moments(blocks) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-column (count, sum, M2) over a stream of (rows, n) blocks. Block
    M2 values merge by Chan, Golub & LeVeque (1983), so M2 / (count - 1)
    equals var(ddof=1) bit for bit when one block holds every row."""
    count, total, m2 = 0, None, 0.0
    for block in blocks:
        rows, own = len(block), block.sum(axis=0)
        if count:
            delta = own / rows - total / count
            m2 = m2 + delta * delta * (count * rows / (count + rows))
        if total is None:
            total = own
        else:           # fold_sum overwrites the first row: keep it
            first = block[0].copy()
            total = fold_sum(total, block)
            block[0] = first
        # The squared deviations, over the block.
        block -= own / rows
        block *= block
        m2 = m2 + block.sum(axis=0)
        count += rows
        del block           # freed before the next block is drawn
    return count, total, m2


def moment_samples(infer_part: Dataset, mu: WorkingRegression,
                   model: CovariateModel, cfg: FloodgateConfig
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-row (R_i, V_i) samples and the squared scale of the centered
    mu values (used by the degeneracy threshold)."""
    mu_obs = mu.predict(infer_part.x, infer_part.z)
    if cfg.big_k == 0:
        g, v = conditional_moments(model, mu, infer_part.z)
        center = g
    else:
        # The centering function must be independent of the copies that
        # enter R_i, otherwise the shared Monte Carlo noise biases the
        # numerator upward by Var(mu | Z) / K; centring takes the first
        # K copies of the stream and R_i the next K.
        rng = philox_rng(cfg.seed)
        if cfg.center_y:
            center = sum_blocks(null_mu_blocks(
                mu, model, infer_part.z, cfg.big_k, rng)) / cfg.big_k
        k, total, m2 = block_moments(
            null_mu_blocks(mu, model, infer_part.z, cfg.big_k, rng))
        g = total / k
        v = m2 / (k - 1)
    centered = mu_obs - g
    y = infer_part.y - center if cfg.center_y else infer_part.y
    r = y * centered
    scale_sq = float(np.mean(centered ** 2))
    return r, v, scale_sq


def floodgate_lcb(infer_part: Dataset, mu: WorkingRegression,
                  model: CovariateModel, cfg: FloodgateConfig) -> LcbReport:
    """Delta-method LCB for the mMSE-gap floodgate functional."""
    if infer_part.n < 2:
        raise SizeError("floodgate needs at least two inference rows")
    r, v, scale_sq = moment_samples(infer_part, mu, model, cfg)
    return ratio_lcb(r, v, cfg.alpha, estimand=MMSE_GAP,
                     mu_scale_sq=scale_sq, seed=cfg.seed)


def variance_ucb(y: np.ndarray, alpha) -> float:
    """CLT-based upper confidence bound for Var(Y)."""
    level = as_confidence_level(alpha)
    d = (y - y.mean()) ** 2
    return float(d.mean() + level.z * d.std(ddof=1) / math.sqrt(len(y)))


def floodgate_lcb_scale_free(infer_part: Dataset, mu: WorkingRegression,
                             model: CovariateModel,
                             cfg: FloodgateConfig) -> LcbReport:
    """LCB for the scale-free gap I^2 / Var(Y), combining an alpha/2
    gap LCB with an alpha/2 variance UCB by Bonferroni; clipped to [0,1]."""
    half = cfg.alpha.alpha / 2.0
    y = infer_part.y
    if y.std(ddof=1) == 0.0:
        return LcbReport(0.0, 0.0, 0.0, infer_part.n, MMSE_GAP_SCALE_FREE,
                         degenerate=True, seed=cfg.seed)
    base = floodgate_lcb(infer_part, mu, model, replace(cfg, alpha=half))
    if base.degenerate:
        return base.replace(estimand=MMSE_GAP_SCALE_FREE)
    ucb = variance_ucb(y, half)
    if ucb <= 0.0:
        return LcbReport(0.0, base.point, base.se, infer_part.n,
                         MMSE_GAP_SCALE_FREE, degenerate=True, seed=cfg.seed)
    value = min(max(base.lcb ** 2 / ucb, 0.0), 1.0)
    return LcbReport(value, base.point ** 2 / ucb, base.se, infer_part.n,
                     MMSE_GAP_SCALE_FREE, degenerate=False, seed=cfg.seed,
                     diagnostics={"var_y_ucb": ucb, "gap_lcb": base.lcb})


def floodgate_lcb_weighted(infer_part: Dataset, mu: WorkingRegression,
                           model: CovariateModel, weights,
                           cfg: FloodgateConfig) -> LcbReport:
    """Importance-weighted floodgate LCB for a shifted target population.

    weights is a pair (w, w1): w has shape (n,) and carries the joint
    covariate-density ratio at the observed rows; w1 has shape (K, n)
    and carries the conditional ratio at the null copies X~, which are
    model.sample_null_copies(infer_part.z, K, cfg.seed).copies: the
    streamed blocks equal that one draw. Per row,

        R_i = mean_k (Y_i - mu(X~_ik, Z_i))^2 w_i w1_ik
              - (Y_i - mu(X_i, Z_i))^2 w_i
        V_i = mean_k 2 (mu(X_i, Z_i) - mu(X~_ik, Z_i))^2 w_i w1_ik

    and the usual delta-method LCB is applied after normalizing both
    sample means by the mean row weight, which makes the bound exactly
    invariant to a constant rescaling of the weights.
    """
    if cfg.big_k < 2:
        raise ValidationError("weighted floodgate needs big_k >= 2: no closed form")
    if infer_part.n < 2:
        raise SizeError("floodgate needs at least two inference rows")
    w, w1 = weights
    w = np.asarray(w, dtype=float)
    w1 = np.atleast_2d(np.asarray(w1, dtype=float))
    n = infer_part.n
    if w.shape != (n,):
        raise ShapeError(f"w must have shape ({n},)")
    if w1.shape != (cfg.big_k, n):
        raise ShapeError(f"w1 must have shape ({cfg.big_k}, {n})")
    if (not np.all(np.isfinite(w)) or not np.all(np.isfinite(w1))
            or w.min() < 0 or w1.min() < 0):
        raise ValidationError("weights must be finite and nonnegative")
    w_bar = float(w.mean())
    if w_bar <= 0.0:
        return LcbReport(0.0, 0.0, 0.0, n, MMSE_GAP, degenerate=True,
                         seed=cfg.seed)
    mu_obs = mu.predict(infer_part.x, infer_part.z)
    y, big_k = infer_part.y, cfg.big_k
    sq_sum = dev_sum = tilde_sum = None
    # The weighted squares are formed a slice of copies at a time in one
    # reused buffer, so no block-sized temporary sits beside the block.
    # Sums add rows in order, so slicing does not change their bits.
    buf = np.empty((min(big_k, max(1, _WEIGHTED_SLICE_VALUES // n)), n))
    start = 0
    for tilde in null_mu_blocks(mu, model, infer_part.z, big_k, cfg.seed):
        for lo in range(0, len(tilde), len(buf)):
            t = tilde[lo:lo + len(buf)]
            w1_rows = w1[start + lo:start + lo + len(t)]
            b = buf[:len(t)]
            np.subtract(y, t, out=b)            # (y - tilde) ** 2 * w1
            np.square(b, out=b)
            b *= w1_rows
            sq_sum = fold_sum(sq_sum, b)
            np.subtract(mu_obs, t, out=b)       # 2 (mu_obs - tilde) ** 2 * w1
            np.square(b, out=b)
            b *= 2.0
            b *= w1_rows
            dev_sum = fold_sum(dev_sum, b)
        start += len(tilde)
        tilde_sum = fold_sum(tilde_sum, tilde)
        del tilde, t        # freed (with its last view) before the next block
    r = (sq_sum / big_k * w - (y - mu_obs) ** 2 * w) / w_bar
    v = dev_sum / big_k * w / w_bar
    scale_sq = float(np.mean((mu_obs - tilde_sum / big_k) ** 2))
    return ratio_lcb(r, v, cfg.alpha, estimand=MMSE_GAP,
                     mu_scale_sq=scale_sq, seed=cfg.seed)


def trivial_ucb(infer_part: Dataset, nu: WorkingRegression, alpha) -> float:
    """CLT upper confidence bound for E[(Y - nu(Z))^2], which upper
    bounds the squared mMSE gap for any function nu of z alone."""
    if infer_part.n < 2:
        raise SizeError("trivial_ucb needs at least two rows")
    level = as_confidence_level(alpha)
    sq = (infer_part.y - nu.predict(np.zeros_like(infer_part.x),
                                    infer_part.z)) ** 2
    return float(sq.mean() + level.z * sq.std(ddof=1) / math.sqrt(len(sq)))


def zero_out_transform(reports: list[LcbReport], selected) -> list[LcbReport]:
    """Zero the LCBs of unselected variables, leaving selected ones
    untouched; output order and length match the input."""
    selected = set(selected)
    for idx in selected:
        if not 0 <= idx < len(reports):
            raise IndexError(f"selected index {idx} out of range")
    return [rep if i in selected
            else rep.replace(lcb=0.0, degenerate=True)
            for i, rep in enumerate(reports)]
