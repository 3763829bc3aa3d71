"""Co-sufficient floodgate: the mMSE floodgate run inside batches, with
X redrawn from its law given (Z, T) for a per-batch sufficient statistic
T of the X | Z model family, so only the family (not its parameters) is
needed. cosufficient_lcb is the entry point.

Rows are shuffled and cut into n1 contiguous batches of size n2
(remainder dropped). mmse.moment_samples, given the family model and the
batch's law of X given (Z_m, T_m) as its rows, turns each batch m into

    R_m = (1/n2) sum_i Y_i (mu_i - E[mu_i | Z_m, T_m])
    V_m = (1/n2) sum_i Var(mu_i | Z_m, T_m)

and the across-batch delta-method LCB is
max{ R-bar / sqrt(V-bar) - z_alpha s / sqrt(n1), 0 }.

One batch row kind per family draws the copies and gives the exact
moments. _GaussianBatch serves a Gaussian X | Z, linear in Z with a
known sigma2 (GaussianLinearModel or Ar1Model with one focal column): T
is (sum X_i, sum X_i Z_i) and the law is N(H x, sigma2 (I - H)) for the
hat matrix H of (1, Z). _ChainBatch serves the discrete Markov chain: T
is the neighbour-pair count table and the law uniformly permutes the
focal values within each neighbour-pair stratum.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .core import (Dataset, LcbReport, MMSE_GAP, as_confidence_level,
                   philox_rng, ratio_lcb)
from .covariates import (DiscreteMarkovChain, FiniteRows, GaussianRows,
                         _GaussianConditional)
from .errors import ShapeError, SizeError, ValidationError
from .regression import WorkingRegression, full_rank_qr
from .mmse import FloodgateConfig, moment_samples


class _GaussianBatch(GaussianRows):
    """X | (Z, T) on one batch of a Gaussian X | Z with known sigma2: rows
    N(H x, sigma2 (I - H)), drawn as H x + (I - H) eps, sd(eps) = chol, which
    keeps U'X~ = U'x; H = Q Q' for the basis q of U = (1, Z) is never formed."""

    def __init__(self, x: np.ndarray, z: np.ndarray, sigma2: float) -> None:
        self.q = full_rank_qr(np.hstack([np.ones((len(z), 1)), z]),
                              "batch design (1, Z) is rank deficient")[0]
        h_diag = np.einsum("ij,ij->i", self.q, self.q)
        super().__init__(z, (self.q @ (self.q.T @ x))[:, None],
                         (sigma2 * (1.0 - h_diag))[:, None, None],
                         np.sqrt([[sigma2]]))

    def sample(self, k, rng):
        eps = self.chol[0, 0] * rng.standard_normal((k, len(self.z)))
        return (self.mean[:, 0] + eps - (eps @ self.q) @ self.q.T)[:, :, None]


class _ChainBatch(FiniteRows):
    """X | (Z, T) on one batch of a DiscreteMarkovChain. Given the count
    table of neighbour pairs, each stratum (the rows of one pair) is
    exchangeable: a row takes each value of its stratum with its share."""

    def __init__(self, model: DiscreteMarkovChain, x, z) -> None:
        self.x = x
        k1, k2 = model.neighbor_states(z)
        key = k1 * model.num_states + k2
        order = np.argsort(key, kind="stable")
        self.strata = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
        states = x.astype(np.int64)
        pmf = np.empty((len(states), model.num_states))
        for s in self.strata:
            pmf[s] = np.bincount(states[s], minlength=model.num_states) / len(s)
        super().__init__(z, pmf)

    def sample(self, k, rng):
        # Each stratum in the order of its uniform keys, one row of keys
        # per copy, so a then b copies are a + b copies.
        out = rng.random((k, len(self.x)))      # the keys, then the draws
        for s in self.strata:
            out[:, s] = self.x[s][np.argsort(out[:, s], axis=1)]
        return out[:, :, None]


def check_batch_counts(n2: int, mc_k: int) -> None:
    """Rejects n2 < 1, and an mc_k that is neither 0 (exact) nor >= 2."""
    if mc_k == 1 or mc_k < 0:
        raise ValidationError("mc_k must be 0 (exact) or >= 2")
    if n2 < 1:
        raise ValidationError(f"batch size n2 must be >= 1, got {n2}")


def check_batch_plan(model, n: int, d_z: int, n2: int,
                     mc_k: int) -> tuple[int, int]:
    """The rules of a co-sufficient run on n rows with d_z conditioning
    columns: the copy counts, a supported model family, n2 > d_z + 2 for
    a Gaussian family, and at least 2 batches. Returns (n1, dropped)."""
    check_batch_counts(n2, mc_k)
    if isinstance(model, _GaussianConditional) and model.d_x == 1:
        if n2 <= d_z + 2:
            raise SizeError(
                f"Gaussian co-sufficient needs n2 > d_z + 2 = {d_z + 2}, "
                f"got n2 = {n2}")
    elif not isinstance(model, DiscreteMarkovChain):
        raise ValidationError(
            "co-sufficient inference supports a Gaussian X | Z with one "
            "focal column (GaussianLinearModel, Ar1Model) or "
            "DiscreteMarkovChain")
    n1, dropped = divmod(n, n2)
    if n1 < 2:
        raise SizeError(f"batch size n2={n2} leaves fewer than 2 batches of n={n}")
    return n1, dropped


def cosufficient_lcb(infer_part: Dataset, mu: WorkingRegression, model,
                     n2: int, alpha=0.05, mc_k: int = 100,
                     seed: int = 0) -> LcbReport:
    """Across-batch delta-method LCB for the co-sufficient functional.

    mc_k = 0 requests exact within-batch conditional moments (partially
    linear mu for a Gaussian model; always available for the DMC);
    mc_k >= 2 estimates them from conditional resamples.
    """
    level = as_confidence_level(alpha)
    if infer_part.d_x != 1:
        raise ShapeError("co-sufficient inference supports a single focal column")
    n1, dropped = check_batch_plan(model, infer_part.n, infer_part.d_z, n2,
                                   mc_k)
    if isinstance(model, DiscreteMarkovChain):
        if not np.isin(infer_part.x, np.arange(model.num_states)).all():
            raise ValidationError(
                f"chain focal values must be states 0..{model.num_states - 1}")
        batch_rows = partial(_ChainBatch, model)
    else:
        batch_rows = partial(_GaussianBatch, sigma2=model._cond_cov[0, 0])
    order = philox_rng(seed).permutation(infer_part.n)
    samples = []
    for m in range(n1):
        batch = infer_part.take(order[m * n2:(m + 1) * n2])
        # Modulo 2^64, the range of a Philox key.
        cfg = FloodgateConfig(big_k=mc_k, center_y=False,
                              seed=(seed + 1_000_003 * (m + 1)) % (1 << 64))
        r, v, scale = moment_samples(
            batch, mu, model, batch_rows(batch.x[:, 0], batch.z), cfg)
        samples.append((np.mean(r), np.mean(v), scale))
    r, v, scale = np.array(samples).T
    report = ratio_lcb(r, v, level, estimand=MMSE_GAP,
                       mu_scale_sq=float(scale.mean()), seed=seed)
    report.diagnostics.update(n1=n1, n2=n2, dropped=dropped)
    return report
