"""Lower confidence bounds for the MACM gap of a binary response.

For Y in {-1, +1} the per-row samples are bounded:

    R_i = P(U_i < 0 | Z_i) - 1{U_i < 0}   when Y_i = +1
    R_i = P(U_i > 0 | Z_i) - 1{U_i > 0}   when Y_i = -1

with U_i = mu(X_i, Z_i) - E[mu | Z_i], and the bound is
2 max{ R-bar - z_alpha s / sqrt(n), 0 }. With K = 0, exact conditional
probabilities serve for a partially linear mu under a Gaussian covariate
model; otherwise both the centering term and the indicator averages are
estimated from null copies (M copies for the mean, K for the average).
The copies stream through mmse.null_mu_blocks, so memory is
O(block + n) while time is O(n (M + K)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (ConfidenceLevel, Dataset, LcbReport, MACM_GAP,
                   as_confidence_level, philox_rng)
from .covariates import CovariateModel, cond_moments_linear
from .errors import (DegenerateLabelsError, ShapeError, SizeError,
                     ValidationError)
from .regression import WorkingRegression
from .mmse import fold_sum, null_mu_blocks


@dataclass(frozen=True)
class MacmConfig:
    """Settings for a MACM-gap LCB.

    k_copies = 0 requests closed-form conditional probabilities (partially
    linear mu + Gaussian model only); otherwise k_copies estimates the
    indicator average and m_copies the conditional mean of mu (default
    4n, resolved at run time when left None).
    """

    alpha: ConfidenceLevel | float = 0.05
    m_copies: int | None = None
    k_copies: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_confidence_level(self.alpha))
        if self.k_copies < 0:
            raise ValidationError(
                f"k_copies must be 0 (closed form) or >= 1, got {self.k_copies}")
        if self.k_copies and self.m_copies is not None and self.m_copies < 1:
            raise ValidationError("m_copies must be >= 1")


def _exact_r_samples(infer_part: Dataset, mu: WorkingRegression,
                     model: CovariateModel) -> np.ndarray:
    """Exact-mode R_i for partially linear mu under a Gaussian model:
    U | Z is centered normal, so the conditional probability of either
    strict half-line is 1/2 whenever the focal coefficient is nonzero
    and 0 when it vanishes."""
    g, var_u = cond_moments_linear(model, mu, infer_part.z)
    u = mu.predict(infer_part.x, infer_part.z) - g
    wrong_side = np.where(infer_part.y > 0, u < 0, u > 0)
    return np.where(var_u > 0, 0.5, 0.0) - wrong_side


def _mc_r_samples(infer_part: Dataset, mu: WorkingRegression,
                  model: CovariateModel, cfg: MacmConfig) -> np.ndarray:
    z, y = infer_part.z, infer_part.y
    m = cfg.m_copies if cfg.m_copies is not None else 4 * infer_part.n
    # One continuing stream of M + K null copies per row: the first M
    # estimate the conditional mean, the next K feed the indicator average.
    rng = philox_rng(cfg.seed)
    g_m = reduce(fold_sum, null_mu_blocks(mu, model, z, m, rng), None) / m
    wrong = sum((y * (tilde - g_m) < 0).sum(axis=0)
                for tilde in null_mu_blocks(mu, model, z, cfg.k_copies, rng))
    obs_wrong = (y * (mu.predict(infer_part.x, z) - g_m) < 0)
    return wrong / cfg.k_copies - obs_wrong.astype(float)


def macm_lcb(infer_part: Dataset, mu: WorkingRegression,
             model: CovariateModel, cfg: MacmConfig) -> LcbReport:
    """Delta-free CLT LCB for the MACM-gap floodgate functional."""
    if infer_part.n < 2:
        raise SizeError("MACM inference needs at least two rows")
    if not np.all(np.isin(infer_part.y, (-1.0, 1.0))):
        raise DegenerateLabelsError("MACM inference requires y in {-1, +1}")
    if cfg.k_copies == 0:
        r = _exact_r_samples(infer_part, mu, model)
    else:
        r = _mc_r_samples(infer_part, mu, model, cfg)
    n = len(r)
    r_bar = float(r.mean())
    s = float(r.std(ddof=1))
    degenerate = s == 0.0 and r_bar == 0.0
    lcb = 0.0 if degenerate else 2.0 * max(r_bar - cfg.alpha.z * s / math.sqrt(n), 0.0)
    return LcbReport(lcb, 2.0 * r_bar, s, n, MACM_GAP,
                     degenerate=degenerate, seed=cfg.seed)


def macm_gap_enumerate(atoms, probs, cond_mean_y) -> float:
    """Exact MACM gap E |E[Y|Z] - E[Y|X,Z]| for a finite joint support.

    atoms is a sequence of (x, z) value pairs with probabilities probs;
    cond_mean_y(x, z) returns E[Y | X=x, Z=z] in [-1, 1].
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9 or probs.min() < 0:
        raise ValidationError("probs must form a distribution")
    m = np.array([float(cond_mean_y(x, z)) for x, z in atoms])
    # Atoms share a z when their z values are exactly equal.
    _, z_id = np.unique(np.array([np.ravel(z) for _, z in atoms], dtype=float),
                        axis=0, return_inverse=True)
    z_id = z_id.reshape(-1)
    pz = np.bincount(z_id, weights=probs)
    ez = np.bincount(z_id, weights=probs * m)
    cond_z = np.divide(ez, pz, out=np.zeros_like(ez), where=pz > 0)[z_id]
    return float(np.sum(probs * np.abs(cond_z - m)))


_GH_NODES = 64


def macm_gap_oracle(model: CovariateModel, cond_mean_y, x: np.ndarray,
                    z: np.ndarray) -> tuple[float, float]:
    """Monte Carlo MACM gap for a continuous model over n >= 2 joint
    draws of (X, Z), such as model.sample_joint returns, with the inner
    expectation E[Y|Z] computed by Gauss-Hermite quadrature against the
    Gaussian law of X | Z. Returns (value, se).

    cond_mean_y(z) is called once, on the (n, d_z) draws of Z, and
    returns given_z; given_z(x) maps (n, 1) focal values to
    E[Y | X=x, Z=z] row by row, once per node and once on the drawn x.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 2 or x.shape[1] != 1:
        raise ShapeError(f"x must be one column, got shape {x.shape}")
    if len(x) != len(z):
        raise ShapeError(f"x has {len(x)} rows but z has {len(z)}")
    n_draws = len(x)
    if n_draws < 2:
        raise SizeError("the MACM oracle needs at least two draws")
    cond_mean_x, cond_cov = model.conditional_x_moments(z)
    if cond_mean_x.shape[1] != 1:
        raise ValidationError("quadrature oracle supports a scalar focal X")
    sd = math.sqrt(float(cond_cov[0, 0]))
    nodes, weights = np.polynomial.hermite_e.hermegauss(_GH_NODES)
    weights = weights / weights.sum()
    given_z = cond_mean_y(z)
    ey_z = np.zeros(n_draws)
    for node, weight in zip(nodes, weights):
        x_node = cond_mean_x + sd * node
        ey_z += weight * np.asarray(given_z(x_node)).reshape(n_draws)
    vals = np.abs(ey_z - np.asarray(given_z(x)).reshape(n_draws))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_draws))
