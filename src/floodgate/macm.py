"""Lower confidence bounds for the MACM gap of a binary response.

For Y in {-1, +1} the per-row samples are bounded:

    R_i = P(U_i < 0 | Z_i) - 1{U_i < 0}   when Y_i = +1
    R_i = P(U_i > 0 | Z_i) - 1{U_i > 0}   when Y_i = -1

with U_i = mu(X_i, Z_i) - E[mu | Z_i], and the bound is
2 max{ R-bar - z_alpha s / sqrt(n), 0 }. Exact conditional probabilities
are available for a partially linear mu under a Gaussian covariate
model; otherwise both the centering term and the indicator averages are
estimated from null copies (M copies for the mean, K for the average).
The copies are drawn in blocks of about _BLOCK_VALUES values, so memory
is O(block + n) while time is O(n (M + K)); a mu that is not a
LinearWorkingRegression sees tiled z rows in chunks of about a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfidenceLevel, Dataset, LcbReport, MACM_GAP,
                   as_confidence_level, philox_rng)
from .covariates import CovariateModel, cond_moments_linear
from .errors import DegenerateLabelsError, SizeError, ValidationError
from .regression import WorkingRegression
from .mmse import _BLOCK_VALUES, _predict_rows, mu_null_values


@dataclass(frozen=True)
class MacmConfig:
    """Settings for a MACM-gap LCB.

    m_copies estimates the conditional mean of mu (default 4n, resolved
    at run time when left None); k_copies estimates the indicator
    average. exact_moments uses closed-form conditional probabilities
    instead (partially linear mu + Gaussian model only).
    """

    alpha: ConfidenceLevel | float = 0.05
    m_copies: int | None = None
    k_copies: int = 100
    exact_moments: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_confidence_level(self.alpha))
        if not self.exact_moments:
            if self.m_copies is not None and self.m_copies < 1:
                raise ValidationError("m_copies must be >= 1")
            if self.k_copies < 1:
                raise ValidationError("k_copies must be >= 1")


def _check_binary(y: np.ndarray) -> None:
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DegenerateLabelsError("MACM inference requires y in {-1, +1}")


def _exact_r_samples(infer_part: Dataset, mu: WorkingRegression,
                     model: CovariateModel) -> np.ndarray:
    """Exact-mode R_i for partially linear mu under a Gaussian model:
    U | Z is centered normal, so the conditional probability of either
    strict half-line is 1/2 whenever the focal coefficient is nonzero
    and 0 when it vanishes."""
    g, var_u = cond_moments_linear(model, mu, infer_part.z)
    u = _predict_rows(mu, infer_part.x, infer_part.z) - g
    wrong_side = np.where(infer_part.y > 0, u < 0, u > 0)
    return np.where(var_u > 0, 0.5, 0.0) - wrong_side


def _mc_r_samples(infer_part: Dataset, mu: WorkingRegression,
                  model: CovariateModel, cfg: MacmConfig) -> np.ndarray:
    n = infer_part.n
    m = cfg.m_copies if cfg.m_copies is not None else 4 * n
    total = m + cfg.k_copies
    rows = max(1, _BLOCK_VALUES // n)
    z, y = infer_part.z, infer_part.y
    # One continuing stream of M + K null copies per row, drawn in
    # blocks: the first M estimate the conditional mean, the rest feed
    # the indicator average. Row-by-row addition is the order of
    # numpy's axis-0 sum, so g_m is bit-identical to the mean of the M
    # copies drawn at once.
    rng = philox_rng(cfg.seed)
    g_sum = np.zeros(n)
    wrong = np.zeros(n, dtype=np.int64)
    for start in range(0, total, rows):
        tilde = mu_null_values(mu, model, z, min(rows, total - start), rng)
        head = tilde[:max(m - start, 0)]
        for row in head:
            g_sum += row
        if len(head) < len(tilde):
            wrong += (y * (tilde[len(head):] - g_sum / m) < 0).sum(axis=0)
    g_m = g_sum / m
    mu_obs = _predict_rows(mu, infer_part.x, z)
    obs_wrong = (y * (mu_obs - g_m) < 0)
    return wrong / cfg.k_copies - obs_wrong.astype(float)


def macm_lcb(infer_part: Dataset, mu: WorkingRegression,
             model: CovariateModel, cfg: MacmConfig) -> LcbReport:
    """Delta-free CLT LCB for the MACM-gap floodgate functional."""
    if infer_part.n < 2:
        raise SizeError("MACM inference needs at least two rows")
    _check_binary(infer_part.y)
    if cfg.exact_moments:
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
    z_keys = [repr(z) for _, z in atoms]
    ez: dict[str, float] = {}
    pz: dict[str, float] = {}
    for key, p, mv in zip(z_keys, probs, m):
        pz[key] = pz.get(key, 0.0) + p
        ez[key] = ez.get(key, 0.0) + p * mv
    cond_z = np.array([ez[k] / pz[k] if pz[k] > 0 else 0.0 for k in z_keys])
    return float(np.sum(probs * np.abs(cond_z - m)))


_GH_NODES = 64


def macm_gap_oracle(model: CovariateModel, cond_mean_y, n_draws: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo MACM gap for a continuous model: outer draws of
    (X, Z) with the inner expectation E[Y|Z] computed by Gauss-Hermite
    quadrature against the Gaussian law of X | Z. Returns (value, se).

    cond_mean_y(z) is called once, on the (n_draws, d_z) draws of Z, and
    returns given_z; given_z(x) maps (n_draws, 1) focal values to
    E[Y | X=x, Z=z] row by row, once per node and once on the drawn x.
    """
    x, z = model.sample_joint(n_draws, seed)
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
