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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfidenceLevel, Dataset, LcbReport, MACM_GAP,
                   as_confidence_level, philox_rng)
from .covariates import CovariateModel
from .errors import (DegenerateLabelsError, ShapeError, SizeError,
                     UnsupportedClosedFormError, ValidationError)
from .regression import WorkingRegression
from .mmse import conditional_moments, null_mu_blocks, sum_blocks


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
    if hasattr(model, "conditional_pmf"):
        raise UnsupportedClosedFormError("exact MACM needs a Gaussian X | Z")
    g, var_u = conditional_moments(model, mu, infer_part.z)
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
    g_m = sum_blocks(null_mu_blocks(mu, model, z, m, rng)) / m
    wrong = 0
    for tilde in null_mu_blocks(mu, model, z, cfg.k_copies, rng):
        tilde -= g_m
        tilde *= y
        wrong = wrong + (tilde < 0).sum(axis=0)
        del tilde           # freed before the next block is drawn
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


@functools.cache
def _pair_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Hermite rule for N(0, 1), built once, on first
    use: importing numpy.polynomial costs every process about 1 MB. The
    rule is symmetric, so it is kept as its positive nodes, each standing
    for a +/- pair, with one node's normalized weight (the pairs sum to
    1/2). The arrays are read-only, since every caller shares them."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(_GH_NODES)
    rule = nodes[_GH_NODES // 2:], (weights / weights.sum())[_GH_NODES // 2:]
    for part in rule:
        part.setflags(write=False)
    return rule


# Rows per slice of the pair loop, so its buffers stay in cache.
_SLICE_ROWS = 8192


def _tanh_node_mean(h: np.ndarray, scale: float) -> np.ndarray:
    """E tanh(h + scale * xi / 2) for xi ~ N(0, 1), row by row, by the
    64-node rule summed in +/- pairs. For a pair's t = scale * xi_k / 2,
    with e = exp(-2|h|) per row and q = exp(-2t) per pair,

        tanh(h + t) + tanh(h - t) = sign(h) 2 (1 - e^2) / (1 + e^2 + c e),

    where c = q + 1/q. So each pair costs a multiply, two adds and a
    divide, and no tanh. A pair whose q is below the normal range
    (t > 354) takes the two tanh values directly: there c e could
    overflow, lose the precision of a subnormal e, or be 0 * inf."""
    nodes, weights = _pair_rule()
    t = 0.5 * abs(float(scale)) * nodes
    q = np.exp(-2.0 * t)
    closed = q >= np.finfo(float).tiny
    c = q[closed] + 1.0 / q[closed]
    w_closed = weights[closed]
    direct = list(zip(t[~closed], weights[~closed]))
    out = np.empty_like(h)
    buffers = np.empty((4, min(len(h), _SLICE_ROWS)))
    for lo in range(0, len(h), _SLICE_ROWS):
        hs = h[lo:lo + _SLICE_ROWS]
        e, one_plus, acc, den = buffers[:, :len(hs)]
        np.abs(hs, out=e)
        np.multiply(e, -2.0, out=e)
        np.exp(e, out=e)
        np.multiply(e, e, out=one_plus)
        one_plus += 1.0
        acc[:] = 0.0
        for ck, wk in zip(c, w_closed):
            np.multiply(e, ck, out=den)
            den += one_plus
            np.divide(wk, den, out=den)
            acc += den
        # 2 (1 - e^2) as -2 expm1(-4|h|), which keeps its precision near h = 0.
        acc *= np.copysign(-2.0 * np.expm1(-4.0 * np.abs(hs)), hs)
        for tk, wk in direct:
            acc += wk * (np.tanh(hs + tk) + np.tanh(hs - tk))
        out[lo:lo + len(hs)] = acc
    return out


def macm_gap_oracle(slope: float, offset, x: np.ndarray,
                    cond_mean: np.ndarray, cond_sd: float
                    ) -> tuple[float, float]:
    """Monte Carlo MACM gap of the logistic truth

        E[Y | X, Z] = tanh((slope * X + offset) / 2)

    over n >= 2 joint draws: x holds the draws of X, cond_mean the
    conditional mean E[X | Z] at each draw, and cond_sd the sd of the
    Gaussian law of X | Z, the same for every draw. offset, the part of
    the linear predictor that does not involve X, is a scalar or one
    value per draw. The inner expectation E[Y | Z] is the 64-node
    Gauss-Hermite rule against N(cond_mean, cond_sd^2), summed in +/-
    node pairs in closed form (_tanh_node_mean). Returns (value, se).
    """
    x = np.asarray(x, dtype=float)
    cond_mean = np.asarray(cond_mean, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"x must be one value per draw, got shape {x.shape}")
    n_draws = len(x)
    if cond_mean.shape != (n_draws,):
        raise ShapeError(f"cond_mean must be {n_draws} values, "
                         f"got shape {cond_mean.shape}")
    if n_draws < 2:
        raise SizeError("the MACM oracle needs at least two draws")
    offset = np.asarray(offset, dtype=float)
    if offset.shape not in ((), (n_draws,)):
        raise ShapeError(f"offset must be a scalar or {n_draws} values, "
                         f"got shape {offset.shape}")
    slope, cond_sd = float(slope), float(cond_sd)
    if not (math.isfinite(slope) and np.isfinite(offset).all()):
        raise ValidationError("slope and offset must be finite")
    if not (math.isfinite(cond_sd) and cond_sd >= 0.0):
        raise ValidationError("cond_sd must be finite and nonnegative")
    ey_z = _tanh_node_mean((offset + slope * cond_mean) / 2.0,
                           slope * cond_sd)
    vals = np.abs(ey_z - np.tanh((offset + slope * x) / 2.0))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_draws))
