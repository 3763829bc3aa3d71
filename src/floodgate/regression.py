"""Working-regression fitters.

Every fitter consumes only the fit split of a dataset and returns an
immutable WorkingRegression: a fixed, deterministic function mu(x, z).
Linear fits expose their focal coefficient so downstream inference can
use closed-form conditional moments; the logistic fits output on the
conditional-mean scale of a {-1, +1} response.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, normal_quantile, seeded_rng
from .errors import (DegenerateLabelsError, ShapeError, SingularDesignError,
                     SizeError, ValidationError)

OLS = "OLS"
RIDGE = "RIDGE"
LASSO = "LASSO"
LOGIT_L1 = "LOGIT_L1"
LOGIT_L2 = "LOGIT_L2"
CUSTOM = "CUSTOM"

_LINK_IDENTITY = "identity"
_LINK_BINARY_MEAN = "binary_mean"   # mu = 2 expit(f) - 1


class WorkingRegression:
    """A fixed function mu(x, z) -> real, evaluated row-wise.

    Implementations provide `kind` (a fitter tag) and
    `linear_focal_coef`: the coefficient vector a when mu is partially
    linear, mu(x, z) = a.x + g(z), or None otherwise.
    """

    def predict(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> str:
        raise ValidationError(f"{type(self).__name__} is not serializable")


@dataclass(frozen=True, eq=False)
class LinearWorkingRegression(WorkingRegression):
    """mu(x, z) = link(intercept + x.x_coef + z.z_coef)."""

    kind: str
    intercept: float
    x_coef: np.ndarray
    z_coef: np.ndarray
    link: str = _LINK_IDENTITY
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_coef",
                           np.atleast_1d(np.asarray(self.x_coef, dtype=float)))
        object.__setattr__(self, "z_coef",
                           np.atleast_1d(np.asarray(self.z_coef, dtype=float))
                           if np.size(self.z_coef) else np.empty(0))
        if self.link not in (_LINK_IDENTITY, _LINK_BINARY_MEAN):
            raise ValidationError(f"unknown link {self.link!r}")

    def __eq__(self, other) -> bool:
        # Equality means "the same function": diagnostics are excluded.
        if not isinstance(other, LinearWorkingRegression):
            return NotImplemented
        return (self.kind == other.kind
                and self.intercept == other.intercept
                and self.link == other.link
                and np.array_equal(self.x_coef, other.x_coef)
                and np.array_equal(self.z_coef, other.z_coef))

    def __hash__(self) -> int:
        return hash((self.kind, self.intercept, self.link,
                     self.x_coef.tobytes(), self.z_coef.tobytes()))

    @property
    def linear_focal_coef(self):
        return self.x_coef if self.link == _LINK_IDENTITY else None

    def linear_predictor(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != len(self.x_coef):
            raise ShapeError(f"x has {x.shape[-1]} columns, fit used {len(self.x_coef)}")
        out = self.intercept + x @ self.x_coef
        if len(self.z_coef):
            z = np.atleast_2d(np.asarray(z, dtype=float))
            out = out + z @ self.z_coef
        return out

    def predict(self, x, z):
        f = self.linear_predictor(x, z)
        if self.link == _LINK_BINARY_MEAN:
            return np.tanh(f / 2.0)          # = 2 expit(f) - 1
        return f

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "intercept": self.intercept,
            "x_coef": self.x_coef.tolist(), "z_coef": self.z_coef.tolist(),
            "link": self.link}, indent=2)


class CustomRegression(WorkingRegression):
    """Wraps an arbitrary row-wise callable mu(x, z)."""

    kind = CUSTOM

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 linear_focal_coef=None) -> None:
        self._fn = fn
        self.linear_focal_coef = (
            np.atleast_1d(np.asarray(linear_focal_coef, dtype=float))
            if linear_focal_coef is not None else None)

    def predict(self, x, z):
        return np.asarray(self._fn(np.asarray(x, dtype=float),
                                   np.asarray(z, dtype=float)), dtype=float)


def regression_from_json(text: str) -> LinearWorkingRegression:
    cfg = json.loads(text)
    return LinearWorkingRegression(cfg["kind"], cfg["intercept"],
                                   np.array(cfg["x_coef"]),
                                   np.array(cfg["z_coef"]),
                                   cfg.get("link", _LINK_IDENTITY))


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings shared by the penalized fitters."""

    folds: int = 10
    lambda_grid: tuple[float, ...] | None = None   # None: automatic path
    num_lambdas: int = 50
    lambda_min_ratio: float = 1e-3
    tolerance: float = 1e-7
    max_iters: int = 10_000

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValidationError("folds must be >= 2")
        if self.lambda_grid is not None:
            grid = tuple(float(v) for v in self.lambda_grid)
            if not grid or any(v <= 0 for v in grid):
                raise ValidationError("lambda_grid must be positive")
            if any(b >= a for a, b in zip(grid, grid[1:])):
                raise ValidationError("lambda_grid must be strictly decreasing")
            object.__setattr__(self, "lambda_grid", grid)
        if self.tolerance <= 0 or self.max_iters < 1:
            raise ValidationError("tolerance and max_iters must be positive")


def _design(data: Dataset) -> np.ndarray:
    return np.hstack([data.x, data.z])


def _split_coef(data: Dataset, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return beta[:data.d_x], beta[data.d_x:]


def _drop_constant_columns(w: np.ndarray) -> np.ndarray:
    """Indices of non-constant columns; warns when any are dropped."""
    keep = np.where(w.std(axis=0) > 0)[0]
    if len(keep) < w.shape[1]:
        warnings.warn(f"dropping {w.shape[1] - len(keep)} constant column(s) "
                      "before fitting; their coefficients are set to 0")
    return keep


def fold_assignments(n: int, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold labels in [0, folds) from (seed, n)."""
    return seeded_rng(seed, n).permutation(np.arange(n) % folds)


def fit_ols(fit_part: Dataset) -> LinearWorkingRegression:
    """Ordinary least squares; exposes classical coefficient standard
    errors for the oracle-baseline confidence transform."""
    w = _design(fit_part)
    n, p = w.shape
    if n <= p + 1:
        raise SizeError(f"OLS needs n > d_x + d_z + 1 = {p + 1}, got n = {n}")
    design = np.hstack([np.ones((n, 1)), w])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise SingularDesignError("design matrix is rank deficient")
    coef = np.linalg.solve(r, q.T @ fit_part.y)
    resid = fit_part.y - design @ coef
    dof = n - p - 1
    sigma2_hat = float(resid @ resid) / dof if dof > 0 else 0.0
    rinv = np.linalg.solve(r, np.eye(p + 1))
    se = np.sqrt(sigma2_hat * np.sum(rinv * rinv, axis=1))
    x_coef, z_coef = _split_coef(fit_part, coef[1:])
    return LinearWorkingRegression(
        OLS, float(coef[0]), x_coef, z_coef,
        diagnostics={"coef_se": se[1:], "intercept_se": float(se[0]),
                     "sigma2_hat": sigma2_hat})


def ols_oracle_lcb(ols_fit: LinearWorkingRegression, alpha: float,
                   sign_of_beta: int, ev_cond_var: float) -> float:
    """Importance LCB from the focal OLS coefficient interval.

    Uses the equal-tailed 1-2*alpha interval (L, U) for the focal
    coefficient plus the true sign and E[Var(X|Z)]: returns
    L*sqrt(EV) for a positive coefficient and -U*sqrt(EV) otherwise.
    The result may be negative; callers may floor at zero.
    """
    if ols_fit.kind != OLS or "coef_se" not in ols_fit.diagnostics:
        raise ValidationError("ols_oracle_lcb needs an OLS fit with standard errors")
    if sign_of_beta not in (-1, 1):
        raise ValidationError("sign_of_beta must be +1 or -1")
    if ev_cond_var < 0:
        raise ValidationError("ev_cond_var must be nonnegative")
    if ols_fit.x_coef.shape != (1,):
        raise ShapeError("oracle transform requires a single focal column")
    beta_hat = float(ols_fit.x_coef[0])
    se = float(ols_fit.diagnostics["coef_se"][0])
    z = normal_quantile(alpha)
    root = math.sqrt(ev_cond_var)
    if sign_of_beta > 0:
        return (beta_hat - z * se) * root
    return -(beta_hat + z * se) * root


def _standardize(w: np.ndarray, keep: np.ndarray):
    wk = w[:, keep]
    means = wk.mean(axis=0)
    sds = wk.std(axis=0)
    return (wk - means) / sds, means, sds


def _soft_threshold(v: float, t: float) -> float:
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def _lasso_path_point(gram: np.ndarray, cvec: np.ndarray, lam: float,
                      beta: np.ndarray, tolerance: float, max_iters: int) -> bool:
    """Cyclic coordinate descent on (1/2) b'Gb - c'b + lam |b|_1, in place.

    gram and cvec are X'X/n and X'y/n for standardized columns, so each
    diagonal entry of gram is 1. Returns True on convergence.
    """
    p = len(cvec)

    def sweep(indices) -> float:
        max_delta = 0.0
        for j in indices:
            old = beta[j]
            resid_corr = cvec[j] - gram[j] @ beta + old
            new = _soft_threshold(resid_corr, lam)
            if new != old:
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        return max_delta

    # Full sweeps establish the active set; cheap active-set sweeps do
    # the bulk of the work in between (still cyclic coordinate descent).
    iters = 0
    while iters < max_iters:
        delta = sweep(range(p))
        iters += 1
        if delta < tolerance:
            return True
        active = np.flatnonzero(beta)
        while iters < max_iters:
            delta = sweep(active)
            iters += 1
            if delta < tolerance:
                break
    return False


def _auto_grid(cvec: np.ndarray, cv: CvConfig) -> np.ndarray:
    lam_max = max(float(np.max(np.abs(cvec))), 1e-12)
    return np.geomspace(lam_max, cv.lambda_min_ratio * lam_max, cv.num_lambdas)


def _penalized_linear(fit_part: Dataset, cv: CvConfig, seed: int,
                      kind: str) -> LinearWorkingRegression:
    y = fit_part.y
    w = _design(fit_part)
    n, p_all = w.shape
    if n < cv.folds:
        raise SizeError(f"need n >= folds = {cv.folds}, got n = {n}")
    keep = _drop_constant_columns(w)
    ws, means, sds = _standardize(w, keep)
    y_mean = y.mean()
    yc = y - y_mean
    p = len(keep)

    def solve(gram, cvec, lam, warm):
        if kind == RIDGE:
            return np.linalg.solve(gram + lam * np.eye(p), cvec), True
        beta = warm.copy()
        ok = _lasso_path_point(gram, cvec, lam, beta, cv.tolerance, cv.max_iters)
        return beta, ok

    gram_full = ws.T @ ws / n
    cvec_full = ws.T @ yc / n
    grid = (np.asarray(cv.lambda_grid) if cv.lambda_grid is not None
            else _auto_grid(cvec_full, cv))

    folds = fold_assignments(n, cv.folds, seed)
    cv_err = np.zeros(len(grid))
    for f in range(cv.folds):
        tr = folds != f
        va = ~tr
        n_tr = int(tr.sum())
        gram = ws[tr].T @ ws[tr] / n_tr
        cvec = ws[tr].T @ yc[tr] / n_tr
        beta = np.zeros(p)
        for gi, lam in enumerate(grid):
            beta, _ = solve(gram, cvec, lam, beta)
            pred = ws[va] @ beta
            cv_err[gi] += float(np.sum((yc[va] - pred) ** 2))
    best = int(np.argmin(cv_err))
    lam_star = float(grid[best])

    beta = np.zeros(p)
    converged = True
    for lam in grid[:best + 1]:
        beta, converged = solve(gram_full, cvec_full, lam, beta)
    if not converged:
        warnings.warn(f"{kind} coordinate descent did not converge at "
                      f"lambda = {lam_star:g} within {cv.max_iters} sweeps")

    coef = np.zeros(p_all)
    coef[keep] = beta / sds
    intercept = float(y_mean - w[:, keep].mean(axis=0) @ coef[keep])
    x_coef, z_coef = _split_coef(fit_part, coef)
    return LinearWorkingRegression(
        kind, intercept, x_coef, z_coef,
        diagnostics={"lambda": lam_star, "cv_errors": cv_err / n,
                     "lambda_grid": np.asarray(grid, dtype=float),
                     "converged": converged,
                     "active": int(np.count_nonzero(beta))})


def fit_lasso(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L1-penalized least squares by cyclic coordinate descent with
    soft thresholding; the penalty level is chosen by k-fold CV."""
    return _penalized_linear(fit_part, cv, seed, LASSO)


def fit_ridge(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L2-penalized least squares, closed-form per penalty level."""
    return _penalized_linear(fit_part, cv, seed, RIDGE)


def _logistic_loss_grad(design, y, coef, l2: float):
    f = design @ coef
    yf = y * f
    # log(1 + exp(-yf)) computed stably
    loss = float(np.mean(np.logaddexp(0.0, -yf)))
    sig = 1.0 / (1.0 + np.exp(np.clip(yf, -500, 500)))   # expit(-yf)
    grad = -(design.T @ (y * sig)) / len(y)
    if l2 > 0:
        loss += l2 * float(coef[1:] @ coef[1:])
        grad = grad.copy()
        grad[1:] += 2.0 * l2 * coef[1:]
    return loss, grad


def _prox_l1(coef: np.ndarray, t: float) -> np.ndarray:
    out = np.sign(coef) * np.maximum(np.abs(coef) - t, 0.0)
    out[0] = coef[0]          # intercept is never penalized
    return out


def _fit_logistic_at(design, y, lam: float, l1: bool, tolerance: float,
                     max_iters: int, warm: np.ndarray) -> np.ndarray:
    """Proximal gradient with backtracking on the penalized deviance."""
    coef = warm.copy()
    l2 = 0.0 if l1 else lam
    step = 4.0
    loss, grad = _logistic_loss_grad(design, y, coef, l2)
    for _ in range(max_iters):
        while True:
            trial = coef - step * grad
            if l1:
                trial = _prox_l1(trial, step * lam)
            new_loss, new_grad = _logistic_loss_grad(design, y, trial, l2)
            diff = trial - coef
            if new_loss <= loss + grad @ diff + (diff @ diff) / (2 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-12:
                return coef
        if float(np.max(np.abs(trial - coef))) < tolerance:
            return trial
        coef, loss, grad = trial, new_loss, new_grad
        step *= 1.3
    warnings.warn("logistic fit did not converge within max_iters")
    return coef


def fit_logistic(fit_part: Dataset, penalty: str = "L1",
                 cv: CvConfig = CvConfig(), seed: int = 0) -> LinearWorkingRegression:
    """Penalized logistic regression for responses in {-1, +1}.

    Returns mu on the conditional-mean scale: mu(x, z) =
    2 expit(linear predictor) - 1, which lies in (-1, 1).
    """
    if penalty not in ("L1", "L2"):
        raise ValidationError(f"penalty must be L1 or L2, got {penalty!r}")
    y = fit_part.y
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DegenerateLabelsError("logistic fitting requires y in {-1, +1}")
    if len(np.unique(y)) < 2:
        raise DegenerateLabelsError("both classes must be present in the fit split")
    w = _design(fit_part)
    n, p_all = w.shape
    if n < cv.folds:
        raise SizeError(f"need n >= folds = {cv.folds}, got n = {n}")
    keep = _drop_constant_columns(w)
    ws, means, sds = _standardize(w, keep)
    design = np.hstack([np.ones((n, 1)), ws])
    l1 = penalty == "L1"

    lam_max = max(float(np.max(np.abs(design[:, 1:].T @ y))) / (2 * n), 1e-12)
    grid = (np.asarray(cv.lambda_grid) if cv.lambda_grid is not None
            else np.geomspace(lam_max, cv.lambda_min_ratio * lam_max,
                              cv.num_lambdas))

    folds = fold_assignments(n, cv.folds, seed)
    cv_dev = np.zeros(len(grid))
    for f in range(cv.folds):
        tr = folds != f
        va = ~tr
        if len(np.unique(y[tr])) < 2:
            raise DegenerateLabelsError(f"fold {f} training part is single-class")
        coef = np.zeros(design.shape[1])
        for gi, lam in enumerate(grid):
            coef = _fit_logistic_at(design[tr], y[tr], lam, l1,
                                    cv.tolerance, cv.max_iters, coef)
            yf = y[va] * (design[va] @ coef)
            cv_dev[gi] += 2.0 * float(np.sum(np.logaddexp(0.0, -yf)))
    best = int(np.argmin(cv_dev))

    coef = np.zeros(design.shape[1])
    for lam in grid[:best + 1]:
        coef = _fit_logistic_at(design, y, lam, l1, cv.tolerance,
                                cv.max_iters, coef)
    full = np.zeros(p_all)
    full[keep] = coef[1:] / sds
    intercept = float(coef[0] - means @ (coef[1:] / sds))
    x_coef, z_coef = _split_coef(fit_part, full)
    return LinearWorkingRegression(
        LOGIT_L1 if l1 else LOGIT_L2, intercept, x_coef, z_coef,
        link=_LINK_BINARY_MEAN,
        diagnostics={"lambda": float(grid[best]), "cv_deviance": cv_dev / n,
                     "lambda_grid": np.asarray(grid, dtype=float)})
