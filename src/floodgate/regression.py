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
from typing import Callable

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


def _cd_sweep(gram: np.ndarray, cvec: np.ndarray, lam: float,
              beta: np.ndarray, indices) -> float:
    """One cyclic pass of coordinate steps over `indices`, in place, on
    (1/2) b'Gb - c'b + lam |b|_1; returns the largest change.

    The step at j is b_j <- S(c_j - G_j.b + G_jj b_j, lam) / G_jj, the
    exact minimizer along coordinate j. A fold Gram is standardized on
    the whole fit part, so its diagonal is only near 1 and may exceed 2,
    where a unit step would diverge. A zero G_jj (a column that is zero
    on the fold) gives a zero residual, so b_j stays 0 without a 0 / 0.
    """
    max_delta = 0.0
    for j in indices:
        old = beta[j]
        resid_corr = cvec[j] - gram[j] @ beta + gram[j, j] * old
        new = _soft_threshold(resid_corr, lam) / (gram[j, j] or 1.0)
        if new != old:
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
    return max_delta


def _lasso_paths(grams: np.ndarray, cvecs: np.ndarray, grid: np.ndarray,
                 tolerance: float, max_iters: int):
    """Warm-started coordinate-descent paths of a stack of LASSO
    problems, (F, p, p) Grams and (F, p) cvecs, run together.

    Every slice follows the same schedule at each penalty level: a full
    sweep, then sweeps over the coefficients that full sweep left
    nonzero until none moves by `tolerance`, then another full sweep,
    until a full sweep moves none by `tolerance` (converged) or
    `max_iters` sweeps have run at that level (not converged).

    A sweep over a set S in index order that changes no sign is linear:
    with A the nonzero part of S, s its signs, D the diagonal and L and
    U the strict lower and upper triangles of G, the new values solve
    (D + L)_AA b_A = c_A - U_A.b_old - lam s_A, and b is 0 on the rest
    of S. The solve runs for every slice at once from a cached inverse
    (renewed when A changes). Where the solution changes a sign, or
    leaves a zero of S with |residual| > lam, the slice keeps it before
    that coordinate and finishes the sweep with the scalar `_cd_sweep`.
    Both give the same sweep up to rounding.

    Returns the (F, len(grid), p) path, an (F, len(grid)) convergence
    mask and the total number of sweeps.
    """
    n_prob, p = cvecs.shape
    eye = np.eye(p)
    lower = np.tril(grams)
    upper = np.triu(grams, 1)
    beta = np.zeros((n_prob, p))
    inv = np.tile(eye, (n_prob, 1, 1))
    inv_for = np.zeros((n_prob, p), dtype=bool)     # A behind `inv`
    path = np.empty((n_prob, len(grid), p))
    converged = np.ones((n_prob, len(grid)), dtype=bool)
    sweeps = 0
    for gi, lam in enumerate(grid):
        live = np.ones(n_prob, dtype=bool)
        full = np.ones(n_prob, dtype=bool)
        swept = np.ones((n_prob, p), dtype=bool)
        iters = np.zeros(n_prob, dtype=int)
        while live.any():
            # Coefficients outside the swept set are zero, so A is the
            # nonzero set.
            signs = np.sign(beta)
            act = signs != 0
            stale = live & (act != inv_for).any(axis=1)
            if stale.any():
                k = np.flatnonzero(stale)
                inv[k] = np.linalg.inv(np.where(
                    act[k, :, None] & act[k, None, :], lower[k], eye))
                inv_for[k] = act[k]
            ub = (upper @ beta[..., None])[..., 0]
            rhs = np.where(act, cvecs - ub - lam * signs, 0.0)
            new = (inv @ rhs[..., None])[..., 0]
            resid = cvecs - (lower @ new[..., None])[..., 0] - ub
            wrong = np.where(act, signs * new <= 0,
                             swept & (np.abs(resid) > lam))
            step = np.abs(new - beta)
            delta = step.max(axis=1, initial=0.0)
            bad = live & wrong.any(axis=1)
            beta = np.where((live & ~bad)[:, None], new, beta)
            for f in np.flatnonzero(bad):
                # The sweep is triangular: coordinates before the first
                # wrong one already hold what the scalar loop gives.
                j = int(np.argmax(wrong[f]))
                beta[f, :j] = new[f, :j]
                delta[f] = max(step[f, :j].max(initial=0.0),
                               _cd_sweep(grams[f], cvecs[f], lam, beta[f],
                                         np.flatnonzero(swept[f, j:]) + j))
            iters += live
            small = delta < tolerance
            live &= ~(full & small)
            to_active = live & full
            to_full = live & ~full & small
            swept[to_active] = beta[to_active] != 0
            swept[to_full] = True
            full ^= to_active | to_full
            out = live & (iters >= max_iters)
            converged[out, gi] = False
            live &= ~out
        sweeps += int(iters.sum())
        path[:, gi] = beta
    return path, converged, sweeps


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

    # One stack of problems: the CV folds, then the full data (last).
    folds = fold_assignments(n, cv.folds, seed)
    grams = np.empty((cv.folds + 1, p, p))
    cvecs = np.empty((cv.folds + 1, p))
    for f in range(cv.folds):
        tr = folds != f
        n_tr = int(tr.sum())
        grams[f] = ws[tr].T @ ws[tr] / n_tr
        cvecs[f] = ws[tr].T @ yc[tr] / n_tr
    grams[-1] = ws.T @ ws / n
    cvecs[-1] = ws.T @ yc / n
    grid = (np.asarray(cv.lambda_grid) if cv.lambda_grid is not None
            else _auto_grid(cvecs[-1], cv))

    if kind == RIDGE:
        eye = np.eye(p)
        path = np.stack([np.linalg.solve(grams + lam * eye,
                                         cvecs[..., None])[..., 0]
                         for lam in grid], axis=1)
        converged = np.ones((cv.folds + 1, len(grid)), dtype=bool)
        sweeps = 0
    else:
        path, converged, sweeps = _lasso_paths(grams, cvecs, grid,
                                               cv.tolerance, cv.max_iters)

    cv_err = np.zeros(len(grid))
    for f in range(cv.folds):
        va = folds == f
        w_va, y_va = ws[va], yc[va]
        for gi in range(len(grid)):
            cv_err[gi] += float(np.sum((y_va - w_va @ path[f, gi]) ** 2))
    best = int(np.argmin(cv_err))
    lam_star = float(grid[best])
    beta = path[-1, best]
    if not converged[-1, best]:
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
                     "converged": bool(converged[-1, best]),
                     "active": int(np.count_nonzero(beta)),
                     "cv_unconverged": int(np.count_nonzero(~converged[:-1])),
                     "sweeps": sweeps})


def fit_lasso(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L1-penalized least squares by cyclic coordinate descent with
    soft thresholding; the penalty level is chosen by k-fold CV.

    Besides the chosen `lambda`, the CV errors and the grid, the
    diagnostics record whether the full-data fit `converged`, its
    `active` count, `cv_unconverged` (fold and penalty points that hit
    `max_iters`) and the total `sweeps`."""
    return _penalized_linear(fit_part, cv, seed, LASSO)


def fit_ridge(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L2-penalized least squares, closed-form per penalty level."""
    return _penalized_linear(fit_part, cv, seed, RIDGE)


def _logistic_objective(yf: np.ndarray, coef: np.ndarray, lam: float,
                        l1: bool) -> float:
    """Mean log(1 + exp(-y f)) from the margins `yf`, plus lam |b|_1 (L1)
    or lam ||b||^2 (L2) on the coefficients after the intercept b_0."""
    b = coef[1:]
    penalty = float(np.sum(np.abs(b))) if l1 else float(b @ b)
    return float(np.mean(np.logaddexp(0.0, -yf))) + lam * penalty


def _solve_block(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hess, rhs, rcond=None)[0]


def _newton_logistic(design, y, lam: float, l1: bool, tolerance: float,
                     max_iters: int, coef: np.ndarray):
    """Active-set Newton on the penalized logistic loss at one penalty
    level, from the warm start `coef` (column 0 of `design` is the
    unpenalized intercept).

    For L2 each step is a damped Newton step on all coefficients. For L1
    it solves the Hessian system on the intercept, the nonzero
    coefficients and the zeros that violate KKT (|grad_j| > lam), each
    held to the sign that lowers the objective, so the objective is
    smooth along the step; a violator whose Newton step points the other
    way sits this step out. The step stops at the first coefficient
    whose sign would change, which it leaves at exactly 0.0. Either
    penalty backtracks on the objective, and stops once a step moves no
    coefficient by `tolerance` and no zero violates KKT.

    Returns the coefficients, whether they converged (False only when
    `max_iters` steps ran out; a line search that cannot shrink the step
    further stops at the current point and counts as converged) and the
    number of steps taken.
    """
    n, width = design.shape
    yf = y * (design @ coef)
    loss = _logistic_objective(yf, coef, lam, l1)
    signs = np.zeros(width)                 # the orthant of an L1 step
    viol = np.zeros(width, dtype=bool)
    idx = np.arange(width)
    for step in range(1, max_iters + 1):
        sig = 1.0 / (1.0 + np.exp(np.clip(yf, -500, 500)))   # expit(-yf)
        grad = -(design.T @ (y * sig)) / n
        if l1:
            signs = np.sign(coef)
            signs[0] = 0.0
            viol = (signs == 0) & (np.abs(grad) > lam)
            viol[0] = False
            signs[viol] = -np.sign(grad[viol])
            act = signs != 0
            act[0] = True
            idx = np.flatnonzero(act)
            rhs = grad[idx] + lam * signs[idx]
        else:
            rhs = grad + 2.0 * lam * coef
            rhs[0] = grad[0]
        block = design[:, idx]
        hess = (block.T * (sig * (1.0 - sig))) @ block / n
        if not l1:
            hess[1:, 1:] += 2.0 * lam * np.eye(width - 1)
        while True:
            d_act = -_solve_block(hess, rhs)
            wrong = viol[idx] & (signs[idx] * d_act <= 0)
            if not wrong.any():
                break
            keep = ~wrong
            idx, rhs, hess = idx[keep], rhs[keep], hess[keep][:, keep]
        direction = np.zeros(width)
        direction[idx] = d_act
        # Only nonzero coefficients can cross zero: violators move along
        # their sign, and L2 steps have no orthant.
        crossing = np.flatnonzero(signs * direction < 0)
        ratios = -coef[crossing] / direction[crossing]
        t_max = min(1.0, float(ratios.min(initial=1.0)))
        hit = crossing[ratios == t_max] if t_max < 1.0 else crossing[:0]
        slope = float(rhs @ d_act)
        t = t_max
        while True:
            trial = coef + t * direction
            if t == t_max:
                trial[hit] = 0.0
            trial_yf = y * (design @ trial)
            trial_loss = _logistic_objective(trial_yf, trial, lam, l1)
            # Armijo; the 1e-15 absorbs rounding of the loss at the optimum.
            if trial_loss <= loss + 1e-4 * t * slope + 1e-15:
                break
            t *= 0.5
            if t < 1e-12:
                return coef, True, step
        coef, yf, loss = trial, trial_yf, trial_loss
        if not viol.any() and float(np.max(np.abs(direction))) < tolerance:
            return coef, True, step
    return coef, False, max_iters


def _logistic_path(design, y, grid, l1: bool, cv: CvConfig):
    """Warm-started Newton fits along `grid` from zero: the (len(grid),
    width) path, a per-level convergence mask and the total steps."""
    coef = np.zeros(design.shape[1])
    path = np.empty((len(grid), design.shape[1]))
    converged = np.empty(len(grid), dtype=bool)
    steps = 0
    for gi, lam in enumerate(grid):
        coef, converged[gi], taken = _newton_logistic(
            design, y, lam, l1, cv.tolerance, cv.max_iters, coef)
        path[gi] = coef
        steps += taken
    return path, converged, steps


def fit_logistic(fit_part: Dataset, penalty: str = "L1",
                 cv: CvConfig = CvConfig(), seed: int = 0) -> LinearWorkingRegression:
    """Penalized logistic regression for responses in {-1, +1}.

    Returns mu on the conditional-mean scale: mu(x, z) =
    2 expit(linear predictor) - 1, which lies in (-1, 1). The penalty
    level is chosen by k-fold CV deviance; each level is fitted by
    active-set Newton (`_newton_logistic`), warm-started along the path.

    Besides the chosen `lambda`, the CV deviances and the grid, the
    diagnostics record whether the full-data fit `converged`, its
    `active` count, `cv_unconverged` (fold and penalty points that hit
    `max_iters`) and the total `newton_steps`.
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
    kind = LOGIT_L1 if l1 else LOGIT_L2

    lam_max = max(float(np.max(np.abs(design[:, 1:].T @ y))) / (2 * n), 1e-12)
    grid = (np.asarray(cv.lambda_grid) if cv.lambda_grid is not None
            else np.geomspace(lam_max, cv.lambda_min_ratio * lam_max,
                              cv.num_lambdas))

    folds = fold_assignments(n, cv.folds, seed)
    cv_dev = np.zeros(len(grid))
    cv_unconverged = steps = 0
    for f in range(cv.folds):
        tr = folds != f
        va = ~tr
        if len(np.unique(y[tr])) < 2:
            raise DegenerateLabelsError(f"fold {f} training part is single-class")
        path, converged, taken = _logistic_path(design[tr], y[tr], grid, l1, cv)
        yf = y[va, None] * (design[va] @ path.T)
        cv_dev += 2.0 * np.sum(np.logaddexp(0.0, -yf), axis=0)
        cv_unconverged += int(np.count_nonzero(~converged))
        steps += taken
    best = int(np.argmin(cv_dev))
    lam_star = float(grid[best])

    path, converged, taken = _logistic_path(design, y, grid[:best + 1], l1, cv)
    coef = path[-1]
    steps += taken
    if not converged[-1]:
        warnings.warn(f"{kind} Newton solver did not converge at lambda = "
                      f"{lam_star:g} within {cv.max_iters} steps")
    full = np.zeros(p_all)
    full[keep] = coef[1:] / sds
    intercept = float(coef[0] - means @ (coef[1:] / sds))
    x_coef, z_coef = _split_coef(fit_part, full)
    return LinearWorkingRegression(
        kind, intercept, x_coef, z_coef, link=_LINK_BINARY_MEAN,
        diagnostics={"lambda": lam_star, "cv_deviance": cv_dev / n,
                     "lambda_grid": np.asarray(grid, dtype=float),
                     "converged": bool(converged[-1]),
                     "active": int(np.count_nonzero(coef[1:])),
                     "cv_unconverged": cv_unconverged,
                     "newton_steps": steps})
