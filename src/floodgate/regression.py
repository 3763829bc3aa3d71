"""Working-regression fitters.

Every fitter consumes only the fit split of a dataset and returns an
immutable WorkingRegression: a fixed, deterministic function mu(x, z).
Linear fits expose their focal coefficient so downstream inference can
use closed-form conditional moments; the logistic fits output on the
conditional-mean scale of a {-1, +1} response.

The penalized fitters choose their penalty by k-fold cross-validation
(CV) through one pipeline, and share the diagnostics `lambda`,
`lambda_grid`, `converged` (of the full-data fit), `active`,
`cv_unconverged` (fold and penalty points that hit `max_iters`) and
`newton_steps` (active-set solves of LASSO and logistic; 0 for ridge).
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
    """A fixed function mu(x, z) -> real, evaluated row-wise: predict on
    (n, d_x) x and (n, d_z) z returns shape (n,).

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
    """Wraps an arbitrary row-wise callable mu(x, z) that returns shape
    (n,) or (n, 1); predict returns shape (n,)."""

    kind = CUSTOM

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 linear_focal_coef=None) -> None:
        self._fn = fn
        self.linear_focal_coef = (
            np.atleast_1d(np.asarray(linear_focal_coef, dtype=float))
            if linear_focal_coef is not None else None)

    def predict(self, x, z):
        x = np.asarray(x, dtype=float)
        return np.asarray(self._fn(x, np.asarray(z, dtype=float)),
                          dtype=float).reshape(len(x))


def regression_from_json(text: str) -> LinearWorkingRegression:
    cfg = json.loads(text)
    return LinearWorkingRegression(cfg["kind"], cfg["intercept"],
                                   np.array(cfg["x_coef"]),
                                   np.array(cfg["z_coef"]),
                                   cfg.get("link", _LINK_IDENTITY))


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings shared by the penalized fitters.
    `tolerance` is the LASSO's KKT slack and the logistic step size at
    which Newton stops; `max_iters` caps the steps per (fold, penalty)
    problem. Ridge is solved in closed form and reads neither."""

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


def fold_assignments(n: int, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold labels in [0, folds) from (seed, n)."""
    return seeded_rng(seed, n).permutation(np.arange(n) % folds)


def fit_ols(fit_part: Dataset) -> LinearWorkingRegression:
    """Ordinary least squares; exposes classical coefficient standard
    errors for the oracle-baseline confidence transform."""
    w = np.hstack([fit_part.x, fit_part.z])
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
    return LinearWorkingRegression(
        OLS, float(coef[0]), coef[1:fit_part.d_x + 1],
        coef[fit_part.d_x + 1:],
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


def _lasso_paths(grams: np.ndarray, cvecs: np.ndarray, grid: np.ndarray,
                 tolerance: float, max_iters: int):
    """Warm-started exact paths of a stack of LASSO problems,
    (1/2) b'Gb - c'b + lam |b|_1 with (F, p, p) Grams and (F, p) cvecs,
    by feature-sign search (Lee, Battle, Raina & Ng 2007), all slices
    together.

    A slice holds b and the signs s of its active set A. Once b_A solves
    G_AA b_A = c_A - lam s_A, the zero coordinate with the largest
    |c_j - G_j.b| - lam - tolerance G_jj > 0 joins A with the sign of
    its residual; with none, the slice is done at this level. A step
    solves that system for every live slice in one batched solve
    (identity rows off A) and moves b toward the solution, stopping at
    the first coefficient whose sign would change, which it leaves at
    exactly 0.0 and drops from A. Every step lowers the objective and
    an entering sign is always right, so the search ends.

    The entering sign fails, or the system has no solution, only when
    the entering column lies in the span of A (a fold with fewer rows
    than columns): the objective then falls without bound along the
    null vector of G_AA, which the step follows downhill to the first
    crossing. A step that cannot move, or `max_iters` steps at one
    level, ends a slice's search unconverged.

    Returns the (F, len(grid), p) path, an (F, len(grid)) convergence
    mask and the total number of steps.
    """
    n_prob, p = cvecs.shape
    eye = np.eye(p)
    slack = tolerance * np.einsum("fjj->fj", grams)
    beta = np.zeros((n_prob, p))
    signs = np.zeros((n_prob, p))
    path = np.empty((n_prob, len(grid), p))
    converged = np.ones((n_prob, len(grid)), dtype=bool)
    steps = 0
    for gi, lam in enumerate(grid):
        live = np.ones(n_prob, dtype=bool)
        solved = ~signs.any(axis=1)
        taken = np.zeros(n_prob, dtype=int)
        while True:
            k = np.flatnonzero(live & solved)
            if len(k):
                resid = cvecs[k] - (grams[k] @ beta[k, :, None])[..., 0]
                viol = np.where(signs[k] == 0,
                                np.abs(resid) - lam - slack[k], 0.0)
                j = np.argmax(viol, axis=1)
                enter = viol[np.arange(len(k)), j] > 0
                live[k[~enter]] = False
                signs[k[enter], j[enter]] = np.sign(resid[enter, j[enter]])
            converged[live & (taken >= max_iters), gi] = False
            live &= taken < max_iters
            run = np.flatnonzero(live)
            if not len(run):
                break
            act = signs[run] != 0
            system = np.where(act[:, :, None] & act[:, None, :], grams[run], eye)
            rhs = np.where(act, cvecs[run] - lam * signs[run], 0.0)
            try:
                target = np.linalg.solve(system, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                target = np.stack([_solve_block(a, r) for a, r in zip(system, rhs)])
            b = beta[run]
            d = target - b
            miss = np.abs((system @ target[..., None])[..., 0] - rhs).max(axis=1)
            free = ((act & (b == 0) & ~(signs[run] * target > 0)).any(axis=1)
                    | ~(miss <= 1e-6 * np.abs(rhs).max(axis=1)))
            for i in np.flatnonzero(free):
                null = np.where(act[i], np.linalg.eigh(system[i])[1][:, 0], 0.0)
                d[i] = -np.sign((grams[run[i]] @ b[i] - rhs[i]) @ null) * null
            cross = act & (signs[run] * d < 0)
            ratio = np.where(cross, -b / np.where(cross, d, 1.0), np.inf)
            t = np.minimum(ratio.min(axis=1), np.where(free, np.inf, 1.0))
            t[np.isinf(t)] = 0.0            # a free step with no crossing
            full = ~free & (t == 1.0)
            hit = cross & (ratio <= t[:, None])
            b = np.where(full[:, None], target, b + t[:, None] * d)
            b[hit] = 0.0
            beta[run] = b
            signs[run] = np.where(hit, 0.0, signs[run])
            solved[run] = full
            taken[run] += 1
            stuck = run[t <= 0.0]
            converged[stuck, gi] = False
            live[stuck] = False
        steps += int(taken.sum())
        path[:, gi] = beta
    return path, converged, steps


class _CrossValidation:
    """The CV pipeline of the penalized fitters. The set-up drops the
    constant columns of [x, z] (with a warning), standardizes the rest
    to `ws` and assigns the rows to `folds`; `grid` is the penalty rule
    and `fitted` the read-out. Each fitter brings its own checks, solver
    and CV loss."""

    def __init__(self, fit_part: Dataset, cv: CvConfig, seed: int) -> None:
        # Column-major, so that each column's moments are one contiguous
        # reduction whichever columns are kept.
        n, d_x = fit_part.x.shape
        width = d_x + fit_part.z.shape[1]
        w = np.empty((n, width), order="F")
        w[:, :d_x], w[:, d_x:] = fit_part.x, fit_part.z
        if n < cv.folds:
            raise SizeError(f"need n >= folds = {cv.folds}, got n = {n}")
        # Constant by value, as a constant column's std can round above
        # 0; a varying column's std can also underflow to 0.
        sds = w.std(axis=0)
        self.keep = np.flatnonzero((w != w[0]).any(axis=0) & (sds > 0))
        if not len(self.keep):
            raise SingularDesignError("all columns of [x, z] are constant")
        if len(self.keep) < width:
            warnings.warn(f"dropping {width - len(self.keep)} constant column(s) "
                          "before fitting; their coefficients are set to 0")
            w = w[:, self.keep]
        self.means, self.sds = w.mean(axis=0), sds[self.keep]
        self.ws = w - self.means
        self.ws /= self.sds
        self.folds = fold_assignments(n, cv.folds, seed)
        self.cv, self.d_x, self.width = cv, d_x, width

    def grid(self, lam_max: float) -> np.ndarray:
        """`cv.lambda_grid` if set, else `num_lambdas` geometric levels
        from the fitter's `lam_max` down."""
        if self.cv.lambda_grid is not None:
            return np.asarray(self.cv.lambda_grid)
        top = max(lam_max, 1e-12)
        return np.geomspace(top, self.cv.lambda_min_ratio * top,
                            self.cv.num_lambdas)

    def fitted(self, kind: str, grid: np.ndarray, best: int, b0: float,
               b: np.ndarray, converged: bool, cv_unconverged: int,
               solver: str, link: str = _LINK_IDENTITY,
               **own) -> LinearWorkingRegression:
        """The standardized fit b0 + ws @ b chosen at grid[best] on the
        original columns, with the shared diagnostics and the fitter's
        `own`; warns when `solver` did not converge there."""
        lam = float(grid[best])
        if not converged:
            warnings.warn(f"{kind} {solver} did not converge at lambda = "
                          f"{lam:g} within {self.cv.max_iters} steps")
        coef = np.zeros(self.width)
        coef[self.keep] = b / self.sds
        return LinearWorkingRegression(
            kind, float(b0 - self.means @ coef[self.keep]),
            coef[:self.d_x], coef[self.d_x:], link=link,
            diagnostics={"lambda": lam, "lambda_grid": np.asarray(grid, dtype=float),
                         "converged": bool(converged),
                         "active": int(np.count_nonzero(b)),
                         "cv_unconverged": cv_unconverged, **own})


def _penalized_linear(fit_part: Dataset, cv: CvConfig, seed: int,
                      kind: str) -> LinearWorkingRegression:
    pipe = _CrossValidation(fit_part, cv, seed)
    ws, folds = pipe.ws, pipe.folds
    n, p = ws.shape
    y_mean = fit_part.y.mean()
    yc = fit_part.y - y_mean

    # One stack of problems: the CV folds, then the full data (last).
    # A fold's Gram is the full one less its validation rows'.
    vas = [folds == f for f in range(cv.folds)]
    gram_all, cvec_all = ws.T @ ws, ws.T @ yc
    grams = np.empty((cv.folds + 1, p, p))
    cvecs = np.empty((cv.folds + 1, p))
    for f, va in enumerate(vas):
        w_va = ws[va]
        n_tr = n - len(w_va)
        grams[f] = (gram_all - w_va.T @ w_va) / n_tr
        cvecs[f] = (cvec_all - w_va.T @ yc[va]) / n_tr
    grams[-1] = gram_all / n
    cvecs[-1] = cvec_all / n
    grid = pipe.grid(float(np.max(np.abs(cvecs[-1]))))

    if kind == RIDGE:
        eye = np.eye(p)
        path = np.stack([np.linalg.solve(grams + lam * eye,
                                         cvecs[..., None])[..., 0]
                         for lam in grid], axis=1)
        converged = np.ones((cv.folds + 1, len(grid)), dtype=bool)
        steps = 0
    else:
        path, converged, steps = _lasso_paths(grams, cvecs, grid,
                                              cv.tolerance, cv.max_iters)

    cv_err = np.zeros(len(grid))
    for f, va in enumerate(vas):
        cv_err += np.sum((yc[va, None] - ws[va] @ path[f].T) ** 2, axis=0)
    best = int(np.argmin(cv_err))
    return pipe.fitted(kind, grid, best, y_mean, path[-1, best],
                       converged[-1, best], int(np.count_nonzero(~converged[:-1])),
                       "feature-sign search", cv_errors=cv_err / n,
                       newton_steps=steps)


def fit_lasso(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L1-penalized least squares, solved exactly at each penalty level
    by feature-sign search (`_lasso_paths`), warm-started along the
    path; the penalty level is chosen by k-fold CV. The diagnostics add
    the `cv_errors`; `newton_steps` counts the active-set solves."""
    return _penalized_linear(fit_part, cv, seed, LASSO)


def ridge_unread(cv: CvConfig) -> list[str]:
    """The solver settings of `cv` set away from their defaults."""
    return [name for name in ("tolerance", "max_iters")
            if getattr(cv, name) != getattr(CvConfig, name)]


def fit_ridge(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L2-penalized least squares, closed-form per penalty level, so it
    rejects the solver settings (`ridge_unread`); the diagnostics add
    the `cv_errors`."""
    unread = ridge_unread(cv)
    if unread:
        raise ValidationError(f"ridge does not read {', '.join(unread)}")
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
    The diagnostics add the `cv_deviance`.
    """
    if penalty not in ("L1", "L2"):
        raise ValidationError(f"penalty must be L1 or L2, got {penalty!r}")
    y = fit_part.y
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DegenerateLabelsError("logistic fitting requires y in {-1, +1}")
    if len(np.unique(y)) < 2:
        raise DegenerateLabelsError("both classes must be present in the fit split")
    pipe = _CrossValidation(fit_part, cv, seed)
    n = len(y)
    design = np.hstack([np.ones((n, 1)), pipe.ws])
    l1 = penalty == "L1"
    grid = pipe.grid(float(np.max(np.abs(design[:, 1:].T @ y))) / (2 * n))

    cv_dev = np.zeros(len(grid))
    cv_unconverged = steps = 0
    for f in range(cv.folds):
        tr = pipe.folds != f
        va = ~tr
        if len(np.unique(y[tr])) < 2:
            raise DegenerateLabelsError(f"fold {f} training part is single-class")
        path, converged, taken = _logistic_path(design[tr], y[tr], grid, l1, cv)
        yf = y[va, None] * (design[va] @ path.T)
        cv_dev += 2.0 * np.sum(np.logaddexp(0.0, -yf), axis=0)
        cv_unconverged += int(np.count_nonzero(~converged))
        steps += taken
    best = int(np.argmin(cv_dev))

    path, converged, taken = _logistic_path(design, y, grid[:best + 1], l1, cv)
    return pipe.fitted(LOGIT_L1 if l1 else LOGIT_L2, grid, best, path[-1, 0],
                       path[-1, 1:], converged[-1], cv_unconverged,
                       "Newton solver", link=_LINK_BINARY_MEAN,
                       cv_deviance=cv_dev / n, newton_steps=steps + taken)
