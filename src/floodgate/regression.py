"""Working-regression fitters.

Every fitter consumes only the fit split of a dataset and returns an
immutable WorkingRegression: a fixed, deterministic function mu(x, z).
Linear fits expose their focal coefficient so downstream inference can
use closed-form conditional moments; the logistic fits output on the
conditional-mean scale of a {-1, +1} response.

The penalized fitters choose their penalty by k-fold cross-validation
(CV) through one pipeline; LASSO and logistic fit the CV folds and the
full data together by one active-set Newton engine, whose KKT slack and
step cap are constants. They share the diagnostics `lambda`,
`lambda_grid`, `converged` (of the full-data fit), `active`,
`cv_unconverged` (fold and penalty points that hit the step cap) and
`newton_steps` (the engine's steps, summed over every fold, the full
data and every penalty level; 0 for ridge).
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
_KKT_SLACK = 1e-7    # active-set KKT slack; a smaller Newton step is "solved"
_STEP_CAP = 10_000   # active-set steps per problem and penalty level


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
    try:    # a non-object; an unknown, missing or diagnostics key: TypeError
        return LinearWorkingRegression(**cfg, diagnostics={})
    except TypeError as exc:
        raise ValidationError(f"regression JSON: {exc}") from None


@dataclass(frozen=True)
class CvConfig:
    """The penalized fitters' CV settings: the folds and the penalty path."""

    folds: int = 10
    lambda_grid: tuple[float, ...] | None = None   # None: automatic path
    num_lambdas: int = 50
    lambda_min_ratio: float = 1e-3

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

    def check_rows(self, n: int) -> None:
        """Rejects a fit on fewer rows than folds."""
        if n < self.folds:
            raise SizeError(f"need n >= folds = {self.folds}, got n = {n}")


def fold_assignments(n: int, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold labels in [0, folds) from (seed, n)."""
    return seeded_rng(seed, n).permutation(np.arange(n) % folds)


def full_rank_qr(design: np.ndarray, message: str):
    """The reduced QR factors (q, r) of `design`; raises
    SingularDesignError(message) when a diagonal entry of r is at most
    1e-10 times the largest (or 1), the one rank rule of the package."""
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise SingularDesignError(message)
    return q, r


def fit_ols(fit_part: Dataset) -> LinearWorkingRegression:
    """Ordinary least squares; exposes classical coefficient standard
    errors for the oracle-baseline confidence transform."""
    w = np.hstack([fit_part.x, fit_part.z])
    n, p = w.shape
    if n <= p + 1:
        raise SizeError(f"OLS needs n > d_x + d_z + 1 = {p + 1}, got n = {n}")
    design = np.hstack([np.ones((n, 1)), w])
    q, r = full_rank_qr(design, "design matrix is rank deficient")
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


class _Quadratic:
    """(1/2) b'Gb - c'b on an (F, p, p) stack of Grams and an (F, p)
    stack of correlation vectors: a full Newton step is exact."""

    exact, lead = True, 0

    def __init__(self, grams: np.ndarray, cvecs: np.ndarray) -> None:
        self.grams, self.cvecs, self.shape = grams, cvecs, cvecs.shape
        self.diagonals = np.einsum("fjj->fj", grams)

    def derivatives(self, k, b):
        """Slices k's gradients and Hessian diagonals at b, and the state
        from which `hessian` gathers their blocks on columns idx."""
        grams = self.grams[k]
        return (grams @ b[..., None])[..., 0] - self.cvecs[k], self.diagonals[k], grams

    @staticmethod
    def hessian(grams, idx):
        return grams[np.arange(len(idx))[:, None, None], idx[:, :, None], idx[:, None, :]]


class _Logistic:
    """Mean log(1 + exp(-y f)), f = design @ b, over each slice's rows
    (0/1 `rows` of the one design, whose column 0 is the unpenalized
    intercept). Newton steps are inexact and backtrack."""

    exact, lead = False, 1

    def __init__(self, design: np.ndarray, y: np.ndarray, rows: np.ndarray) -> None:
        self.design, self.y = design, y
        self.columns, self.squares = np.ascontiguousarray(design.T), design ** 2
        self.weights = rows / rows.sum(axis=1, keepdims=True)
        self.shape = (len(rows), design.shape[1])

    def value(self, k, b):
        margins = self.y * (b @ self.columns)
        return np.einsum("fn,fn->f", self.weights[k], np.logaddexp(0.0, -margins))

    def derivatives(self, k, b):
        sig = 1.0 / (1.0 + np.exp(np.clip(self.y * (b @ self.columns), -500, 500)))
        curv = self.weights[k] * sig * (1.0 - sig)
        return (-(self.weights[k] * self.y * sig) @ self.design,
                curv @ self.squares, np.sqrt(curv))

    def hessian(self, root, idx):
        # One slice at a time keeps the temporary at m x n.
        return np.stack([(c := self.columns[i] * r) @ c.T for i, r in zip(idx, root)])


def _solve_blocks(hess, rhs, block):
    """Solves (hess, rhs) on `block`, identity rows elsewhere: returns the
    systems, rhs, solutions and which fail the residual check."""
    system = np.where(block[:, :, None] & block[:, None, :], hess, np.eye(len(block[0])))
    rhs = np.where(block, rhs, 0.0)
    try:
        d = np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Some slice is singular: only those go through lstsq.
        d = np.empty_like(rhs)
        for i, (a, r) in enumerate(zip(system, rhs)):
            try:
                d[i] = np.linalg.solve(a, r)
            except np.linalg.LinAlgError:
                d[i] = np.linalg.lstsq(a, r, rcond=None)[0]
    miss = np.abs((system @ d[..., None])[..., 0] - rhs).max(axis=1)
    return system, rhs, np.where(block, d, 0.0), ~(miss <= 1e-6 * np.abs(rhs).max(axis=1))


def _active_set_paths(loss, grid: np.ndarray, l1: bool):
    """Warm-started paths of a stack of F penalized problems, loss_f(b) +
    lam |b|_1 (`l1`) or lam ||b||^2 on the coordinates after the loss's
    unpenalized `lead`, by active-set Newton on all slices at once.

    A slice's block holds the unpenalized coordinates and (under L1) the
    nonzero ones, held to their signs s, plus each zero that violates
    KKT, |g_j| - lam > _KKT_SLACK H_jj, with the sign -sign(g_j) that
    lowers the objective (under L2, every coordinate). A step solves
    H d = -(g + lam s) (-(g + 2 lam b)) on the live slices' blocks,
    padded with identity rows to the widest, and stops at the first sign
    crossing, left at exactly 0.0; an inexact loss then backtracks
    (Armijo). An entering coordinate whose step points against its sign
    sits the step out. A slice is solved after an exact full step or a
    step below `_KKT_SLACK`, and done once solved with no violator.

    At a solved point some entering sign is right unless the block is
    singular. A block that fails the residual check, or whose entering
    coordinates all point the wrong way there, retries with the largest
    violator alone (none away from a solved point); failing again, the
    step follows its null vector downhill to the first crossing. A step
    that cannot move, or `_STEP_CAP` steps, ends a level unconverged; a
    line search that gives up ends it converged.

    Returns the (F, len(grid), width) path, the (F, len(grid))
    convergence mask and the steps summed over slices and levels.
    """
    n_prob, width = loss.shape
    pen = np.arange(width) >= loss.lead
    signed = pen & l1                   # the coordinates held to a sign

    def penalty(b):
        tail = b[:, loss.lead:]
        return lam * (np.abs(tail) if l1 else tail * tail).sum(axis=1)

    beta = np.zeros((n_prob, width))
    smooth = None if loss.exact else loss.value(np.arange(n_prob), beta)
    path = np.empty((n_prob, len(grid), width))
    converged = np.ones((n_prob, len(grid)), dtype=bool)
    steps = 0
    for gi, lam in enumerate(grid):
        # Only an empty block is solved before its first step.
        solved = ~beta.any(axis=1) & l1 & (loss.lead == 0)
        live = np.ones(n_prob, dtype=bool)
        taken = np.zeros(n_prob, dtype=int)
        while True:
            k = np.flatnonzero(live)
            b = beta[k]
            grad, diag, state = loss.derivatives(k, b)
            signs = np.sign(b) * signed
            gain = np.where(signed & (signs == 0),
                            np.abs(grad) - lam - _KKT_SLACK * diag, 0.0)
            signs[gain > 0] = -np.sign(grad[gain > 0])
            stop = solved[k] & ~(gain > 0).any(axis=1)
            converged[k[~stop & (taken[k] >= _STEP_CAP)], gi] = False
            stop |= taken[k] >= _STEP_CAP
            live[k[stop]] = False
            if stop.all():
                break
            k, b, grad, state, signs, gain = (
                a[~stop] for a in (k, b, grad, state, signs, gain))

            act = (signs != 0) | ~signed
            order = np.argsort(~act, axis=1, kind="stable")[:, :act.sum(axis=1).max()]
            at = (np.arange(len(k))[:, None], order)      # the blocks, padded
            block = act[at]
            hess = loss.hessian(state, order)
            if not l1:                  # every coordinate, in order
                hess += 2.0 * lam * np.diag(pen)
            rhs = -(grad + lam * (signs if l1 else 2.0 * pen * b))
            entering, toward = gain[at] > 0, signs[at]
            system, r, d, free = _solve_blocks(hess, rhs[at], block)
            free |= solved[k] & ~(entering & (toward * d > 0)).any(axis=1)
            retry = np.flatnonzero(free & entering.any(axis=1))
            if len(retry):
                alone = solved[k, None] & (gain[at] == gain.max(axis=1, keepdims=True))
                block[retry] &= ~entering[retry] | alone[retry]
                system[retry], r[retry], d[retry], free[retry] = _solve_blocks(
                    hess[retry], r[retry], block[retry])
                free[retry] |= (entering & block & (toward * d <= 0))[retry].any(axis=1)
            while True:
                wrong = entering & block & (toward * d <= 0) & ~free[:, None]
                redo = np.flatnonzero(wrong.any(axis=1))
                if not len(redo):
                    break
                block[redo] &= ~wrong[redo]
                system[redo], r[redo], d[redo], _ = _solve_blocks(
                    hess[redo], r[redo], block[redo])
            for i in np.flatnonzero(free):
                null = np.linalg.eigh(system[i])[1][:, 0] * block[i]
                slope = r[i] @ null
                # Flat along the null vector, the system has a solution
                # after all (an ill-conditioned one): keep the solve's step.
                free[i] = abs(slope) > 1e-6 * np.abs(r[i]).max()
                d[i] = np.sign(slope) * null if free[i] else d[i]
            dirn = np.zeros_like(b)
            dirn[at] = d

            cross = signs * dirn < 0
            ratio = np.where(cross, -b / np.where(cross, dirn, 1.0), np.inf)
            t = np.minimum(ratio.min(axis=1), np.where(free, np.inf, 1.0))
            t[np.isinf(t)] = 0.0            # a free step with no crossing
            hit = cross & (ratio <= t[:, None])
            step = t.copy()
            while True:
                trial = b + step[:, None] * dirn
                trial[hit & (step == t)[:, None]] = 0.0
                if loss.exact:
                    break
                value = loss.value(k, trial)
                # Armijo; the 1e-15 absorbs rounding of the objective.
                bad = (step >= 1e-12) & ~(
                    value + penalty(trial) <= smooth[k] + penalty(b)
                    - 1e-4 * step * np.sum(r * d, axis=1) + 1e-15)
                if not bad.any():
                    break
                step[bad] *= 0.5
            stuck = t <= 0.0
            stall = (step < t) & (step < 1e-12)      # the line search gave up
            trial[stall] = b[stall]
            beta[k] = trial
            if not loss.exact:
                smooth[k] = np.where(stall, smooth[k], value)
            converged[k[stuck], gi] = False
            live[k[stuck | stall]] = False
            solved[k] = ((t == 1.0) & ~free if loss.exact
                         else np.abs(dirn).max(axis=1) < _KKT_SLACK)
            taken[k] += 1
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
        n, d_x = fit_part.x.shape
        cv.check_rows(n)
        # Drawn before w, so that their temporaries are gone by then.
        self.folds = fold_assignments(n, cv.folds, seed)
        # w is the one copy of the design, standardized in place.
        # Column-major, so that each column's moments are one contiguous
        # reduction whichever columns are kept.
        width = d_x + fit_part.z.shape[1]
        w = np.empty((n, width), order="F")
        w[:, :d_x], w[:, d_x:] = fit_part.x, fit_part.z
        # Constant by value, as a constant column's std can round above
        # 0; a varying column's std can also underflow to 0. Per column
        # and by max = min (the values are finite), no temporary of w's
        # size; each std equals w.std(axis=0)'s bit for bit.
        sds = np.array([col.std() for col in w.T])
        self.keep = np.flatnonzero((w.max(axis=0) > w.min(axis=0)) & (sds > 0))
        if not len(self.keep):
            raise SingularDesignError("all columns of [x, z] are constant")
        if len(self.keep) < width:
            warnings.warn(f"dropping {width - len(self.keep)} constant column(s) "
                          "before fitting; their coefficients are set to 0")
            for i, j in enumerate(self.keep):   # in place: no second copy
                w[:, i] = w[:, j]
            w = w[:, :len(self.keep)]
        self.means, self.sds = w.mean(axis=0), sds[self.keep]
        w -= self.means
        w /= self.sds
        self.ws = w
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
               b: np.ndarray, converged: np.ndarray, steps: int,
               link: str = _LINK_IDENTITY, **own) -> LinearWorkingRegression:
        """The standardized fit b0 + ws @ b chosen at grid[best] on the
        original columns, with the shared diagnostics (from the solver's
        mask over the folds and the full data, last, and its steps) and
        the fitter's `own`; warns when the full-data fit did not converge."""
        lam = float(grid[best])
        if not converged[-1, best]:
            warnings.warn(f"{kind} active-set solver did not converge at lambda = "
                          f"{lam:g} within {_STEP_CAP} steps")
        coef = np.zeros(self.width)
        coef[self.keep] = b / self.sds
        return LinearWorkingRegression(
            kind, float(b0 - self.means @ coef[self.keep]),
            coef[:self.d_x], coef[self.d_x:], link=link,
            diagnostics={"lambda": lam, "lambda_grid": np.asarray(grid, dtype=float),
                         "converged": bool(converged[-1, best]),
                         "active": int(np.count_nonzero(b)),
                         "cv_unconverged": int(np.count_nonzero(~converged[:-1])),
                         "newton_steps": steps, **own})


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
        path = np.stack([np.linalg.solve(grams + lam * np.eye(p),
                                         cvecs[..., None])[..., 0]
                         for lam in grid], axis=1)
        converged, steps = np.ones(path.shape[:2], dtype=bool), 0
    else:
        path, converged, steps = _active_set_paths(
            _Quadratic(grams, cvecs), grid, True)

    cv_err = np.zeros(len(grid))
    for f, va in enumerate(vas):
        cv_err += np.sum((yc[va, None] - ws[va] @ path[f].T) ** 2, axis=0)
    best = int(np.argmin(cv_err))
    return pipe.fitted(kind, grid, best, y_mean, path[-1, best], converged, steps,
                       cv_errors=cv_err / n)


def fit_lasso(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L1-penalized least squares, solved exactly at each penalty level
    by the active-set engine (`_active_set_paths`) on the downdated
    fold Grams; the penalty level is chosen by k-fold CV. The
    diagnostics add the `cv_errors`."""
    return _penalized_linear(fit_part, cv, seed, LASSO)


def fit_ridge(fit_part: Dataset, cv: CvConfig = CvConfig(),
              seed: int = 0) -> LinearWorkingRegression:
    """L2-penalized least squares, closed-form per penalty level; the
    diagnostics add the `cv_errors`."""
    return _penalized_linear(fit_part, cv, seed, RIDGE)


def fit_logistic(fit_part: Dataset, penalty: str = "L1",
                 cv: CvConfig = CvConfig(), seed: int = 0) -> LinearWorkingRegression:
    """Penalized logistic regression for responses in {-1, +1}.

    Returns mu on the conditional-mean scale: mu(x, z) =
    2 expit(linear predictor) - 1, which lies in (-1, 1). The penalty
    level is chosen by k-fold CV deviance; the folds and the full data
    are fitted together by the active-set engine (`_active_set_paths`).
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

    # One stack of problems: the CV folds' training rows, then all rows.
    rows = pipe.folds != np.arange(cv.folds + 1)[:, None]
    for f, tr in enumerate(rows[:-1]):
        if len(np.unique(y[tr])) < 2:
            raise DegenerateLabelsError(f"fold {f} training part is single-class")
    path, converged, steps = _active_set_paths(
        _Logistic(design, y, rows), grid, l1)
    cv_dev = np.zeros(len(grid))
    for f, tr in enumerate(rows[:-1]):
        yf = y[~tr, None] * (design[~tr] @ path[f].T)
        cv_dev += 2.0 * np.sum(np.logaddexp(0.0, -yf), axis=0)
    best = int(np.argmin(cv_dev))
    return pipe.fitted(LOGIT_L1 if l1 else LOGIT_L2, grid, best, path[-1, best, 0],
                       path[-1, best, 1:], converged, steps,
                       link=_LINK_BINARY_MEAN, cv_deviance=cv_dev / n)
