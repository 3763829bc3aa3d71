import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floodgate import (CustomRegression, CvConfig, Dataset,
                       LinearWorkingRegression, fit_lasso, fit_logistic,
                       fit_ols, fit_ridge, ols_oracle_lcb,
                       regression_from_json)
from floodgate import regression
from floodgate.core import split
from floodgate.errors import (DegenerateLabelsError, ShapeError,
                              SingularDesignError, SizeError, ValidationError)
from floodgate.regression import LASSO, LOGIT_L1, LOGIT_L2, OLS, RIDGE, fold_assignments
from floodgate.simulate import (LINEAR_SPARSE, LOGISTIC_LINEAR, MACM,
                                MMSE_EXACT, ExperimentSpec, MethodSpec,
                                MuStarSpec, derive_seed, generate_replicate)


def _linear_data(n=300, beta_x=1.5, beta_z=(0.5, -1.0), noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, len(beta_z)))
    y = 0.7 + beta_x * x[:, 0] + z @ np.array(beta_z)
    y = y + noise * rng.standard_normal(n)
    return Dataset(y, x, z)


class TestLinearWorkingRegression:
    def test_identity_predict(self):
        mu = LinearWorkingRegression(OLS, 1.0, np.array([2.0]),
                                     np.array([0.5, -0.5]))
        x = np.array([[1.0], [0.0]])
        z = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(mu.predict(x, z), [4.0, 0.0])

    def test_binary_link_bounds_and_value(self):
        mu = LinearWorkingRegression(LOGIT_L1, 0.0, np.array([1.0]),
                                     np.empty(0), link="binary_mean")
        vals = mu.predict(np.array([[0.0], [100.0], [-100.0], [1.0]]),
                          np.empty((4, 0)))
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(1.0)
        assert vals[2] == pytest.approx(-1.0)
        # 2 expit(1) - 1
        assert vals[3] == pytest.approx(2.0 / (1.0 + math.exp(-1.0)) - 1.0)

    def test_focal_coef_hidden_behind_nonlinear_link(self):
        mu = LinearWorkingRegression(LOGIT_L1, 0.0, np.array([1.0]),
                                     np.empty(0), link="binary_mean")
        assert mu.linear_focal_coef is None

    def test_column_mismatch(self):
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0, 2.0]), np.empty(0))
        with pytest.raises(ShapeError):
            mu.predict(np.zeros((3, 1)), np.empty((3, 0)))

    def test_unknown_link(self):
        with pytest.raises(ValidationError):
            LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.empty(0),
                                    link="probit")

    def test_json_round_trip(self):
        mu = LinearWorkingRegression(RIDGE, 0.25, np.array([1.0]),
                                     np.array([2.0, 3.0]))
        back = regression_from_json(mu.to_json())
        assert back == mu
        assert back.to_json() == mu.to_json()
        payload = json.loads(mu.to_json())
        assert payload["kind"] == RIDGE

    def test_json_link_is_optional(self):
        payload = json.loads(LinearWorkingRegression(
            OLS, 0.5, np.array([1.0]), np.empty(0), link="binary_mean").to_json())
        back = regression_from_json(json.dumps(payload))
        assert back.link == "binary_mean"
        del payload["link"]
        assert regression_from_json(json.dumps(payload)).link == "identity"

    @pytest.mark.parametrize("text", [
        "[3]", "3",
        '{"kind": "OLS", "intercept": 0, "x_coef": [1], "z_coef": [], "x": 1}',
        '{"kind": "OLS", "intercept": 0, "x_coef": [1]}',
        '{"kind": "OLS", "intercept": 0, "x_coef": [1], "z_coef": [], '
        '"diagnostics": {}}'])
    def test_json_rejects_what_it_does_not_read(self, text):
        with pytest.raises(ValidationError, match="regression JSON"):
            regression_from_json(text)


class TestCustomRegression:
    def test_wraps_callable(self):
        mu = CustomRegression(lambda x, z: x[:, 0] ** 2 + z.sum(axis=1))
        out = mu.predict(np.array([[2.0], [3.0]]), np.ones((2, 2)))
        assert np.allclose(out, [6.0, 11.0])
        assert mu.linear_focal_coef is None

    def test_column_output_is_flattened(self):
        mu = CustomRegression(lambda x, z: x + z[:, :1])
        out = mu.predict(np.array([[2.0], [3.0]]), np.ones((2, 2)))
        assert out.shape == (2,)
        assert np.array_equal(out, [3.0, 4.0])

    def test_not_serializable(self):
        with pytest.raises(ValidationError):
            CustomRegression(lambda x, z: x[:, 0]).to_json()


class TestFoldAssignments:
    def test_balanced_and_deterministic(self):
        f = fold_assignments(23, 5, seed=4)
        counts = np.bincount(f, minlength=5)
        assert counts.max() - counts.min() <= 1
        assert np.array_equal(f, fold_assignments(23, 5, seed=4))
        assert not np.array_equal(f, fold_assignments(23, 5, seed=5))


class TestFitOls:
    def test_exact_recovery_noiseless(self):
        data = _linear_data(noise=0.0)
        fit = fit_ols(data)
        assert fit.intercept == pytest.approx(0.7, abs=1e-10)
        assert fit.x_coef[0] == pytest.approx(1.5, abs=1e-10)
        assert np.allclose(fit.z_coef, [0.5, -1.0], atol=1e-10)

    def test_standard_errors_match_classical_formula(self):
        data = _linear_data(n=80, seed=2)
        fit = fit_ols(data)
        design = np.hstack([np.ones((80, 1)), data.x, data.z])
        beta = np.linalg.lstsq(design, data.y, rcond=None)[0]
        resid = data.y - design @ beta
        sigma2 = resid @ resid / (80 - 4)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        assert np.allclose(fit.diagnostics["coef_se"],
                           np.sqrt(np.diag(cov))[1:], atol=1e-10)
        assert fit.diagnostics["intercept_se"] == pytest.approx(
            math.sqrt(cov[0, 0]), abs=1e-10)

    def test_rank_deficient(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, 2))
        x = z[:, [0]] + z[:, [1]]
        with pytest.raises(SingularDesignError):
            fit_ols(Dataset(rng.standard_normal(50), x, z))

    def test_too_few_rows(self):
        with pytest.raises(SizeError):
            fit_ols(Dataset(np.arange(3.0), np.eye(3)[:, :2], np.eye(3)[:, 2:]))


class TestOlsOracleLcb:
    def test_hand_computation(self):
        fit = LinearWorkingRegression(
            OLS, 0.0, np.array([2.0]), np.empty(0),
            diagnostics={"coef_se": np.array([0.5])})
        z05 = 1.6448536269514722
        got = ols_oracle_lcb(fit, 0.05, sign_of_beta=1, ev_cond_var=4.0)
        assert got == pytest.approx((2.0 - z05 * 0.5) * 2.0, abs=1e-9)

    def test_negative_sign_uses_upper_end(self):
        fit = LinearWorkingRegression(
            OLS, 0.0, np.array([-2.0]), np.empty(0),
            diagnostics={"coef_se": np.array([0.5])})
        z05 = 1.6448536269514722
        got = ols_oracle_lcb(fit, 0.05, sign_of_beta=-1, ev_cond_var=1.0)
        assert got == pytest.approx(2.0 - z05 * 0.5, abs=1e-9)

    def test_validation(self):
        fit = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.empty(0),
                                      diagnostics={"coef_se": np.array([0.5])})
        with pytest.raises(ValidationError):
            ols_oracle_lcb(fit, 0.05, sign_of_beta=0, ev_cond_var=1.0)
        with pytest.raises(ValidationError):
            ols_oracle_lcb(fit, 0.05, sign_of_beta=1, ev_cond_var=-1.0)


def _lasso_kkt_violation(data, fit, lam):
    """Max violation of the subgradient conditions of the standardized
    L1 problem at the returned solution (an independent optimality check)."""
    w = np.hstack([data.x, data.z])
    means = w.mean(axis=0)
    sds = w.std(axis=0)
    ws = (w - means) / sds
    yc = data.y - data.y.mean()
    beta_std = np.concatenate([fit.x_coef, fit.z_coef]) * sds
    grad = ws.T @ (ws @ beta_std - yc) / len(yc)
    worst = 0.0
    for j in range(len(beta_std)):
        if beta_std[j] > 0:
            worst = max(worst, abs(grad[j] + lam))
        elif beta_std[j] < 0:
            worst = max(worst, abs(grad[j] - lam))
        else:
            worst = max(worst, max(abs(grad[j]) - lam, 0.0))
    return worst


class TestFitLasso:
    def test_single_predictor_soft_threshold(self):
        # One standardized predictor: the solution at penalty lam is
        # sign(c) max(|c| - lam, 0) with c the standardized covariance.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        y = 2.0 * x
        data = Dataset(y, x[:, None], np.empty((400, 0)))
        lam = 0.3
        cv = CvConfig(folds=2, lambda_grid=(lam,))
        fit = fit_lasso(data, cv, seed=0)
        c = np.mean((x - x.mean()) / x.std() * (y - y.mean()))
        expected = (c - lam) / x.std()
        assert fit.x_coef[0] == pytest.approx(expected, abs=1e-6)

    def test_kkt_optimality(self):
        data = _linear_data(n=200, seed=5)
        fit = fit_lasso(data, CvConfig(folds=5), seed=1)
        assert _lasso_kkt_violation(data, fit, fit.diagnostics["lambda"]) < 1e-5

    def test_sparse_support_recovery(self):
        rng = np.random.default_rng(7)
        n, p = 300, 20
        w = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = [2.0, -1.5, 1.0]
        y = w @ beta + 0.3 * rng.standard_normal(n)
        data = Dataset(y, w[:, :1], w[:, 1:])
        fit = fit_lasso(data, CvConfig(folds=5), seed=2)
        coef = np.concatenate([fit.x_coef, fit.z_coef])
        assert np.allclose(coef[:3], beta[:3], atol=0.2)
        assert np.max(np.abs(coef[3:])) < 0.15

    def test_deterministic(self):
        data = _linear_data(n=150, seed=9)
        a = fit_lasso(data, CvConfig(folds=5), seed=3)
        b = fit_lasso(data, CvConfig(folds=5), seed=3)
        assert a == b

    def test_kind_tag(self):
        fit = fit_lasso(_linear_data(n=100), CvConfig(folds=4), seed=0)
        assert fit.kind == LASSO


def _scalar_path_point(gram, cvec, lam, beta, tolerance, max_iters):
    """One path point by scalar coordinate descent, the reference for
    the stacked engine: cyclic sweeps in place, a full sweep, then
    active-set sweeps until the largest change is below tolerance, then
    another full sweep. Returns True on convergence."""
    p = len(cvec)

    def sweep(indices):
        max_delta = 0.0
        for j in indices:
            old = beta[j]
            resid_corr = cvec[j] - gram[j] @ beta + gram[j, j] * old
            if resid_corr > lam:
                new = (resid_corr - lam) / gram[j, j]
            elif resid_corr < -lam:
                new = (resid_corr + lam) / gram[j, j]
            else:
                new = 0.0
            if new != old:
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        return max_delta

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


def _reference_penalized(data, cv, seed, ridge=False):
    """The CV path one fold at a time, by scalar coordinate descent (or
    ridge's solve): returns the chosen lambda index, the coefficients,
    the intercept, the CV errors and whether the full-data fit
    converged."""
    w = np.hstack([data.x, data.z])
    n, p_all = w.shape
    keep = np.where(w.std(axis=0) > 0)[0]
    wk = w[:, keep]
    ws = (wk - wk.mean(axis=0)) / wk.std(axis=0)
    sds = wk.std(axis=0)
    yc = data.y - data.y.mean()
    p = len(keep)

    def solve(gram, cvec, lam, warm):
        if ridge:
            return np.linalg.solve(gram + lam * np.eye(p), cvec), True
        beta = warm.copy()
        ok = _scalar_path_point(gram, cvec, lam, beta, regression._KKT_SLACK,
                                regression._STEP_CAP)
        return beta, ok

    gram_full = ws.T @ ws / n
    cvec_full = ws.T @ yc / n
    if cv.lambda_grid is not None:
        grid = np.asarray(cv.lambda_grid)
    else:
        lam_max = max(float(np.max(np.abs(cvec_full))), 1e-12)
        grid = np.geomspace(lam_max, cv.lambda_min_ratio * lam_max,
                            cv.num_lambdas)
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
            cv_err[gi] += float(np.sum((yc[va] - ws[va] @ beta) ** 2))
    best = int(np.argmin(cv_err))
    beta = np.zeros(p)
    for lam in grid[:best + 1]:
        beta, converged = solve(gram_full, cvec_full, lam, beta)
    coef = np.zeros(p_all)
    coef[keep] = beta / sds
    intercept = float(data.y.mean() - w[:, keep].mean(axis=0) @ coef[keep])
    return best, coef, intercept, cv_err / n, converged


def _a1_fit_part(replicate, rho=0.3, n=600, p=40):
    """The fit half of one replicate of the A1 coverage design."""
    spec = ExperimentSpec(
        n=n, p=p, mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=10,
                                     amplitude=5.0, seed=101),
        methods=(MethodSpec(MMSE_EXACT),), rho=rho, fitter=LASSO,
        split_proportion=0.5, replicates=1, base_seed=101)
    w, y = generate_replicate(spec, replicate)
    parts = split(Dataset(y, w, np.empty((n, 0))), 0.5,
                  derive_seed(101, replicate, 5))
    return parts.fit_part, derive_seed(101, replicate, 3)


def _random_design(seed, n, d_x, d_z, rho):
    """n rows of d_x + d_z AR(rho)-correlated covariates and a dense
    linear response."""
    rng = np.random.default_rng(seed)
    p = d_x + d_z
    w = rng.standard_normal((n, p))
    w[:, 1:] = rho * w[:, :-1] + math.sqrt(1 - rho ** 2) * w[:, 1:]
    y = w @ rng.normal(0.0, 1.0, p) + rng.standard_normal(n)
    return Dataset(y, w[:, :d_x], w[:, d_x:])


def _recorded_paths(monkeypatch):
    """Record the arguments and results of every `_active_set_paths`
    call: (loss, grid, l1, (path, converged, steps))."""
    calls = []
    engine = regression._active_set_paths

    def recorded(loss, grid, l1):
        out = engine(loss, grid, l1)
        calls.append((loss, grid, l1, out))
        return out

    monkeypatch.setattr(regression, "_active_set_paths", recorded)
    return calls


def _lasso_call(call):
    """The Gram stack, cvecs, grid and result of a recorded LASSO call."""
    loss, grid, l1, out = call
    assert l1 and loss.exact
    return loss.grams, loss.cvecs, grid, out


def _assert_path_kkt(grams, cvecs, grid, path):
    """KKT of (1/2) b'Gb - c'b + lam |b|_1 on every (slice, lambda) point:
    exact on the nonzero coefficients, within the engine's entry slack
    `_KKT_SLACK` G_jj on the zeros."""
    grad = np.einsum("fjk,fgk->fgj", grams, path) - cvecs[:, None, :]
    lam = grid[None, :, None]
    slack = regression._KKT_SLACK * np.einsum("fjj->fj", grams)[:, None, :]
    nonzero = path != 0
    assert np.all(np.abs(grad + lam * np.sign(path))[nonzero] <= 1e-12)
    assert np.all((np.abs(grad) - lam - slack)[~nonzero] <= 1e-12)


def _assert_fold_problems(data, cv, seed, grams, cvecs):
    """Each fold's Gram and correlation vector in the stack equal the
    products over its training rows; the last slice is the full data."""
    pipe = regression._CrossValidation(data, cv, seed)
    ws, yc = pipe.standardized(), data.y - data.y.mean()
    assert len(grams) == cv.folds + 1
    for f in range(cv.folds + 1):
        tr = pipe.folds != f
        n_tr = int(tr.sum())
        assert np.max(np.abs(grams[f] - ws[tr].T @ ws[tr] / n_tr)) <= 1e-12
        assert np.max(np.abs(cvecs[f] - ws[tr].T @ yc[tr] / n_tr)) <= 1e-12


class TestCrossValidationSetUp:
    def test_standardized_design_matches_column_formula(self):
        # The moments of each column view give the same bits as the
        # formula on the kept columns of the whole design, and a block of
        # rows is those rows of the standardized design.
        data = _linear_data(n=333, beta_z=(0.5, -1.0, 0.3), seed=4)
        z = data.z.copy()
        z[:, 1] = 4.0
        with pytest.warns(UserWarning, match="1 constant column"):
            pipe = regression._CrossValidation(Dataset(data.y, data.x, z),
                                               CvConfig(), 0)
        wk = np.hstack([data.x, z])[:, [0, 1, 3]]
        assert np.array_equal(pipe.keep, [0, 1, 3])
        ws = pipe.standardized()
        assert np.array_equal(ws, (wk - wk.mean(axis=0)) / wk.std(axis=0))
        assert ws.flags.f_contiguous
        rows = np.array([2, 5, 6, 300])
        assert np.array_equal(pipe.standardized(rows), ws[rows])
        design = pipe.standardized(rows, intercept=True)
        assert np.array_equal(design, np.hstack([np.ones((4, 1)), ws[rows]]))
        assert design.flags.f_contiguous

    def test_constant_column_whose_std_rounds_above_zero(self):
        # 1697 rows of 3.7: a row-by-row mean rounds, so the column's std
        # is 1.1e-13 there; it is still constant and dropped.
        data = _linear_data(n=1697, seed=6)
        z = data.z.copy()
        z[:, 0] = 3.7
        assert np.hstack([data.x, z]).std(axis=0)[1] > 0
        with pytest.warns(UserWarning, match="1 constant column"):
            fit = fit_lasso(Dataset(data.y, data.x, z), CvConfig(folds=5), 0)
        assert fit.z_coef[0] == 0.0
        assert np.all(np.isfinite(fit.z_coef)) and np.isfinite(fit.intercept)

    def test_varying_column_whose_std_underflows(self):
        # Values of order 1e-170 differ, but their squared deviations
        # underflow, so the std is 0: the column is dropped, not divided
        # by 0.
        data = _linear_data(n=200, seed=7)
        z = data.z.copy()
        z[:, 1] = 1e-170 * np.random.default_rng(7).standard_normal(200)
        assert np.hstack([data.x, z]).std(axis=0)[2] == 0.0
        with pytest.warns(UserWarning, match="1 constant column"):
            fit = fit_lasso(Dataset(data.y, data.x, z), CvConfig(folds=5), 0)
        assert fit.z_coef[1] == 0.0
        assert np.all(np.isfinite(fit.z_coef)) and np.isfinite(fit.intercept)


    @pytest.mark.parametrize("fit", [fit_lasso, fit_ridge, fit_logistic])
    def test_all_constant_design_is_singular(self, fit):
        # No column survives the set-up: a named error rather than a
        # reduction over an empty array.
        y = np.where(np.arange(50) % 2 == 0, 1.0, -1.0)
        data = Dataset(y, np.full((50, 1), 2.0), np.ones((50, 1)))
        with pytest.raises(SingularDesignError, match="constant"):
            fit(data, cv=CvConfig(folds=5))


class TestStackedLassoPath:
    """The fold-stacked active-set engine against the per-fold scalar
    coordinate-descent path, both run to the exact minimizer."""

    def _assert_matches(self, monkeypatch, data, cv, seed):
        monkeypatch.setattr(regression, "_KKT_SLACK", 1e-13)
        fit = fit_lasso(data, cv, seed)
        best, coef, intercept, cv_err, converged = _reference_penalized(
            data, cv, seed)
        grid = fit.diagnostics["lambda_grid"]
        assert converged and fit.diagnostics["converged"]
        assert fit.diagnostics["lambda"] == grid[best]
        assert np.max(np.abs(np.concatenate([fit.x_coef, fit.z_coef])
                             - coef)) <= 1e-9
        assert abs(fit.intercept - intercept) <= 1e-9
        assert np.allclose(fit.diagnostics["cv_errors"], cv_err,
                           rtol=1e-9, atol=0.0)
        return fit

    def test_a1_design_replicate(self, monkeypatch):
        calls = _recorded_paths(monkeypatch)
        data, seed = _a1_fit_part(0)
        fit = self._assert_matches(monkeypatch, data, CvConfig(), seed)
        d = fit.diagnostics
        assert d["cv_unconverged"] == 0
        # About one step per (slice, lambda) problem: the exact solve.
        assert 0 < d["newton_steps"] < 2 * 11 * len(d["lambda_grid"])
        grams, cvecs, grid, (path, converged, _) = _lasso_call(calls[0])
        _assert_fold_problems(data, CvConfig(), seed, grams, cvecs)
        assert converged.all()
        _assert_path_kkt(grams, cvecs, grid, path)

    def test_correlated_design_drops_at_sign_crossings(self, monkeypatch):
        # At AR rho = 0.9, coefficients enter and later leave the path;
        # only a step stopped at a sign crossing sets one back to 0.0.
        calls = _recorded_paths(monkeypatch)
        data, seed = _a1_fit_part(1, rho=0.9, n=400, p=20)
        self._assert_matches(monkeypatch, data, CvConfig(), seed)
        grams, cvecs, grid, (path, converged, _) = _lasso_call(calls[0])
        assert converged.all()
        left = (path[:, :-1] != 0) & (path[:, 1:] == 0)
        assert np.count_nonzero(left) > 0
        _assert_path_kkt(grams, cvecs, grid, path)

    def test_user_lambda_grid(self, monkeypatch):
        data, seed = _a1_fit_part(2, n=300, p=15)
        self._assert_matches(
            monkeypatch, data,
            CvConfig(folds=5, lambda_grid=(0.5, 0.2, 0.05, 0.01)), seed)

    def test_constant_column(self, monkeypatch):
        data = _linear_data(n=200, beta_z=(0.5, -1.0, 0.3), seed=21)
        z = data.z.copy()
        z[:, 1] = 4.0
        data = Dataset(data.y, data.x, z)
        with pytest.warns(UserWarning, match="constant column"):
            fit = self._assert_matches(monkeypatch, data, CvConfig(folds=5), 4)
        assert fit.z_coef[1] == 0.0

    def test_step_cap_warns_and_counts(self, monkeypatch):
        # On a correlated design coefficients cross zero, so one step per
        # problem cannot reach every level's solution, the chosen one
        # included.
        data, seed = _a1_fit_part(1, rho=0.9, n=400, p=20)
        cv = CvConfig(folds=5, num_lambdas=12)
        monkeypatch.setattr(regression, "_STEP_CAP", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_lasso(data, cv, seed)
        d = fit.diagnostics
        assert not d["converged"]
        assert [str(w.message) for w in caught
                if "did not converge" in str(w.message)] == [
            f"LASSO active-set solver did not converge at lambda = "
            f"{d['lambda']:g} within 1 steps"]
        assert 0 < d["cv_unconverged"] <= 5 * 12
        assert 0 < d["newton_steps"] <= 1 * 6 * 12

    @given(n=st.integers(2, 40), d_x=st.integers(1, 3), d_z=st.integers(0, 4),
           folds=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
           rho=st.floats(0.0, 0.8), duplicate=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_kkt_on_random_designs(self, n, d_x, d_z, folds, seed, rho,
                                   duplicate):
        folds = min(folds, n)          # includes n == folds
        data = _random_design(seed, n, d_x, d_z, rho)
        if duplicate:
            data = Dataset(data.y, data.x, np.hstack([data.z, data.x]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_lasso(data, CvConfig(folds=folds, num_lambdas=20),
                            seed % 1000)
        assert fit.diagnostics["converged"]
        assert _lasso_kkt_violation(data, fit, fit.diagnostics["lambda"]) < 1e-5

    def test_column_zero_on_a_training_fold(self, monkeypatch):
        # Fold 0 trains on the rows of fold 1, where this column is 0:
        # a zero Gram diagonal entry, whose coefficient must stay 0.
        n, seed = 40, 0
        data = _random_design(seed, n, 1, 7, 0.9)
        in_fold_0 = fold_assignments(n, 2, seed) == 0
        z = data.z.copy()
        z[:, 1] = 0.0
        z[in_fold_0, 1] = np.arange(in_fold_0.sum()) - (in_fold_0.sum() - 1) / 2
        fit = self._assert_matches(monkeypatch, Dataset(data.y, data.x, z),
                                   CvConfig(folds=2), seed)
        assert fit.diagnostics["cv_unconverged"] == 0

    def test_fold_gram_diagonal_above_two(self, monkeypatch):
        # Two folds of five rows leave two training rows in fold 0,
        # whose Gram diagonal reaches 2.42.
        data = _random_design(992441236, 5, 1, 4, 0.2955)
        fit = self._assert_matches(monkeypatch, data, CvConfig(folds=2), 236)
        assert fit.diagnostics["cv_unconverged"] == 0
        assert _lasso_kkt_violation(data, fit, fit.diagnostics["lambda"]) < 1e-6

    @pytest.mark.parametrize("seed, n, d_z, folds, null_step", [
        (5, 12, 8, 2, False), (13, 3, 5, 3, True)])
    def test_short_fold_with_duplicate_column(self, monkeypatch, seed, n, d_z,
                                              folds, null_step):
        # Folds train on fewer rows than the 1 + d_z + 1 columns, the last
        # a copy of the first, so every fold Gram is singular. Both copies
        # enter one block, which the batched solve cannot factor (lstsq
        # solves it); in the second case a block's system has no
        # solution, and the step follows its null vector.
        calls = _recorded_paths(monkeypatch)
        used = []
        for name in ("lstsq", "eigh"):
            monkeypatch.setattr(np.linalg, name, functools.partial(
                lambda f, n, *a, **kw: used.append(n) or f(*a, **kw),
                getattr(np.linalg, name), name))
        data = _random_design(seed, n, 1, d_z, 0.5)
        dup = Dataset(data.y, data.x, np.hstack([data.z, data.x]))
        fit = fit_lasso(dup, CvConfig(folds=folds, num_lambdas=20), 3)
        assert "lstsq" in used and ("eigh" in used) == null_step
        d = fit.diagnostics
        assert d["converged"] and d["cv_unconverged"] == 0
        assert _lasso_kkt_violation(dup, fit, d["lambda"]) < 1e-9
        grams, cvecs, grid, (path, _, _) = _lasso_call(calls[0])
        assert np.linalg.matrix_rank(grams[0]) < grams.shape[1]
        _assert_path_kkt(grams, cvecs, grid, path)


    def test_only_singular_blocks_go_to_lstsq(self, monkeypatch):
        # One exactly singular slice in a batch of three: the other two
        # keep np.linalg.solve's solutions, and lstsq sees only the one.
        rng = np.random.default_rng(8)
        root = rng.standard_normal((3, 4, 4))
        hess = root @ root.transpose(0, 2, 1) + 4.0 * np.eye(4)
        hess[1, :, 3] = hess[1, :, 2]
        hess[1, 3, :] = hess[1, 2, :]
        rhs = rng.standard_normal((3, 4))
        rhs[1, 3] = rhs[1, 2]
        block = np.ones((3, 4), dtype=bool)
        block[2, 0] = False
        seen = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, *rest, **kw: seen.append(a.copy())
                            or lstsq(a, *rest, **kw))
        system, r, d, _ = regression._solve_blocks(hess, rhs, block)
        assert len(seen) == 1 and np.array_equal(seen[0], hess[1])
        for i in (0, 2):
            assert np.array_equal(d[i], np.linalg.solve(system[i], r[i]))
        assert np.allclose(system[1] @ d[1], r[1])

    @pytest.mark.parametrize("seed, n, d_x, d_z, rho, folds", [
        (1070972612, 5, 3, 9, 0.6129742838485683, 5),
        (1333525774, 9, 3, 27, 0.1850809928571441, 6)])
    def test_fewer_rows_than_columns(self, monkeypatch, seed, n, d_x, d_z,
                                     rho, folds):
        # Once an active set reaches the rank of its Gram, the next
        # column makes G_AA singular, exactly or to rounding.
        calls = _recorded_paths(monkeypatch)
        data = _random_design(seed, n, d_x, d_z, rho)
        fit = fit_lasso(data, CvConfig(folds=folds, num_lambdas=30), seed % 1000)
        assert fit.diagnostics["converged"]
        assert _lasso_kkt_violation(data, fit, fit.diagnostics["lambda"]) < 1e-9
        grams, cvecs, grid, (path, converged, _) = _lasso_call(calls[0])
        assert converged.all()
        _assert_path_kkt(grams, cvecs, grid, path)


class TestFitRidge:
    def test_matches_per_fold_solve(self):
        for data, seed in (_a1_fit_part(4, n=300, p=15),
                           (_linear_data(n=120, seed=8), 2)):
            cv = CvConfig(folds=5, num_lambdas=20)
            fit = fit_ridge(data, cv, seed)
            best, coef, intercept, cv_err, _ = _reference_penalized(
                data, cv, seed, ridge=True)
            assert fit.diagnostics["lambda"] == fit.diagnostics["lambda_grid"][best]
            assert np.max(np.abs(np.concatenate([fit.x_coef, fit.z_coef])
                                 - coef)) <= 1e-12
            assert abs(fit.intercept - intercept) <= 1e-12
            assert np.allclose(fit.diagnostics["cv_errors"], cv_err,
                               rtol=1e-12, atol=0.0)
            assert fit.diagnostics["newton_steps"] == 0

    def test_single_lambda_closed_form(self):
        data = _linear_data(n=250, seed=11)
        lam = 0.7
        fit = fit_ridge(data, CvConfig(folds=2, lambda_grid=(lam,)), seed=0)
        w = np.hstack([data.x, data.z])
        ws = (w - w.mean(axis=0)) / w.std(axis=0)
        yc = data.y - data.y.mean()
        n = len(yc)
        beta_std = np.linalg.solve(ws.T @ ws / n + lam * np.eye(3),
                                   ws.T @ yc / n)
        expected = beta_std / w.std(axis=0)
        assert np.allclose(np.concatenate([fit.x_coef, fit.z_coef]),
                           expected, atol=1e-10)

    def test_orthonormal_shrinkage_factor(self):
        # For standardized orthogonal columns ridge shrinks the OLS
        # solution by exactly 1 / (1 + lambda).
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((500, 2))
        raw -= raw.mean(axis=0)           # columns orthogonal to the 1-vector
        q = np.linalg.qr(raw)[0] * math.sqrt(500)
        y = 3.0 * q[:, 0] - 1.0 * q[:, 1]
        data = Dataset(y, q[:, :1], q[:, 1:])
        lam = 0.5
        fit = fit_ridge(data, CvConfig(folds=2, lambda_grid=(lam,)), seed=0)
        ols = fit_ols(data)
        shrink = np.concatenate([fit.x_coef, fit.z_coef]) / np.concatenate(
            [ols.x_coef, ols.z_coef])
        assert np.allclose(shrink, 1.0 / (1.0 + lam), atol=1e-6)

    def test_cv_picks_small_penalty_for_clean_signal(self):
        data = _linear_data(n=400, noise=0.05, seed=13)
        fit = fit_ridge(data, CvConfig(folds=5), seed=0)
        grid = fit.diagnostics["lambda_grid"]
        assert fit.diagnostics["lambda"] < grid[0] / 10


class TestFitLogistic:
    def _logit_data(self, n=600, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, 2))
        f = 1.2 * x[:, 0] - 0.8 * z[:, 0]
        prob = 1.0 / (1.0 + np.exp(-f))
        y = np.where(rng.random(n) < prob, 1.0, -1.0)
        return Dataset(y, x, z)

    def test_label_validation(self):
        data = _linear_data(n=50)
        with pytest.raises(DegenerateLabelsError):
            fit_logistic(data, "L1", CvConfig(folds=2))
        ones = Dataset(np.ones(50), data.x, data.z)
        with pytest.raises(DegenerateLabelsError):
            fit_logistic(ones, "L1", CvConfig(folds=2))
        with pytest.raises(ValidationError):
            fit_logistic(self._logit_data(), "elastic", CvConfig(folds=2))

    def test_coefficient_recovery(self):
        data = self._logit_data(n=4000, seed=3)
        fit = fit_logistic(data, "L2",
                           CvConfig(folds=4, num_lambdas=10,
                                    lambda_min_ratio=1e-4), seed=0)
        assert fit.kind == LOGIT_L2
        assert fit.x_coef[0] == pytest.approx(1.2, abs=0.2)
        assert fit.z_coef[0] == pytest.approx(-0.8, abs=0.2)
        assert abs(fit.z_coef[1]) < 0.1

    def test_l1_kkt_optimality(self):
        data = self._logit_data(n=500, seed=4)
        fit = fit_logistic(data, "L1", CvConfig(folds=4, num_lambdas=15),
                           seed=0)
        lam = fit.diagnostics["lambda"]
        w = np.hstack([data.x, data.z])
        means, sds = w.mean(axis=0), w.std(axis=0)
        ws = (w - means) / sds
        design = np.hstack([np.ones((len(ws), 1)), ws])
        coef_std = np.concatenate([fit.x_coef, fit.z_coef]) * sds
        icept_std = fit.intercept + means @ np.concatenate(
            [fit.x_coef, fit.z_coef])
        coef = np.concatenate([[icept_std], coef_std])
        yf = data.y * (design @ coef)
        sig = 1.0 / (1.0 + np.exp(yf))
        grad = -(design.T @ (data.y * sig)) / len(data.y)
        assert abs(grad[0]) < 1e-4
        for j in range(1, len(coef)):
            if coef[j] != 0:
                assert abs(grad[j] + np.sign(coef[j]) * lam) < 1e-4
            else:
                assert abs(grad[j]) <= lam + 1e-4

    def test_diagnostics_report_convergence_and_active(self, monkeypatch):
        data = self._logit_data(n=300, seed=7)
        fit = fit_logistic(data, "L1", CvConfig(folds=3, num_lambdas=8),
                           seed=0)
        assert fit.diagnostics["converged"] is True
        assert fit.diagnostics["active"] == np.count_nonzero(
            np.concatenate([fit.x_coef, fit.z_coef]))
        monkeypatch.setattr(regression, "_STEP_CAP", 2)
        with pytest.warns(UserWarning, match="did not converge"):
            capped = fit_logistic(data, "L2",
                                  CvConfig(folds=3, num_lambdas=8), seed=0)
        assert capped.diagnostics["converged"] is False
        assert capped.diagnostics["active"] == 3

    def test_predictions_on_mean_scale(self):
        fit = fit_logistic(self._logit_data(n=300, seed=5), "L1",
                           CvConfig(folds=3, num_lambdas=8), seed=0)
        data = self._logit_data(n=100, seed=6)
        preds = fit.predict(data.x, data.z)
        assert np.all(preds > -1.0) and np.all(preds < 1.0)
        assert fit.linear_focal_coef is None
        assert fit.kind == LOGIT_L1


def _logistic_design(seed, n, p, rho, scale=1.0):
    """n rows of p AR(rho)-correlated covariates and {-1, +1} labels from
    a logistic model with a few nonzero coefficients."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, p))
    for j in range(1, p):
        w[:, j] = rho * w[:, j - 1] + math.sqrt(1 - rho ** 2) * w[:, j]
    beta = np.zeros(p)
    beta[:min(p, 4)] = scale * np.array([1.5, -1.0, 0.8, -0.5])[:min(p, 4)]
    prob = 1.0 / (1.0 + np.exp(-(0.3 + w @ beta)))
    y = np.where(rng.random(n) < prob, 1.0, -1.0)
    return Dataset(y, w[:, :1], w[:, 1:])


def _a6_fit_part(replicate):
    """The fit half of one replicate of the A6 design: 250 rows, p = 40."""
    spec = ExperimentSpec(
        n=500, p=40, mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=10,
                                        amplitude=15.0, seed=606),
        methods=(MethodSpec(MACM, k_copies=100),), rho=0.3,
        fitter=LOGIT_L1, cv=CvConfig(folds=5, num_lambdas=20),
        replicates=1, base_seed=4242)
    w, y = generate_replicate(spec, replicate)
    parts = split(Dataset(y, w, np.empty((500, 0))), spec.split_proportion,
                  derive_seed(4242, replicate, 5))
    return parts.fit_part, derive_seed(4242, replicate, 3)


def _standardized_logistic(data, fit):
    """The design [1, standardized columns] and the fit's coefficients on
    that scale (intercept first)."""
    w = np.hstack([data.x, data.z])
    means, sds = w.mean(axis=0), w.std(axis=0)
    design = np.hstack([np.ones((len(w), 1)), (w - means) / sds])
    coef = np.concatenate([fit.x_coef, fit.z_coef])
    return design, np.concatenate([[fit.intercept + means @ coef], coef * sds])


def _logistic_kkt(data, fit, penalty):
    """The largest violation of the optimality conditions of the mean
    logistic loss plus lam |b|_1 (L1) or lam ||b||^2 (L2) on the
    standardized scale, and the gradient and coefficients there."""
    lam = fit.diagnostics["lambda"]
    design, coef = _standardized_logistic(data, fit)
    sig = 1.0 / (1.0 + np.exp(data.y * (design @ coef)))
    grad = -(design.T @ (data.y * sig)) / len(data.y)
    if penalty == "L2":
        stationary = grad[1:] + 2.0 * lam * coef[1:]
    else:
        stationary = np.where(coef[1:] != 0,
                              grad[1:] + lam * np.sign(coef[1:]),
                              np.maximum(np.abs(grad[1:]) - lam, 0.0))
    return max(abs(grad[0]), float(np.max(np.abs(stationary)))), grad, coef


def _logistic_stack(data, cv, seed):
    """fit_logistic's problem stack: the design [1, standardized
    columns], the (folds + 1, n) training rows (the last all rows) and
    the penalty grid."""
    pipe = regression._CrossValidation(data, cv, seed)
    n = len(data.y)
    design = pipe.standardized(intercept=True)
    rows = pipe.folds != np.arange(cv.folds + 1)[:, None]
    return design, rows, pipe.grid(
        float(np.max(np.abs(design[:, 1:].T @ data.y))) / (2 * n))


def _assert_logistic_path_kkt(data, cv, seed, penalty):
    """Runs the active-set engine directly on fit_logistic's stack and
    checks the optimality conditions at every (slice, lambda) point
    within 1e-6: a zero intercept gradient; under L1 a gradient of
    -lam sign(b_j) on the nonzero coefficients and at most lam in size on
    the zeros; under L2 a gradient of -2 lam b_j."""
    design, rows, grid = _logistic_stack(data, cv, seed)
    path, converged, _ = regression._active_set_paths(
        regression._Logistic(design, data.y, rows), grid, penalty == "L1")
    assert converged.all()
    lam = grid[:, None]
    for f, tr in enumerate(rows):
        x, y, coef = design[tr], data.y[tr], path[f]
        sig = 0.5 - 0.5 * np.tanh(y * (coef @ x.T) / 2.0)   # expit(-y f)
        grad = -(sig * y) @ x / len(y)
        b, g = coef[:, 1:], grad[:, 1:]
        assert np.all(np.abs(grad[:, 0]) <= 1e-6)
        if penalty == "L1":
            assert np.all(np.where(b != 0, np.abs(g + lam * np.sign(b)),
                                   np.abs(g) - lam) <= 1e-6)
        else:
            assert np.all(np.abs(g + 2.0 * lam * b) <= 1e-6)


def _proximal_gradient_logistic(data, penalty, cv, seed):
    """The backtracking proximal-gradient fitter that active-set Newton
    replaced, kept as a reference. Returns the chosen lambda index and
    the standardized-scale coefficients (intercept first)."""
    w = np.hstack([data.x, data.z])
    y = data.y
    n = len(y)
    design = np.hstack([np.ones((n, 1)),
                        (w - w.mean(axis=0)) / w.std(axis=0)])
    l1 = penalty == "L1"
    lam_max = max(float(np.max(np.abs(design[:, 1:].T @ y))) / (2 * n), 1e-12)
    grid = np.geomspace(lam_max, cv.lambda_min_ratio * lam_max,
                        cv.num_lambdas)

    def loss_grad(x, yy, coef, l2):
        yf = yy * (x @ coef)
        loss = float(np.mean(np.logaddexp(0.0, -yf)))
        sig = 1.0 / (1.0 + np.exp(np.clip(yf, -500, 500)))
        grad = -(x.T @ (yy * sig)) / len(yy)
        if l2 > 0:
            loss += l2 * float(coef[1:] @ coef[1:])
            grad[1:] += 2.0 * l2 * coef[1:]
        return loss, grad

    def fit_at(x, yy, lam, coef):
        l2 = 0.0 if l1 else lam
        step = 4.0
        loss, grad = loss_grad(x, yy, coef, l2)
        for _ in range(regression._STEP_CAP):
            while True:
                trial = coef - step * grad
                if l1:
                    shrunk = np.sign(trial) * np.maximum(np.abs(trial)
                                                         - step * lam, 0.0)
                    trial = np.concatenate([trial[:1], shrunk[1:]])
                new_loss, new_grad = loss_grad(x, yy, trial, l2)
                diff = trial - coef
                if new_loss <= (loss + grad @ diff
                                + (diff @ diff) / (2 * step) + 1e-15):
                    break
                step *= 0.5
                if step < 1e-12:
                    return coef
            if float(np.max(np.abs(trial - coef))) < regression._KKT_SLACK:
                return trial
            coef, loss, grad = trial, new_loss, new_grad
            step *= 1.3
        return coef

    folds = fold_assignments(n, cv.folds, seed)
    cv_dev = np.zeros(len(grid))
    for f in range(cv.folds):
        tr, va = folds != f, folds == f
        coef = np.zeros(design.shape[1])
        for gi, lam in enumerate(grid):
            coef = fit_at(design[tr], y[tr], lam, coef)
            yf = y[va] * (design[va] @ coef)
            cv_dev[gi] += 2.0 * float(np.sum(np.logaddexp(0.0, -yf)))
    best = int(np.argmin(cv_dev))
    coef = np.zeros(design.shape[1])
    for lam in grid[:best + 1]:
        coef = fit_at(design, y, lam, coef)
    return best, coef


class TestNewtonLogistic:
    """Active-set Newton against the optimality conditions and against
    the proximal-gradient fitter it replaced."""

    @pytest.mark.parametrize("case", [
        ("a6", "L1", 5, 20),
        ("correlated", "L1", 4, 15),
        ("wide", "L1", 3, 12),
        ("correlated", "L2", 4, 15)])
    def test_matches_proximal_gradient(self, case):
        name, penalty, folds, lambdas = case
        data, seed = {
            "a6": lambda: _a6_fit_part(0),
            "correlated": lambda: (_logistic_design(3, 400, 8, 0.6), 11),
            "wide": lambda: (_logistic_design(8, 90, 30, 0.3, 2.0), 5),
        }[name]()
        cv = CvConfig(folds=folds, num_lambdas=lambdas)
        fit = fit_logistic(data, penalty, cv, seed)
        best, old = _proximal_gradient_logistic(data, penalty, cv, seed)
        grid = fit.diagnostics["lambda_grid"]
        assert fit.diagnostics["lambda"] == grid[best]
        _, coef = _standardized_logistic(data, fit)
        assert np.array_equal(coef[1:] == 0.0, old[1:] == 0.0)
        assert np.max(np.abs(coef - old)) <= 1e-6

    @pytest.mark.parametrize("penalty", ["L1", "L2"])
    def test_kkt_and_exact_zeros(self, penalty):
        for data, seed, cv in (
                (*_a6_fit_part(1), CvConfig(folds=5, num_lambdas=20)),
                (_logistic_design(5, 300, 12, 0.5), 2,
                 CvConfig(folds=4, num_lambdas=15)),
                (_logistic_design(6, 60, 20, 0.2, 3.0), 9,
                 CvConfig(folds=3, num_lambdas=10))):
            fit = fit_logistic(data, penalty, cv, seed)
            assert fit.diagnostics["converged"]
            worst, grad, coef = _logistic_kkt(data, fit, penalty)
            assert worst <= 1e-6
            if penalty == "L1":
                inactive = np.abs(grad[1:]) < fit.diagnostics["lambda"] - 1e-6
                assert inactive.any()
                assert np.all(coef[1:][inactive] == 0.0)

    @given(n=st.integers(12, 80), p=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1), rho=st.floats(0.0, 0.8),
           scale=st.floats(0.2, 4.0), penalty=st.sampled_from(["L1", "L2"]),
           duplicate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_kkt_on_random_designs(self, n, p, seed, rho, scale, penalty,
                                   duplicate):
        data = _logistic_design(seed, n, p, rho, scale)
        if duplicate:
            data = Dataset(data.y, data.x, np.hstack([data.z, data.x]))
        folds = fold_assignments(n, 3, seed % 1000)
        assume(all(len(np.unique(data.y[folds != f])) == 2 for f in range(3)))
        cv = CvConfig(folds=3, num_lambdas=10)
        fit = fit_logistic(data, penalty, cv, seed % 1000)
        assert fit.diagnostics["converged"]
        assert _logistic_kkt(data, fit, penalty)[0] <= 1e-6
        _assert_logistic_path_kkt(data, cv, seed % 1000, penalty)

    @pytest.mark.parametrize("penalty", ["L1", "L2"])
    def test_engine_kkt_on_every_fold_and_level(self, monkeypatch, penalty):
        # The engine on a logistic fold stack, every slice and level. With
        # a copy of x, both copies enter one L1 block, which is singular:
        # the batched solve cannot factor it and lstsq solves it.
        data = _logistic_design(3, 300, 6, 0.4)
        cv = CvConfig(folds=3, num_lambdas=10)
        _assert_logistic_path_kkt(data, cv, 0, penalty)
        used = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **kw: used.append(1) or lstsq(*a, **kw))
        _assert_logistic_path_kkt(
            Dataset(data.y, data.x, np.hstack([data.z, data.x])), cv, 0,
            penalty)
        assert bool(used) == (penalty == "L1")

    def test_duplicate_column(self):
        # Both copies violate KKT at once, so the L1 Newton block is
        # exactly singular.
        data = _logistic_design(3, 300, 6, 0.4)
        dup = Dataset(data.y, data.x, np.hstack([data.z, data.x]))
        for penalty in ("L1", "L2"):
            fit = fit_logistic(dup, penalty, CvConfig(folds=3, num_lambdas=10),
                               0)
            assert fit.diagnostics["converged"]
            assert _logistic_kkt(dup, fit, penalty)[0] <= 1e-6

    def test_diagnostics_count_steps_and_unconverged_problems(self,
                                                              monkeypatch):
        data = _logistic_design(4, 300, 6, 0.4)
        cv = CvConfig(folds=3, num_lambdas=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logistic(data, "L1", cv, 0)
        d = fit.diagnostics
        assert d["converged"] and d["cv_unconverged"] == 0
        # At least one step per (slice, level): three folds and the full
        # data, each along the whole grid.
        assert 4 * 8 <= d["newton_steps"] <= 50 * 4 * 8

        monkeypatch.setattr(regression, "_STEP_CAP", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_logistic(data, "L1", cv, 0)
        d = fit.diagnostics
        assert not d["converged"]
        assert [str(w.message) for w in caught
                if "did not converge" in str(w.message)] == [
            f"LOGIT_L1 active-set solver did not converge at lambda = "
            f"{d['lambda']:g} within 1 steps"]
        assert 0 < d["cv_unconverged"] <= 3 * 8
        assert d["newton_steps"] == 4 * 8


class TestCvConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CvConfig(folds=1)
        with pytest.raises(ValidationError):
            CvConfig(lambda_grid=(0.1, 0.5))
        with pytest.raises(ValidationError):
            CvConfig(lambda_grid=(0.5, -0.1))
