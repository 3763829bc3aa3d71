"""End-to-end statistical acceptance suite.

Each test prints a single PASS/FAIL line (visible even under pytest's
capture) summarizing the quantitative gate it enforces. These tests are
Monte Carlo studies and take a few minutes each at the larger replicate
counts; thresholds include the sampling slack noted inline.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from floodgate import (Ar1Model, Dataset, DiscreteMarkovChain,
                       ExperimentSpec, FloodgateConfig, GaussianLinearModel,
                       LinearWorkingRegression, cosufficient_lcb,
                       floodgate_lcb, floodgate_lcb_weighted, run_experiment,
                       split, trivial_ucb)
from floodgate.cli import EXIT_OK, main
from floodgate.core import philox_rng
from floodgate.cosufficient import _ChainBatch, _GaussianBatch
from floodgate.regression import OLS, CustomRegression
from floodgate.simulate import (FIT_MU_STAR_CORRUPTED,
                                _fit_working_regression, _focal_view,
                                build_mu_star, derive_seed, focal_model,
                                generate_replicate, macm_oracle_values,
                                mmse_oracle_linear)

COVERAGE_FLOOR = 0.923          # 0.95 - 2 sqrt(0.05 * 0.95 / 256)
STUDIES = Path(__file__).resolve().parents[1] / "studies"


def _announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'} {detail}")


def _study(name):
    """The design of studies/<name>.json."""
    return ExperimentSpec.from_json(
        (STUDIES / f"{name}.json").read_text(encoding="utf-8"))


class TestA1MmseCoverage:
    def test_per_variable_coverage_all_moment_modes(self, capsys):
        # n=600, p=40, sparsity 10, signal amplitude 5/sqrt(n), AR(1)
        # rho=0.3 covariates, cross-validated LASSO on a 50/50 split, and
        # exact, K = 2 and K = 500 moments.
        spec = _study("a1_linear_coverage")
        t0 = time.monotonic()
        result = run_experiment(spec)
        elapsed = time.monotonic() - t0
        worst = {}
        for row in result.summary():
            method = row["method"]
            if method not in worst or row["coverage"] < worst[method][1]:
                worst[method] = (row["variable"], row["coverage"])
        min_cov = min(v[1] for v in worst.values())
        ok = min_cov >= COVERAGE_FLOOR and elapsed < 600.0
        _announce(capsys, "A1", ok,
                  "min per-variable coverage %.4f >= %.3f over %s "
                  "(256 replicates, %.0fs < 600s)"
                  % (min_cov, COVERAGE_FLOOR,
                     {m: "var %d: %.3f" % w for m, w in worst.items()},
                     elapsed))
        assert min_cov >= COVERAGE_FLOOR
        assert elapsed < 600.0


def _enumerate_f_and_bound(pmf, mu_table):
    """f(mu) and the importance value for a 2x2x2 pmf over
    (y in {-1,+1}, x in {0,1}, z in {0,1}); mu_table is mu at (x, z)."""
    p_xz = pmf.sum(axis=0)
    p_z = p_xz.sum(axis=0)
    mu_star = (pmf[1] - pmf[0]) / p_xz

    def f_of(table):
        cond_mean = (p_xz * table).sum(axis=0) / p_z
        centered = table - cond_mean[None, :]
        cond_var = (p_xz * centered ** 2).sum(axis=0) / p_z
        denom = float(p_z @ cond_var)
        num = float((pmf[1] - pmf[0]).ravel() @ centered.ravel())
        return num / math.sqrt(denom) if denom > 0 else 0.0

    bound = f_of(mu_star) if (mu_star.max() - mu_star.min()) else 0.0
    # The bound equals sqrt(E Var(mu*|Z)) by construction; recompute it
    # directly so equality at mu = mu* is a real check, not a tautology.
    cond_mean = (p_xz * mu_star).sum(axis=0) / p_z
    cond_var = (p_xz * (mu_star - cond_mean[None, :]) ** 2).sum(axis=0) / p_z
    importance = math.sqrt(float(p_z @ cond_var))
    return f_of(mu_table), f_of(mu_star), importance


class TestA2EnumeratedUpperBound:
    def test_f_never_exceeds_importance(self, capsys):
        rng = np.random.default_rng(22)
        worst_violation = -np.inf
        worst_equality = 0.0
        for _ in range(1000):
            pmf = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            mu_table = rng.normal(0.0, 1.0, (2, 2))
            f_mu, f_star, importance = _enumerate_f_and_bound(pmf, mu_table)
            worst_violation = max(worst_violation, f_mu - importance)
            worst_equality = max(worst_equality, abs(f_star - importance))
        ok = worst_violation <= 1e-12 and worst_equality <= 1e-12
        _announce(capsys, "A2", ok,
                  "1000 enumerated tables: max f(mu) - importance = %.2e "
                  "<= 1e-12, optimal-mu equality error %.2e <= 1e-12"
                  % (worst_violation, worst_equality))
        assert worst_violation <= 1e-12
        assert worst_equality <= 1e-12


class TestA3Invariance:
    def test_lcb_invariant_to_scaling_and_z_shifts(self, capsys):
        model = Ar1Model(dim=8, rho=0.4, focal_index=1)
        rng = np.random.default_rng(33)
        base = LinearWorkingRegression(OLS, 0.3, np.array([0.9]),
                                       rng.normal(0.0, 0.5, 7))
        x, z = model.sample_joint(300, seed=3)
        y = base.predict(x, z) + rng.standard_normal(300)
        data = Dataset(y, x, z)
        worst = 0.0
        for big_k in (0, 2):
            cfg = FloodgateConfig(0.05, big_k=big_k, center_y=False, seed=9)
            ref = floodgate_lcb(data, base, model, cfg).lcb
            for _ in range(100):
                c = math.exp(rng.uniform(-2.0, 2.0))
                b0 = rng.normal(0.0, 2.0)
                b = rng.normal(0.0, 1.0, 7)
                probe = CustomRegression(
                    lambda xx, zz, c=c, b0=b0, b=b:
                        c * base.predict(xx, zz) + b0 + zz @ b,
                    linear_focal_coef=c * base.x_coef)
                lcb = floodgate_lcb(data, probe, model, cfg).lcb
                worst = max(worst, abs(lcb - ref))
        ok = worst <= 1e-10
        _announce(capsys, "A3", ok,
                  "LCB(c*mu + g(Z)) vs LCB(mu): max |diff| = %.2e <= 1e-10 "
                  "(100 probes x exact/MC)" % worst)
        assert worst <= 1e-10


class TestA4HalfWidthRate:
    def test_root_n_scaling_and_corruption_penalty(self, capsys):
        # The true mu (MU_STAR) at n = 500; a support variable is focal.
        spec = _study("a4_halfwidth")
        focal, = spec.variables
        scaled_medians = {}
        sign_pvalues = {}
        for n in (500, 2000, 8000):
            tau = 2.0 * spec.mu_star.amplitude / math.sqrt(n)
            clean = run_experiment(dataclasses.replace(spec, n=n))
            corrupt = run_experiment(dataclasses.replace(
                spec, n=n, fitter=FIT_MU_STAR_CORRUPTED, corruption_tau=tau))
            oracle = float(clean.oracle[focal - 1])
            hw_clean = np.array([oracle - d["lcb"] for d in clean.detail])
            hw_corrupt = np.array([oracle - d["lcb"] for d in corrupt.detail])
            scaled_medians[n] = float(np.median(hw_clean)) * math.sqrt(n)
            wins = int(np.sum(hw_corrupt > hw_clean))
            decided = int(np.sum(hw_corrupt != hw_clean))
            sign_pvalues[n] = stats.binomtest(
                wins, decided, 0.5, alternative="greater").pvalue
        ratio = max(scaled_medians.values()) / min(scaled_medians.values())
        max_p = max(sign_pvalues.values())
        ok = ratio <= 2.0 and max_p < 0.01
        _announce(capsys, "A4", ok,
                  "sqrt(n)-scaled median half-width ratio %.2f <= 2 over "
                  "n in {500,2000,8000}; corrupted-mu wider, max sign-test "
                  "p = %.1e < 0.01" % (ratio, max_p))
        assert ratio <= 2.0
        assert max_p < 0.01


class TestA5TrivialUcbSandwich:
    def test_lcb_squared_below_ucb_with_irreducible_slack(self, capsys):
        # A1's design; this test runs its own exact bound per variable.
        spec = _study("a1_linear_coverage")
        oracle_sq = mmse_oracle_linear(
            build_mu_star(spec.mu_star, spec.n, spec.p).coef, spec.rho) ** 2
        violations = 0
        total = 0
        slack_sum = 0.0
        for rep in range(spec.replicates):
            w, y = generate_replicate(spec, rep)
            parts = split(Dataset(y, w, np.empty((spec.n, 0))), 0.5,
                          derive_seed(spec.base_seed, rep, 5))
            full_fit = _fit_working_regression(spec, parts.fit_part, rep)
            infer_w = parts.infer_part.x
            infer_y = parts.infer_part.y
            for j0 in range(spec.p):
                mu_j = _focal_view(full_fit, j0)
                infer_ds = Dataset(infer_y, infer_w[:, j0:j0 + 1],
                                   np.delete(infer_w, j0, axis=1))
                cfg = FloodgateConfig(0.05, big_k=0,
                                      seed=derive_seed(spec.base_seed, rep,
                                                       6, j0, 0))
                lcb = floodgate_lcb(infer_ds, mu_j,
                                    focal_model(spec, j0 + 1), cfg).lcb
                ucb = trivial_ucb(infer_ds, mu_j, 0.05)
                total += 1
                if lcb ** 2 > ucb + 1e-12:
                    violations += 1
                slack_sum += ucb - oracle_sq[j0]
        mean_slack = slack_sum / total
        ok = violations == 0 and mean_slack >= 0.9 * 1.0
        _announce(capsys, "A5", ok,
                  "LCB^2 <= UCB in %d/%d (replicate, variable) cases; "
                  "mean UCB slack %.3f >= 0.9 x noise variance 1.0"
                  % (total - violations, total, mean_slack))
        assert violations == 0
        assert mean_slack >= 0.9


class TestA6MacmCoverage:
    def test_logistic_design_coverage_vs_mc_oracle(self, capsys):
        # A logistic mu* over AR(1) covariates, an L1-logistic fit, and
        # Monte Carlo MACM with K = 100.
        spec = _study("a6_logistic_macm")
        # The oracle targets an internal Monte Carlo standard error below
        # 0.002; verify empirically by recomputing with an independent
        # seed (two draws differ by at most ~3 sigma sqrt(2)).
        mu_star = build_mu_star(spec.mu_star, spec.n, spec.p)
        alt = macm_oracle_values(mu_star, spec.rho, spec.oracle_draws, 31415)
        result = run_experiment(spec)
        oracle_gap = float(np.max(np.abs(alt - result.oracle)))
        coverages = [row["coverage"] for row in result.summary()]
        pooled = float(np.mean(coverages))
        ok = pooled >= COVERAGE_FLOOR and oracle_gap <= 0.0085
        _announce(capsys, "A6", ok,
                  "pooled coverage %.4f >= %.3f over 40 variables x 256 "
                  "replicates (min per-variable %.3f); independent oracle "
                  "recomputation differs by %.4f <= 0.0085"
                  % (pooled, COVERAGE_FLOOR, min(coverages), oracle_gap))
        assert pooled >= COVERAGE_FLOOR
        assert oracle_gap <= 0.0085


class TestA7CosufficientCoverageAndSamplers:
    def test_gaussian_coverage_and_conditional_samplers(self, capsys):
        # Exact co-sufficient bounds on a support variable, in batches of
        # 300 of the 1200 inference rows.
        coverage = run_experiment(
            _study("a7_cosufficient")).summary()[0]["coverage"]

        # Gaussian batch law: the sufficient statistic U'X is preserved.
        # H is the hat matrix of U = (1, Z), by least squares.
        rng = np.random.default_rng(77)
        z = rng.standard_normal((120, 6))
        x = z @ rng.standard_normal(6) + 0.8 * rng.standard_normal(120)
        u = np.hstack([np.ones((120, 1)), z])
        h = u @ np.linalg.lstsq(u, np.eye(120), rcond=None)[0]
        tilde = _GaussianBatch(x, z, 0.64).sample(50, philox_rng(5))[:, :, 0]
        stat_err = float(np.max(np.abs((tilde - x[None, :]) @ h.T)))

        # Markov-chain batch law: neighbor-pair count tables preserved
        # exactly, and within-stratum permutations are uniform.
        chain = DiscreteMarkovChain(
            [0.5, 0.3, 0.2],
            [[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]] * 4,
            focal_index=3)
        cx, cz = chain.sample_joint(200, seed=11)
        cx = cx[:, 0]
        law = _ChainBatch(chain, cx, cz)
        copies = law.sample(400, philox_rng(13))[:, :, 0]
        strata = law.strata
        counts_ok = all(
            np.array_equal(np.sort(copies[c, s]), np.sort(cx[s]))
            for s in strata for c in range(0, 400, 57))
        # Uniformity: in each stratum every original value should land in
        # each position equally often across permutation copies.
        min_p = 1.0
        for s in strata:
            if len(s) < 3:
                continue
            first_val = cx[s][0]
            landing = np.array([(copies[:, s] == first_val).sum(axis=0)])
            expected = np.full(len(s), copies.shape[0] *
                               np.mean(cx[s] == first_val))
            p = stats.chisquare(landing.ravel(), expected).pvalue
            min_p = min(min_p, float(p))
        ok = (coverage >= COVERAGE_FLOOR and stat_err <= 1e-8
              and counts_ok and min_p > 0.001)
        _announce(capsys, "A7", ok,
                  "co-sufficient coverage %.4f >= %.3f (512 replicates, "
                  "1200 inference rows in 4 batches of 300); max |U'X~ - "
                  "U'X| = %.1e <= 1e-8; count tables preserved: %s; "
                  "stratum-uniformity min chi2 p = %.3f > 0.001"
                  % (coverage, COVERAGE_FLOOR, stat_err, counts_ok, min_p))
        assert coverage >= COVERAGE_FLOOR
        assert stat_err <= 1e-8
        assert counts_ok
        assert min_p > 0.001


class TestA8BatchSizeGapDirection:
    def test_point_estimate_rises_toward_unconditional(self, capsys):
        d_z = 20
        rng = np.random.default_rng(88)
        gamma = np.concatenate([[0.0], rng.normal(0.0, 0.3, d_z)])
        model = GaussianLinearModel(gamma, 1.0, np.zeros(d_z), np.eye(d_z))
        mu = LinearWorkingRegression(OLS, 0.0, np.array([0.4]),
                                     rng.normal(0.0, 0.3, d_z))
        n, reps = 1600, 128
        grid = (50, 100, 200, 400)
        points = {n2: np.empty(reps) for n2 in grid}
        for rep in range(reps):
            x, z = model.sample_joint(n, seed=5000 + rep)
            noise = np.random.default_rng(6000 + rep).standard_normal(n)
            data = Dataset(mu.predict(x, z) + noise, x, z)
            for n2 in grid:
                points[n2][rep] = cosufficient_lcb(
                    data, mu, model, n2=n2, mc_k=0, seed=rep).point
        comparisons = []
        ok = True
        for lo, hi in zip(grid[:-1], grid[1:]):
            diff = points[hi] - points[lo]
            gain = float(diff.mean())
            se = float(diff.std(ddof=1) / math.sqrt(reps))
            comparisons.append("%d->%d: %+.4f (SE %.4f)" % (lo, hi, gain, se))
            if gain < -3.0 * se:
                ok = False
        _announce(capsys, "A8", ok,
                  "co-sufficient point estimate vs batch size, %d paired "
                  "replicates: %s (monotone within 3 SE)"
                  % (reps, "; ".join(comparisons)))
        assert ok


class TestA9InSampleRobustness:
    def test_null_coverage_with_insample_covariate_fit(self, capsys):
        # A1's design with X | Z refit in sample, on the null variables.
        spec = _study("a9_insample_nulls")
        nulls = spec.variables
        support = {int(j) + 1 for j in spec.realized_mu_star.support}
        assert not support & set(nulls)
        coverages = [row["coverage"] for row in run_experiment(spec).summary()]
        pooled = float(np.mean(coverages))
        ok = pooled >= 0.90
        _announce(capsys, "A9", ok,
                  "in-sample covariate fit (m = n = 600): pooled null "
                  "coverage %.4f >= 0.90 over %d nulls x 128 replicates "
                  "(min per-variable %.3f)"
                  % (pooled, len(nulls), min(coverages)))
        assert pooled >= 0.90


class TestA10WeightedIdentity:
    MODEL = Ar1Model(dim=5, rho=0.4, focal_index=2)
    MU = LinearWorkingRegression(OLS, 0.2, np.array([1.2]),
                                 np.array([0.4, 0.0, -0.3, 0.1]))

    def _draw(self, seed, n=400):
        x, z = self.MODEL.sample_joint(n, seed)
        noise = np.random.default_rng(seed + 10 ** 6).standard_normal(n)
        return Dataset(self.MU.predict(x, z) + noise, x, z)

    def _identity_ratio_weights(self, data):
        # Density ratio of the target covariate law to the model's,
        # computed numerically with the target equal to the model.
        rows = self.MODEL.given(data.z)
        mean, cov = rows.mean, rows.cov
        log_num = -0.5 * (data.x[:, 0] - mean[:, 0]) ** 2 / cov[0, 0]
        return np.exp(log_num - log_num)

    def test_identity_weights_match_unit_weights(self, capsys):
        n, k, reps = 400, 2, 200
        unit_lcb = np.empty(reps)
        ratio_lcb_arr = np.empty(reps)
        unit_point = np.empty(reps)
        plain_point = np.empty(reps)
        for rep in range(reps):
            d1 = self._draw(3000 + 2 * rep)
            d2 = self._draw(3000 + 2 * rep + 1)
            cfg1 = FloodgateConfig(0.05, big_k=k, center_y=False, seed=rep)
            cfg2 = FloodgateConfig(0.05, big_k=k, center_y=False,
                                   seed=rep + 5 * 10 ** 5)
            unit_rep = floodgate_lcb_weighted(
                d1, self.MU, self.MODEL, (np.ones(n), np.ones((k, n))), cfg1)
            unit_lcb[rep] = unit_rep.lcb
            unit_point[rep] = unit_rep.point
            ratio_lcb_arr[rep] = floodgate_lcb_weighted(
                d2, self.MU, self.MODEL,
                (self._identity_ratio_weights(d2), np.ones((k, n))),
                cfg2).lcb
            plain_point[rep] = floodgate_lcb(d2, self.MU, self.MODEL,
                                             cfg2).point

        ks_p = float(stats.ks_2samp(unit_lcb, ratio_lcb_arr).pvalue)
        point_gap = abs(float(unit_point.mean() - plain_point.mean()))
        gap_se = math.sqrt(unit_point.var(ddof=1) / reps
                           + plain_point.var(ddof=1) / reps)

        # Constant rescaling of the row weights must not move the bound.
        data = self._draw(777_000)
        cfg = FloodgateConfig(0.05, big_k=k, center_y=False, seed=4)
        one = floodgate_lcb_weighted(
            data, self.MU, self.MODEL, (np.ones(n), np.ones((k, n))), cfg)
        scaled = floodgate_lcb_weighted(
            data, self.MU, self.MODEL,
            (np.full(n, 3.7), np.ones((k, n))), cfg)
        const_err = max(abs(one.lcb - scaled.lcb),
                        abs(one.point - scaled.point))

        ok = (ks_p > 0.01 and const_err <= 1e-10
              and point_gap <= 3.0 * gap_se)
        _announce(capsys, "A10", ok,
                  "identity density-ratio weights vs unit weights: KS p = "
                  "%.3f > 0.01 (200 replicates); weighted vs unweighted "
                  "mean point gap %.4f <= 3 SE = %.4f; constant-weight "
                  "invariance error %.1e <= 1e-10"
                  % (ks_p, point_gap, 3.0 * gap_se, const_err))
        assert ks_p > 0.01
        assert const_err <= 1e-10
        assert point_gap <= 3.0 * gap_se


class TestA11Determinism:
    def test_simulate_csvs_byte_identical_across_threads(self, capsys, tmp_path):
        spec_path = STUDIES / "a11_determinism.json"
        blobs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out_dir = tmp_path / tag
            code = main(["simulate", str(spec_path), "--out-dir",
                         str(out_dir), "--threads", threads])
            assert code == EXIT_OK
            blobs.append((out_dir / "detail.csv").read_bytes()
                         + (out_dir / "summary.csv").read_bytes())
        ok = blobs[0] == blobs[1] == blobs[2]
        _announce(capsys, "A11", ok,
                  "simulate CSVs byte-identical across a rerun and across "
                  "--threads 1 vs 2: %s" % ok)
        assert ok
