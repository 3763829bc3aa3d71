import math
from dataclasses import replace

import numpy as np
import pytest

from floodgate import (Ar1Model, CustomRegression, Dataset, FloodgateConfig,
                       GaussianLinearModel, LinearWorkingRegression,
                       floodgate_lcb, floodgate_lcb_scale_free,
                       floodgate_lcb_weighted, trivial_ucb,
                       zero_out_transform)
from floodgate.core import LcbReport, delta_method_se, normal_quantile, sample_mean_cov
from floodgate.errors import ShapeError, SizeError, ValidationError
from floodgate import mmse
from floodgate.mmse import (moment_samples, mu_null_values, mu_on_copies,
                            variance_ucb)
from floodgate.regression import OLS


def _simple_model(sigma2=0.5):
    # X | Z ~ N(1 + 2 z, sigma2), Z ~ N(0, 1)
    return GaussianLinearModel(np.array([1.0, 2.0]), sigma2, np.zeros(1),
                               np.eye(1))


def _mu(beta=3.0, zeta=1.0, intercept=0.5):
    return LinearWorkingRegression(OLS, intercept, np.array([beta]),
                                   np.array([zeta]))


def _draw(model, mu, n, seed, noise=1.0):
    x, z = model.sample_joint(n, seed)
    rng = np.random.default_rng(seed + 1)
    y = mu.predict(x, z) + noise * rng.standard_normal(n)
    return Dataset(y, x, z)


class TestFloodgateConfig:
    def test_rejects_single_copy(self):
        with pytest.raises(ValidationError):
            FloodgateConfig(big_k=1)
        with pytest.raises(ValidationError):
            FloodgateConfig(big_k=-2)

    def test_closed_form_and_mc_allowed(self):
        assert FloodgateConfig(big_k=0).big_k == 0
        assert FloodgateConfig(big_k=2).big_k == 2

    def test_with_alpha(self):
        cfg = replace(FloodgateConfig(alpha=0.05), alpha=0.025)
        assert cfg.alpha.alpha == 0.025
        with pytest.raises(ValidationError):
            replace(cfg, alpha=1.5)


class TestMuNullValues:
    def test_fast_path_matches_generic_evaluation(self):
        model = _simple_model()
        mu = _mu()
        generic = CustomRegression(
            lambda x, z: 0.5 + 3.0 * x[:, 0] + 1.0 * z[:, 0])
        z = np.random.default_rng(0).standard_normal((7, 1))
        a = mu_null_values(mu, model, z, 5, seed=3)
        b = mu_null_values(generic, model, z, 5, seed=3)
        assert a.shape == (5, 7)
        assert np.allclose(a, b, atol=1e-12)

    def test_binary_link_fast_path(self):
        model = _simple_model()
        mu = LinearWorkingRegression(OLS, 0.1, np.array([0.7]),
                                     np.array([-0.2]), link="binary_mean")
        generic = CustomRegression(
            lambda x, z: np.tanh((0.1 + 0.7 * x[:, 0] - 0.2 * z[:, 0]) / 2.0))
        z = np.random.default_rng(1).standard_normal((4, 1))
        assert np.allclose(mu_null_values(mu, model, z, 3, seed=5),
                           mu_null_values(generic, model, z, 3, seed=5),
                           atol=1e-12)

    def test_scalar_focal_multiply_matches_matmul(self):
        model = Ar1Model(dim=8, rho=0.3, focal_index=2)
        _, z = model.sample_joint(200, seed=4)
        mu = LinearWorkingRegression(OLS, 0.2, np.array([1.7]),
                                     np.linspace(-1.0, 1.0, 7))
        copies = model.sample_null_copies(z, 30, seed=6).copies
        want = (np.full(200, 0.2) + z @ mu.z_coef)[None, :] + copies @ mu.x_coef
        assert np.array_equal(mu_null_values(mu, model, z, 30, seed=6), want)

    @pytest.mark.parametrize("block_values", [None, 50 * 3 * 4, 7])
    def test_chunked_generic_mu_matches_one_tile(self, monkeypatch,
                                                 block_values):
        # Chunks of 4 copies (the last one partial), of a single copy,
        # or all 11 at once give the values of one (K n, d_z) tile, and
        # mu only ever sees whole copies of the tiled z.
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        model = Ar1Model(dim=4, rho=0.3, focal_index=2)
        _, z = model.sample_joint(50, seed=2)
        seen = []

        def fn(x, z_rows):
            seen.append(z_rows.copy())
            return np.tanh(1.5 * x[:, 0] + 0.3 * z_rows[:, 0]
                           - z_rows[:, 2] ** 2)
        mu = CustomRegression(fn)
        copies = model.sample_null_copies(z, 11, seed=5).copies
        want = mu.predict(copies.reshape(550, 1),
                          np.tile(z, (11, 1))).reshape(11, 50)
        seen.clear()
        assert np.array_equal(mu_null_values(mu, model, z, 11, seed=5), want)
        assert np.array_equal(mu_on_copies(mu, copies, z), want)
        step = {None: 11, 50 * 3 * 4: 4, 7: 1}[block_values]
        assert [len(z_rows) for z_rows in seen] == \
            2 * [50 * min(step, 11 - k) for k in range(0, 11, step)]
        for z_rows in seen:
            assert np.array_equal(z_rows, np.tile(z, (len(z_rows) // 50, 1)))


class TestExactMoments:
    def test_hand_computed_samples(self):
        sigma2 = 0.5
        model = _simple_model(sigma2)
        mu = _mu(beta=3.0, zeta=1.0, intercept=0.5)
        z = np.array([[0.0], [1.0], [-1.0]])
        x = np.array([[2.0], [0.0], [1.0]])
        y = np.array([1.0, -1.0, 2.0])
        data = Dataset(y, x, z)
        cfg = FloodgateConfig(big_k=0, center_y=False)
        r, v, scale_sq = moment_samples(data, mu, model, cfg)
        cond_mean_x = 1.0 + 2.0 * z[:, 0]
        g = 0.5 + 3.0 * cond_mean_x + 1.0 * z[:, 0]
        mu_obs = 0.5 + 3.0 * x[:, 0] + 1.0 * z[:, 0]
        assert np.allclose(r, y * (mu_obs - g), atol=1e-12)
        assert np.allclose(v, 9.0 * sigma2, atol=1e-12)
        assert scale_sq == pytest.approx(np.mean((mu_obs - g) ** 2), abs=1e-12)

    def test_lcb_equals_manual_aggregation(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 200, seed=4)
        cfg = FloodgateConfig(alpha=0.05, big_k=0, center_y=False)
        rep = floodgate_lcb(data, mu, model, cfg)
        r, v, _ = moment_samples(data, mu, model, cfg)
        r_bar, v_bar, cov = sample_mean_cov(np.column_stack([r, v]))
        se = delta_method_se(r_bar, v_bar, cov)
        point = r_bar / math.sqrt(v_bar)
        expected = max(point - normal_quantile(0.05) * se / math.sqrt(200), 0.0)
        assert rep.lcb == pytest.approx(expected, abs=1e-12)
        assert rep.point == pytest.approx(point, abs=1e-12)

    def test_point_consistent_for_truth(self):
        # With mu = mu* the population ratio is |beta| sqrt(Var(X|Z)).
        sigma2 = 0.5
        model = _simple_model(sigma2)
        mu = _mu(beta=3.0)
        data = _draw(model, mu, 60000, seed=7)
        rep = floodgate_lcb(data, mu, model, FloodgateConfig(big_k=0))
        truth = 3.0 * math.sqrt(sigma2)
        assert rep.point == pytest.approx(truth, abs=0.05)
        assert 0.0 < rep.lcb < truth

    def test_z_only_mu_is_degenerate(self):
        model = _simple_model()
        mu = LinearWorkingRegression(OLS, 0.5, np.array([0.0]), np.array([2.0]))
        data = _draw(model, mu, 100, seed=1)
        rep = floodgate_lcb(data, mu, model, FloodgateConfig(big_k=0))
        assert rep.degenerate and rep.lcb == 0.0


class TestMonteCarloMoments:
    def test_large_k_matches_exact(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 400, seed=9)
        exact = floodgate_lcb(data, mu, model,
                              FloodgateConfig(big_k=0, center_y=False))
        mc = floodgate_lcb(data, mu, model,
                           FloodgateConfig(big_k=4000, center_y=False, seed=2))
        assert mc.point == pytest.approx(exact.point, abs=0.05)
        assert mc.lcb == pytest.approx(exact.lcb, abs=0.05)

    def test_seeded_determinism(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 150, seed=3)
        cfg = FloodgateConfig(big_k=20, seed=11)
        a = floodgate_lcb(data, mu, model, cfg)
        b = floodgate_lcb(data, mu, model, cfg)
        assert a.lcb == b.lcb and a.point == b.point
        c = floodgate_lcb(data, mu, model, FloodgateConfig(big_k=20, seed=12))
        assert c.lcb != a.lcb

    def test_small_k_centering_is_unbiased(self):
        # With K = 2 the numerator mean must still match the population
        # value E[Y(mu - E[mu|Z])]; a centering estimate built from the
        # same two copies would inflate it by Var(mu|Z)/K.
        model = _simple_model()
        mu = _mu(beta=2.0)
        total = 0.0
        reps = 200
        for rep in range(reps):
            data = _draw(model, mu, 100, seed=1000 + rep)
            cfg = FloodgateConfig(big_k=2, center_y=True, seed=rep)
            r, v, _ = moment_samples(data, mu, model, cfg)
            total += r.mean()
        truth = 4.0 * 0.5        # beta^2 Var(X|Z)
        assert total / reps == pytest.approx(truth, abs=0.1)

    def test_needs_two_rows(self):
        model = _simple_model()
        data = Dataset(np.array([1.0]), np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(SizeError):
            floodgate_lcb(data, _mu(), model, FloodgateConfig(big_k=2))


class TestVarianceUcb:
    def test_hand_computation(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        d = (y - y.mean()) ** 2
        expected = d.mean() + normal_quantile(0.05) * d.std(ddof=1) / 2.0
        assert variance_ucb(y, 0.05) == pytest.approx(expected, abs=1e-12)

    def test_covers_truth_on_average(self):
        rng = np.random.default_rng(0)
        hits = sum(
            variance_ucb(rng.standard_normal(300), 0.05) >= 1.0
            for _ in range(200))
        assert hits / 200 >= 0.9


class TestScaleFree:
    def test_bounded_in_unit_interval(self):
        # X independent of Z and mu depending on x only: nearly all of
        # Var(Y) is explained by X, so the scale-free LCB should be high.
        model = GaussianLinearModel(np.array([0.0, 0.0]), 0.5, np.zeros(1),
                                    np.eye(1))
        mu = _mu(beta=5.0, zeta=0.0, intercept=0.0)
        data = _draw(model, mu, 500, seed=13, noise=0.1)
        rep = floodgate_lcb_scale_free(data, mu, model, FloodgateConfig(big_k=0))
        assert 0.0 <= rep.lcb <= 1.0
        assert rep.lcb > 0.5

    def test_combines_gap_lcb_and_variance_ucb(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 300, seed=17)
        cfg = FloodgateConfig(alpha=0.05, big_k=0)
        rep = floodgate_lcb_scale_free(data, mu, model, cfg)
        base = floodgate_lcb(data, mu, model, replace(cfg, alpha=0.025))
        ucb = variance_ucb(data.y, 0.025)
        assert rep.diagnostics["var_y_ucb"] == pytest.approx(ucb, abs=1e-12)
        assert rep.lcb == pytest.approx(
            min(base.lcb ** 2 / ucb, 1.0), abs=1e-12)

    def test_constant_response_degenerate(self):
        model = _simple_model()
        x, z = model.sample_joint(50, seed=1)
        data = Dataset(np.ones(50), x, z)
        rep = floodgate_lcb_scale_free(data, _mu(), model, FloodgateConfig(big_k=0))
        assert rep.degenerate and rep.lcb == 0.0


class TestWeighted:
    def test_constant_weight_invariance(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 200, seed=19)
        cfg = FloodgateConfig(big_k=30, seed=5)
        n, k = data.n, cfg.big_k
        base = floodgate_lcb_weighted(data, mu, model,
                                      (np.ones(n), np.ones((k, n))), cfg)
        scaled = floodgate_lcb_weighted(data, mu, model,
                                        (np.full(n, 7.3), np.ones((k, n))), cfg)
        assert abs(scaled.lcb - base.lcb) < 1e-10
        assert abs(scaled.point - base.point) < 1e-10

    def test_unit_weights_estimate_same_target(self):
        model = _simple_model()
        mu = _mu(beta=2.0)
        data = _draw(model, mu, 40000, seed=23)
        cfg = FloodgateConfig(big_k=40, seed=7)
        rep = floodgate_lcb_weighted(
            data, mu, model, (np.ones(data.n), np.ones((40, data.n))), cfg)
        assert rep.point == pytest.approx(2.0 * math.sqrt(0.5), abs=0.05)

    def test_weight_validation(self):
        model = _simple_model()
        mu = _mu()
        data = _draw(model, mu, 20, seed=2)
        cfg = FloodgateConfig(big_k=3, seed=0)
        with pytest.raises(ShapeError):
            floodgate_lcb_weighted(data, mu, model,
                                   (np.ones(19), np.ones((3, 20))), cfg)
        with pytest.raises(ShapeError):
            floodgate_lcb_weighted(data, mu, model,
                                   (np.ones(20), np.ones((2, 20))), cfg)
        with pytest.raises(ValidationError):
            floodgate_lcb_weighted(data, mu, model,
                                   (-np.ones(20), np.ones((3, 20))), cfg)
        with pytest.raises(ValidationError, match="big_k >= 2"):
            floodgate_lcb_weighted(data, mu, model,
                                   (np.ones(20), np.ones((1, 20))),
                                   FloodgateConfig(big_k=0))


class TestTrivialUcb:
    def test_hand_computation(self):
        nu = CustomRegression(lambda x, z: z[:, 0])
        y = np.array([1.0, 2.0, 0.0, 3.0])
        z = np.array([[0.5], [1.0], [0.0], [2.0]])
        data = Dataset(y, np.zeros((4, 1)), z)
        sq = (y - z[:, 0]) ** 2
        expected = sq.mean() + normal_quantile(0.05) * sq.std(ddof=1) / 2.0
        assert trivial_ucb(data, nu, 0.05) == pytest.approx(expected, abs=1e-12)

    def test_upper_bounds_squared_gap(self):
        model = _simple_model()
        mu = _mu(beta=2.0)
        data = _draw(model, mu, 5000, seed=29)
        nu = CustomRegression(lambda x, z: 0.5 + 3.0 * (1.0 + 2.0 * z[:, 0])
                              + z[:, 0])
        ucb = trivial_ucb(data, nu, 0.05)
        rep = floodgate_lcb(data, mu, model, FloodgateConfig(big_k=0))
        assert rep.lcb ** 2 <= ucb


class TestZeroOutTransform:
    def _reports(self, k):
        return [LcbReport(float(i), float(i), 0.1, 10, "MMSE_GAP")
                for i in range(k)]

    def test_zeroes_unselected(self):
        out = zero_out_transform(self._reports(4), selected=[1, 3])
        assert [r.lcb for r in out] == [0.0, 1.0, 0.0, 3.0]
        assert out[0].degenerate and not out[1].degenerate

    def test_bad_index(self):
        with pytest.raises(IndexError):
            zero_out_transform(self._reports(2), selected=[5])
