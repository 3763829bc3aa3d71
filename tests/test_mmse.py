import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from floodgate import (Ar1Model, CustomRegression, Dataset,
                       DiscreteMarkovChain, FloodgateConfig,
                       GaussianLinearModel, LinearWorkingRegression,
                       conditional_moments, floodgate_lcb,
                       floodgate_lcb_scale_free, floodgate_lcb_weighted,
                       trivial_ucb, zero_out_transform)
from floodgate.core import (MMSE_GAP, MMSE_GAP_SCALE_FREE, LcbReport,
                            delta_method_se,
                            normal_quantile, ratio_lcb, sample_mean_cov)
from floodgate.errors import (ShapeError, SizeError,
                              UnsupportedClosedFormError, ValidationError)
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


class TestConditionalMoments:
    def test_partially_linear_hand_check(self):
        model = Ar1Model(dim=3, rho=0.5, focal_index=2)
        mu = LinearWorkingRegression(kind=OLS, intercept=1.0,
                                     x_coef=np.array([3.0]),
                                     z_coef=np.array([0.5, -0.5]))
        z = np.array([[1.0, 0.0], [0.0, 2.0]])
        mean, var = conditional_moments(model, mu, z)
        cond_mean_x, cond_cov = model.conditional_x_moments(z)
        expected = 1.0 + 3.0 * cond_mean_x[:, 0] + z @ np.array([0.5, -0.5])
        assert np.allclose(mean, expected, atol=1e-12)
        assert np.allclose(var, 9.0 * cond_cov[0, 0], atol=1e-12)

    def test_requires_linear_focal_coef(self):
        model = Ar1Model(dim=3, rho=0.5, focal_index=2)
        mu = LinearWorkingRegression(kind=OLS, intercept=0.0,
                                     x_coef=np.array([1.0]),
                                     z_coef=np.zeros(2), link="binary_mean")
        with pytest.raises(UnsupportedClosedFormError):
            conditional_moments(model, mu, np.zeros((2, 2)))

    def test_covariance_per_row(self):
        # A Gaussian law may give each row its own covariance: the
        # variance of a.x + g(z) is then a' cov_i a row by row.
        class PerRow:
            def conditional_x_moments(self, z):
                return (z[:, :2].copy(),
                        np.stack([np.diag([1.0 + t, 2.0]) for t in z[:, 0]]))

        z = np.array([[0.0, 1.0, 3.0], [2.0, -1.0, 0.5]])
        mu = LinearWorkingRegression(OLS, 0.5, np.array([2.0, -1.0]),
                                     np.array([0.0, 0.0, 1.0]))
        mean, var = conditional_moments(PerRow(), mu, z)
        assert np.allclose(mean, 0.5 + 2.0 * z[:, 0] - z[:, 1] + z[:, 2])
        assert np.allclose(var, 4.0 * (1.0 + z[:, 0]) + 2.0)

    @staticmethod
    def _chain_case():
        t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        model = DiscreteMarkovChain(np.array([0.5, 0.3, 0.2]), [t] * 4,
                                    focal_index=3)
        mu = CustomRegression(lambda x, z: np.sin(1.3 * x[:, 0]) * z[:, 1]
                              + x[:, 0] ** 2 - 0.7 * z[:, 3])
        x, z = model.sample_joint(400, seed=41)
        y = mu.predict(x, z) + np.random.default_rng(42).standard_normal(400)
        return model, mu, Dataset(y, x, z)

    def test_chain_matches_per_state_brute_force(self):
        model, mu, data = self._chain_case()
        mean, var = conditional_moments(model, mu, data.z)
        pmf = model.conditional_pmf(data.z)
        for i in range(0, data.n, 7):
            at = np.array([mu.predict(np.array([[float(k)]]), data.z[i:i + 1])[0]
                           for k in range(model.num_states)])
            want = float(pmf[i] @ at)
            assert abs(mean[i] - want) <= 1e-12
            assert abs(var[i] - float(pmf[i] @ (at - want) ** 2)) <= 1e-12

    def test_chain_exact_bound_agrees_with_monte_carlo(self):
        model, mu, data = self._chain_case()
        exact = floodgate_lcb(data, mu, model, FloodgateConfig(big_k=0))
        mc = [floodgate_lcb(data, mu, model,
                            FloodgateConfig(big_k=4000, seed=seed))
              for seed in range(6)]
        sd = np.std([rep.point for rep in mc], ddof=1)
        assert exact.point > 0.5
        assert abs(mc[0].point - exact.point) <= 3.0 * sd


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


def _materialised_samples(data, mu, model, cfg):
    """(R_i, V_i, scale) from one (2K, n) pool of null copies held at
    once: centring takes the first K copies and R_i the last K."""
    k = cfg.big_k
    pool = mu_null_values(mu, model, data.z, (1 + cfg.center_y) * k, cfg.seed)
    mu_obs = np.asarray(mu.predict(data.x, data.z), dtype=float).reshape(data.n)
    tilde = pool[-k:]
    centered = mu_obs - tilde.mean(axis=0)
    y = data.y - pool[:k].mean(axis=0) if cfg.center_y else data.y
    return (y * centered, tilde.var(axis=0, ddof=1),
            float(np.mean(centered ** 2)))


def _materialised_weighted(data, mu, model, w, w1, cfg):
    """The weighted bound from one (K, n) array of mu on null copies."""
    tilde = mu_null_values(mu, model, data.z, cfg.big_k, cfg.seed)
    mu_obs = np.asarray(mu.predict(data.x, data.z), dtype=float).reshape(data.n)
    y, w_bar = data.y, float(w.mean())
    sq_tilde = (y[None, :] - tilde) ** 2
    r = (np.mean(sq_tilde * w1, axis=0) * w - (y - mu_obs) ** 2 * w) / w_bar
    v = np.mean(2.0 * (mu_obs[None, :] - tilde) ** 2 * w1, axis=0) * w / w_bar
    scale_sq = float(np.mean((mu_obs - tilde.mean(axis=0)) ** 2))
    return ratio_lcb(r, v, cfg.alpha, estimand=MMSE_GAP,
                     mu_scale_sq=scale_sq, seed=cfg.seed)


class TestStreamedMoments:
    # n = 200 and K = 50: each segment in one block, cut after 30 copies
    # (blocks of 30 and 20), or in blocks of 7 copies.
    BLOCKS = [None, 200 * 30, 200 * 7]

    @staticmethod
    def _case(custom):
        model = Ar1Model(dim=6, rho=0.3, focal_index=2)
        mu = LinearWorkingRegression(OLS, 0.2, np.array([1.7]),
                                     np.linspace(-1.0, 1.0, 5))
        if custom:
            mu = CustomRegression(lambda x, z: np.sin(1.5 * x[:, 0])
                                  + 0.3 * z[:, 0] - z[:, 2] ** 2)
        return model, mu, _draw(model, mu, 200, seed=31)

    @pytest.mark.parametrize("block_values", BLOCKS)
    @pytest.mark.parametrize("custom", [False, True])
    @pytest.mark.parametrize("center_y", [True, False])
    def test_mc_moments_match_materialised_pool(
            self, monkeypatch, block_values, custom, center_y):
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        model, mu, data = self._case(custom)
        cfg = FloodgateConfig(big_k=50, center_y=center_y, seed=8)
        r, v, scale_sq = moment_samples(data, mu, model, cfg)
        want_r, want_v, want_scale = _materialised_samples(data, mu, model,
                                                           cfg)
        assert np.array_equal(r, want_r) and scale_sq == want_scale
        if block_values is None:
            assert np.array_equal(v, want_v)
        else:
            assert np.allclose(v, want_v, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("block_values", BLOCKS)
    @pytest.mark.parametrize("custom", [False, True])
    def test_weighted_matches_materialised_pool(self, monkeypatch,
                                                block_values, custom):
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        model, mu, data = self._case(custom)
        cfg = FloodgateConfig(big_k=50, seed=9)
        rng = np.random.default_rng(10)
        w = rng.uniform(0.5, 1.5, data.n)
        w1 = rng.uniform(0.5, 1.5, (cfg.big_k, data.n))
        got = floodgate_lcb_weighted(data, mu, model, (w, w1), cfg)
        assert got == _materialised_weighted(data, mu, model, w, w1, cfg)

    @pytest.mark.parametrize("block_values", BLOCKS)
    @pytest.mark.parametrize("slice_copies", [1, 3, 8])
    def test_weighted_slices_match_materialised_pool(
            self, monkeypatch, block_values, slice_copies):
        # The weighted squares are formed a few copies at a time: slices
        # of 1, 3 or 8 copies, cut across the blocks' own cuts.
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        monkeypatch.setattr(mmse, "_WEIGHTED_SLICE_VALUES",
                            200 * slice_copies)
        model, mu, data = self._case(False)
        cfg = FloodgateConfig(big_k=50, seed=9)
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, data.n)
        w1 = rng.uniform(0.5, 1.5, (cfg.big_k, data.n))
        got = floodgate_lcb_weighted(data, mu, model, (w, w1), cfg)
        assert got == _materialised_weighted(data, mu, model, w, w1, cfg)

    @pytest.mark.parametrize("block_values", BLOCKS)
    def test_weighted_w1_indexes_the_documented_copies(self, monkeypatch,
                                                       block_values):
        # w1[k, i] is the ratio at copy k of row i of one
        # sample_null_copies(z, K, seed) draw, however the copies stream.
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        model, mu, data = self._case(custom=True)
        cfg = FloodgateConfig(big_k=50, seed=9)
        copies = model.sample_null_copies(data.z, cfg.big_k, cfg.seed).copies
        w1 = np.exp(-0.5 * copies[:, :, 0] ** 2)
        w = np.random.default_rng(10).uniform(0.5, 1.5, data.n)
        got = floodgate_lcb_weighted(data, mu, model, (w, w1), cfg)
        tilde = np.stack([mu.predict(c, data.z) for c in copies])
        mu_obs = mu.predict(data.x, data.z)
        y, w_bar = data.y, w.mean()
        r = (np.mean((y - tilde) ** 2 * w1, axis=0) * w
             - (y - mu_obs) ** 2 * w) / w_bar
        v = np.mean(2.0 * (mu_obs - tilde) ** 2 * w1, axis=0) * w / w_bar
        want = ratio_lcb(r, v, cfg.alpha, estimand=MMSE_GAP,
                         mu_scale_sq=float(np.mean(
                             (mu_obs - tilde.mean(axis=0)) ** 2)),
                         seed=cfg.seed)
        np.testing.assert_allclose([got.lcb, got.point, got.se],
                                   [want.lcb, want.point, want.se],
                                   rtol=1e-12)
        # Ratios paired with the wrong copies move the bound.
        other = floodgate_lcb_weighted(data, mu, model, (w, w1[::-1]), cfg)
        assert abs(other.point - got.point) > 1e-6

    def test_mc_memory_bounded(self, rss_growth_mb):
        # n = 20 000 with K = 500: a (2K, n) pool of mu values grows peak
        # RSS by about 450 MB; the streamed one stays within a block.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from floodgate import (Ar1Model, Dataset, FloodgateConfig,
                                   LinearWorkingRegression, floodgate_lcb)
            n = 20000
            model = Ar1Model(40, 0.3, 1)
            x, z = model.sample_joint(n, 1)
            coef = np.zeros(39)
            coef[:8] = 0.8
            y = 1.5 * x[:, 0] + z @ coef + np.random.default_rng(2).standard_normal(n)
            mu = LinearWorkingRegression("CUSTOM", 0.0, np.array([1.5]), coef)
            data = Dataset(y, x, z)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            floodgate_lcb(data, mu, model, FloodgateConfig(big_k=500, seed=3))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
        """)
        assert rss_growth_mb(script) < 200.0

    def test_weighted_memory_bounded(self, rss_growth_mb):
        # The (K, n) w1 input is allocated before the measurement: the
        # bound itself holds one block of copies, not K of them.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from floodgate import (Ar1Model, Dataset, FloodgateConfig,
                                   LinearWorkingRegression,
                                   floodgate_lcb_weighted)
            n, k = 20000, 500
            model = Ar1Model(40, 0.3, 1)
            x, z = model.sample_joint(n, 1)
            coef = np.zeros(39)
            coef[:8] = 0.8
            y = 1.5 * x[:, 0] + z @ coef + np.random.default_rng(2).standard_normal(n)
            mu = LinearWorkingRegression("CUSTOM", 0.0, np.array([1.5]), coef)
            data = Dataset(y, x, z)
            w1 = np.random.default_rng(4).uniform(0.5, 1.5, (k, n))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            floodgate_lcb_weighted(data, mu, model, (np.ones(n), w1),
                                   FloodgateConfig(big_k=k, seed=3))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
        """)
        assert rss_growth_mb(script) < 150.0


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

    def test_degenerate_gap_keeps_its_report_under_the_scale_free_label(self):
        # A mu that ignores x has a degenerate gap bound: reported as is,
        # relabelled, without a variance UCB.
        model = _simple_model()
        data = _draw(model, _mu(), 200, seed=3)
        flat = _mu(beta=0.0)
        cfg = FloodgateConfig(big_k=0, seed=4)
        rep = floodgate_lcb_scale_free(data, flat, model, cfg)
        base = floodgate_lcb(data, flat, model, replace(cfg, alpha=0.025))
        assert base.degenerate
        assert rep == base.replace(estimand=MMSE_GAP_SCALE_FREE)


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

    def test_zero_row_weights_are_degenerate(self):
        model = _simple_model()
        data = _draw(model, _mu(), 20, seed=2)
        rep = floodgate_lcb_weighted(data, _mu(), model,
                                     (np.zeros(20), np.ones((3, 20))),
                                     FloodgateConfig(big_k=3, seed=6))
        assert rep == LcbReport(0.0, 0.0, 0.0, 20, MMSE_GAP, degenerate=True,
                                seed=6)


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


class TestInvarianceProperties:
    """Invariances of the mMSE bounds, as hypothesis properties."""

    MU = LinearWorkingRegression(OLS, 0.2, np.array([1.1]),
                                 np.array([0.4, -0.3, 0.0]))

    @staticmethod
    def _data(model, n, seed):
        x, z = model.sample_joint(n, seed % 10_000)
        rng = np.random.default_rng(seed)
        y = (TestInvarianceProperties.MU.predict(x, z) + np.sin(z[:, 0])
             + rng.standard_normal(n))
        return Dataset(y, x, z)

    @given(kind=st.sampled_from(["ar1", "chain"]),
           rho=st.floats(-0.6, 0.6),
           n=st.integers(2, 150),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_exact_mode_row_permutation(self, kind, rho, n, seed):
        # Exact moments are per row, so a permutation reorders (R_i, V_i);
        # only the summation order of their means changes.
        if kind == "ar1":
            model = Ar1Model(dim=4, rho=rho, focal_index=2)
        else:
            t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                          [0.1, 0.3, 0.6]])
            model = DiscreteMarkovChain(np.array([0.5, 0.3, 0.2]), [t] * 3,
                                        focal_index=2)
        data = self._data(model, n, seed)
        order = np.random.default_rng(seed + 1).permutation(n)
        permuted = Dataset(data.y[order], data.x[order], data.z[order])
        cfg = FloodgateConfig(big_k=0, seed=seed)
        ref = floodgate_lcb(data, self.MU, model, cfg)
        got = floodgate_lcb(permuted, self.MU, model, cfg)
        assert got.degenerate == ref.degenerate
        for field in ("lcb", "point", "se"):
            assert getattr(got, field) == pytest.approx(
                getattr(ref, field), rel=1e-12, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the weighted R_i, mean_k (Y - mu~_k)^2 w w1_k - (Y - mu)^2 w, "
        "sheds c mu + g(Z) only in expectation: its mu~^2 - mu^2 and g "
        "cross terms cancel in E, not row by row"))
    @given(rho=st.floats(-0.6, 0.6),
           log_c=st.floats(-2.0, 2.0),
           shift=st.floats(-3.0, 3.0),
           slopes=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None, phases=(Phase.generate,))
    def test_weighted_scale_and_z_shift(self, rho, log_c, shift, slopes,
                                        seed):
        model = Ar1Model(dim=4, rho=rho, focal_index=2)
        data = self._data(model, 80, seed)
        rng = np.random.default_rng(seed + 2)
        weights = (rng.uniform(0.2, 2.0, 80), rng.uniform(0.2, 2.0, (5, 80)))
        c, b = math.exp(log_c), np.array(slopes)
        probe = CustomRegression(
            lambda xx, zz: (c * self.MU.predict(xx, zz) + shift + zz @ b
                            + np.sin(zz[:, 0])),
            linear_focal_coef=c * self.MU.x_coef)
        cfg = FloodgateConfig(big_k=5, seed=seed)
        ref = floodgate_lcb_weighted(data, self.MU, model, weights, cfg)
        got = floodgate_lcb_weighted(data, probe, model, weights, cfg)
        assert got.lcb == pytest.approx(ref.lcb, rel=1e-9, abs=1e-9)
        assert got.point == pytest.approx(ref.point, rel=1e-9, abs=1e-9)

    @given(rho=st.floats(-0.6, 0.6),
           log2_c=st.integers(-30, 30),
           c=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_constant_weight_rescaling(self, rho, log2_c, c, seed):
        # Both sample means are divided by the mean row weight. A power of
        # two rescales every product without rounding, so the report is
        # identical; any other constant rounds, e.g. in the last bit of
        # se for c = 3, so it agrees within 1e-12.
        model = Ar1Model(dim=4, rho=rho, focal_index=3)
        data = self._data(model, 80, seed)
        rng = np.random.default_rng(seed + 2)
        w, w1 = rng.uniform(0.2, 2.0, 80), rng.uniform(0.2, 2.0, (5, 80))
        cfg = FloodgateConfig(big_k=5, seed=seed)
        ref = floodgate_lcb_weighted(data, self.MU, model, (w, w1), cfg)
        assert floodgate_lcb_weighted(
            data, self.MU, model, (2.0 ** log2_c * w, w1), cfg) == ref
        got = floodgate_lcb_weighted(data, self.MU, model, (c * w, w1), cfg)
        assert got.degenerate == ref.degenerate
        for field in ("lcb", "point", "se"):
            assert getattr(got, field) == pytest.approx(
                getattr(ref, field), rel=1e-12, abs=1e-12)
