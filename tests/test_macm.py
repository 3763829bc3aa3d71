import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodgate import (Ar1Model, CopulaModel, CustomRegression, Dataset,
                       DiscreteMarkovChain, FloodgateConfig, GaussianLinearModel,
                       LinearWorkingRegression, MacmConfig, floodgate_lcb,
                       macm_gap_enumerate, macm_gap_oracle, macm_lcb)
from floodgate import macm, mmse
from floodgate.mmse import mu_null_values
from floodgate.errors import (DegenerateLabelsError, ShapeError, SizeError,
                              UnsupportedClosedFormError, ValidationError)
from floodgate.regression import LOGIT_L1, OLS
from floodgate.simulate import LOGISTIC_LINEAR, MuStarSpec, build_mu_star


def _indep_model(sigma2=1.0):
    # X ~ N(0, sigma2) independent of Z ~ N(0, 1)
    return GaussianLinearModel(np.array([0.0, 0.0]), sigma2, np.zeros(1),
                               np.eye(1))


def _oracle_on_draws(model, slope, offset, x, z):
    """macm_gap_oracle on joint draws (x, z) of a one-column Gaussian
    model, with X | Z from the model's conditional moments."""
    mean, cov = model.conditional_x_moments(z)
    return macm_gap_oracle(slope, offset, x[:, 0], mean[:, 0],
                           math.sqrt(cov[0, 0]))


def _logit_draw(model, beta, zeta, n, seed):
    x, z = model.sample_joint(n, seed)
    f = beta * x[:, 0] + zeta * z[:, 0]
    rng = np.random.default_rng(seed + 1)
    prob = 1.0 / (1.0 + np.exp(-f))
    y = np.where(rng.random(n) < prob, 1.0, -1.0)
    mu = LinearWorkingRegression(LOGIT_L1, 0.0, np.array([beta]),
                                 np.array([zeta]), link="binary_mean")
    return Dataset(y, x, z), mu


class TestMacmConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MacmConfig(m_copies=0)
        with pytest.raises(ValidationError):
            MacmConfig(k_copies=-1)
        # k_copies = 0 is the closed form, which draws no copies.
        assert MacmConfig(m_copies=0, k_copies=0).k_copies == 0

    def test_default_m_resolved_at_runtime(self):
        assert MacmConfig().m_copies is None


class TestExactMoments:
    def test_hand_computed_samples(self):
        model = GaussianLinearModel(np.array([0.0, 1.0]), 1.0, np.zeros(1),
                                    np.eye(1))
        mu = LinearWorkingRegression(OLS, 0.0, np.array([2.0]), np.array([1.0]))
        z = np.array([[0.0], [1.0], [0.0], [2.0]])
        x = np.array([[1.0], [0.0], [-1.0], [3.0]])   # u = 2(x - z)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        data = Dataset(y, x, z)
        rep = macm_lcb(data, mu, model, MacmConfig(k_copies=0))
        # u = [2, -2, -2, 2]; wrong side = [F, F, T, T]
        r = np.array([0.5, 0.5, -0.5, -0.5])
        assert rep.point == pytest.approx(2.0 * r.mean(), abs=1e-12)
        assert rep.se == pytest.approx(r.std(ddof=1), abs=1e-12)

    def test_null_focal_coefficient_degenerate(self):
        model = _indep_model()
        mu = LinearWorkingRegression(OLS, 0.0, np.array([0.0]), np.array([1.0]))
        x, z = model.sample_joint(50, seed=1)
        y = np.where(np.random.default_rng(2).random(50) < 0.5, 1.0, -1.0)
        rep = macm_lcb(Dataset(y, x, z), mu, model,
                       MacmConfig(k_copies=0))
        assert rep.degenerate and rep.lcb == 0.0

    def test_needs_partially_linear_mu(self):
        model = _indep_model()
        mu = CustomRegression(lambda x, z: np.tanh(x[:, 0]))
        x, z = model.sample_joint(10, seed=3)
        y = np.ones(10)
        y[::2] = -1.0
        with pytest.raises(UnsupportedClosedFormError):
            macm_lcb(Dataset(y, x, z), mu, model,
                     MacmConfig(k_copies=0))

    def test_chain_has_no_closed_form(self):
        # Exact mMSE enumerates a chain's pmf, but the exact MACM
        # probabilities assume a centred normal U | Z.
        t = np.array([[0.6, 0.4], [0.3, 0.7]])
        model = DiscreteMarkovChain(np.array([0.5, 0.5]), [t, t],
                                    focal_index=2)
        x, z = model.sample_joint(40, seed=6)
        mu = LinearWorkingRegression(OLS, -0.5, np.array([1.0]), np.zeros(2))
        data = Dataset(np.where(x[:, 0] > 0, 1.0, -1.0), x, z)
        with pytest.raises(UnsupportedClosedFormError, match="Gaussian"):
            macm_lcb(data, mu, model, MacmConfig(k_copies=0))

    def test_column_shaped_mu_matches_flat(self):
        # A custom mu may return an (n, 1) column; exact mMSE and exact
        # MACM must read it as the (n,) vector it stands for.
        model = Ar1Model(dim=5, rho=0.4, focal_index=3)
        x, z = model.sample_joint(300, seed=4)
        fn = lambda x, z: 0.7 * x[:, 0] + np.sin(z[:, 1]) - 0.5 * z[:, 3]
        flat = CustomRegression(fn, linear_focal_coef=[0.7])
        column = CustomRegression(lambda x, z: fn(x, z)[:, None],
                                  linear_focal_coef=[0.7])
        rng = np.random.default_rng(5)
        y = fn(x, z) + rng.standard_normal(300)
        yb = np.where(rng.random(300) < 1 / (1 + np.exp(-fn(x, z))), 1.0, -1.0)
        for data, bound, cfg in (
                (Dataset(y, x, z), floodgate_lcb, FloodgateConfig(big_k=0)),
                (Dataset(yb, x, z), macm_lcb, MacmConfig(k_copies=0))):
            assert bound(data, column, model, cfg) == \
                bound(data, flat, model, cfg)


class TestMonteCarloMoments:
    def test_matches_exact_mode_in_the_mean(self):
        model = _indep_model()
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.5]),
                                     np.array([0.5]))
        data, _ = _logit_draw(model, 1.5, 0.5, 800, seed=4)
        exact = macm_lcb(data, mu, model, MacmConfig(k_copies=0))
        mc = macm_lcb(data, mu, model,
                      MacmConfig(m_copies=4000, k_copies=400, seed=9))
        assert mc.point == pytest.approx(exact.point, abs=0.03)

    def test_label_validation(self):
        model = _indep_model()
        x, z = model.sample_joint(20, seed=5)
        data = Dataset(np.linspace(-1, 1, 20), x, z)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(DegenerateLabelsError):
            macm_lcb(data, mu, model, MacmConfig())

    def test_seeded_determinism(self):
        model = _indep_model()
        data, mu = _logit_draw(model, 1.0, 0.3, 150, seed=6)
        cfg = MacmConfig(m_copies=200, k_copies=50, seed=21)
        a = macm_lcb(data, mu, model, cfg)
        b = macm_lcb(data, mu, model, cfg)
        assert (a.lcb, a.point) == (b.lcb, b.point)
        c = macm_lcb(data, mu, model,
                     MacmConfig(m_copies=200, k_copies=50, seed=22))
        assert a.point != c.point

    def test_point_estimates_macm_gap(self):
        # With mu equal to the true conditional mean the estimand of the
        # point statistic is the MACM gap itself.
        model = _indep_model()
        beta, zeta = 1.2, 0.4
        data, mu = _logit_draw(model, beta, zeta, 30000, seed=7)

        x, z = model.sample_joint(200000, seed=8)
        truth, oracle_se = _oracle_on_draws(model, beta, zeta * z[:, 0], x, z)
        assert oracle_se < 0.002
        rep = macm_lcb(data, mu, model,
                       MacmConfig(m_copies=2000, k_copies=100, seed=10))
        assert rep.point == pytest.approx(truth, abs=0.03)
        assert rep.lcb <= truth + 0.01


def _materialised_lcb(data, mu, model, cfg):
    """The MACM bound from one (M + K, n) pool of null copies held at once."""
    m = cfg.m_copies if cfg.m_copies is not None else 4 * data.n
    tilde = mu_null_values(mu, model, data.z, m + cfg.k_copies, cfg.seed)
    g_m = tilde[:m].mean(axis=0)
    mu_obs = np.asarray(mu.predict(data.x, data.z), dtype=float).reshape(data.n)
    y = data.y
    copy_wrong = (y[None, :] * (tilde[m:] - g_m[None, :]) < 0)
    obs_wrong = (y * (mu_obs - g_m) < 0)
    r = copy_wrong.mean(axis=0) - obs_wrong.astype(float)
    r_bar = float(r.mean())
    s = float(r.std(ddof=1))
    lcb = 2.0 * max(r_bar - cfg.alpha.z * s / math.sqrt(data.n), 0.0)
    return lcb, 2.0 * r_bar, s


class TestStreamedPool:
    @pytest.mark.parametrize("block_values",
                             [None, 1 << 22, 1 << 20, 600 * 7])
    @pytest.mark.parametrize("custom", [False, True])
    def test_matches_materialised_pool(self, monkeypatch, block_values,
                                       custom):
        # n = 600 with the default M = 4n and K = 100: a pool of 1.5M
        # values, drawn in the default blocks of 873 copies, one block
        # per segment, with the M segment cut after 1747 copies, or in
        # blocks of 7 copies.
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        model = Ar1Model(dim=6, rho=0.3, focal_index=1)
        x, z = model.sample_joint(600, seed=11)
        coef = np.array([0.8, 0.8, 0.0, 0.0, -0.5])
        f = 1.5 * x[:, 0] + z @ coef
        y = np.where(np.random.default_rng(12).random(600)
                     < 1.0 / (1.0 + np.exp(-f)), 1.0, -1.0)
        data = Dataset(y, x, z)
        mu = LinearWorkingRegression(LOGIT_L1, 0.0, np.array([1.5]), coef,
                                     link="binary_mean")
        if custom:
            mu = CustomRegression(
                lambda x, z: np.tanh((1.5 * x[:, 0] + z @ coef) / 2.0) ** 3)
        cfg = MacmConfig(k_copies=100, seed=13)
        rep = macm_lcb(data, mu, model, cfg)
        assert (rep.lcb, rep.point, rep.se) == _materialised_lcb(
            data, mu, model, cfg)

    def test_copula_latent_z_computed_once(self, monkeypatch):
        # Blocks of 7 copies make 44 sample_null_copies calls on one z;
        # the copula maps z to its latent scale once, with the values of
        # a pool drawn at once.
        model = CopulaModel(Ar1Model(dim=6, rho=0.3, focal_index=1))
        x, z = model.sample_joint(200, seed=4)
        coef = np.array([0.8, 0.0, -0.5, 0.0, 0.3])
        y = np.where(np.tanh((1.5 * x[:, 0] + z @ coef) / 2.0) > 0, 1.0, -1.0)
        y[::7] *= -1.0
        data = Dataset(y, x, z)
        mu = LinearWorkingRegression(LOGIT_L1, 0.0, np.array([1.5]), coef,
                                     link="binary_mean")
        cfg = MacmConfig(m_copies=200, k_copies=100, seed=5)
        want = _materialised_lcb(data, mu, model, cfg)
        calls = []
        to_latent = CopulaModel._to_latent
        monkeypatch.setattr(CopulaModel, "_to_latent", staticmethod(
            lambda u: calls.append(u.shape) or to_latent(u)))
        monkeypatch.setattr(mmse, "_BLOCK_VALUES", 200 * 7)
        model = CopulaModel(model.latent)
        rep = macm_lcb(data, mu, model, cfg)
        assert calls == [(200, 5)]
        assert (rep.lcb, rep.point, rep.se) == want

    def test_memory_linear_in_n(self, rss_growth_mb):
        # n = 4000 with M = 4n: a materialised pool grows peak RSS by
        # about 1.9 GB. The streamed one holds one 4 MB block at a time
        # and grew by about 3 MB; the bound leaves room for two more
        # blocks and the allocator.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from floodgate import (Ar1Model, Dataset, LinearWorkingRegression,
                                   MacmConfig, macm_lcb)
            n = 4000
            model = Ar1Model(40, 0.3, 1)
            x, z = model.sample_joint(n, 1)
            coef = np.zeros(39)
            coef[:8] = 0.8
            f = 1.5 * x[:, 0] + z @ coef
            y = np.where(np.random.default_rng(2).random(n)
                         < 1 / (1 + np.exp(-f)), 1.0, -1.0)
            mu = LinearWorkingRegression("CUSTOM", 0.0, np.array([1.5]), coef,
                                         link="binary_mean")
            data = Dataset(y, x, z)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            macm_lcb(data, mu, model, MacmConfig(k_copies=100, seed=3))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
        """)
        assert rss_growth_mb(script) < 12.0

    def test_generic_mu_memory_bounded(self, rss_growth_mb):
        # A mu that is not a LinearWorkingRegression sees tiled z rows:
        # one whole block of copies at n = 1500 times d_z = 39 columns
        # would take about 160 MB, so the tile is chunked. One block, its
        # values and one 3.7 MB tile grew peak RSS by about 7 MB; the
        # bound leaves room for about three more blocks.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from floodgate import (Ar1Model, CustomRegression, Dataset,
                                   MacmConfig, macm_lcb)
            n = 1500
            model = Ar1Model(40, 0.3, 1)
            x, z = model.sample_joint(n, 1)
            coef = np.zeros(39)
            coef[:8] = 0.8
            f = 1.5 * x[:, 0] + z @ coef
            y = np.where(np.random.default_rng(2).random(n)
                         < 1 / (1 + np.exp(-f)), 1.0, -1.0)
            mu = CustomRegression(
                lambda x, z: np.tanh((1.5 * x[:, 0] + z @ coef) / 2.0))
            data = Dataset(y, x, z)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            macm_lcb(data, mu, model,
                     MacmConfig(m_copies=1400, k_copies=100, seed=3))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
        """)
        assert rss_growth_mb(script) < 20.0


class TestMacmGapEnumerate:
    def test_hand_computed_binary_example(self):
        # X, Z in {0, 1}; P uniform on the four atoms.
        # E[Y | X=x, Z=z] = 0.8 if x == z else -0.4.
        atoms = [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
        probs = [0.25] * 4
        cond = lambda x, z: 0.8 if x[0] == z[0] else -0.4
        # E[Y|Z=z] = (0.8 - 0.4) / 2 = 0.2 for both z values.
        expected = np.mean([abs(0.2 - 0.8), abs(0.2 + 0.4)])
        got = macm_gap_enumerate(atoms, probs, cond)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_x_independent_of_y_gives_zero(self):
        atoms = [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((1,), (1,))]
        probs = [0.1, 0.2, 0.3, 0.4]
        got = macm_gap_enumerate(atoms, probs, lambda x, z: 0.5 * z[0] - 0.2)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_invalid_distribution(self):
        with pytest.raises(ValidationError):
            macm_gap_enumerate([((0,), (0,))], [0.7], lambda x, z: 0.0)

    def test_z_atoms_equal_to_eight_digits_stay_apart(self):
        # numpy prints both z values as 0.12345679; E[Y | X, Z] depends
        # on z alone, so the gap is 0 only if the two atoms stay apart.
        z_a, z_b = np.array([0.1234567891]), np.array([0.1234567899])
        atoms = [((x,), z) for z in (z_a, z_b) for x in (0, 1)]
        cond = lambda x, z: 1.0 if z[0] == z_a[0] else -1.0
        got = macm_gap_enumerate(atoms, [0.25] * 4, cond)
        assert got == pytest.approx(0.0, abs=1e-12)


def _per_node_tanh_mean(h, scale):
    """The 64-node rule for E tanh(h + scale * xi / 2), one tanh per node."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / weights.sum()
    ey = np.zeros(len(h))
    for node, weight in zip(nodes, weights):
        ey += weight * np.tanh(h + scale * node / 2.0)
    return ey


class TestMacmGapOracle:
    def test_sign_response_has_unit_gap(self):
        # E[Y | X, Z] = tanh(1e6 X / 2), a sign up to 1e-6 in X, with X
        # symmetric about zero given Z: E[Y | Z] = 0, so the MACM gap is
        # 1. Every node pair's q = exp(-2t) underflows, so the pairs take
        # their tanh values directly.
        model = _indep_model()
        value, se = _oracle_on_draws(model, 1e6, 0.0,
                                     *model.sample_joint(50000, seed=3))
        assert value == pytest.approx(1.0, abs=3 * se + 1e-9)

    def test_constant_response_has_zero_gap(self):
        model = _indep_model()
        value, se = _oracle_on_draws(model, 0.0, 2.0 * math.atanh(0.3),
                                     *model.sample_joint(10000, seed=4))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_pair_kernel_matches_per_node_tanh_sum(self):
        # Random h and slope * sd from 0 to 1e3, so e = exp(-2|h|) and a
        # pair's q = exp(-2t) each underflow, alone and together; the
        # edge of the normal range (|h| and t near 354) is sampled too.
        rng = np.random.default_rng(17)
        h = np.concatenate([rng.uniform(-1e3, 1e3, 3000),
                            rng.choice([-1.0, 1.0], 3000)
                            * 10.0 ** rng.uniform(-8, 3, 3000),
                            rng.uniform(350.0, 375.0, 1000),
                            [0.0, -0.0, 1e-300, 354.0, -372.0, 745.0]])
        nodes, _ = macm._pair_rule()
        scales = np.concatenate([[0.0, 1e-12, 0.7, 1e3],
                                 2.0 * 354.4 / nodes[[0, 5, 31]],
                                 rng.uniform(0.0, 1e3, 20),
                                 10.0 ** rng.uniform(-6, 3, 20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in scales:
                np.testing.assert_allclose(
                    macm._tanh_node_mean(h, scale),
                    _per_node_tanh_mean(h, scale), rtol=0.0, atol=1e-13)

    def test_node_rule_matches_mpmath_at_a6_scale(self):
        # On rows of the A6 design, where |slope| sd <= 0.7, the 64-node
        # rule equals adaptive quadrature, split at the root of the linear
        # predictor, within 1e-12.
        mpmath = pytest.importorskip("mpmath")
        mu = build_mu_star(MuStarSpec(LOGISTIC_LINEAR, sparsity=10,
                                      amplitude=15.0, seed=606), 500, 40)
        w = np.concatenate(Ar1Model(40, 0.3, 1).sample_joint(2000, seed=987),
                           axis=1)
        rng = np.random.default_rng(5)
        for j in map(int, mu.support):
            z_j = np.delete(w, j, axis=1)
            mean, cov = Ar1Model(40, 0.3, j + 1).conditional_x_moments(z_j)
            scale = abs(mu.coef[j]) * math.sqrt(cov[0, 0])
            assert scale <= 0.7
            rows = rng.choice(2000, 4, replace=False)
            h = (z_j[rows] @ np.delete(mu.coef, j)
                 + mu.coef[j] * mean[rows, 0]) / 2.0
            for h_row, got in zip(h, macm._tanh_node_mean(h, scale)):
                with mpmath.workdps(20):
                    want = mpmath.quad(
                        lambda xi: mpmath.tanh(h_row + scale * xi / 2)
                        * mpmath.npdf(xi),
                        [-mpmath.inf, -2 * h_row / scale, mpmath.inf])
                assert got == pytest.approx(float(want), rel=0.0, abs=1e-12)

    def test_rejects_misshaped_draws(self):
        model = Ar1Model(dim=5, rho=0.3, focal_index=2)
        x, z = model.sample_joint(30, seed=6)
        x = x[:, 0]
        mean = model.conditional_x_moments(z)[0][:, 0]
        for bad_x, bad_mean in ((x[:, None], mean),            # not 1-D
                                (np.column_stack([x, x]), mean),
                                (x[:29], mean),                # lengths
                                (x, mean[:29]),
                                (x, mean[:, None])):
            with pytest.raises(ShapeError):
                macm_gap_oracle(1.0, 0.0, bad_x, bad_mean, 1.0)
        for bad_offset in (np.zeros(29), np.zeros((30, 1))):
            with pytest.raises(ShapeError):
                macm_gap_oracle(1.0, bad_offset, x, mean, 1.0)
        for slope, offset, sd in ((math.nan, 0.0, 1.0),
                                  (1.0, np.full(30, math.inf), 1.0),
                                  (1.0, 0.0, -0.5), (1.0, 0.0, math.inf)):
            with pytest.raises(ValidationError):
                macm_gap_oracle(slope, offset, x, mean, sd)

    def test_needs_two_draws(self):
        # One draw has no sample SE (numpy would return nan with a
        # RuntimeWarning).
        model = Ar1Model(dim=5, rho=0.3, focal_index=2)
        x, z = model.sample_joint(2, seed=7)
        for n in (0, 1):
            with pytest.raises(SizeError):
                _oracle_on_draws(model, 2.0, 0.0, x[:n], z[:n])
        _, se = _oracle_on_draws(model, 2.0, 0.0, x, z)
        assert math.isfinite(se)


class TestMacmRescalingInvariance:
    """c * mu gives the same MACM bound as mu for every c > 0: only the
    signs of mu - E[mu | Z] enter R_i. A power of two scales every value
    without rounding, so the reports are identical, not merely close."""

    MU = LinearWorkingRegression(OLS, 0.2, np.array([1.1]),
                                 np.array([0.4, -0.3, 0.0]))

    @given(rho=st.floats(-0.6, 0.6),
           focal=st.integers(1, 4),
           log2_c=st.integers(-30, 30),
           k_copies=st.sampled_from([0, 1, 7, 40]),
           custom=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scale(self, rho, focal, log2_c, k_copies, custom,
                                seed):
        model = Ar1Model(dim=4, rho=rho, focal_index=focal)
        x, z = model.sample_joint(120, seed % 10_000)
        rng = np.random.default_rng(seed)
        prob = 1.0 / (1.0 + np.exp(-self.MU.predict(x, z)))
        data = Dataset(np.where(rng.random(120) < prob, 1.0, -1.0), x, z)
        c = 2.0 ** log2_c
        mu = self.MU
        scaled = LinearWorkingRegression(OLS, c * mu.intercept,
                                         c * mu.x_coef, c * mu.z_coef)
        if custom:      # the generic path: mu on tiled rows of z
            mu = CustomRegression(self.MU.predict,
                                  linear_focal_coef=self.MU.x_coef)
            scaled = CustomRegression(
                lambda xx, zz: c * self.MU.predict(xx, zz),
                linear_focal_coef=c * self.MU.x_coef)
        cfg = MacmConfig(m_copies=50, k_copies=k_copies, seed=seed)
        assert macm_lcb(data, scaled, model, cfg) == macm_lcb(data, mu,
                                                              model, cfg)
