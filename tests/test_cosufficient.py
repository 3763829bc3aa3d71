import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodgate import (Ar1Model, CopulaModel, CustomRegression, Dataset,
                       DiscreteMarkovChain, GaussianLinearModel,
                       LinearWorkingRegression, cosufficient_lcb,
                       dmc_conditional_resample,
                       gaussian_conditional_resample)
from floodgate.cosufficient import dmc_strata, hat_matrix
from floodgate.errors import (ShapeError, SingularDesignError, SizeError,
                              ValidationError)
from floodgate.regression import OLS


def _gaussian_model(sigma2=1.0):
    return GaussianLinearModel(np.array([0.5, 1.0]), sigma2, np.zeros(1),
                               np.eye(1))


def _gaussian_data(model, mu, n, seed, noise=1.0):
    x, z = model.sample_joint(n, seed)
    rng = np.random.default_rng(seed + 1)
    y = mu.predict(x, z) + noise * rng.standard_normal(n)
    return Dataset(y, x, z)


def _chain():
    initial = np.array([0.5, 0.3, 0.2])
    t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    return DiscreteMarkovChain(initial, [t, t, t], focal_index=2)


def _chain_lcb(n, n2):
    """Exact co-sufficient LCB on n rows of the chain, in batches of n2."""
    model = _chain()
    x, z = model.sample_joint(n, seed=5)
    mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.zeros(3))
    return cosufficient_lcb(Dataset(x[:, 0], x, z), mu, model, n2=n2,
                            mc_k=0, seed=1)


class TestBatchPlan:
    """How cosufficient_lcb cuts n rows into n1 batches of n2 rows."""

    def test_exact_division(self):
        d = _chain_lcb(1200, 300).diagnostics
        assert (d["n1"], d["n2"], d["dropped"]) == (4, 300, 0)

    def test_remainder_dropped(self):
        d = _chain_lcb(1000, 300).diagnostics
        assert (d["n1"], d["n2"], d["dropped"]) == (3, 300, 100)

    def test_too_few_batches(self):
        with pytest.raises(SizeError):
            _chain_lcb(500, 300)

    def test_validation(self):
        # The chain has no batch-size floor, so only the n2 check stands
        # between n2 < 1 and a division by zero.
        for n2 in (0, -4):
            with pytest.raises(ValidationError, match="n2"):
                _chain_lcb(200, n2)


    @pytest.mark.parametrize("bad", [0.5, 3.0, -1.0])
    def test_chain_focal_values_must_be_states(self, bad):
        # A stratum's pmf counts focal values as the states 0..K-1.
        model = _chain()
        x, z = model.sample_joint(200, seed=5)
        x[7, 0] = bad
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.zeros(3))
        with pytest.raises(ValidationError, match="states"):
            cosufficient_lcb(Dataset(x[:, 0], x, z), mu, model, n2=50,
                             mc_k=0, seed=1)


class TestHatMatrix:
    def test_projection_properties(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 3))
        h = hat_matrix(z)
        assert np.allclose(h, h.T, atol=1e-12)
        assert np.allclose(h @ h, h, atol=1e-10)
        u = np.hstack([np.ones((20, 1)), z])
        assert np.allclose(h @ u, u, atol=1e-10)
        assert np.trace(h) == pytest.approx(4.0, abs=1e-10)

    def test_rank_deficient_batch(self):
        z = np.ones((10, 1))      # collinear with the intercept
        with pytest.raises(SingularDesignError):
            hat_matrix(z)


class TestGaussianConditionalResample:
    def test_sufficient_statistic_preserved(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((30, 2))
        x = rng.standard_normal(30)
        u = np.hstack([np.ones((30, 1)), z])
        tilde = gaussian_conditional_resample(x, z, 0.8, seed=3, copies=25)
        for c in range(25):
            assert np.allclose(u.T @ tilde[c], u.T @ x, atol=1e-8)

    def test_conditional_law_moments(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((12, 1))
        x = rng.standard_normal(12)
        sigma2 = 0.6
        tilde = gaussian_conditional_resample(x, z, sigma2, seed=4,
                                              copies=60000)
        h = hat_matrix(z)
        assert np.allclose(tilde.mean(axis=0), h @ x, atol=0.02)
        expected_var = sigma2 * (1.0 - np.diag(h))
        assert np.allclose(tilde.var(axis=0, ddof=1), expected_var, atol=0.02)

    def test_zero_variance_is_deterministic(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((8, 1))
        x = rng.standard_normal(8)
        tilde = gaussian_conditional_resample(x, z, 0.0, seed=5, copies=3)
        h = hat_matrix(z)
        assert np.allclose(tilde, (h @ x)[None, :], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ShapeError):
            gaussian_conditional_resample(np.ones(3), np.ones((4, 1)), 1.0, 0, 2)
        with pytest.raises(ValidationError):
            gaussian_conditional_resample(np.ones(3), np.ones((3, 1)) * [[1], [2], [3]],
                                          -1.0, 0, 2)


class TestDmcResample:
    def test_strata_group_by_neighbor_pair(self):
        model = _chain()
        x, z = model.sample_joint(200, seed=7)
        k1, k2 = model.neighbor_states(z)
        for stratum in dmc_strata(model, z):
            assert len(set(zip(k1[stratum], k2[stratum]))) == 1

    def test_count_table_preserved_exactly(self):
        model = _chain()
        x, z = model.sample_joint(150, seed=8)
        tilde = dmc_conditional_resample(model, x[:, 0], z, seed=9, copies=10)
        k1, k2 = model.neighbor_states(z)
        def table(values):
            t = {}
            for a, b, v in zip(k1, k2, values):
                t[(a, b, v)] = t.get((a, b, v), 0) + 1
            return t
        base = table(x[:, 0])
        for c in range(10):
            assert table(tilde[c]) == base

    def test_within_stratum_frequencies_uniform(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        model = _chain()
        x, z = model.sample_joint(60, seed=10)
        tilde = dmc_conditional_resample(model, x[:, 0], z, seed=11,
                                         copies=4000)
        stratum = max(dmc_strata(model, z), key=len)
        vals, counts = np.unique(x[stratum, 0], return_counts=True)
        if len(vals) > 1:
            i = stratum[0]
            obs = np.array([(tilde[:, i] == v).sum() for v in vals])
            expected = counts / counts.sum() * 4000
            p = scipy_stats.chisquare(obs, expected).pvalue
            assert p > 0.001


class TestCosufficientLcb:
    def test_closed_form_matches_resampled_moments(self):
        model = _gaussian_model()
        mu = LinearWorkingRegression(OLS, 0.2, np.array([2.0]),
                                     np.array([0.7]))
        data = _gaussian_data(model, mu, 400, seed=12)
        exact = cosufficient_lcb(data, mu, model, n2=100, mc_k=0, seed=1)
        mc = cosufficient_lcb(data, mu, model, n2=100, mc_k=4000, seed=1)
        assert mc.point == pytest.approx(exact.point, abs=0.05)

    def test_dmc_closed_form_matches_resampled_moments(self):
        # mu depends on W_6, which is not a neighbour of the focal W_3:
        # the closed form must hold each row's own z while the focal
        # value moves over its stratum, as the resamples do.
        t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
        model = DiscreteMarkovChain(np.array([0.5, 0.3, 0.2]), [t] * 5,
                                    focal_index=3)
        x, z = model.sample_joint(4000, seed=5)
        y = x[:, 0] + np.random.default_rng(6).standard_normal(4000)
        data = Dataset(y, x, z)
        mu = CustomRegression(lambda x, z: x[:, 0] + 2.0 * z[:, 4])
        exact = cosufficient_lcb(data, mu, model, n2=200, mc_k=0, seed=1)
        mc = cosufficient_lcb(data, mu, model, n2=200, mc_k=2000, seed=1)
        assert exact.point == pytest.approx(mc.point, abs=0.01)

    def test_point_consistent_for_truth(self):
        sigma2 = 1.0
        model = _gaussian_model(sigma2)
        beta = 1.5
        mu = LinearWorkingRegression(OLS, 0.0, np.array([beta]),
                                     np.array([0.5]))
        data = _gaussian_data(model, mu, 20000, seed=13)
        rep = cosufficient_lcb(data, mu, model, n2=500, mc_k=0, seed=2)
        # Conditioning on the batch sufficient statistic only slightly
        # shrinks Var(X | Z, T) relative to sigma2 at n2 >> d_z.
        truth = beta * math.sqrt(sigma2)
        assert rep.point == pytest.approx(truth, rel=0.05)
        assert rep.diagnostics["n1"] == 40

    def test_batch_accounting(self):
        model = _gaussian_model()
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]),
                                     np.array([0.0]))
        data = _gaussian_data(model, mu, 1030, seed=14)
        rep = cosufficient_lcb(data, mu, model, n2=250, mc_k=0, seed=3)
        assert rep.diagnostics["n1"] == 4
        assert rep.diagnostics["dropped"] == 30
        assert rep.n_eff == 4

    def test_batch_size_floor_for_gaussian(self):
        model = _gaussian_model()
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]),
                                     np.array([0.0]))
        data = _gaussian_data(model, mu, 100, seed=15)
        with pytest.raises(SizeError):
            cosufficient_lcb(data, mu, model, n2=3, mc_k=0, seed=0)

    def test_mc_k_validation(self):
        model = _gaussian_model()
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]),
                                     np.array([0.0]))
        data = _gaussian_data(model, mu, 100, seed=16)
        with pytest.raises(ValidationError):
            cosufficient_lcb(data, mu, model, n2=25, mc_k=1, seed=0)

    def test_unsupported_model(self):
        model = CopulaModel(Ar1Model(dim=3, rho=0.3, focal_index=2))
        x, z = model.sample_joint(50, seed=17)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.zeros(2))
        data = Dataset(np.zeros(50), x, z)
        with pytest.raises(ValidationError):
            cosufficient_lcb(data, mu, model, n2=10, mc_k=0, seed=0)

    def test_dmc_exact_lcb_runs_and_is_deterministic(self):
        model = _chain()
        x, z = model.sample_joint(600, seed=18)
        rng = np.random.default_rng(19)
        y = 1.5 * x[:, 0] + rng.standard_normal(600)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.5]), np.zeros(3))
        data = Dataset(y, x, z)
        a = cosufficient_lcb(data, mu, model, n2=150, mc_k=0, seed=4)
        b = cosufficient_lcb(data, mu, model, n2=150, mc_k=0, seed=4)
        assert (a.lcb, a.point) == (b.lcb, b.point)
        assert a.point > 0.0

    def test_seed_changes_batching(self):
        model = _gaussian_model()
        mu = LinearWorkingRegression(OLS, 0.1, np.array([1.0]),
                                     np.array([0.3]))
        data = _gaussian_data(model, mu, 300, seed=20)
        a = cosufficient_lcb(data, mu, model, n2=75, mc_k=0, seed=5)
        b = cosufficient_lcb(data, mu, model, n2=75, mc_k=0, seed=6)
        assert a.point != b.point

    @pytest.mark.parametrize("family", ["gaussian", "dmc"])
    def test_mc_linear_mu_matches_custom_wrap(self, family):
        # The linear fast path sums (intercept + z.c) + x.a; the wrapped
        # predict sums (intercept + x.a) + z.c. Only rounding differs.
        model = _gaussian_model() if family == "gaussian" else _chain()
        x, z = model.sample_joint(400, seed=21)
        rng = np.random.default_rng(22)
        y = 1.2 * x[:, 0] + z[:, 0] + rng.standard_normal(400)
        lin = LinearWorkingRegression(OLS, 0.4, np.array([1.2]),
                                      np.linspace(-1.0, 1.0, z.shape[1]))
        wrapped = CustomRegression(lin.predict)
        data = Dataset(y, x, z)
        for seed in range(4):
            fast = cosufficient_lcb(data, lin, model, n2=100, mc_k=50,
                                    seed=seed)
            slow = cosufficient_lcb(data, wrapped, model, n2=100, mc_k=50,
                                    seed=seed)
            np.testing.assert_allclose([fast.lcb, fast.point, fast.se],
                                       [slow.lcb, slow.point, slow.se],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mc_k", [0, 50])
    def test_ar1_model_equals_its_gaussian_family(self, mc_k):
        # Focal W_1 of an AR(1) vector given the rest: X | Z ~ N(rho Z_1,
        # 1 - rho^2). The co-sufficient bound needs only that family.
        ar1 = Ar1Model(dim=6, rho=0.3, focal_index=1)
        fam = GaussianLinearModel(np.concatenate([[0.0], [0.3], np.zeros(4)]),
                                  0.91, np.zeros(5), np.eye(5))
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.5]),
                                     np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
        data = _gaussian_data(ar1, mu, 400, seed=1)
        a = cosufficient_lcb(data, mu, ar1, n2=100, mc_k=mc_k, seed=3)
        b = cosufficient_lcb(data, mu, fam, n2=100, mc_k=mc_k, seed=3)
        assert (a.lcb, a.point, a.se) == (b.lcb, b.point, b.se)
        assert a.point > 0.0

    def test_memory_without_projection_matrix(self, rss_growth_mb):
        # Two batches of n2 = 4000 rows with d_z = 39: an n2 x n2 hat
        # matrix takes 128 MB, while its basis Q takes 1.3 MB.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from floodgate import (Ar1Model, Dataset, LinearWorkingRegression,
                                   cosufficient_lcb)
            n = 8000
            model = Ar1Model(40, 0.3, 1)
            x, z = model.sample_joint(n, 1)
            coef = np.zeros(39)
            coef[:8] = 0.5
            mu = LinearWorkingRegression("OLS", 0.0, np.array([1.5]), coef)
            y = mu.predict(x, z) + np.random.default_rng(2).standard_normal(n)
            data = Dataset(y, x, z)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for mc_k in (0, 20):
                cosufficient_lcb(data, mu, model, 4000, mc_k=mc_k, seed=3)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
        """)
        assert rss_growth_mb(script) < 40.0

    def test_multi_column_gaussian_model_is_unsupported(self):
        model = Ar1Model(dim=4, rho=0.3, focal_index=(1, 2))
        x, z = model.sample_joint(60, seed=23)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]), np.zeros(2))
        data = Dataset(np.zeros(60), x[:, :1], z)
        with pytest.raises(ValidationError):
            cosufficient_lcb(data, mu, model, n2=20, mc_k=0, seed=0)


class TestCosufficientInvariance:
    """The bound of c*mu + g(Z), c > 0, equals the bound of mu: g(Z) is
    fixed given the batch's Z, and c cancels in R / sqrt(V)."""

    MU = LinearWorkingRegression(OLS, 0.2, np.array([1.1]),
                                 np.array([0.4, -0.3, 0.0]))

    @given(kind=st.sampled_from(["ar1", "gaussian"]),
           rho=st.floats(-0.6, 0.6),
           focal=st.integers(1, 4),
           log_c=st.floats(-2.0, 2.0),
           shift=st.floats(-3.0, 3.0),
           slopes=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           mc_k=st.sampled_from([0, 2, 20]),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_z_shift(self, kind, rho, focal, log_c, shift, slopes,
                               mc_k, seed):
        if kind == "ar1":
            model = Ar1Model(dim=4, rho=rho, focal_index=focal)
        else:
            gamma = np.array([shift, rho, -rho, 0.5 * rho])
            model = GaussianLinearModel(gamma, 1.0 + rho * rho, np.zeros(3),
                                        np.eye(3))
        data = _gaussian_data(model, self.MU, 200, seed % 10_000)
        c = math.exp(log_c)
        b = np.array(slopes)
        probe = CustomRegression(
            lambda xx, zz: (c * self.MU.predict(xx, zz) + shift + zz @ b
                            + np.sin(zz[:, 0])),
            linear_focal_coef=c * self.MU.x_coef)
        ref = cosufficient_lcb(data, self.MU, model, n2=50, mc_k=mc_k,
                               seed=seed)
        got = cosufficient_lcb(data, probe, model, n2=50, mc_k=mc_k,
                               seed=seed)
        assert got.lcb == pytest.approx(ref.lcb, rel=1e-9, abs=1e-9)
        assert got.point == pytest.approx(ref.point, rel=1e-9, abs=1e-9)
