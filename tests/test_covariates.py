import hashlib
import itertools
import math

import numpy as np
import pytest

from floodgate import (Ar1Model, CopulaModel, CustomRegression, Dataset,
                       DiscreteMarkovChain, FloodgateConfig,
                       GaussianLinearModel, conditional_moments,
                       cosufficient_lcb, floodgate_lcb, model_from_json)
from floodgate.core import philox_rng
from floodgate.cosufficient import _ChainBatch, _GaussianBatch
from floodgate.covariates import ar1_covariance
from floodgate.errors import (ShapeError, UnsupportedClosedFormError,
                              ValidationError)


class TestAr1Covariance:
    def test_small_matrix(self):
        expected = np.array([[1.0, 0.5, 0.25],
                             [0.5, 1.0, 0.5],
                             [0.25, 0.5, 1.0]])
        assert np.allclose(ar1_covariance(3, 0.5), expected, atol=1e-15)

    def test_unit_diagonal(self):
        assert np.allclose(np.diag(ar1_covariance(7, -0.4)), 1.0)


class TestAr1Model:
    def test_marginal_moments(self):
        model = Ar1Model(dim=6, rho=0.3, focal_index=3)
        x, z = model.sample_joint(40000, seed=11)
        w = np.empty((len(x), 6))
        w[:, [2]] = x
        w[:, [0, 1, 3, 4, 5]] = z
        assert np.allclose(w.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(w.var(axis=0), 1.0, atol=0.04)
        lag1 = [np.corrcoef(w[:, j], w[:, j + 1])[0, 1] for j in range(5)]
        assert np.allclose(lag1, 0.3, atol=0.03)

    def test_interior_conditional_moments(self):
        # For an interior coordinate of a stationary AR(1) vector the
        # conditional law given the rest is
        # N(rho (w_{j-1} + w_{j+1}) / (1 + rho^2), (1-rho^2)/(1+rho^2)).
        rho = 0.45
        model = Ar1Model(dim=5, rho=rho, focal_index=3)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((9, 4))
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        expected_mean = rho * (z[:, 1] + z[:, 2]) / (1 + rho ** 2)
        assert np.allclose(mean[:, 0], expected_mean, atol=1e-12)
        assert cov[0, 0] == pytest.approx((1 - rho ** 2) / (1 + rho ** 2),
                                          abs=1e-12)

    def test_endpoint_conditional_moments(self):
        # The first coordinate depends only on its single neighbor.
        rho = 0.6
        model = Ar1Model(dim=4, rho=rho, focal_index=1)
        z = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert np.allclose(mean[:, 0], rho * z[:, 0], atol=1e-12)
        assert cov[0, 0] == pytest.approx(1 - rho ** 2, abs=1e-12)

    def test_conditional_matches_brute_force_partition(self):
        rho, dim, focal = -0.35, 6, (2, 5)
        model = Ar1Model(dim=dim, rho=rho, focal_index=focal)
        full = ar1_covariance(dim, rho)
        s = [1, 4]
        r = [0, 2, 3, 5]
        solve = np.linalg.solve(full[np.ix_(r, r)], full[np.ix_(r, s)])
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 4))
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert np.allclose(mean, z @ solve, atol=1e-12)
        expected_cov = full[np.ix_(s, s)] - full[np.ix_(s, r)] @ solve
        assert np.allclose(cov, expected_cov, atol=1e-12)

    def test_null_copies_match_conditional_moments(self):
        model = Ar1Model(dim=4, rho=0.5, focal_index=2)
        z = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
        copies = model.sample_null_copies(model.given(z), 40000, seed=5).copies
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert copies.shape == (40000, 2, 1)
        assert np.allclose(copies.mean(axis=0), mean, atol=0.02)
        assert np.allclose(copies.var(axis=0, ddof=1)[:, 0], cov[0, 0],
                           atol=0.02)

    def test_seed_determinism(self):
        model = Ar1Model(dim=3, rho=0.2, focal_index=2)
        a = model.sample_joint(50, seed=9)
        b = model.sample_joint(50, seed=9)
        c = model.sample_joint(50, seed=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("focal", [1, 4, (2, 5)])
    def test_joint_draws_match_row_major_recursion(self, focal):
        # The recursion written over an (n, p) array, one column per
        # step, with X and Z selected as columns: same bytes and the
        # same (column-major) layout.
        dim, rho, n = 6, 0.35, 257
        rng = philox_rng(21)
        w = np.empty((n, dim))
        w[:, 0] = rng.standard_normal(n)
        for j in range(1, dim):
            w[:, j] = (rho * w[:, j - 1]
                       + math.sqrt(1.0 - rho ** 2) * rng.standard_normal(n))
        focal0 = [j - 1 for j in np.atleast_1d(focal)]
        want_x = w[:, focal0]
        want_z = w[:, [j for j in range(dim) if j not in focal0]]
        x, z = Ar1Model(dim, rho, focal).sample_joint(n, seed=21)
        for got, want in ((x, want_x), (z, want_z)):
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert np.array_equal(got, want)
            assert got.strides == want.strides
            assert got.flags.f_contiguous

    @pytest.mark.parametrize("focal, digest", [
        (1, "d25f330d071d3f1c17af116bd7ffac69"),
        (4, "654f62f8d9c0eef4f3de1d6e9164537a"),
        (7, "46fa8b09a587f22a53e0aa203ad12767"),
        ((3, 4), "e631d6bd04e3d4ae97fff6450f568a4a")])
    def test_joint_draws_are_pinned(self, focal, digest):
        # Values and layout recorded from the sampler before it shared
        # its coordinate-major draw with the MACM oracle: a focal set at
        # the start, the middle and the end, and a two-column block.
        x, z = Ar1Model(7, 0.4, focal).sample_joint(9, seed=13)
        d_x = len(np.atleast_1d(focal))
        assert x.shape == (9, d_x) and z.shape == (9, 7 - d_x)
        for part in (x, z):
            assert part.strides == (8, 72) and part.flags.f_contiguous
        got = hashlib.sha256(x.tobytes() + z.tobytes()).hexdigest()
        assert got[:32] == digest

    @pytest.mark.parametrize("focal", [1, 4, 7])
    def test_row_weights_give_the_conditional_law(self, focal):
        model = Ar1Model(7, 0.4, focal)
        x, z = model.sample_joint(50, seed=3)
        w = np.empty((50, 7))
        w[:, focal - 1] = x[:, 0]
        w[:, [j for j in range(7) if j != focal - 1]] = z
        weights, sd = model.row_weights()
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert weights[focal - 1] == 0.0
        np.testing.assert_allclose(weights @ w.T, mean[:, 0], rtol=0.0,
                                   atol=1e-14)
        assert sd == math.sqrt(cov[0, 0])
        with pytest.raises(ValidationError):
            Ar1Model(7, 0.4, (focal, 2 if focal != 2 else 3)).row_weights()

    def test_scalar_focal_copies_multiply_matches_matmul(self):
        model = Ar1Model(dim=7, rho=0.45, focal_index=3)
        _, z = model.sample_joint(300, seed=2)
        mean = model.given(z).mean
        draws = philox_rng(9).standard_normal((40, 300, 1))
        want = mean[None, :, :] + draws @ model._cond_chol.T
        got = model.sample_null_copies(model.given(z), 40, seed=9).copies
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim, focal", [(1, 1), (3, (1, 2, 3))])
    def test_every_column_focal_leaves_empty_z(self, dim, focal):
        model = Ar1Model(dim=dim, rho=0.4, focal_index=focal)
        x, z = model.sample_joint(50, seed=3)
        assert x.shape == (50, dim) and z.shape == (50, 0)
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert np.array_equal(mean, np.zeros((50, dim)))
        assert np.array_equal(cov, ar1_covariance(dim, 0.4))
        copies = model.sample_null_copies(rows, 4, seed=1).copies
        assert copies.shape == (4, 50, dim)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            Ar1Model(dim=3, rho=1.0, focal_index=1)
        with pytest.raises(ValidationError):
            Ar1Model(dim=3, rho=0.5, focal_index=4)
        with pytest.raises(ValidationError):
            Ar1Model(dim=3, rho=0.5, focal_index=(1, 1))


class TestGaussianLinearModel:
    def _model(self):
        return GaussianLinearModel(gamma=np.array([1.0, 2.0, -1.0]),
                                   sigma2=0.25,
                                   z_mean=np.zeros(2), z_cov=np.eye(2))

    def test_conditional_moments(self):
        model = self._model()
        z = np.array([[1.0, 1.0], [0.0, 3.0]])
        rows = model.given(z)
        mean, cov = rows.mean, rows.cov
        assert np.allclose(mean[:, 0], [2.0, -2.0], atol=1e-14)
        assert cov[0, 0] == pytest.approx(0.25)

    def test_sampling_moments(self):
        model = self._model()
        x, z = model.sample_joint(40000, seed=3)
        resid = x[:, 0] - (1.0 + z @ np.array([2.0, -1.0]))
        assert resid.mean() == pytest.approx(0.0, abs=0.01)
        assert resid.var() == pytest.approx(0.25, abs=0.01)

    def test_null_copy_shape_and_law(self):
        model = self._model()
        z = np.zeros((3, 2))
        copies = model.sample_null_copies(model.given(z), 20000, seed=1).copies
        assert copies.shape == (20000, 3, 1)
        assert np.allclose(copies.mean(axis=0)[:, 0], 1.0, atol=0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GaussianLinearModel(np.array([0.0, 1.0]), -1.0, np.zeros(1),
                                np.eye(1))
        with pytest.raises(ShapeError):
            GaussianLinearModel(np.array([0.0]), 1.0, np.zeros(1), np.eye(1))


class TestCopulaModel:
    def _model(self):
        return CopulaModel(Ar1Model(dim=4, rho=0.5, focal_index=2))

    def test_marginals_are_uniform(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        x, z = self._model().sample_joint(4000, seed=7)
        for col in [x[:, 0], z[:, 0], z[:, 2]]:
            assert col.min() > -1 and col.max() < 1
            p = scipy_stats.kstest(col, scipy_stats.uniform(-1, 2).cdf).pvalue
            assert p > 0.01

    def test_transform_round_trip(self):
        vals = np.linspace(-0.999, 0.999, 41)
        model = self._model()
        back = model._to_uniform(model._to_latent(vals))
        assert np.allclose(back, vals, atol=1e-9)

    def test_null_copies_preserve_latent_conditional(self):
        model = self._model()
        z = model.sample_joint(4, seed=2)[1]
        copies = model.sample_null_copies(model.given(z), 30000, seed=3).copies
        lat = model._to_latent(copies[:, :, 0])
        latent = model.given(z).latent
        mean, cov = latent.mean, latent.cov
        assert np.allclose(lat.mean(axis=0), mean[:, 0], atol=0.03)
        assert np.allclose(lat.var(axis=0), cov[0, 0], atol=0.03)

    def test_copies_follow_z(self):
        # The model keeps no latent z between calls: copies drawn on the
        # rows of a new z, or of the same array changed in place, equal a
        # fresh model's.
        model = self._model()
        z1 = model.sample_joint(30, seed=1)[1]
        z2 = model.sample_joint(30, seed=2)[1]
        for z in (z1, z2, z1, z1[:20], z1):
            fresh = self._model()
            want = fresh.sample_null_copies(fresh.given(z), 4, seed=7).copies
            got = model.sample_null_copies(model.given(z), 4, seed=7).copies
            assert np.array_equal(got, want)
        z1[0, 0] = -z1[0, 0]
        fresh = self._model()
        want = fresh.sample_null_copies(fresh.given(z1), 4, seed=7).copies
        assert np.array_equal(
            model.sample_null_copies(model.given(z1), 4, seed=7).copies, want)

    def test_no_closed_form_moments(self):
        rows = self._model().given(np.zeros((2, 3)))
        mu = CustomRegression(lambda xx, zz: xx[:, 0], linear_focal_coef=1.0)
        with pytest.raises(UnsupportedClosedFormError):
            conditional_moments(rows, mu)


class TestDiscreteMarkovChain:
    def _chain(self):
        initial = np.array([0.3, 0.7])
        a = np.array([[0.9, 0.1], [0.4, 0.6]])
        b = np.array([[0.2, 0.8], [0.5, 0.5]])
        return DiscreteMarkovChain(initial, [a, b], focal_index=2)

    def test_conditional_pmf_against_enumeration(self):
        model = self._chain()
        joint = {}
        for path in itertools.product(range(2), repeat=3):
            prob = (model.initial[path[0]]
                    * model.transitions[0][path[0], path[1]]
                    * model.transitions[1][path[1], path[2]])
            joint[path] = prob
        for k1 in range(2):
            for k2 in range(2):
                z = np.array([[float(k1), float(k2)]])
                pmf = model.given(z).pmf[0]
                total = sum(joint[(k1, m, k2)] for m in range(2))
                for m in range(2):
                    assert pmf[m] == pytest.approx(joint[(k1, m, k2)] / total,
                                                   abs=1e-12)

    def test_conditional_pmf_longer_chain(self):
        # Focal in the middle of a length-4 chain over 3 states; compare
        # with full-path enumeration of P(X_3 = m | everything else).
        rng = np.random.default_rng(4)
        initial = rng.dirichlet(np.ones(3))
        trans = [rng.dirichlet(np.ones(3), size=3) for _ in range(3)]
        model = DiscreteMarkovChain(initial, trans, focal_index=3)

        def path_prob(path):
            p = initial[path[0]]
            for j in range(3):
                p *= trans[j][path[j], path[j + 1]]
            return p

        for rest in itertools.product(range(3), repeat=3):
            z = np.array([[float(v) for v in rest]])
            pmf = model.given(z).pmf[0]
            probs = np.array([path_prob((rest[0], rest[1], m, rest[2]))
                              for m in range(3)])
            assert np.allclose(pmf, probs / probs.sum(), atol=1e-12)

    def test_null_copy_frequencies(self):
        model = self._chain()
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        pmf = model.given(z).pmf
        copies = model.sample_null_copies(model.given(z), 40000,
                                          seed=8).copies[:, :, 0]
        for i in range(2):
            freq = np.mean(copies[:, i] == 0)
            assert freq == pytest.approx(pmf[i, 0], abs=0.01)

    def test_path_sampling_matches_initial_law(self):
        model = self._chain()
        path = model.sample_path(40000, seed=2)
        assert np.mean(path[:, 0] == 0) == pytest.approx(0.3, abs=0.01)

    def test_boundary_focal_rejected(self):
        initial = np.array([0.5, 0.5])
        t = np.array([[0.5, 0.5], [0.5, 0.5]])
        for bad in (1, 3):
            with pytest.raises(ValidationError):
                DiscreteMarkovChain(initial, [t, t], focal_index=bad)

    def test_invalid_transition_rows(self):
        with pytest.raises(ValidationError):
            DiscreteMarkovChain(np.array([0.5, 0.5]),
                                [np.array([[0.7, 0.4], [0.5, 0.5]]),
                                 np.eye(2)], focal_index=2)

    @pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
    def test_neighbor_state_outside_the_chain_rejected(self, bad):
        # Unchecked, 0.5 would be truncated to a state, -1 would read the
        # last row of a transition matrix and K would index past it.
        model = self._chain()
        x, z = model.sample_joint(100, seed=3)
        z[7, 0] = bad
        data = Dataset(x[:, 0], x, z)
        mu = CustomRegression(lambda xx, zz: xx[:, 0])
        with pytest.raises(ValidationError, match=r"integers in 0\.\.1"):
            model.given(z)
        with pytest.raises(ValidationError, match=r"integers in 0\.\.1"):
            floodgate_lcb(data, mu, model, FloodgateConfig(big_k=0))
        with pytest.raises(ValidationError, match=r"integers in 0\.\.1"):
            cosufficient_lcb(data, mu, model, n2=10, mc_k=0)


class TestNullCopyBlocks:
    """Copies drawn in blocks from one generator equal one draw of all."""

    @pytest.mark.parametrize("model", [
        GaussianLinearModel(np.array([0.5, 1.0, -0.3]), 2.0, np.zeros(2),
                            np.eye(2)),
        Ar1Model(dim=6, rho=0.4, focal_index=3),
        Ar1Model(dim=6, rho=-0.2, focal_index=(1, 4)),
        CopulaModel(Ar1Model(dim=5, rho=0.5, focal_index=2)),
        DiscreteMarkovChain(np.array([0.4, 0.6]),
                            [np.array([[0.9, 0.1], [0.2, 0.8]])] * 2,
                            focal_index=2),
    ])
    def test_blocks_equal_one_draw(self, model):
        _, z = model.sample_joint(37, seed=4)
        rows = model.given(z)
        whole = model.sample_null_copies(rows, 12, seed=8).copies
        rng = philox_rng(8)
        parts = [model.sample_null_copies(rows, k, rng).copies
                 for k in (5, 1, 6)]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("kind", ["gaussian", "gaussian_block", "finite",
                                      "mapped", "gaussian_batch",
                                      "chain_batch"])
    def test_rows_continue_their_stream(self, kind):
        # Every row kind, the co-sufficient batches included: a then b
        # copies from one generator equal a + b copies at once.
        chain = DiscreteMarkovChain(np.array([0.5, 0.3, 0.2]),
                                    [np.full((3, 3), 1.0 / 3.0)] * 3, 2)
        model = {"gaussian": Ar1Model(6, 0.4, 3),
                 "gaussian_block": Ar1Model(6, -0.2, (1, 4)),
                 "finite": chain, "gaussian_batch": Ar1Model(6, 0.4, 3),
                 "mapped": CopulaModel(Ar1Model(5, 0.5, 2)),
                 "chain_batch": chain}[kind]
        x, z = model.sample_joint(60, seed=4)
        rows = {"gaussian_batch": lambda: _GaussianBatch(x[:, 0], z, 0.8),
                "chain_batch": lambda: _ChainBatch(chain, x[:, 0], z)}.get(
                    kind, lambda: model.given(z))()
        whole = model.sample_null_copies(rows, 12, seed=8).copies
        rng = philox_rng(8)
        parts = [model.sample_null_copies(rows, k, rng).copies for k in (5, 7)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_generator_and_int_seed_agree(self):
        model = Ar1Model(dim=4, rho=0.3, focal_index=2)
        _, z = model.sample_joint(10, seed=1)
        a = model.sample_null_copies(model.given(z), 3, seed=5).copies
        b = model.sample_null_copies(model.given(z), 3, philox_rng(5)).copies
        assert np.array_equal(a, b)


class TestSerialization:
    @pytest.mark.parametrize("model", [
        Ar1Model(dim=5, rho=0.3, focal_index=2),
        Ar1Model(dim=5, rho=-0.2, focal_index=(1, 4)),
        CopulaModel(Ar1Model(dim=3, rho=0.5, focal_index=2)),
        GaussianLinearModel(np.array([0.5, 1.0]), 2.0, np.zeros(1), np.eye(1)),
        DiscreteMarkovChain(np.array([0.4, 0.6]),
                            [np.array([[0.9, 0.1], [0.2, 0.8]])] * 2,
                            focal_index=2),
        GaussianLinearModel(np.array([0.5]), 2.0, np.zeros(0),
                            np.empty((0, 0))),
    ])
    def test_json_round_trip(self, model):
        back = model_from_json(model.to_json())
        assert type(back) is type(model)
        assert back.to_json() == model.to_json()
        a = model.sample_joint(20, seed=1)
        b = back.sample_joint(20, seed=1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_unknown_model_kind(self):
        with pytest.raises(ValidationError):
            model_from_json('{"model": "Mystery"}')

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "object"), ("3", "object"), ('{"dim": 5}', "object"),
        ('{"model": "Ar1Model", "dim": 5, "rh0": 0.3, "focal_index": [2]}',
         "rh0"),
        ('{"model": "Ar1Model", "dim": 5, "focal_index": [2]}', "rho"),
        ('{"model": "GaussianLinearModel", "gamma": [0.5], "sigma2": 1.0, '
         '"z_mean": []}', "z_cov"),
        ('{"model": "CopulaModel"}', "latent"),
        ('{"model": "CopulaModel", "latent": 3}', "mapping"),
        ('{"model": "CopulaModel", "latent": {"dim": 3, "rho": 0.5}}',
         "focal_index"),
        ('{"model": "DiscreteMarkovChain", "initial": [0.5, 0.5], '
         '"transitions": [], "focal_index": 2, "states": 2}', "states")])
    def test_json_rejects_what_it_does_not_read(self, text, named):
        with pytest.raises(ValidationError, match=named):
            model_from_json(text)
