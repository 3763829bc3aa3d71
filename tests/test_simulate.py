import json
import math

import numpy as np
import pytest

from floodgate import (ExperimentSpec, MethodSpec, MuStarSpec, build_mu_star,
                       generate_replicate, oracle_values, run_experiment)
from floodgate import macm, mmse
from floodgate.covariates import Ar1Model
from floodgate.errors import ValidationError
from floodgate.macm import macm_gap_oracle
from floodgate.regression import OLS
from floodgate.simulate import (COSUFFICIENT, FIT_MU_STAR, LINEAR_SPARSE,
                                LOGISTIC_LINEAR, MACM, MMSE_EXACT, MMSE_MC,
                                MODEL_COPULA_AR1, NONLINEAR_F1,
                                ar1_conditional_variances, derive_seed,
                                macm_oracle_values, mmse_oracle_linear,
                                mmse_oracle_nested_mc)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(a, b) for a in range(8) for b in range(8)}
        assert len(seeds) == 64

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestBuildMuStarLinear:
    def test_support_and_magnitudes(self):
        spec = MuStarSpec(LINEAR_SPARSE, sparsity=10, amplitude=5.0, seed=3)
        mu = build_mu_star(spec, n=400, p=40)
        assert len(mu.support) == 10
        nonzero = mu.coef[mu.support]
        assert np.allclose(np.abs(nonzero), 5.0 / math.sqrt(400), atol=1e-12)
        assert set(np.sign(nonzero)) <= {-1.0, 1.0}

    def test_values_are_linear(self):
        mu = build_mu_star(MuStarSpec(LINEAR_SPARSE, sparsity=3, seed=1),
                           n=100, p=8)
        w = np.random.default_rng(0).standard_normal((6, 8))
        assert np.allclose(mu.values(w), w @ mu.coef, atol=1e-12)

    def test_seeded_determinism(self):
        spec = MuStarSpec(LINEAR_SPARSE, sparsity=5, seed=9)
        a = build_mu_star(spec, 200, 20)
        b = build_mu_star(spec, 200, 20)
        assert np.array_equal(a.coef, b.coef)
        c = build_mu_star(MuStarSpec(LINEAR_SPARSE, sparsity=5, seed=10),
                          200, 20)
        assert not np.array_equal(a.coef, c.coef)

    def test_sparsity_bounds(self):
        with pytest.raises(ValidationError):
            build_mu_star(MuStarSpec(LINEAR_SPARSE, sparsity=50), 100, 40)
        with pytest.raises(ValidationError):
            MuStarSpec(LINEAR_SPARSE, sparsity=0)


class TestBuildMuStarNonlinear:
    def _mu(self, seed=0):
        return build_mu_star(MuStarSpec(NONLINEAR_F1, sparsity=30, seed=seed),
                             n=500, p=60)

    def test_structure_invariants(self):
        mu = self._mu()
        assert len(mu.support) == 30
        assert len(mu.s1) == 15 and len(set(mu.s1)) == 15
        assert len(mu.s2) >= 5
        used = set(mu.s1)
        for pair in mu.s2:
            assert len(pair) == 2
            used |= set(pair)
        for triple in mu.s3:
            assert len(triple) == 3
            used |= set(triple)
        # Every selected variable participates in at least one term.
        assert used == set(int(j) for j in mu.support)
        assert set(mu.g_tags) == set(int(j) for j in mu.support)

    def test_forced_pairs_come_from_main_effects(self):
        mu = self._mu(seed=4)
        s1 = set(mu.s1)
        for pair in mu.s2[:5]:
            assert set(pair) <= s1

    def test_values_match_term_by_term_evaluation(self):
        mu = self._mu(seed=2)
        w = np.random.default_rng(1).standard_normal((5, 60))
        from floodgate.simulate import _G_BY_TAG
        g = {j: _G_BY_TAG[mu.g_tags[j]](w[:, j]) for j in mu.g_tags}
        expected = sum(g[j] for j in mu.s1)
        expected = expected + sum(g[a] * g[b] for a, b in mu.s2)
        expected = expected + sum(g[a] * g[b] * g[c] for a, b, c in mu.s3)
        assert np.allclose(mu.values(w), mu.scale * expected, atol=1e-12)

    def test_requires_sparsity_30(self):
        with pytest.raises(ValidationError):
            build_mu_star(MuStarSpec(NONLINEAR_F1, sparsity=10), 500, 60)
        with pytest.raises(ValidationError):
            build_mu_star(MuStarSpec(NONLINEAR_F1, sparsity=30), 500, 20)


class TestOracles:
    def test_ar1_conditional_variances_closed_form(self):
        rho = 0.3
        v = ar1_conditional_variances(6, rho)
        assert v[0] == pytest.approx(1 - rho ** 2, abs=1e-12)
        assert v[-1] == pytest.approx(1 - rho ** 2, abs=1e-12)
        interior = (1 - rho ** 2) / (1 + rho ** 2)
        assert np.allclose(v[1:-1], interior, atol=1e-12)

    def test_linear_oracle_formula(self):
        coef = np.array([0.0, 2.0, -1.0, 0.0])
        vals = mmse_oracle_linear(coef, 0.3)
        v = ar1_conditional_variances(4, 0.3)
        assert vals[0] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(2.0 * math.sqrt(v[1]), abs=1e-12)
        assert vals[2] == pytest.approx(1.0 * math.sqrt(v[2]), abs=1e-12)

    def test_nested_mc_agrees_with_closed_form(self):
        spec = MuStarSpec(LINEAR_SPARSE, sparsity=3, amplitude=8.0, seed=5)
        mu = build_mu_star(spec, n=400, p=6)
        j0 = int(mu.support[1])
        model = Ar1Model(6, 0.3, j0 + 1)
        value, se = mmse_oracle_nested_mc(mu, model, outer=2000, inner=300,
                                          seed=6, focal_0based=j0)
        truth = mmse_oracle_linear(mu.coef, 0.3)[j0]
        assert value == pytest.approx(truth, rel=0.05)
        assert se > 0.0

    def test_macm_oracle_nulls_are_exact_zero(self):
        spec = MuStarSpec(LOGISTIC_LINEAR, sparsity=2, amplitude=10.0, seed=7)
        mu = build_mu_star(spec, n=200, p=6)
        vals = macm_oracle_values(mu, rho=0.3, n_draws=4000, seed=8,
                                  se_target=0.01)
        nulls = np.setdiff1d(np.arange(6), mu.support)
        assert np.all(vals[nulls] == 0.0)
        assert np.all(vals[mu.support] > 0.0)
        assert np.all(vals <= 1.0)

    def test_macm_oracle_matches_assembled_rows(self):
        # The reference rebuilds the full covariate rows from x and z on
        # every call, as the oracle's callback once did.
        spec = MuStarSpec(LOGISTIC_LINEAR, sparsity=10, amplitude=15.0,
                          seed=606)
        mu = build_mu_star(spec, n=500, p=40)
        got = macm_oracle_values(mu, rho=0.3, n_draws=1001, seed=4,
                                 se_target=1.0)
        want = np.zeros(40)
        for j in mu.support:
            def cond_mean_y(z, j=int(j)):
                return lambda x: np.tanh(mu.values(np.concatenate(
                    [z[:, :j], x, z[:, j:]], axis=1)) / 2.0)
            want[j], _ = macm_gap_oracle(Ar1Model(40, 0.3, int(j) + 1),
                                         cond_mean_y, 1001,
                                         derive_seed(4, int(j), 1001))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_values", [None, 200 * 39 * 7])
    def test_nested_oracle_matches_row_array(self, monkeypatch, block_values):
        # The reference lays all (inner, outer, p) rows out at once, as
        # the oracle once did; the oracle now evaluates mu* on chunks of
        # null copies (one chunk, or chunks of 7 copies).
        if block_values is not None:
            monkeypatch.setattr(mmse, "_BLOCK_VALUES", block_values)
        mu_star = build_mu_star(MuStarSpec(NONLINEAR_F1, sparsity=30,
                                           seed=3), n=400, p=40)
        outer, inner, seed = 200, 50, 12
        for j in (int(mu_star.support[0]), int(mu_star.support[-1])):
            model = Ar1Model(40, 0.3, j + 1)
            got = mmse_oracle_nested_mc(mu_star, model, outer, inner, seed, j)
            _, z = model.sample_joint(outer, seed)
            copies = model.sample_null_copies(z, inner,
                                              derive_seed(seed, 1)).copies
            w = np.empty((inner, outer, mu_star.p))
            w[:, :, :] = np.concatenate(
                [z[:, :j], np.zeros((outer, 1)), z[:, j:]], axis=1)[None, :, :]
            w[:, :, j] = copies[:, :, 0]
            vals = mu_star.values(w.reshape(inner * outer, mu_star.p))
            vals = vals.reshape(inner, outer)
            cond_var = vals.var(axis=0, ddof=1)
            want = (math.sqrt(max(float(cond_var.mean()), 0.0)),
                    float(cond_var.std(ddof=1) / math.sqrt(outer)))
            assert got == want


class TestExperimentSpec:
    def _spec(self, **kwargs):
        base = dict(n=100, p=6,
                    mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=2, seed=1),
                    methods=(MethodSpec(MMSE_EXACT),),
                    fitter=FIT_MU_STAR, replicates=2, variables=(1, 3))
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_json_round_trip(self):
        spec = self._spec(methods=(MethodSpec(MMSE_EXACT),
                                   MethodSpec(MMSE_MC, big_k=5),
                                   MethodSpec(COSUFFICIENT, n2=25)))
        back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec
        assert json.loads(spec.to_json())["n"] == 100

    def test_method_labels(self):
        assert MethodSpec(MMSE_MC, big_k=2).label == "MMSE_MC_K2"
        assert MethodSpec(COSUFFICIENT, n2=300).label == "COSUFFICIENT_N2_300"
        assert MethodSpec(MACM).label == "MACM"

    def test_validation(self):
        with pytest.raises(ValidationError):
            self._spec(variables=(0,))
        with pytest.raises(ValidationError):
            self._spec(methods=())
        with pytest.raises(ValidationError):
            self._spec(fitter="GBM")
        with pytest.raises(ValidationError):
            MethodSpec("MMSE")

    def test_unread_method_fields(self):
        with pytest.raises(ValidationError, match="does not read big_k, mc_k"):
            MethodSpec(MACM, big_k=7, mc_k=3)
        with pytest.raises(ValidationError, match="k_copies"):
            MethodSpec(MMSE_EXACT, k_copies=0)
        # Read fields, and unread ones at their defaults, are accepted.
        assert MethodSpec(COSUFFICIENT, n2=25, mc_k=10, big_k=500).n2 == 25

    def test_default_variables_cover_all(self):
        spec = self._spec(variables=None)
        assert spec.variable_list == tuple(range(1, 7))


class TestGenerateReplicate:
    def _spec(self, kind=LINEAR_SPARSE, **kwargs):
        base = dict(n=200, p=8,
                    mu_star=MuStarSpec(kind, sparsity=2, amplitude=8.0, seed=2),
                    methods=(MethodSpec(MMSE_EXACT),), fitter=FIT_MU_STAR,
                    replicates=2, base_seed=11)
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_deterministic_per_replicate(self):
        spec = self._spec()
        w1, y1 = generate_replicate(spec, 0)
        w2, y2 = generate_replicate(spec, 0)
        w3, y3 = generate_replicate(spec, 1)
        assert np.array_equal(w1, w2) and np.array_equal(y1, y2)
        assert not np.array_equal(w1, w3)

    def test_logistic_labels(self):
        w, y = generate_replicate(self._spec(kind=LOGISTIC_LINEAR), 0)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_copula_covariates_bounded(self):
        spec = self._spec(model_kind=MODEL_COPULA_AR1)
        w, _ = generate_replicate(spec, 0)
        assert w.min() > -1.0 and w.max() < 1.0


class TestRunExperiment:
    def _spec(self, **kwargs):
        base = dict(
            n=160, p=6,
            mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=2, amplitude=10.0,
                               seed=3),
            methods=(MethodSpec(MMSE_EXACT), MethodSpec(MMSE_MC, big_k=5)),
            fitter=FIT_MU_STAR, replicates=4, base_seed=21,
            variables=(1, 2, 3))
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_detail_shape_and_summary(self):
        result = run_experiment(self._spec())
        assert len(result.detail) == 4 * 3 * 2
        summary = result.summary()
        assert len(summary) == 3 * 2
        for row in summary:
            assert 0.0 <= row["coverage"] <= 1.0
            assert row["replicates"] == 4

    def test_oracle_matches_closed_form(self):
        spec = self._spec()
        assert np.allclose(oracle_values(spec),
                           mmse_oracle_linear(
                               build_mu_star(spec.mu_star, spec.n, spec.p).coef,
                               spec.rho), atol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = self._spec()
        paths = []
        for tag in ("a", "b"):
            result = run_experiment(spec)
            d = tmp_path / f"detail_{tag}.csv"
            s = tmp_path / f"summary_{tag}.csv"
            result.write_csvs(d, s)
            paths.append((d.read_bytes(), s.read_bytes()))
        assert paths[0] == paths[1]

    def test_thread_count_does_not_change_output(self, tmp_path):
        spec = self._spec(replicates=3)
        serial = run_experiment(spec, threads=1)
        parallel = run_experiment(spec, threads=2)
        assert serial.detail == parallel.detail

    def test_macm_without_copies_is_closed_form(self, monkeypatch):
        def drew_copies(*args):
            raise AssertionError("k_copies = 0 drew null copies")

        monkeypatch.setattr(macm, "_mc_r_samples", drew_copies)
        spec = self._spec(
            mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=2, amplitude=10.0,
                               seed=3),
            methods=(MethodSpec(MACM, k_copies=0),), fitter=OLS,
            replicates=2, oracle_draws=2000)
        result = run_experiment(spec)
        assert [d["method"] for d in result.detail] == ["MACM"] * 2 * 3

    def test_true_mu_gives_mostly_valid_bounds(self):
        result = run_experiment(self._spec(replicates=8))
        for row in result.summary():
            assert row["coverage"] >= 0.75
