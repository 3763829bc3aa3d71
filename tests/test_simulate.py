import json
import math
import pickle
import re
from dataclasses import asdict

import numpy as np
import pytest

from floodgate import (Dataset, ExperimentSpec, MethodSpec, MuStarSpec,
                       build_mu_star, fit_ridge, generate_replicate,
                       oracle_values, run_experiment)
from floodgate import macm, mmse, simulate
from floodgate.cli import EXIT_VALIDATION, main
from floodgate.core import philox_rng
from floodgate.covariates import Ar1Model, _ar1_rows
from floodgate.errors import FloodgateError, SizeError, ValidationError
from floodgate.macm import macm_gap_oracle
from floodgate.regression import CvConfig, LASSO, LOGIT_L1, LOGIT_L2, OLS, RIDGE
from floodgate.simulate import (COSUFFICIENT, FIT_MU_STAR,
                                FIT_MU_STAR_CORRUPTED, LINEAR_SPARSE,
                                LOGISTIC_LINEAR, MACM, MISSPEC_INSAMPLE,
                                MMSE_EXACT, MMSE_MC, MODEL_COPULA_AR1,
                                NONLINEAR_F1,
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
        # The reference rebuilds the full covariate rows at every node,
        # on the same shared draw set, and takes one tanh per node. The
        # oracle sums the non-focal part of mu* once and the nodes in
        # pairs, which rounds differently, so the match is to rtol 1e-12.
        mu = self._a6_mu_star()
        got = macm_oracle_values(mu, rho=0.3, n_draws=1001, seed=4,
                                 se_target=1.0)
        want = np.zeros(40)
        for j in mu.support:
            want[j] = _assembled_row_oracle(mu, int(j),
                                            _joint_rows(mu, 1001, 4))[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert not np.array_equal(got, np.zeros(40))

    def test_macm_oracle_doubles_unmet_variables_up_to_the_cap(
            self, monkeypatch):
        mu = self._a6_mu_star()
        calls = []

        def recording(slope, offset, x, cond_mean, cond_sd):
            value, se = macm_gap_oracle(slope, offset, x, cond_mean, cond_sd)
            calls.append((_drawn_variable(x, 9), len(x), value, se))
            return value, se

        monkeypatch.setattr(simulate, "macm_gap_oracle", recording)
        n_draws = 40
        counts = [n_draws * 2 ** k for k in range(7)]
        # A target no SE meets: every variable runs to 64 n_draws.
        got = macm_oracle_values(mu, rho=0.3, n_draws=n_draws, seed=9,
                                 se_target=1e-9)
        assert sorted((d, j) for j, d, _, _ in calls) == sorted(
            (d, int(j)) for j in mu.support for d in counts)
        se_at = {(j, d): se for j, d, _, se in calls}
        for j in mu.support:
            want, _ = _assembled_row_oracle(
                mu, int(j), _joint_rows(mu, counts[-1], 9))
            assert got[j] == pytest.approx(want, rel=1e-12, abs=0.0)
        # The median SE at 4 n_draws as the target: each variable stops
        # at its first count whose SE is below it (the draw set of a count
        # does not depend on the target), so they stop at different counts.
        target = float(np.median([se_at[int(j), counts[2]]
                                  for j in mu.support]))
        calls.clear()
        got = macm_oracle_values(mu, rho=0.3, n_draws=n_draws, seed=9,
                                 se_target=target)
        final = {}
        for j in map(int, mu.support):
            final[j] = next((d for d in counts if se_at[j, d] < target),
                            counts[-1])
            assert [d for jj, d, _, _ in calls if jj == j] == [
                d for d in counts if d <= final[j]]
            want, _ = _assembled_row_oracle(mu, j, _joint_rows(mu, final[j], 9))
            assert got[j] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert len(set(final.values())) > 1

    def test_macm_oracle_draws_once_per_draw_count(self, monkeypatch):
        # Every count up to 64 x 40 draws fits one block at p = 40.
        mu = self._a6_mu_star()
        drawn = []
        ar1_rows = simulate._ar1_rows

        def counting(dim, rho, n, seed, block):
            drawn.append((n, []))
            for w in ar1_rows(dim, rho, n, seed, block):
                drawn[-1][1].append(w.shape[1])
                yield w

        monkeypatch.setattr(simulate, "_ar1_rows", counting)
        macm_oracle_values(mu, rho=0.3, n_draws=40, seed=9, se_target=1e-9)
        assert drawn == [(40 * 2 ** k, [40 * 2 ** k]) for k in range(7)]
        drawn.clear()
        monkeypatch.setattr(mmse, "_BLOCK_VALUES", 40 * 300)
        macm_oracle_values(mu, rho=0.3, n_draws=1001, seed=9, se_target=1.0)
        assert drawn == [(1001, [300, 300, 300, 101])]

    @pytest.mark.parametrize("n, block, sizes", [
        (1, 300, [1]), (2, 300, [2]), (300, 300, [300]), (301, 300, [301]),
        (600, 300, [300, 300]), (601, 300, [300, 301]),
        (602, 300, [300, 300, 2]), (3, 1, [1, 2])])
    def test_ar1_blocks_leave_no_single_draw_tail(self, n, block, sizes):
        # A last block of one draw joins the block before it, so the MACM
        # oracle, which needs two draws per call, can take every block.
        blocks = [w.copy() for w in _ar1_rows(5, 0.3, n, 4, block)]
        assert [w.shape for w in blocks] == [(5, s) for s in sizes]
        assert np.array_equal(np.concatenate(blocks, axis=1),
                              _block_drawn_rows(5, 0.3, n, 4, sizes))

    def test_ar1_one_block_is_the_joint_sample(self):
        x, z = Ar1Model(6, 0.3, [2, 5]).sample_joint(500, 7)
        w, = _ar1_rows(6, 0.3, 500, 7, 500)
        assert np.array_equal(x, w[[1, 4]].T)
        assert np.array_equal(z, w[[0, 2, 3, 5]].T)
        assert x.strides == (8, 500 * 8) and z.strides == (8, 500 * 8)

    @pytest.mark.parametrize("n_draws, sizes", [
        (1001, [300, 300, 300, 101]), (301, [301]), (601, [300, 301])])
    def test_macm_oracle_streams_blocks_of_draws(self, monkeypatch, n_draws,
                                                 sizes):
        # A 300-draw block at p = 40. The reference lays out the same
        # block-drawn rows at once and takes the oracle on all of them;
        # the oracle merges one (value, se) per block, which rounds
        # differently, so the match is to rtol 1e-12 in value and SE.
        monkeypatch.setattr(mmse, "_BLOCK_VALUES", 40 * 300)
        mu = self._a6_mu_star()
        merged = []

        def recording(*args):
            merged.append(merge(*args))
            return merged[-1]

        merge = simulate._merge_draw_blocks
        monkeypatch.setattr(simulate, "_merge_draw_blocks", recording)
        got = macm_oracle_values(mu, rho=0.3, n_draws=n_draws, seed=4,
                                 se_target=1.0)
        support = [int(j) for j in mu.support]
        final = merged[-len(support):]      # the last block, per variable
        w = _block_drawn_rows(40, 0.3, n_draws, derive_seed(4, n_draws),
                              sizes).T
        for j, (count, value, _, se) in zip(support, final):
            want_value, want_se = _assembled_row_oracle(mu, j, w)
            assert count == n_draws
            assert value == got[j]
            assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
            assert se == pytest.approx(want_se, rel=1e-12, abs=0.0)
        assert len(merged) == len(support) * len(sizes)

    def test_macm_oracle_one_block_is_one_call(self):
        # 1001 draws fit one block: each value is that one call's, bit for
        # bit, on the coordinate-major rows of the joint sample.
        mu = self._a6_mu_star()
        got = macm_oracle_values(mu, rho=0.3, n_draws=1001, seed=4,
                                 se_target=1.0)
        x, z = Ar1Model(40, 0.3, 1).sample_joint(1001, derive_seed(4, 1001))
        w = np.ascontiguousarray(np.concatenate([x, z], axis=1).T)
        for j in map(int, mu.support):
            weights, cond_sd = Ar1Model(40, 0.3, j + 1).row_weights()
            rest = mu.coef.copy()
            rest[j] = 0.0
            value, _ = macm_gap_oracle(mu.coef[j], rest @ w, w[j],
                                       weights @ w, cond_sd)
            assert got[j] == value

    @pytest.mark.parametrize("n_draws", [-3, 0, 1])
    def test_macm_oracle_needs_two_draws(self, n_draws):
        with pytest.raises(SizeError, match="two draws"):
            macm_oracle_values(self._a6_mu_star(), rho=0.3, n_draws=n_draws,
                               seed=4)

    @staticmethod
    def _a6_mu_star():
        spec = MuStarSpec(LOGISTIC_LINEAR, sparsity=10, amplitude=15.0,
                          seed=606)
        return build_mu_star(spec, n=500, p=40)

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
            copies = model.sample_null_copies(model.given(z), inner,
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


def _drawn_variable(x, seed):
    """The variable whose draws x is in the A6 oracle's shared draw set of
    len(x) rows (p = 40, rho = 0.3)."""
    draws = len(x)
    w = np.concatenate(Ar1Model(40, 0.3, 1).sample_joint(
        draws, derive_seed(seed, draws)), axis=1)
    return next(j for j in range(40) if np.array_equal(w[:, j], x))


def _block_drawn_rows(dim, rho, n, seed, sizes):
    """The (dim, n) AR(1) rows drawn in blocks of the given sizes from one
    stream, each block coordinate by coordinate."""
    rng, scale, blocks = philox_rng(seed), math.sqrt(1.0 - rho ** 2), []
    assert sum(sizes) == n
    for size in sizes:
        w = np.empty((dim, size))
        w[0] = rng.standard_normal(size)
        for j in range(1, dim):
            w[j] = rho * w[j - 1] + scale * rng.standard_normal(size)
        blocks.append(w)
    return np.concatenate(blocks, axis=1)


def _assembled_row_oracle(mu, j, w):
    """The MACM oracle for variable j on the (draws, p) rows w, by the
    64-node Gauss-Hermite rule one node at a time: E[Y | W] =
    tanh(mu*(W) / 2) on full rows reassembled at each node."""
    draws = len(w)
    x_j, z_j = w[:, j:j + 1], np.delete(w, j, axis=1)
    rows = Ar1Model(mu.p, 0.3, j + 1).given(z_j)
    mean, cov = rows.mean, rows.cov
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / weights.sum()

    def given_z(x_rows):
        return np.tanh(mu.values(np.concatenate(
            [z_j[:, :j], x_rows, z_j[:, j:]], axis=1)) / 2.0)
    ey_z = np.zeros(draws)
    for node, weight in zip(nodes, weights):
        ey_z += weight * given_z(mean + math.sqrt(cov[0, 0]) * node)
    vals = np.abs(ey_z - given_z(x_j))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def _joint_rows(mu, draws, seed):
    """The oracle's rows at a count that fits one block: the joint sample."""
    return np.concatenate(Ar1Model(mu.p, 0.3, 1).sample_joint(
        draws, derive_seed(seed, draws)), axis=1)


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

    def test_json_matches_field_by_field_conversion(self):
        # asdict already converts the nested specs, so to_json needs no
        # per-field pass; these bytes are what spec files hold.
        spec = self._spec(methods=(MethodSpec(MMSE_EXACT),
                                   MethodSpec(COSUFFICIENT, n2=25)),
                          fitter=LASSO,
                          cv=CvConfig(folds=3, lambda_grid=(0.5, 0.1)))
        d = asdict(spec)
        d["mu_star"] = asdict(spec.mu_star)
        d["methods"] = [asdict(m) for m in spec.methods]
        d["cv"] = asdict(spec.cv)
        assert spec.to_json() == json.dumps(d, indent=2)
        back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec
        assert back.cv.lambda_grid == (0.5, 0.1) and back.variables == (1, 3)

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

    @pytest.mark.parametrize("fields, message", [
        (dict(name=MMSE_MC, big_k=1), "big_k"),
        (dict(name=MMSE_MC, big_k=0), "0 is MMSE_EXACT"),
        (dict(name=MACM, k_copies=-3), "k_copies"),
        (dict(name=COSUFFICIENT, n2=0), "n2"),
        (dict(name=COSUFFICIENT, mc_k=1), "mc_k")])
    def test_copy_counts_checked_at_construction(self, fields, message):
        # The bound's own rule, before any study work: MMSE_MC with
        # big_k = 0 would run the closed form under an MC label.
        with pytest.raises(ValidationError, match=message):
            MethodSpec(**fields)

    @pytest.mark.parametrize("name, unread", [
        ("corruption_tau", dict(corruption_tau=0.1)),
        ("misspec_m_rows", dict(misspec_m_rows=50)),
        ("misspec_m_rows", dict(fitter=FIT_MU_STAR_CORRUPTED,
                                corruption_tau=0.1, misspec_m_rows=50)),
        ("oracle_draws", dict(oracle_draws=2000)),
        ("cv", dict(cv=CvConfig(folds=5))),
        ("cv", dict(fitter=OLS, cv=CvConfig(num_lambdas=5)))])
    def test_unread_study_settings(self, tmp_path, name, unread):
        # The base spec fits no model (FIT_MU_STAR) to a LINEAR_SPARSE mu*,
        # whose oracle is closed form, and has no misspecification.
        with pytest.raises(ValidationError, match=f"does not read {name}$"):
            self._spec(**unread)
        spec = json.loads(self._spec().to_json())
        spec.update(unread, cv=asdict(unread.get("cv", CvConfig())))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_read_study_settings_accepted(self):
        assert self._spec(fitter=FIT_MU_STAR_CORRUPTED, corruption_tau=0.1)
        assert self._spec(misspecification=MISSPEC_INSAMPLE,
                          misspec_m_rows=50)
        assert self._spec(fitter=LASSO, cv=CvConfig(folds=5))
        assert self._spec(fitter=LASSO, cv=CvConfig(lambda_min_ratio=1e-2))
        assert self._spec(fitter=RIDGE, cv=CvConfig(folds=5, num_lambdas=10))
        logistic = MuStarSpec(LOGISTIC_LINEAR, sparsity=2, seed=1)
        assert self._spec(mu_star=logistic, methods=(MethodSpec(MACM),),
                          oracle_draws=2000)

    @pytest.mark.parametrize("draws", [-5, 0, 1])
    @pytest.mark.parametrize("study", [
        dict(mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=2, seed=1),
             methods=(MethodSpec(MACM),)),
        dict(p=30, mu_star=MuStarSpec(NONLINEAR_F1, seed=1), fitter=OLS)])
    def test_oracle_draws_checked_at_construction(self, tmp_path, capsys,
                                                  draws, study):
        # Both oracles that read it, the MACM and the nested one, need
        # two draws; a study finds out before it runs a replicate.
        with pytest.raises(ValidationError, match="oracle_draws must be >= 2"):
            self._spec(oracle_draws=draws, **study)
        assert self._spec(oracle_draws=2, **study)
        spec = json.loads(self._spec(oracle_draws=2, **study).to_json())
        spec["oracle_draws"] = draws
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "oracle_draws must be >= 2" in err
        assert "Traceback" not in err

    def test_default_variables_cover_all(self):
        spec = self._spec(variables=None)
        assert spec.variable_list == tuple(range(1, 7))

    @pytest.mark.parametrize("method", [
        MethodSpec(MMSE_EXACT), MethodSpec(MACM, k_copies=0),
        MethodSpec(COSUFFICIENT)])
    @pytest.mark.parametrize("fitter, kind", [
        (LOGIT_L1, LINEAR_SPARSE), (LOGIT_L2, LINEAR_SPARSE),
        (FIT_MU_STAR, LOGISTIC_LINEAR),
        (FIT_MU_STAR_CORRUPTED, LOGISTIC_LINEAR)])
    def test_closed_form_needs_identity_link(self, method, fitter, kind):
        with pytest.raises(ValidationError, match="binary_mean"):
            self._spec(mu_star=MuStarSpec(kind, sparsity=2, seed=1),
                       methods=(MethodSpec(MMSE_MC, big_k=5), method),
                       fitter=fitter)

    def test_closed_form_with_identity_link_or_copies_accepted(self):
        logistic = MuStarSpec(LOGISTIC_LINEAR, sparsity=2, seed=1)
        assert self._spec(mu_star=logistic, fitter=OLS,
                          methods=(MethodSpec(MACM, k_copies=0),))
        assert self._spec(mu_star=logistic, fitter=LOGIT_L1,
                          methods=(MethodSpec(MACM, k_copies=5),
                                   MethodSpec(MMSE_MC, big_k=5),
                                   MethodSpec(COSUFFICIENT, n2=20, mc_k=5)))

    @pytest.mark.parametrize("kind, methods", [
        (LINEAR_SPARSE, (MethodSpec(MMSE_EXACT),)),
        (LOGISTIC_LINEAR, (MethodSpec(MACM),))])
    def test_copula_pairing_without_oracle_rejected(
            self, tmp_path, monkeypatch, kind, methods):
        # Both oracles assume Gaussian AR(1) covariates, so the spec is
        # refused before anything runs, rather than scored against them.
        def ran_oracle(spec):
            raise AssertionError("the oracle ran for a copula spec")

        monkeypatch.setattr(simulate, "oracle_values", ran_oracle)
        with pytest.raises(ValidationError, match="no oracle"):
            self._spec(mu_star=MuStarSpec(kind, sparsity=2, seed=1),
                       methods=methods, model_kind=MODEL_COPULA_AR1)
        spec = json.loads(self._spec(
            mu_star=MuStarSpec(kind, sparsity=2, seed=1),
            methods=methods).to_json())
        spec["model_kind"] = MODEL_COPULA_AR1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_cli_rejects_closed_form_logistic_before_oracle(
            self, tmp_path, monkeypatch):
        def ran_oracle(spec):
            raise AssertionError("the oracle ran before the spec was checked")

        monkeypatch.setattr(simulate, "oracle_values", ran_oracle)
        spec = json.loads(self._spec(variables=None).to_json())
        spec.update(p=8, fitter=LOGIT_L1, oracle_draws=100_000,
                    methods=[{"name": MACM, "k_copies": 0}])
        spec["mu_star"].update(kind=LOGISTIC_LINEAR, sparsity=3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION


_NONLINEAR = dict(p=30, mu_star=MuStarSpec(NONLINEAR_F1, sparsity=30, seed=1),
                  fitter=LASSO, oracle_draws=2000)


class TestSpecRejectsWhatAReplicateWould:
    """Each setting that would fail at the first replicate, or after the
    oracle, fails when the spec is built."""

    def _spec(self, **kwargs):
        base = dict(n=100, p=6,
                    mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=2, seed=1),
                    methods=(MethodSpec(MMSE_EXACT),), fitter=FIT_MU_STAR,
                    replicates=2)
        base.update(kwargs)
        return ExperimentSpec(**base)

    @pytest.mark.parametrize("settings, message", [
        (dict(_NONLINEAR, alpha=0.0), "alpha"),
        (dict(_NONLINEAR, n=400, model_kind=MODEL_COPULA_AR1,
              methods=(MethodSpec(COSUFFICIENT, n2=100),)), "Gaussian"),
        (dict(mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=2, seed=1),
              methods=(MethodSpec(MACM),), split_proportion=1.5), "split"),
        (dict(rho=1.5), "rho"),
        (dict(n=20, fitter=LASSO, cv=CvConfig(folds=15)), "folds"),
        (dict(n=120, methods=(MethodSpec(COSUFFICIENT, n2=40),)),
         "fewer than 2 batches"),
        (dict(methods=(MethodSpec(COSUFFICIENT, n2=7),)), "d_z + 2"),
        (dict(misspecification=MISSPEC_INSAMPLE, misspec_m_rows=3),
         "m >= p + 2"),
        (dict(_NONLINEAR, fitter=FIT_MU_STAR), "need a linear mu*"),
        (dict(_NONLINEAR, fitter=FIT_MU_STAR_CORRUPTED, corruption_tau=0.5),
         "need a linear mu*"),
        (dict(mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=7, seed=1)),
         "sparsity cannot exceed p"),
        (dict(mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=7, seed=1),
              methods=(MethodSpec(MACM),)), "sparsity cannot exceed p"),
        (dict(_NONLINEAR, p=29), "needs p >= 30"),
        (dict(_NONLINEAR, mu_star=MuStarSpec(NONLINEAR_F1, sparsity=10)),
         "defined for sparsity 30"),
        # A fractional variable would be truncated, and a repeated variable
        # or method label would pool two rows into one summary row.
        (dict(variables=(1.5, 2.9)), "variables must be distinct whole"),
        (dict(variables=(2, 2)), "variables must be distinct whole"),
        (dict(methods=(MethodSpec(MMSE_EXACT), MethodSpec(MMSE_EXACT))),
         "distinct labels"),
        (dict(methods=(MethodSpec(MACM), MethodSpec(MACM, k_copies=0)),
              mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=2, seed=1)),
         "distinct labels")])
    def test_rejected_before_the_oracle(self, tmp_path, monkeypatch,
                                        settings, message):
        def ran_oracle(spec):
            raise AssertionError("the oracle ran before the spec was checked")

        monkeypatch.setattr(simulate, "oracle_values", ran_oracle)
        with pytest.raises(FloodgateError, match=re.escape(message)):
            self._spec(**settings)
        # The same spec as a file: floodgate simulate exits 2.
        spec = json.loads(self._spec().to_json())
        spec.update(json.loads(json.dumps(
            {k: asdict(v) if isinstance(v, (MuStarSpec, CvConfig)) else
             [asdict(m) for m in v] if k == "methods" else v
             for k, v in settings.items()})))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("settings", [
        dict(n=20, fitter=LASSO, cv=CvConfig(folds=10)),
        dict(n=120, methods=(MethodSpec(COSUFFICIENT, n2=30),)),
        dict(methods=(MethodSpec(COSUFFICIENT, n2=8),)),
        dict(misspecification=MISSPEC_INSAMPLE, misspec_m_rows=8),
        # The bounds get the in-sample Gaussian refit, not the copula.
        dict(_NONLINEAR, n=400, model_kind=MODEL_COPULA_AR1,
             misspecification=MISSPEC_INSAMPLE,
             methods=(MethodSpec(COSUFFICIENT, n2=100),))])
    def test_boundary_settings_accepted(self, settings):
        assert self._spec(**settings)


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
        # Closed-form methods need an identity link, so the spec names MACM.
        spec = self._spec(kind=LOGISTIC_LINEAR, methods=(MethodSpec(MACM),))
        w, y = generate_replicate(spec, 0)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_copula_covariates_bounded(self):
        # A nonlinear mu* needs a fitted mu; the draw does not read it.
        spec = self._spec(p=30, model_kind=MODEL_COPULA_AR1,
                          mu_star=MuStarSpec(NONLINEAR_F1, sparsity=30,
                                             seed=2), fitter=LASSO)
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

    def test_mu_star_is_realized_once_per_study(self, monkeypatch, tmp_path):
        # Construction realizes mu* (its rules are checked there); the
        # oracle, each replicate's draw and each mu* fit reuse it, and a
        # pickled spec, as the spawn pool sends it, carries it along.
        built = []

        def counting(spec, n, p):
            built.append((spec, n, p))
            return build_mu_star(spec, n, p)

        monkeypatch.setattr(simulate, "build_mu_star", counting)
        spec = self._spec(replicates=3)
        assert len(built) == 1
        serial = run_experiment(spec)
        assert len(built) == 1
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert np.array_equal(clone.realized_mu_star.coef,
                              spec.realized_mu_star.coef)
        assert len(built) == 1
        parallel = run_experiment(spec, threads=2)
        outputs = []
        for tag, result in (("serial", serial), ("parallel", parallel)):
            paths = tmp_path / f"{tag}_detail.csv", tmp_path / f"{tag}_sum.csv"
            result.write_csvs(*paths)
            outputs.append([path.read_bytes() for path in paths])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("replicates, workers", [(1, None), (2, 2)])
    def test_at_most_one_worker_per_replicate(self, monkeypatch, replicates,
                                              workers):
        import multiprocessing

        started = []
        real = multiprocessing.get_context

        def recording(method):
            ctx = real(method)

            class Recording:
                def Pool(self, processes):
                    started.append(processes)
                    return ctx.Pool(processes)
            return Recording()

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        spec = self._spec(replicates=replicates)
        result = run_experiment(spec, threads=8)
        assert started == ([] if workers is None else [workers])
        assert result.detail == run_experiment(spec).detail

    def test_nonlinear_oracle_is_the_per_variable_nested_mc(self):
        # p = 32 leaves two variables outside the 30-term support: 0.
        # A nonlinear mu* needs a fitted mu; the oracle does not read it.
        spec = self._spec(p=32, mu_star=MuStarSpec(NONLINEAR_F1, sparsity=30,
                                                   seed=2),
                          oracle_draws=100, variables=None, fitter=LASSO)
        mu_star = build_mu_star(spec.mu_star, spec.n, spec.p)
        want = np.zeros(spec.p)
        for j0 in mu_star.support:
            want[j0] = mmse_oracle_nested_mc(
                mu_star, simulate.focal_model(spec, int(j0) + 1), 100, 400,
                derive_seed(simulate._ORACLE_SEED, int(j0)), int(j0))[0]
        assert np.count_nonzero(want) == 30
        assert np.array_equal(oracle_values(spec), want)

    def test_ridge_study(self):
        spec = self._spec(fitter=RIDGE, cv=CvConfig(folds=3, num_lambdas=5),
                          replicates=2)
        w, y = generate_replicate(spec, 1)
        fit_ds = Dataset(y, w, np.empty((len(y), 0)))
        assert simulate._fit_working_regression(spec, fit_ds, 1) == fit_ridge(
            fit_ds, spec.cv, derive_seed(spec.base_seed, 1, 3))
        result = run_experiment(spec)
        assert len(result.detail) == 2 * 3 * 2
        assert all(np.isfinite(d["lcb"]) for d in result.detail)

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
