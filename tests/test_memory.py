"""Each full-size array on the infer path exists once, and the Monte
Carlo paths hold one block (or, for the MACM oracle, one draw set).

Peaks are tracemalloc's count of the bytes allocated during a call
(numpy reports its array buffers to it), so they are deterministic and
independent of the allocator. The table is 20 000 rows of y and 20
covariates. The in-place forms of the null-copy pipeline are checked
against the out-of-place expressions they replaced, bit for bit, and
for leaving their inputs unchanged.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from floodgate import (Ar1Model, CopulaModel, Dataset, FloodgateConfig,
                       GaussianLinearModel, LinearWorkingRegression,
                       MacmConfig, MuStarSpec, build_mu_star,
                       floodgate_lcb_weighted, macm_lcb)
from floodgate import core, mmse
from floodgate.cli import main
from floodgate.core import philox_rng
from floodgate.mmse import mu_null_values, mu_on_copies
from floodgate.regression import CvConfig, _CrossValidation
from floodgate.simulate import LOGISTIC_LINEAR, macm_oracle_values

N_ROWS, N_COVARIATES = 20_000, 20
TABLE_BYTES = N_ROWS * (1 + N_COVARIATES) * 8


def _traced(fn):
    """fn()'s result, the bytes it left allocated, and its peak."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def _table(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, N_COVARIATES))
    y = w[:, 0] + 0.3 * w[:, 1:6].sum(axis=1) + rng.standard_normal(n)
    return Dataset(y, w[:, :1], w[:, 1:])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The table, a 60-row table for warming up, and an AR(1) model."""
    root = tmp_path_factory.mktemp("memory")
    _table(N_ROWS, 5).to_csv(root / "data.csv")
    _table(60, 6).to_csv(root / "small.csv")
    (root / "model.json").write_text(json.dumps(
        {"model": "Ar1Model", "dim": N_COVARIATES, "rho": 0.3,
         "focal_index": [1]}), encoding="utf-8")
    return root


def test_from_csv_keeps_only_its_three_arrays(files):
    data, held, peak = _traced(lambda: Dataset.from_csv(files / "data.csv"))
    assert data.n == N_ROWS and data.d_x + data.d_z == N_COVARIATES
    assert held <= 1.05 * TABLE_BYTES
    # The parse table and the three copies, each once.
    assert peak <= 2.05 * TABLE_BYTES


def test_cross_validation_holds_one_copy_of_the_design(files):
    data = Dataset.from_csv(files / "data.csv")
    n, width = data.n, data.d_x + data.d_z
    z = data.z.copy()
    z[:, 3] = 2.0
    flat = Dataset(data.y, data.x, z)
    for table, kept in ((data, width), (flat, width - 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # the dropped column
            pipe, _, peak = _traced(
                lambda: _CrossValidation(table, CvConfig(), 0))
        assert pipe.ws.shape == (n, kept) and pipe.ws.flags.f_contiguous
        # The design, its fold labels, one column's temporary and O(p^2),
        # with or without a constant column to drop.
        assert peak <= n * width * 8 + 2 * n * 8 + 64 * width ** 2


def test_infer_fit_peaks_at_two_tables(files, tmp_path):
    def infer(name):
        return main(["infer", str(files / name), "--model",
                     str(files / "model.json"), "--fit", "lasso", "--method",
                     "mmse_exact", "--out", str(tmp_path / f"{name}.out")])

    assert infer("small.csv") == 0      # imports and caches come first
    code, _, peak = _traced(lambda: infer("data.csv"))
    assert code == 0
    assert peak <= 2.1 * TABLE_BYTES


def _copula_mu(d_z):
    return LinearWorkingRegression("CUSTOM", 0.1, np.array([1.5]),
                                   np.full(d_z, 0.8), link="binary_mean")


def test_copula_block_peaks_at_one_block():
    n, big_k = 2000, 1000
    model = CopulaModel(Ar1Model(8, 0.3, [1]))
    z = np.random.default_rng(2).uniform(-1.0, 1.0, (n, 7))
    mu = _copula_mu(7)
    rows = model.given(z)                   # the latent z, once per bound
    values, _, peak = _traced(
        lambda: mu_null_values(mu, model, rows, big_k, 3))
    block = values.nbytes
    assert block == big_k * n * 8
    # The copies, which become the uniforms and then the values, the
    # erfc slices' workspace (at most 8 slices of doubles), and O(n).
    assert peak <= block + 8 * core._SLICE * 8 + 64 * n


def test_macm_copula_peak_does_not_grow_with_copies():
    # M = 4n spans a few blocks and M = 16n four times as many; each
    # block is freed before the next is drawn, so the peak is one block.
    n = 600
    model = CopulaModel(Ar1Model(8, 0.3, 1))
    x, z = model.sample_joint(n, 1)
    y = np.where(np.random.default_rng(2).random(n) < 0.5, 1.0, -1.0)
    data, mu = Dataset(y, x, z), _copula_mu(7)
    macm_lcb(data, mu, model, MacmConfig(m_copies=2, k_copies=2, seed=1))
    peaks = [_traced(lambda: macm_lcb(
        data, mu, model, MacmConfig(m_copies=m, k_copies=100, seed=3)))[2]
        for m in (4 * n, 16 * n)]
    block = mmse._BLOCK_VALUES // n * n * 8
    assert 4 * n * n * 8 > 2 * block      # M = 4n spans whole blocks
    assert abs(peaks[1] - peaks[0]) <= 64 * n
    assert max(peaks) <= block + 8 * core._SLICE * 8 + 64 * n


def test_weighted_bound_peaks_at_one_block():
    # The block of mu on copies, the weighted squares' one buffer, and
    # O(n); w1 is the caller's input, allocated before tracing.
    n, big_k = 2000, 1000
    model = Ar1Model(6, 0.4, 2)
    x, z = model.sample_joint(n, 1)
    rng = np.random.default_rng(4)
    data = Dataset(x[:, 0] + z[:, 0] + rng.standard_normal(n), x, z)
    mu = LinearWorkingRegression("CUSTOM", 0.2, np.array([1.1]),
                                 np.array([0.5, -0.3, 0.0, 0.2, 0.1]))
    w, w1 = rng.uniform(0.5, 2.0, n), rng.uniform(0.2, 3.0, (big_k, n))
    cfg = FloodgateConfig(big_k=big_k, seed=3)
    _, _, peak = _traced(lambda: floodgate_lcb_weighted(data, mu, model,
                                                        (w, w1), cfg))
    block = mmse._BLOCK_VALUES // n * n * 8
    assert big_k * n * 8 > 2 * block        # K spans several blocks
    assert peak <= block + 8 * (mmse._WEIGHTED_SLICE_VALUES + 16 * n)


@pytest.mark.parametrize("n_draws, se_target, final_draws", [
    (20_000, 1.0, 20_000),          # one draw count
    (1000, 1e-9, 64_000)])          # doubled six times, up to the cap
def test_macm_oracle_holds_one_draw_set(n_draws, se_target, final_draws):
    # The (p, draws) rows of the last count, shared by every variable,
    # and O(draws) per variable; the previous count's set is freed first.
    mu = build_mu_star(MuStarSpec(LOGISTIC_LINEAR, sparsity=10,
                                  amplitude=15.0, seed=606), 500, 40)
    macm_oracle_values(mu, 0.3, 50, 987, se_target=1.0)    # builds the rule
    _, _, peak = _traced(lambda: macm_oracle_values(
        mu, 0.3, n_draws, 987, se_target=se_target))
    assert peak <= 1.25 * 40 * final_draws * 8


def _gaussian_models():
    return [GaussianLinearModel(np.array([0.5, 2.0, -1.0]), 0.7,
                                np.zeros(2), np.eye(2)),
            Ar1Model(6, 0.4, [3]), Ar1Model(6, 0.4, [2, 5])]


@pytest.mark.parametrize("model", _gaussian_models())
def test_gaussian_copies_equal_the_out_of_place_expression(model):
    _, z = model.sample_joint(500, 1)
    before = z.copy()
    got = model.sample_null_copies(model.given(z), 7, 9).copies
    mean = model.given(z).mean
    draws = philox_rng(9).standard_normal((7, len(z), model.d_x))
    chol = model._cond_chol
    want = (mean[None, :, :] + draws * chol[0, 0] if model.d_x == 1
            else mean[None, :, :] + draws @ chol.T)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(z.view(np.uint64), before.view(np.uint64))


def test_copula_copies_equal_the_out_of_place_expression():
    model = CopulaModel(Ar1Model(6, 0.4, [2]))
    _, z = model.sample_joint(500, 1)
    before = z.copy()
    got = model.sample_null_copies(model.given(z), 7, 9).copies
    latent = model.latent.sample_null_copies(
        model.latent.given(model._to_latent(z)), 7, 9).copies
    latent_before = latent.copy()
    want = 2.0 * core.normal_cdf(latent) - 1.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(model._to_uniform(latent).view(np.uint64),
                          want.view(np.uint64))
    assert np.array_equal(latent.view(np.uint64),
                          latent_before.view(np.uint64))
    assert np.array_equal(z.view(np.uint64), before.view(np.uint64))


@pytest.mark.parametrize("link", ["identity", "binary_mean"])
@pytest.mark.parametrize("d_x", [1, 2])
def test_mu_on_copies_equals_the_out_of_place_expression(link, d_x):
    rng = np.random.default_rng(d_x)
    n, d_z = 300, 4
    copies, z = rng.standard_normal((7, n, d_x)), rng.standard_normal((n, d_z))
    mu = LinearWorkingRegression("CUSTOM", 0.3, rng.standard_normal(d_x),
                                 rng.standard_normal(d_z), link=link)
    copies_before, z_before = copies.copy(), z.copy()
    got = mu_on_copies(mu, copies, z)
    base = np.full(n, mu.intercept) + z @ mu.z_coef
    f = (base[None, :] + copies[:, :, 0] * mu.x_coef[0] if d_x == 1
         else base[None, :] + copies @ mu.x_coef)
    want = np.tanh(f / 2.0) if link == "binary_mean" else f
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(copies.view(np.uint64),
                          copies_before.view(np.uint64))
    assert np.array_equal(z.view(np.uint64), z_before.view(np.uint64))
