import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodgate import (ConfidenceLevel, Dataset, LcbReport, delta_method_se,
                       normal_cdf, normal_quantile, sample_mean_cov, split)
from floodgate.core import ratio_lcb, reports_to_csv, seeded_rng
from floodgate.errors import (ShapeError, SizeError, ValidationError)


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_quantiles(self):
        # Oracle: bisection on a numerically integrated normal CDF.
        assert normal_quantile(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert normal_quantile(0.025) == pytest.approx(1.9599639845400545, abs=1e-9)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in [1e-8, 1e-4, 0.01, 0.2, 0.5, 0.77, 0.999, 1 - 1e-9]:
            assert normal_quantile(p) == pytest.approx(
                scipy_stats.norm.isf(p), abs=1e-9)

    @given(st.floats(min_value=1e-7, max_value=1 - 1e-7))
    @settings(max_examples=200)
    def test_symmetry(self, p):
        assert abs(normal_quantile(p) + normal_quantile(1 - p)) < 1e-9

    @given(st.floats(min_value=1e-7, max_value=1 - 1e-7))
    @settings(max_examples=100)
    def test_inverts_cdf(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(1 - p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, p):
        with pytest.raises(ValidationError):
            normal_quantile(p)


def _scalar_quantile_reference(p):
    """Scalar Acklam approximation plus two Newton steps on math.erfc:
    the loop form that the array normal_quantile replaced."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    if p < 0.02425 or p > 1.0 - 0.02425:
        r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        x = ((((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5])
             / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0))
        x = -x if p < 0.5 else x
    else:
        r = 0.5 - p
        t = r * r
        x = ((((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * r
             / (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0))
    for _ in range(2):
        sf = 0.5 * math.erfc(x / math.sqrt(2.0))
        x += (sf - p) / (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    return x


def _phi_reference(x):
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


class TestArrayNumerics:
    def test_cdf_dense_grid(self):
        x = np.linspace(-37.0, 37.0, 200_001)
        np.testing.assert_allclose(normal_cdf(x), _phi_reference(x),
                                   rtol=1e-15, atol=0.0)

    def test_cdf_random_draws(self):
        x = np.random.default_rng(5).uniform(-37.0, 37.0, (300, 300))
        got = normal_cdf(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got.ravel(), _phi_reference(x.ravel()),
                                   rtol=1e-15, atol=0.0)

    def test_cdf_against_exact_erfc(self):
        # Exact erfc of the same rounded argument -x / sqrt(2).
        mpmath = pytest.importorskip("mpmath")
        x = np.random.default_rng(6).standard_normal(3000) * 2.0
        with mpmath.workprec(120):
            exact = np.array([float(0.5 * mpmath.erfc(-v / math.sqrt(2.0)))
                              for v in x])
        np.testing.assert_allclose(normal_cdf(x), exact, rtol=1e-15, atol=0.0)

    def test_cdf_edges(self):
        got = normal_cdf(np.array([-np.inf, -40.0, 0.0, 40.0, np.inf, np.nan]))
        assert got[:5].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
        assert math.isnan(got[5])
        # Underflow edge: the tail runs through the subnormals to zero.
        x = np.linspace(-39.0, -37.0, 4001)
        want = _phi_reference(x)
        assert want[0] == 0.0 and 0.0 < want[-1] < 1e-299
        assert np.all(np.abs(normal_cdf(x) - want) <= 1e-15 * want + 1e-323)

    def test_quantile_matches_scalar_reference(self):
        tail = np.logspace(-15.0, math.log10(0.5), 1500)
        p = np.concatenate([tail, 1.0 - tail,
                            np.linspace(1e-15, 1.0 - 1e-15, 1501)])
        want = np.array([_scalar_quantile_reference(v) for v in p])
        np.testing.assert_allclose(normal_quantile(p), want, rtol=0.0,
                                   atol=1e-12)

    def test_scalar_in_float_out(self):
        assert type(normal_cdf(0.3)) is float
        assert type(normal_quantile(0.3)) is float
        assert type(normal_quantile(np.float64(0.3))) is float
        assert normal_quantile(np.array([0.3])).shape == (1,)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, np.nan])
    def test_array_domain(self, bad):
        with pytest.raises(ValidationError):
            normal_quantile(np.array([[0.2, 0.5], [bad, 0.9]]))


class TestDeltaMethodSe:
    def test_zero_numerator(self):
        for v in (0.5, 1.0, 4.0):
            assert delta_method_se(0.0, v, np.eye(2)) == pytest.approx(
                math.sqrt(1.0 / v))

    def test_hand_evaluation(self):
        s = delta_method_se(1.0, 1.0, np.array([[4.0, 1.0], [1.0, 2.0]]))
        assert s == pytest.approx(math.sqrt(3.5), abs=1e-12)

    def test_clamp_boundary(self):
        s = delta_method_se(2.0, 1.0, np.ones((2, 2)))
        assert s == 0.0

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValidationError):
            delta_method_se(1.0, 0.0, np.eye(2))


class TestSampleMeanCov:
    def test_identical_pairs(self):
        r, v, cov = sample_mean_cov([(1.0, 1.0), (1.0, 1.0)])
        assert (r, v) == (1.0, 1.0)
        assert np.allclose(cov, 0.0)

    def test_hand_computation(self):
        r, v, cov = sample_mean_cov([(0.0, 1.0), (2.0, 3.0)])
        assert (r, v) == (1.0, 2.0)
        assert np.allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_single_pair_convention(self):
        r, v, cov = sample_mean_cov([(1.0, 2.0)])
        assert (r, v) == (1.0, 2.0)
        assert np.allclose(cov, 0.0)

    def test_empty_is_error(self):
        with pytest.raises((SizeError, ShapeError)):
            sample_mean_cov(np.empty((0, 2)))

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(0, 10)),
                    min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_permutation_invariant(self, pairs):
        rng = np.random.default_rng(0)
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        a = sample_mean_cov(pairs)
        b = sample_mean_cov(shuffled)
        assert a[0] == pytest.approx(b[0], rel=1e-9, abs=1e-12)
        assert np.allclose(a[2], b[2], rtol=1e-9, atol=1e-12)


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40, 2 ** 63 - 5])
    def test_one_key_is_the_plain_seed_sequence(self, seed):
        want = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        assert np.array_equal(seeded_rng(seed).random(8), want.random(8))

    def test_keys_are_ordered(self):
        assert seeded_rng(1, 2).random() != seeded_rng(2, 1).random()


class TestSplit:
    def _data(self, n):
        rng = np.random.default_rng(3)
        return Dataset(rng.standard_normal(n), rng.standard_normal((n, 2)),
                       rng.standard_normal((n, 3)))

    def test_even_split(self):
        parts = split(self._data(10), 0.5, seed=1)
        assert parts.fit_part.n == 5 and parts.infer_part.n == 5

    def test_floor_rule(self):
        parts = split(self._data(11), 0.5, seed=1)
        assert parts.fit_part.n == 5 and parts.infer_part.n == 6

    def test_deterministic(self):
        a = split(self._data(20), 0.3, seed=7)
        b = split(self._data(20), 0.3, seed=7)
        assert np.array_equal(a.fit_part.y, b.fit_part.y)
        assert np.array_equal(a.infer_part.x, b.infer_part.x)

    def test_partition_is_exact(self):
        data = self._data(17)
        parts = split(data, 0.4, seed=2)
        combined = np.sort(np.concatenate([parts.fit_part.y, parts.infer_part.y]))
        assert np.array_equal(combined, np.sort(data.y))

    def test_never_uses_y(self):
        # Same seed, different y: identical row selection.
        data = self._data(12)
        other = Dataset(data.y + 100.0, data.x, data.z)
        a = split(data, 0.5, seed=5)
        b = split(other, 0.5, seed=5)
        assert np.array_equal(a.fit_part.x, b.fit_part.x)

    def test_degenerate_sizes(self):
        with pytest.raises(SizeError):
            split(self._data(3), 0.1, seed=0)
        with pytest.raises(ValidationError):
            split(self._data(10), 1.2, seed=0)


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros(3), np.zeros((4, 1)), np.zeros((3, 1)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Dataset(np.array([1.0, np.nan]), np.zeros((2, 1)), np.zeros((2, 0)))

    def test_empty_z_allowed(self):
        data = Dataset(np.ones(4), np.ones((4, 2)), np.empty((4, 0)))
        assert data.d_z == 0 and data.d_x == 2

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal(8), rng.standard_normal((8, 2)),
                       rng.standard_normal((8, 3)))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert np.allclose(back.y, data.y, atol=1e-10)
        assert np.allclose(back.x, data.x, atol=1e-10)
        assert np.allclose(back.z, data.z, atol=1e-10)

    def test_csv_x_cols_selection(self, tmp_path):
        data = Dataset(np.arange(4.0), np.arange(8.0).reshape(4, 2),
                       np.ones((4, 1)))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        back = Dataset.from_csv(path, x_cols=["x2"])
        assert back.d_x == 1 and back.d_z == 2
        assert np.allclose(back.x[:, 0], data.x[:, 1])


class TestLcbReport:
    def test_lcb_nonnegative(self):
        with pytest.raises(ValidationError):
            LcbReport(-0.1, 0.0, 0.0, 10, "MMSE_GAP")

    def test_degenerate_forces_zero(self):
        with pytest.raises(ValidationError):
            LcbReport(0.5, 0.5, 0.1, 10, "MMSE_GAP", degenerate=True)

    def test_lcb_below_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.standard_normal(50) + 1.0
            v = np.abs(rng.standard_normal(50)) + 0.5
            rep = ratio_lcb(r, v, 0.05)
            assert rep.lcb >= 0.0
            assert rep.lcb <= rep.point or rep.lcb == 0.0

    def test_csv_serialization(self, tmp_path):
        rep = LcbReport(0.5, 0.7, 0.1, 100, "MMSE_GAP", seed=3)
        path = tmp_path / "r.csv"
        reports_to_csv(path, [("x1", rep)])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("variable,estimand,lcb")
        assert lines[1].split(",")[:3] == ["x1", "MMSE_GAP", "0.5"]


class TestConfidenceLevel:
    def test_quantile(self):
        assert ConfidenceLevel(0.05).z == pytest.approx(1.6448536, abs=1e-6)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0])
    def test_domain(self, a):
        with pytest.raises(ValidationError):
            ConfidenceLevel(a)
