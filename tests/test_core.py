import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodgate import (ConfidenceLevel, Dataset, LcbReport, delta_method_se,
                       normal_cdf, normal_quantile, sample_mean_cov, split)
from floodgate import core
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

    def test_cdf_equals_the_out_of_place_expression(self):
        # The expression normal_cdf computed before it worked in place:
        # 0.5 * erfc(-arr / sqrt(2)) into a separate output, with nan
        # restored from the input.
        def out_of_place(x):
            arr = np.asarray(x, dtype=float)
            flat = np.ascontiguousarray(-arr / math.sqrt(2.0)).ravel()
            out = np.empty_like(flat)
            for start in range(0, flat.size, core._SLICE):
                stop = start + core._SLICE
                core._erfc_slice(flat[start:stop], out[start:stop])
            out[np.isnan(flat)] = np.nan
            return 0.5 * out.reshape(arr.shape)

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2e-308, -2.2e-308, 1e308, -1e308]
        for t in (0.46875, 4.0, 27.3):      # the branch thresholds
            b = t * math.sqrt(2.0)
            special += [s * v for s in (1.0, -1.0)
                        for v in (b, np.nextafter(b, 0.0),
                                  np.nextafter(b, np.inf))]
        rng = np.random.default_rng(8)
        x = np.concatenate([special,
                            10.0 * rng.standard_normal(3 * core._SLICE)])
        before = x.copy()
        assert _same_bits(normal_cdf(x), out_of_place(x))
        assert _same_bits(x, before)            # the input is not written
        grid = np.asfortranarray(x[:4000].reshape(50, 80))
        got = normal_cdf(grid)
        assert got.flags.c_contiguous and _same_bits(got, out_of_place(grid))
        assert _same_bits(normal_cdf(x[::3]), out_of_place(x[::3]))
        for v in special:
            got = normal_cdf(v)
            assert type(got) is float
            assert _same_bits(np.array(got), out_of_place(v))
        ints = np.arange(-3, 4)
        assert _same_bits(normal_cdf(ints), out_of_place(ints))

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


def _reference_from_csv(path, x_cols=None):
    """The csv.reader + float() parser that Dataset.from_csv replaced,
    on well-formed files: (y, x, z)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    cols = {name: data[:, j] for j, name in enumerate(header)}
    if x_cols is None:
        x_names = sorted((h for h in header if h.startswith("x")),
                         key=lambda h: int(h[1:]))
        z_names = sorted((h for h in header if h.startswith("z")),
                         key=lambda h: int(h[1:]))
    else:
        x_names = list(x_cols)
        z_names = [h for h in header if h != "y" and h not in x_names]
    x = np.column_stack([cols[c] for c in x_names])
    z = (np.column_stack([cols[c] for c in z_names])
         if z_names else np.empty((len(rows), 0)))
    return cols["y"], x, z


def _reference_csv_bytes(data: Dataset) -> bytes:
    """What Dataset.to_csv wrote through csv.writer, row by row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["y"] + [f"x{j + 1}" for j in range(data.d_x)]
                    + [f"z{j + 1}" for j in range(data.d_z)])
    for i in range(data.n):
        writer.writerow([format(v, ".12g")
                         for v in [data.y[i], *data.x[i], *data.z[i]]])
    return buf.getvalue().encode()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


_CSV_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                                  3.0, 123456789012345678.0]))
_CELL_TEXT = st.sampled_from([repr, lambda v: format(v, ".12g")])
_CELL_DRESS = st.sampled_from(["{}", '"{}"', " {} ", "\t{}", '" {}"'])


@st.composite
def _csv_tables(draw):
    """(file text, x_cols) for a finite table in any column order, with
    repr or .12g cells, quoted or padded cells, LF or CRLF line ends and
    blank lines; x_cols is None or a selection of covariate columns."""
    n = draw(st.integers(1, 4))
    names = (["y"] + [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))]
             + [f"z{j + 1}" for j in range(draw(st.integers(0, 3)))])
    names = draw(st.permutations(names))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names)]
    for _ in range(n):
        cells = [draw(_CELL_DRESS).format(draw(_CELL_TEXT)(draw(_CSV_FLOATS)))
                 for _ in names]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    covariates = [h for h in names if h != "y"]
    x_cols = draw(st.none() | st.lists(st.sampled_from(covariates),
                                       min_size=1, unique=True))
    return text, x_cols


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros(3), np.zeros((4, 1)), np.zeros((3, 1)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Dataset(np.array([1.0, np.nan]), np.zeros((2, 1)), np.zeros((2, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["y", "x", "z"])
    def test_rejects_each_nonfinite_value(self, bad, where):
        cols = {"y": np.array([1.0, -0.0, 3.0]), "x": np.zeros((3, 1)),
                "z": np.full((3, 2), 1e308)}
        cols[where].reshape(-1)[1] = bad
        with pytest.raises(ValidationError, match=where):
            Dataset(**cols)

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

    @pytest.mark.parametrize("text, error", [
        ("y,x1,z1\n1,2,3\n4,5\n", ShapeError),          # short row
        ("y,x1,z1\n1,2,3\n4,5,6,7\n", ShapeError),      # long row
        ("y,x1,z1\n1,2\n4,5\n", ShapeError),            # every row short
        ("y,x1,z1\n1,2,3\n4,abc,6\n", ValidationError),  # non-numeric cell
        ("", ValidationError),                            # empty file
        ("x1,z1\n1,2\n", ValidationError),               # no y column
        ("y,x1,z1\n", SizeError),                         # no data rows
        ("y,x1,x1,z1\n1,2,3,4\n", ValidationError),      # repeated name
    ])
    def test_csv_read_errors(self, tmp_path, text, error):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error):
            Dataset.from_csv(path)

    @given(_csv_tables())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_csv_read_matches_reference_parser(self, tmp_path_factory, table):
        text, x_cols = table
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode())
        data = Dataset.from_csv(path, x_cols=x_cols)
        y, x, z = _reference_from_csv(path, x_cols)
        assert _same_bits(data.y, y)
        assert _same_bits(data.x, x)
        assert _same_bits(data.z, z)

    @pytest.mark.parametrize("text, error, match", [
        ("y,x1,z1\n1,2,3\n#4,5,6\n", ValidationError, "#4"),  # no comment
        ("y,x1,z1\r\n", SizeError, "no data rows"),       # CRLF header only
        ("y,x1,z1\n1,,3\n", ValidationError, "non-numeric"),  # empty cell
        ("y,x1,z1\n1,nan,3\n", ValidationError, "non-finite"),
        ("y,x1,z1\n1,2\n4,5\n", ShapeError, "data row 1 "),  # all short
        ("y,x1,z1\n1,abc,3\n4,5\n", ShapeError, "data row 2 "),  # ragged first
        # Python's float reads these; numpy's parser does not.
        ("y,x1,z1\n1,1_0,3\n", ValidationError, "1_0"),
        ("y,x1,z1\n1,\u0661,3\n", ValidationError, "non-numeric"),
    ])
    def test_csv_read_error_contract(self, tmp_path, text, error, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error, match=match):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("data", [
        Dataset(np.array([-0.0]), np.array([[5e-324]]), np.empty((1, 0))),
        Dataset(np.array([1e300, -1e300, 3.0]),
                np.array([[1.0, -0.0], [2.0, 1e16], [5e-324, 0.1]]),
                np.empty((3, 0))),
        Dataset(np.array([123456789012345678.0, 1.0 / 3.0]),
                np.array([[-2.0, 4.0], [1e-300, -5e-324]]),
                np.array([[0.0, 7.0, -1e300], [2.5, -0.0, 1e300]])),
        Dataset(np.linspace(-1.0, 1.0, 6) / 3.0, np.sqrt(np.arange(6.0)),
                np.arange(24.0).reshape(6, 4) / 7.0),
    ])
    def test_csv_write_matches_csv_writer(self, tmp_path, data):
        path = tmp_path / "d.csv"
        data.to_csv(path)
        assert path.read_bytes() == _reference_csv_bytes(data)

    @pytest.mark.parametrize("first", ["y", "x1"])
    def test_csv_read_skips_a_byte_order_mark(self, tmp_path, first):
        # Spreadsheets write UTF-8 with a leading byte-order mark.
        rest = [c for c in ("y", "x1", "z1") if c != first]
        text = ",".join([first] + rest) + "\r\n1,2.5,-3\r\n4,5,6e-3\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        for x_cols in (None, ["x1"]):
            want = Dataset.from_csv(plain, x_cols=x_cols)
            got = Dataset.from_csv(marked, x_cols=x_cols)
            for name in ("y", "x", "z"):
                assert _same_bits(getattr(got, name), getattr(want, name))
        # The body checks read the file again, past the mark too.
        marked.write_bytes((text + "7,8\r\n").encode("utf-8-sig"))
        with pytest.raises(ShapeError, match="data row 3 has 2 cells"):
            Dataset.from_csv(marked)

    def test_csv_y_owns_its_values(self, tmp_path):
        path = tmp_path / "d.csv"
        Dataset(np.arange(4.0), np.arange(8.0).reshape(4, 2),
                np.ones((4, 1))).to_csv(path)
        data = Dataset.from_csv(path)
        # A view into the parse table would keep the whole table alive.
        assert data.y.base is None and data.y.flags.c_contiguous

    @pytest.mark.parametrize("x_cols", [["x3"], ["y"], ["x1", "y"],
                                        ["x1", "x1"]])
    def test_csv_rejects_bad_x_cols(self, tmp_path, x_cols):
        path = tmp_path / "d.csv"
        Dataset(np.arange(4.0), np.arange(8.0).reshape(4, 2),
                np.ones((4, 1))).to_csv(path)
        with pytest.raises(ValidationError):
            Dataset.from_csv(path, x_cols=x_cols)


def _loadtxt_reference(path, x_cols=None):
    """Dataset.from_csv as one np.loadtxt call over the whole body, with
    the csv-module fault scan over a list of every row: the Dataset, or
    the (exception type, message) of a fault."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                  quotechar='"')
            reason = (None if data.shape[1] == len(header)
                      else f"rows have {data.shape[1]} cells")
        except ValueError as exc:
            reason = str(exc)
    if reason is not None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [row for row in reader if row]
        for i, row in enumerate(rows):
            if len(row) != len(header):
                return ShapeError, (f"{path}: data row {i + 1} has {len(row)} "
                                    f"cells, header has {len(header)}")
        try:
            [float(v) for row in rows for v in row]
        except ValueError as exc:
            reason = str(exc)
        return ValidationError, f"{path}: non-numeric cell ({reason})"
    col = {name: j for j, name in enumerate(header)}
    if x_cols is None:
        x_names = sorted((h for h in header if h.startswith("x")),
                         key=lambda h: int(h[1:]))
        z_names = sorted((h for h in header if h.startswith("z")),
                         key=lambda h: int(h[1:]))
    else:
        x_names = list(x_cols)
        z_names = [h for h in header if h != "y" and h not in x_names]
    return Dataset(data[:, col["y"]].copy(),
                   data[:, [col[c] for c in x_names]],
                   data[:, [col[c] for c in z_names]])


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """The same values, bit for bit, dtype and layout."""
    return (a.dtype == b.dtype and a.shape == b.shape and _same_bits(a, b)
            and (a.size == 0 or a.strides == b.strides)
            and a.flags.c_contiguous == b.flags.c_contiguous
            and a.flags.f_contiguous == b.flags.f_contiguous)


def _same_dataset(a: Dataset, b: Dataset) -> bool:
    return all(_same_array(getattr(a, k), getattr(b, k)) for k in "yxz")


# The chunked reader at 12 values a chunk: 3 rows of the 4-column tables
# below.
_CHUNK_ROWS = 3


def _chunked_text(rows: int) -> str:
    """A 4-column table of `rows` rows behind a byte-order mark, with CRLF
    line ends, quoted and padded cells, and blank lines inside chunks and
    at their edges."""
    rng = np.random.default_rng(rows)
    dress = ["{}", '"{}"', " {} ", '\t{}', '" {}"']
    lines = ["z2,y,x1,z1"]
    for i in range(rows):
        cells = (rng.standard_normal(4) * 10.0 ** i).tolist()
        lines.append(",".join(dress[(i + j) % 5].format(repr(v))
                              for j, v in enumerate(cells)))
        if i % _CHUNK_ROWS != 1:
            lines.append("")
    return "\ufeff" + "\r\n".join(lines) + "\r\n"


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(core, "_CSV_CHUNK_VALUES", 4 * _CHUNK_ROWS)


def _with_rows(text: str, edits: dict) -> str:
    """text with data row i (0-based) replaced by edits[i]."""
    lines = text.split("\r\n")
    data = [k for k, line in enumerate(lines) if k and line]
    for i, line in edits.items():
        lines[data[i]] = line
    return "\r\n".join(lines)


class TestChunkedCsv:
    @pytest.mark.parametrize("rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS,
                                      _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("x_cols", [None, ["z1", "x1"]])
    def test_read_matches_one_loadtxt(self, small_chunks, tmp_path, rows,
                                      x_cols):
        path = tmp_path / "d.csv"
        path.write_bytes(_chunked_text(rows).encode("utf-8"))
        got = Dataset.from_csv(path, x_cols=x_cols)
        assert _same_dataset(got, _loadtxt_reference(path, x_cols))
        assert got.x.flags.f_contiguous and got.y.base is None

    @pytest.mark.parametrize("edits", [
        {9: "1,2,3"},                               # ragged, last chunk
        {9: "1,abc,3,4"},                           # bad cell, last chunk
        {8: "1,1_0,3,4"},                           # numpy's own refusal
        {4: "1,abc,3,4", 9: "1,2,3,4,5"},           # ragged beats the cell
        {4: "1,1_0,3,4", 9: "1,2,3,4,5"},
        {r: "1,2,3" for r in range(6, 10)},         # every later row short
        {2: "1,\u0661,3,4"},                        # a chunk's last row
    ])
    def test_a_fault_in_a_later_chunk(self, small_chunks, tmp_path, edits):
        path = tmp_path / "bad.csv"
        path.write_bytes(_with_rows(_chunked_text(10), edits).encode("utf-8"))
        error, message = _loadtxt_reference(path)
        with pytest.raises(error) as info:
            Dataset.from_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows", [4, 3 * _CHUNK_ROWS + 1, 40])
    @pytest.mark.parametrize("proportion, seed", [(0.5, 0), (0.3, 7),
                                                  (0.9, 2)])
    def test_split_at_read_equals_split_of_the_read(
            self, small_chunks, tmp_path, rows, proportion, seed):
        path = tmp_path / "d.csv"
        path.write_bytes(_chunked_text(rows).encode("utf-8"))
        for x_cols in (None, ["z2"]):
            got = Dataset.from_csv(path, x_cols=x_cols,
                                   split_at=(proportion, seed))
            want = split(Dataset.from_csv(path, x_cols=x_cols), proportion,
                         seed)
            assert _same_dataset(got.fit_part, want.fit_part)
            assert _same_dataset(got.infer_part, want.infer_part)
            assert got.fit_part.z.flags.c_contiguous

    def test_split_at_read_checks_the_proportion(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(_chunked_text(4).encode("utf-8"))
        with pytest.raises(SizeError):
            Dataset.from_csv(path, split_at=(0.1, 0))

    @pytest.mark.parametrize("rows", [1, 5, 6, 7, 19])
    @pytest.mark.parametrize("chunk", [20, 1 << 15])
    def test_write_matches_one_savetxt(self, monkeypatch, tmp_path, rows,
                                       chunk):
        # The writer formats a chunk at a time; the bytes are those of one
        # np.savetxt call on the stacked table.
        monkeypatch.setattr(core, "_CSV_CHUNK_VALUES", chunk)
        rng = np.random.default_rng(rows)
        data = Dataset(rng.standard_normal(rows) * 1e9,
                       rng.standard_normal((rows, 2)),
                       np.where(rng.random((rows, 2)) < 0.3, -0.0,
                                rng.standard_normal((rows, 2)) / 7.0))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        want = io.StringIO(newline="")
        np.savetxt(want, np.column_stack([data.y, data.x, data.z]),
                   fmt="%.12g", delimiter=",", newline="\r\n",
                   header="y,x1,x2,z1,z2", comments="")
        assert path.read_bytes() == want.getvalue().encode("utf-8")


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
