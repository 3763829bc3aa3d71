"""Domain types, dataset handling, and the confidence arithmetic shared by
every inference routine: the normal quantile, the delta-method standard
error for a ratio-of-means statistic, seeded data splitting, and moment
aggregation."""

from __future__ import annotations

import csv
import functools
import math
import re
import reprlib
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import ShapeError, SizeError, ValidationError

# Relative threshold for the 0/0 = 0 convention: a mean conditional
# variance below RELATIVE_DEGENERACY_EPS * (scale of mu)^2 is treated as
# exactly zero.
RELATIVE_DEGENERACY_EPS = 1e-12

MMSE_GAP = "MMSE_GAP"
MMSE_GAP_SCALE_FREE = "MMSE_GAP_SCALE_FREE"
MACM_GAP = "MACM_GAP"


def philox_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """A Philox generator keyed by an integer seed; a Generator passes
    through, so a caller can continue one stream across several draws.

    Philox is counter based, so a vectorized draw from a fresh generator
    is reproducible independent of thread count, and k rows drawn in
    blocks equal the same k rows drawn at once.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def seeded_rng(*keys: int) -> np.random.Generator:
    """A PCG64 generator keyed by a tuple of nonnegative integers.
    One key gives the stream of ``SeedSequence(entropy=key)``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(k) for k in keys]))


# Coefficients of Cody's (1969) rational Chebyshev approximations to
# erfc (netlib specfun CALERF): |x| <= 0.46875, 0.46875 < |x| <= 4, |x| > 4.
_ERF_A = (3.16112374387056560e+00, 1.13864154151050156e+02,
          3.77485237685302021e+02, 3.20937758913846947e+03,
          1.85777706184603153e-01)
_ERF_B = (2.36012909523441209e+01, 2.44024637934444173e+02,
          1.28261652607737228e+03, 2.84423683343917062e+03)
_ERF_C = (5.64188496988670089e-01, 8.88314979438837594e+00,
          6.61191906371416295e+01, 2.98635138197400131e+02,
          8.81952221241769090e+02, 1.71204761263407058e+03,
          2.05107837782607147e+03, 1.23033935479799725e+03,
          2.15311535474403846e-08)
_ERF_D = (1.57449261107098347e+01, 1.17693950891312499e+02,
          5.37181101862009858e+02, 1.62138957456669019e+03,
          3.29079923573345963e+03, 4.36261909014324716e+03,
          3.43936767414372164e+03, 1.23033935480374942e+03)
_ERF_P = (3.05326634961232344e-01, 3.60344899949804439e-01,
          1.25781726111229246e-01, 1.60837851487422766e-02,
          6.58749161529837803e-04, 1.63153871373020978e-02)
_ERF_Q = (2.56852019228982242e+00, 1.87295284992346725e+00,
          5.27905102951428412e-01, 6.05183413124413191e-02,
          2.33520497626869185e-03)
_ERF_THRESH = 0.46875
_INV_SQRT_PI = 5.6418958354775628695e-01
# erfc(x) is below the smallest subnormal double from here on.
_ERFC_ZERO = 27.3
# Elements per slice. A slice's branch temporaries stay in cache, and
# their peak (at most about 7.5 slices of doubles, under 2 MB) stays
# small next to a null-copy block. 2^14 was slower, 2^16 no faster.
_SLICE = 1 << 15


def _horner_pair(v: np.ndarray, num_coefs, den_coefs, num_top: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """num = (...((num_top v + a_0) v + a_1) v ...) v and
    den = (...((v + b_0) v + b_1) v ...) v, pairing a_k with b_k, each
    step in place: the same operations, in the same order, as the
    out-of-place recurrence."""
    num = v * num_top
    den = v.copy()
    for a, b in zip(num_coefs, den_coefs):
        num += a
        num *= v
        den += b
        den *= v
    return num, den


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) as exp(-t^2) exp(-(y - t)(y + t)) with t = y truncated
    to a multiple of 1/16, which keeps full relative accuracy far out."""
    t = y * 16.0
    np.floor(t, out=t)
    t /= 16.0
    head = np.negative(t)
    head *= t
    np.exp(head, out=head)
    tail = y - t
    np.negative(tail, out=tail)
    t += y
    tail *= t
    np.exp(tail, out=tail)
    head *= tail
    return head


def _erfc_small(xs: np.ndarray) -> np.ndarray:
    """erfc on |x| <= 0.46875: 1 - x (num + a_3) / (den + b_3), with the
    Horner sums taken in x^2."""
    ysq = xs * xs
    num, den = _horner_pair(ysq, _ERF_A[:3], _ERF_B[:3], _ERF_A[4])
    num += _ERF_A[3]
    num *= xs
    den += _ERF_B[3]
    num /= den
    return np.subtract(1.0, num, out=num)


def _erfc_mid_ratio(v: np.ndarray) -> np.ndarray:
    """erfc(v) exp(v^2) for 0.46875 < v <= 4: (num + c_7) / (den + d_7)."""
    num, den = _horner_pair(v, _ERF_C[:7], _ERF_D[:7], _ERF_C[8])
    num += _ERF_C[7]
    den += _ERF_D[7]
    num /= den
    return num


def _erfc_tail_ratio(v: np.ndarray) -> np.ndarray:
    """erfc(v) exp(v^2) for v > 4: (1/sqrt(pi) - vsq (num + p_4) /
    (den + q_4)) / v, with the Horner sums taken in vsq = 1 / v^2."""
    vsq = v * v
    np.divide(1.0, vsq, out=vsq)
    num, den = _horner_pair(vsq, _ERF_P[:4], _ERF_Q[:4], _ERF_P[5])
    num += _ERF_P[4]
    num *= vsq
    den += _ERF_Q[4]
    num /= den
    np.subtract(_INV_SQRT_PI, num, out=num)
    num /= v
    return num


def _erfc_slice(x: np.ndarray, out: np.ndarray) -> None:
    # Each branch is a function, so its temporaries die with its call.
    small = np.abs(x) <= _ERF_THRESH
    # Integer gathers and scatters: boolean masks branch per element.
    idx = np.flatnonzero(small)
    if len(idx):
        out[idx] = _erfc_small(x.take(idx))
    idx = np.flatnonzero(~small)
    if not len(idx):
        return
    xi = x.take(idx)
    # fmin maps nan to the zero tail; it is restored below.
    ym = np.abs(xi)
    np.fmin(ym, _ERFC_ZERO, out=ym)
    res = np.empty_like(ym)
    mid = ym <= 4.0
    sel = np.flatnonzero(mid)
    res[sel] = _erfc_mid_ratio(ym.take(sel))
    sel = np.flatnonzero(~mid)
    res[sel] = _erfc_tail_ratio(ym.take(sel))
    res *= _exp_neg_square(ym)
    res[ym >= _ERFC_ZERO] = 0.0
    neg = np.flatnonzero(xi < 0.0)
    res[neg] = 2.0 - res[neg]
    res[np.isnan(xi)] = np.nan
    out[idx] = res


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of a C-contiguous float array,
    elementwise, written over x. The two branches of a slice read and
    write disjoint elements, so none is read after it is overwritten."""
    flat = x.reshape(-1)
    for start in range(0, flat.size, _SLICE):
        stop = start + _SLICE
        _erfc_slice(flat[start:stop], flat[start:stop])
    return x


def _normal_cdf_into(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """normal_cdf(arr) written into out, a C-contiguous float array of
    arr's shape; out may be arr itself."""
    # arr / -sqrt(2) is bitwise -arr / sqrt(2).
    np.divide(arr, -math.sqrt(2.0), out=out)
    _erfc(out)
    out *= 0.5
    return out


def normal_cdf(x):
    """Standard normal CDF, elementwise on arrays; a scalar gives a float."""
    arr = np.asarray(x, dtype=float)
    # The C order is part of the output: products on these values round
    # according to layout.
    out = _normal_cdf_into(arr, np.empty(arr.shape))
    return float(out) if out.ndim == 0 else out


_NORMAL_PDF_CONST = 1.0 / math.sqrt(2.0 * math.pi)


# Coefficients of Acklam's rational approximation to the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _poly(coefs, r):
    acc = coefs[0] * r + coefs[1]
    for c in coefs[2:]:
        acc = acc * r + c
    return acc


def normal_quantile(p):
    """Upper-tail quantile: the z with P(Z > z) = p for standard normal Z,
    elementwise on arrays; a scalar gives a float.

    Acklam's rational approximation refined by two Newton steps on the
    survival function; absolute error below 1e-9 for p in
    [1e-8, 1 - 1e-8] (outside that range the representation of p itself
    limits the attainable accuracy). The
    whole computation is phrased in terms of the tail probability p so
    no accuracy is lost to 1 - p cancellation for tiny p.
    """
    if np.ndim(p) == 0:
        return _scalar_quantile(float(p))
    return _quantile(np.asarray(p, dtype=float))


# Scalar callers ask for the z of a few confidence levels, once per
# bound; the array path costs far more per call than per element.
@functools.lru_cache(maxsize=64)
def _scalar_quantile(p: float) -> float:
    return float(_quantile(np.array([p]))[0])


def _quantile(arr: np.ndarray) -> np.ndarray:
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        bad = arr[~inside].flat[0]
        raise ValidationError(f"quantile probability must lie in (0,1), got {bad}")
    p = arr.ravel()
    x = np.empty_like(p)
    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    central = ~(low | high)
    if low.any():
        r = np.sqrt(-2.0 * np.log(p[low]))
        x[low] = -(_poly(_C, r) / _poly(_D + (1.0,), r))
    if central.any():
        r = 0.5 - p[central]
        t = r * r
        x[central] = _poly(_A, t) * r / _poly(_B + (1.0,), t)
    if high.any():
        r = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        x[high] = _poly(_C, r) / _poly(_D + (1.0,), r)
    # Two Newton refinements against the high-accuracy erfc-based tail.
    for _ in range(2):
        pdf = _NORMAL_PDF_CONST * np.exp(-0.5 * x * x)
        x += (normal_cdf(-x) - p) / pdf
    return x.reshape(arr.shape)


@dataclass(frozen=True)
class ConfidenceLevel:
    """One-sided miscoverage level alpha in (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0,1), got {self.alpha}")

    @property
    def z(self) -> float:
        return normal_quantile(self.alpha)


def as_confidence_level(alpha) -> ConfidenceLevel:
    if isinstance(alpha, ConfidenceLevel):
        return alpha
    return ConfidenceLevel(float(alpha))


@dataclass(frozen=True)
class Dataset:
    """n samples of (response, focal covariates, conditioning covariates).

    y has shape (n,), x has shape (n, d_x) with d_x >= 1 (d_x > 1 means a
    group of focal covariates), z has shape (n, d_z) with d_z >= 0.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        if z.size == 0:
            z = z.reshape(len(y), 0)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        n = len(y)
        if n < 1:
            raise SizeError("dataset must contain at least one row")
        if x.shape[0] != n or z.shape[0] != n:
            raise ShapeError(
                f"row counts differ: y has {n}, x has {x.shape[0]}, z has {z.shape[0]}")
        if x.shape[1] < 1:
            raise ShapeError("x must have at least one column")
        for name, arr in (("y", y), ("x", x), ("z", z)):
            # min or max is nan or infinite exactly when some value is;
            # unlike np.isfinite, no temporary of the array's size.
            if arr.size and not (np.isfinite(arr.min())
                                 and np.isfinite(arr.max())):
                raise ValidationError(f"{name} contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_z(self) -> int:
        return self.z.shape[1]

    def take(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.y[rows], self.x[rows], self.z[rows])

    def to_csv(self, path) -> None:
        """Write a header row and one row per sample, each value to 12
        significant digits, with CRLF line ends (as ``csv.writer``).
        Rows are formatted a chunk at a time, so no second table is
        made."""
        header = (["y"]
                  + [f"x{j + 1}" for j in range(self.d_x)]
                  + [f"z{j + 1}" for j in range(self.d_z)])
        width = len(header)
        step = min(self.n, max(1, _CSV_CHUNK_VALUES // width))
        line = ",".join(["%.12g"] * width) + "\r\n"
        block = np.empty((step, width))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n, step):
                stop = min(start + step, self.n)
                part = block[:stop - start]
                part[:, 0] = self.y[start:stop]
                part[:, 1:1 + self.d_x] = self.x[start:stop]
                part[:, 1 + self.d_x:] = self.z[start:stop]
                fh.write((line * len(part)) % tuple(part.ravel().tolist()))

    @classmethod
    def from_csv(cls, path, x_cols: Sequence[str] | None = None, *,
                 split_at: tuple[float, int] | None = None
                 ) -> "Dataset | SplitDataset":
        """Read a dataset CSV with a header row.

        By default the header must name columns y, x1..x{d_x}, z1..z{d_z}.
        When x_cols is given, all non-y columns are covariates and the
        named ones become the focal x block (the rest become z); they must
        be distinct and must not name y. Header names must be distinct.

        numpy parses the body: a cell may be quoted or padded with
        whitespace, blank lines are skipped, and '#' starts no comment.
        A row whose width differs from the header's raises ShapeError; a
        cell that is not a decimal float raises ValidationError. The file
        is read as UTF-8; a leading byte-order mark (as spreadsheets
        write) is skipped.

        With ``split_at=(proportion, seed)`` the result is
        ``split(Dataset.from_csv(path, x_cols), proportion, seed)``, bit
        for bit, but the rows go from the parse straight into the two
        parts: the full dataset is never made.
        """
        rows = _CsvRows(path, x_cols)
        if split_at is not None:
            return split(rows, *split_at)
        return rows.gather([None], "F")[0]


# Values per parsed chunk of a dataset CSV. The parse holds the table
# once, as chunks; each is dropped as soon as it is copied into its
# destination, whose pages are first written then, so resident memory
# stays near one table plus a chunk. With 2^21-value chunks `infer
# --fit` on a 100 000 x 42 table peaked at 95 MB of RSS, against 76 MB.
_CSV_CHUNK_VALUES = 1 << 15


class _CsvRows:
    """The body of a dataset CSV, parsed in chunks of about
    ``_CSV_CHUNK_VALUES`` values, and which columns are y, x and z.
    ``gather`` copies the rows out, chunk by chunk, and drops the chunks."""

    def __init__(self, path, x_cols: Sequence[str] | None) -> None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if "y" not in header:
                raise ValidationError(f"{path}: no 'y' column in header")
            repeated = sorted({h for h in header if header.count(h) > 1})
            if repeated:
                raise ValidationError(f"{path}: repeated header names {repeated}")
            self.chunks = _parse_body(fh, path, len(header))
        self.n = sum(len(chunk) for chunk in self.chunks)
        if not self.n:
            raise SizeError(f"{path}: no data rows")
        if x_cols is None:
            x_names = sorted((h for h in header if h.startswith("x")),
                             key=lambda h: int(h[1:]))
            z_names = sorted((h for h in header if h.startswith("z")),
                             key=lambda h: int(h[1:]))
            if not x_names:
                raise ValidationError(f"{path}: no x columns found")
        else:
            missing = [c for c in x_cols if c not in header]
            if missing:
                raise ValidationError(f"{path}: x-cols not in header: {missing}")
            if "y" in x_cols or len(set(x_cols)) != len(x_cols):
                raise ValidationError(
                    f"{path}: x-cols must be distinct and exclude y: {list(x_cols)}")
            x_names = list(x_cols)
            z_names = [h for h in header if h != "y" and h not in x_names]
        col = {name: j for j, name in enumerate(header)}
        self.y_col = col["y"]
        self.x_cols = [col[c] for c in x_names]
        self.z_cols = [col[c] for c in z_names]

    def gather(self, masks: Sequence[np.ndarray | None],
               order: str) -> list["Dataset"]:
        """One Dataset per boolean row mask (None: every row), its rows
        in file order and its x and z in `order`. A chunk's rows of a
        mask are taken as one block and copied out column by column, and
        the chunk is dropped at once, so the chunks can be gathered once."""
        outs = [(np.empty(m), np.empty((m, len(self.x_cols)), order=order),
                 np.empty((m, len(self.z_cols)), order=order))
                for m in (self.n if mask is None else np.count_nonzero(mask)
                          for mask in masks)]
        filled = [0] * len(masks)
        start = 0
        for i in range(len(self.chunks)):
            chunk, self.chunks[i] = self.chunks[i], None
            stop = start + len(chunk)
            for k, (mask, (y, x, z)) in enumerate(zip(masks, outs)):
                rows = chunk if mask is None else chunk[mask[start:stop]]
                lo = filled[k]
                hi = filled[k] = lo + len(rows)
                y[lo:hi] = rows[:, self.y_col]
                for dest, cols in ((x, self.x_cols), (z, self.z_cols)):
                    for j, c in enumerate(cols):
                        dest[lo:hi, j] = rows[:, c]
                del rows    # before the next mask's rows are taken
            start = stop
        return [Dataset(*arrays) for arrays in outs]


def _parse_body(fh, path, width: int) -> list[np.ndarray]:
    """The rows of a dataset CSV body after its header, parsed by
    np.loadtxt from fh in chunks of about ``_CSV_CHUNK_VALUES`` values;
    a fault is named by ``_csv_body_fault``."""
    step = max(1, _CSV_CHUNK_VALUES // width)
    chunks, rows = [], 0
    with warnings.catch_warnings():
        # An empty body is the caller's SizeError; loadtxt also warns
        # of each chunk's blank lines.
        warnings.simplefilter("ignore", UserWarning)
        while True:
            try:
                chunk = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                   quotechar='"', max_rows=step)
            except ValueError as exc:
                chunks.clear()
                # numpy counts rows from the start of its chunk.
                reason = re.sub(r"at row (\d+)",
                                lambda m: f"at row {int(m[1]) + rows}",
                                str(exc), count=1)
                _csv_body_fault(path, width, reason)
            if len(chunk):
                if chunk.shape[1] != width:
                    chunks.clear()
                    _csv_body_fault(path, width,
                                    f"rows have {chunk.shape[1]} cells")
                chunks.append(chunk)
                rows += len(chunk)
            if len(chunk) < step:
                return chunks


def _csv_body_rows(path):
    """The non-empty rows of a dataset CSV body, as ``csv`` reads them,
    one at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                yield row


def _csv_body_fault(path, width: int, reason: str) -> NoReturn:
    """Name what np.loadtxt refused in a dataset CSV body: the first row
    whose width differs from the header's (ShapeError), else a cell that
    is not a number (ValidationError). Reads the body again with ``csv``,
    one row at a time, so well-formed files are parsed once and a faulty
    one in O(row) memory."""
    for i, row in enumerate(_csv_body_rows(path)):
        if len(row) != width:
            raise ShapeError(f"{path}: data row {i + 1} has {len(row)} "
                             f"cells, header has {width}")
    for row in _csv_body_rows(path):
        try:
            for v in row:
                float(v)
        except ValueError as exc:
            reason = str(exc)
            break
    # Also a cell Python's float reads but numpy does not, such as 1_0.
    raise ValidationError(f"{path}: non-numeric cell ({reason})")


@dataclass(frozen=True)
class SplitDataset:
    """A disjoint partition of a dataset into a fitting part and an
    inference part; the partition depends on the seed only."""

    fit_part: Dataset
    infer_part: Dataset


def check_split(proportion: float, n: int | None = None) -> None:
    """split's rule: a proportion in (0, 1) leaving, given n, no part empty."""
    if not 0.0 < proportion < 1.0:
        raise ValidationError(f"split proportion must lie in (0,1), got {proportion}")
    if n is not None and not 1 <= math.floor(proportion * n) < n:
        raise SizeError(
            f"split of n={n} at proportion={proportion} leaves an empty part")


def _split_mask(n: int, proportion: float, seed: int) -> np.ndarray:
    """Which rows go to split's fit part: floor(proportion * n) of them,
    drawn by a seeded permutation."""
    perm = seeded_rng(seed).permutation(n)
    fit = np.zeros(n, dtype=bool)
    fit[perm[:int(math.floor(proportion * n))]] = True
    return fit


def split(data: "Dataset | _CsvRows", proportion: float,
          seed: int) -> SplitDataset:
    """Seeded random split; the fit part gets floor(proportion * n) rows,
    each part keeps the rows in their order, with x and z C-ordered.
    ``Dataset.from_csv(..., split_at=...)`` passes the parsed rows of a
    CSV, which go straight into the parts."""
    check_split(proportion, data.n)
    fit = _split_mask(data.n, proportion, seed)
    if isinstance(data, Dataset):
        return SplitDataset(data.take(np.flatnonzero(fit)),
                            data.take(np.flatnonzero(~fit)))
    return SplitDataset(*data.gather([fit, ~fit], "C"))


@dataclass(frozen=True)
class LcbReport:
    """A lower confidence bound with its ingredients."""

    lcb: float
    point: float
    se: float
    n_eff: int
    estimand: str
    degenerate: bool = False
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lcb < 0:
            raise ValidationError("lcb must be nonnegative")
        if self.degenerate and self.lcb != 0:
            raise ValidationError("degenerate reports must carry lcb = 0")

    def replace(self, **kwargs) -> "LcbReport":
        return replace(self, **kwargs)


REPORT_CSV_COLUMNS = ["variable", "estimand", "lcb", "point", "se", "n_eff",
                      "degenerate", "seed"]


def _csv_cells(row: Iterable) -> list:
    """CSV cells of one row: floats to 12 significant digits; ints (the
    63-bit seeds among them) and strings as they are."""
    return [format(v, ".12g") if isinstance(v, float) else v for v in row]


def reports_to_csv(path, reports: Iterable[tuple[str, LcbReport]],
                   extra_columns: Sequence[str] = ()) -> None:
    """Write one CSV row per (variable/group, estimand)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS + list(extra_columns))
        for variable, rep in reports:
            writer.writerow(_csv_cells(
                [variable, rep.estimand, rep.lcb, rep.point, rep.se,
                 rep.n_eff, int(rep.degenerate),
                 "" if rep.seed is None else rep.seed]
                + [rep.diagnostics.get(c, float("nan"))
                   for c in extra_columns]))


def _json_kind_holds(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_json_kind_holds(value, k) for k in kind)
    if kind is None:
        return value is None
    if kind is str:
        return isinstance(value, str)
    if _holds_bool(value):              # JSON true and false are no numbers
        return False
    if kind is int:
        return isinstance(value, int)
    if kind is float:
        return isinstance(value, (int, float))
    try:                                # a ragged list raises ValueError
        arr = np.asarray(value)
    except ValueError:
        return False
    return arr.dtype.kind in "iuf" and (arr.ndim == kind or arr.size == 0)


def _holds_bool(value) -> bool:
    """Whether value is a bool or a (nested) list holding one: numpy reads
    [1, true] as the integers [1, 1]."""
    return isinstance(value, bool) or (
        isinstance(value, list) and any(_holds_bool(v) for v in value))


def _json_kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_json_kind_name(k) for k in kind)
    names = {str: "a string", int: "an integer", float: "a number",
             None: "null"}
    return names.get(kind) or f"a {kind}-d array of numbers"


def check_json_values(what: str, cfg: dict, kinds: dict) -> None:
    """Raises ValidationError naming the first key of cfg whose value is not
    of its kind in kinds: str, int, float (any number), None (null), d
    for a d-dimensional array of numbers ([] passes for any d), or a
    tuple of kinds, any of which will do. No number or array may hold a
    JSON boolean. Keys that kinds does not list, and missing keys, are
    left to the constructor."""
    for key, kind in kinds.items():
        if key in cfg and not _json_kind_holds(cfg[key], kind):
            raise ValidationError(
                f"{what} JSON: {key} must be {_json_kind_name(kind)}, "
                f"got {reprlib.repr(cfg[key])}")


def sample_mean_cov(pairs) -> tuple[float, float, np.ndarray]:
    """Sample mean of (r, v) pairs and their 2x2 sample covariance.

    The covariance uses the unbiased n-1 denominator; a single pair gets
    a zero covariance matrix.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError("expected a sequence of (r, v) pairs")
    n = arr.shape[0]
    if n == 0:
        raise SizeError("sample_mean_cov needs at least one pair")
    r_bar = float(arr[:, 0].mean())
    v_bar = float(arr[:, 1].mean())
    if n == 1:
        return r_bar, v_bar, np.zeros((2, 2))
    return r_bar, v_bar, np.cov(arr.T, ddof=1)


def delta_method_se(r_bar: float, v_bar: float, sigma_hat: np.ndarray) -> float:
    """Standard error of r_bar / sqrt(v_bar) by the delta method.

    s^2 = (1/v)[ (r/2v)^2 S22 + S11 - (r/v) S12 ]; a floating-point
    negative s^2 is clamped at zero.
    """
    if v_bar <= 0:
        raise ValidationError("delta_method_se requires v_bar > 0")
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if sigma_hat.shape != (2, 2):
        raise ShapeError("sigma_hat must be 2x2")
    ratio = r_bar / v_bar
    s2 = (1.0 / v_bar) * ((ratio / 2.0) ** 2 * sigma_hat[1, 1]
                          + sigma_hat[0, 0]
                          - ratio * sigma_hat[0, 1])
    return math.sqrt(max(s2, 0.0))


def ratio_lcb(r: np.ndarray, v: np.ndarray, alpha, estimand: str = MMSE_GAP,
              mu_scale_sq: float | None = None,
              seed: int | None = None) -> LcbReport:
    """Aggregate (r, v) samples into the delta-method LCB for E r / sqrt(E v).

    Shared by the exact, Monte Carlo, weighted, and co-sufficient paths.
    """
    level = as_confidence_level(alpha)
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.shape != v.shape or r.ndim != 1:
        raise ShapeError("r and v must be equal-length vectors")
    if len(r) < 2:
        raise SizeError("need at least two samples for an LCB")
    n = len(r)
    r_bar, v_bar, sigma = sample_mean_cov(np.column_stack([r, v]))
    if mu_scale_sq is None:
        mu_scale_sq = float(np.mean(v))
    # The 0/0 = 0 convention. The scale is the mean squared size of the
    # (conditionally centered) working-regression values, so the
    # threshold respects the additive and multiplicative invariances of
    # the procedure.
    if (v_bar <= RELATIVE_DEGENERACY_EPS * max(mu_scale_sq, 0.0)
            or v_bar <= 0.0):
        return LcbReport(0.0, 0.0, 0.0, n, estimand, degenerate=True, seed=seed)
    se = delta_method_se(r_bar, v_bar, sigma)
    point = r_bar / math.sqrt(v_bar)
    lcb = max(point - level.z * se / math.sqrt(n), 0.0)
    return LcbReport(lcb, point, se, n, estimand, degenerate=False, seed=seed)
