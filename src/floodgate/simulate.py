"""Simulation harness: synthetic data generation, oracle importance
values, and a seeded replicate runner that measures coverage and
half-width of the floodgate bounds across configurations.

A replicate draws covariates from an AR(1) (or Gaussian-copula) model,
generates Y from a linear, nonlinear, or logistic mu*, splits the data,
fits a working regression on one part, and runs the chosen inference
method(s) once per focal variable on the other part. Oracles come from
closed forms where available and seeded Monte Carlo elsewhere.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, NamedTuple

import numpy as np

from . import mmse
from .core import (ConfidenceLevel, Dataset, LcbReport, MACM_GAP, MMSE_GAP,
                   _csv_cells, check_json_values, check_split, seeded_rng,
                   split)
from .covariates import (Ar1Model, CopulaModel, CovariateModel,
                         GaussianLinearModel, _ar1_rows, ar1_covariance)
from .errors import SizeError, ValidationError
from .macm import MacmConfig, macm_gap_oracle, macm_lcb
from .mmse import (FloodgateConfig, block_moments, floodgate_lcb,
                   floodgate_lcb_scale_free, null_mu_blocks)
from .cosufficient import (check_batch_counts, check_batch_plan,
                           cosufficient_lcb)
# fit_lasso: read by perfbench's test_tracer_install_and_uninstall_restore_every_binding
from .regression import (CUSTOM, CustomRegression, CvConfig, FITTERS, LASSO,
                         LinearWorkingRegression, LOGIT_L1, LOGIT_L2,
                         PENALIZED, fit, fit_lasso)

LINEAR_SPARSE = "LINEAR_SPARSE"
NONLINEAR_F1 = "NONLINEAR_F1"
LOGISTIC_LINEAR = "LOGISTIC_LINEAR"

MMSE_EXACT = "MMSE_EXACT"
MMSE_MC = "MMSE_MC"
MMSE_SCALE_FREE = "MMSE_SCALE_FREE"
MACM = "MACM"
COSUFFICIENT = "COSUFFICIENT"

MODEL_AR1 = "AR1"
MODEL_COPULA_AR1 = "COPULA_AR1"

FIT_MU_STAR = "MU_STAR"
FIT_MU_STAR_CORRUPTED = "MU_STAR_CORRUPTED"

MISSPEC_NONE = "NONE"
MISSPEC_INSAMPLE = "INSAMPLE_GAUSSIAN_FIT"

# Seed of the Monte Carlo oracles, and the ridge penalty of the
# in-sample Gaussian refit of X | Z.
_ORACLE_SEED = 987
_MISSPEC_RIDGE = 1e-3


def derive_seed(*keys: int) -> int:
    """A deterministic 63-bit seed from a tuple of integer keys."""
    ss = np.random.SeedSequence(entropy=[int(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


# ---------------------------------------------------------------------------
# mu* construction


_G_FUNCTIONS: list[tuple[str, Callable[[np.ndarray], np.ndarray]]] = [
    ("sin_pi", lambda x: np.sin(np.pi * x)),
    ("cos_pi", lambda x: np.cos(np.pi * x)),
    ("sin_half_pi", lambda x: np.sin(np.pi * x / 2.0)),
    ("cos_pi_pos", lambda x: np.cos(np.pi * x) * (x > 0)),
    ("x_sin_pi", lambda x: x * np.sin(np.pi * x)),
    ("identity", lambda x: x),
    ("abs", lambda x: np.abs(x)),
    ("square", lambda x: x ** 2),
    ("cube", lambda x: x ** 3),
    ("expm1", lambda x: np.exp(x) - 1.0),
]
_G_BY_TAG = dict(_G_FUNCTIONS)


@dataclass(frozen=True)
class MuStarSpec:
    """Recipe for the true regression function mu*.

    amplitude is divided by sqrt(n) when the function is realized, so
    the signal strength stays in the CLT regime as n grows.
    """

    kind: str = LINEAR_SPARSE
    sparsity: int = 30
    amplitude: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR_SPARSE, NONLINEAR_F1, LOGISTIC_LINEAR):
            raise ValidationError(f"unknown mu* kind {self.kind!r}")
        if self.sparsity < 1:
            raise ValidationError("sparsity must be >= 1")


@dataclass(frozen=True)
class RealizedMuStar:
    """A concrete mu*: either a sparse coefficient vector (linear and
    logistic kinds) or the nonlinear main-effect/interaction structure."""

    kind: str
    p: int
    scale: float
    coef: np.ndarray | None = None              # length p, already scaled
    s1: tuple[int, ...] = ()                    # 0-based variable indices
    s2: tuple[tuple[int, int], ...] = ()
    s3: tuple[tuple[int, int, int], ...] = ()
    g_tags: dict = field(default_factory=dict)  # 0-based index -> tag

    def values(self, w: np.ndarray) -> np.ndarray:
        """mu* evaluated on full covariate rows, shape (n, p)."""
        if self.coef is not None:
            return w @ self.coef
        g = {j: _G_BY_TAG[self.g_tags[j]](w[:, j])
             for j in self.g_tags}
        out = sum(g[j] for j in self.s1)
        out = out + sum(g[j] * g[l] for j, l in self.s2)
        out = out + sum(g[j] * g[l] * g[m] for j, l, m in self.s3)
        return self.scale * out

    @property
    def support(self) -> np.ndarray:
        """0-based indices of variables that enter mu*."""
        if self.coef is not None:
            return np.flatnonzero(self.coef)
        return np.array(sorted(self.g_tags), dtype=int)


def _weighted_pick(rng: np.random.Generator, s_star: np.ndarray,
                   s_wl: set[int], count: int, wl_weight: float) -> list[int]:
    """Pick `count` distinct variables from s_star, favoring the ones
    still on the waiting list; relative weights follow the generator's
    recipe and are normalized into a distribution before sampling."""
    size = len(s_star)
    other_weight = (size - len(s_wl)) / size
    weights = np.array([wl_weight * len(s_wl) / size if j in s_wl
                        else other_weight for j in s_star])
    weights = weights / weights.sum()
    picked = rng.choice(s_star, size=count, replace=False, p=weights)
    return [int(j) for j in picked]


def build_mu_star(spec: MuStarSpec, n: int, p: int) -> RealizedMuStar:
    rng = seeded_rng(spec.seed)
    scale = spec.amplitude / math.sqrt(n)
    if spec.kind in (LINEAR_SPARSE, LOGISTIC_LINEAR):
        if spec.sparsity > p:
            raise ValidationError("sparsity cannot exceed p")
        support = rng.choice(p, size=spec.sparsity, replace=False)
        signs = rng.choice([-1.0, 1.0], size=spec.sparsity)
        coef = np.zeros(p)
        coef[support] = signs * scale
        return RealizedMuStar(spec.kind, p, scale, coef=coef)

    # Nonlinear: 30 variables, 15 main effects, 5 forced pairs, then
    # weighted pair/triple sampling until the waiting list is exhausted.
    if spec.sparsity != 30:
        raise ValidationError("the nonlinear mu* generator is defined for "
                              "sparsity 30")
    if p < 30:
        raise ValidationError("nonlinear mu* needs p >= 30")
    s_star = rng.choice(p, size=30, replace=False)
    s_wl = set(int(j) for j in s_star)
    s1 = [int(j) for j in rng.choice(s_star, size=15, replace=False)]
    s_wl -= set(s1)
    paired = rng.choice(np.array(s1), size=10, replace=False)
    s2 = [(int(paired[2 * i]), int(paired[2 * i + 1])) for i in range(5)]
    while len(s_wl) > 5:
        pair = _weighted_pick(rng, s_star, s_wl, 2, 2.0)
        s2.append((pair[0], pair[1]))
        s_wl -= set(pair)
    s3 = []
    while s_wl:
        triple = _weighted_pick(rng, s_star, s_wl, 3, 1.5)
        s3.append((triple[0], triple[1], triple[2]))
        s_wl -= set(triple)
    tags = {int(j): _G_FUNCTIONS[rng.integers(len(_G_FUNCTIONS))][0]
            for j in s_star}
    return RealizedMuStar(NONLINEAR_F1, p, scale, s1=tuple(s1),
                          s2=tuple(s2), s3=tuple(s3), g_tags=tags)


# ---------------------------------------------------------------------------
# Oracles


def ar1_conditional_variances(p: int, rho: float) -> np.ndarray:
    """Var(W_j | W_-j) for each coordinate of the stationary AR(1)
    vector, from the precision-matrix diagonal."""
    precision = np.linalg.inv(ar1_covariance(p, rho))
    return 1.0 / np.diag(precision)


def mmse_oracle_linear(coef: np.ndarray, rho: float) -> np.ndarray:
    """I_j = |beta_j| sqrt(Var(W_j | W_-j)) for a linear conditional
    mean over AR(1) covariates."""
    return np.abs(coef) * np.sqrt(ar1_conditional_variances(len(coef), rho))


def mmse_oracle_nested_mc(mu_star: RealizedMuStar, model: CovariateModel,
                          outer: int, inner: int, seed: int,
                          focal_0based: int) -> tuple[float, float]:
    """Brute-force I_j = sqrt(E[Var(mu*(W) | W_-j)]) by nested Monte
    Carlo: outer joint draws, inner conditional draws of W_j, and the
    unbiased (inner - 1)-denominator conditional-variance estimate.
    Returns (value, standard error of the squared-gap estimate)."""
    _, z = model.sample_joint(outer, seed)
    j = focal_0based
    mu = CustomRegression(lambda x, z_rows: mu_star.values(
        np.concatenate([z_rows[:, :j], x, z_rows[:, j:]], axis=1)))
    count, _, m2 = block_moments(null_mu_blocks(
        mu, model, model.given(z), inner, derive_seed(seed, 1)))
    cond_var = m2 / (count - 1)
    gap_sq = float(cond_var.mean())
    se = float(cond_var.std(ddof=1) / math.sqrt(outer))
    return math.sqrt(max(gap_sq, 0.0)), se


def _merge_draw_blocks(acc, count: int, value: float, se: float):
    """Folds one block's oracle (value, se) over count draws into acc, the
    (count, mean, M2, se) of the blocks before it, or None: the block's M2
    is se^2 count (count - 1), and the two merge by Chan, Golub & LeVeque
    (1983). A single block keeps its (value, se) as they are."""
    m2 = se * se * count * (count - 1)
    if acc is None:
        return count, value, m2, se
    count_a, mean_a, m2_a, _ = acc
    total = count_a + count
    delta = value - mean_a
    mean = mean_a + delta * (count / total)
    m2 = m2_a + m2 + delta * delta * (count_a * count / total)
    return total, mean, m2, math.sqrt(m2 / (total - 1) / total)


def macm_oracle_values(mu_star: RealizedMuStar, rho: float, n_draws: int,
                       seed: int, se_target: float = 0.002) -> np.ndarray:
    """MACM-gap oracle per variable for the logistic-linear model over
    AR(1) covariates: E[Y | W] = tanh(mu*(W) / 2), nulls are exactly 0.
    Each draw count streams its full rows in blocks of
    mmse._BLOCK_VALUES // p draws (4 MB, the null-copy block), so memory
    does not grow with the count. Every pending support variable j makes
    one macm_gap_oracle call per block: slope coef[j], the rest of mu* as
    the offset, and the conditional mean of W_j given the rest, each a
    weighted sum of the block's rows. The blocks' results merge exactly
    (_merge_draw_blocks), and a count that fits one block returns its one
    call's (value, se). The count doubles, up to 64 n_draws, for the
    variables whose Monte Carlo SE has not yet met the target."""
    if mu_star.coef is None:
        raise ValidationError("the MACM oracle expects a coefficient mu*")
    if n_draws < 2:
        raise SizeError("the MACM oracle needs at least two draws")
    p, coef = mu_star.p, mu_star.coef
    laws = {}
    for j in map(int, mu_star.support):
        rest = coef.copy()
        rest[j] = 0.0
        laws[j] = (rest, *Ar1Model(p, rho, j + 1).row_weights())
    block = max(2, mmse._BLOCK_VALUES // p)
    out = np.zeros(p)
    pending = list(laws)
    draws = n_draws
    while pending:
        merged = dict.fromkeys(pending)
        for w in _ar1_rows(p, rho, draws, derive_seed(seed, draws), block):
            for j in pending:
                rest, weights, cond_sd = laws[j]
                merged[j] = _merge_draw_blocks(
                    merged[j], w.shape[1],
                    *macm_gap_oracle(coef[j], rest @ w, w[j], weights @ w,
                                     cond_sd))
        del w       # the block buffer, before the next count's is made
        unmet = []
        for j in pending:
            _, out[j], _, se = merged[j]
            if se >= se_target and draws < 64 * n_draws:
                unmet.append(j)
        pending = unmet
        draws *= 2
    return out


# ---------------------------------------------------------------------------
# Experiment specification


# An inference method of `floodgate infer` and MethodSpec: the counts it
# reads, named as in MethodSpec with the copy count first, and bound(alpha,
# seed, **counts), which checks the counts by the bound's own rule and gives
# the bound to run on (infer_part, mu, model), looked up by name as it runs.
# MMSE_SCALE_FREE is the CLI's alone. MethodSpec has no m_copies (None: 4n).
class Method(NamedTuple):
    reads: tuple[str, ...]
    bound: Callable


def _mmse_bound(alpha, seed, big_k=0):
    cfg = FloodgateConfig(alpha, big_k=big_k, seed=seed)
    return lambda *run: floodgate_lcb(*run, cfg)


def _scale_free_bound(alpha, seed, big_k):
    cfg = FloodgateConfig(alpha, big_k=big_k, seed=seed)
    return lambda *run: floodgate_lcb_scale_free(*run, cfg)


def _macm_bound(alpha, seed, k_copies, m_copies):
    cfg = MacmConfig(alpha, m_copies=m_copies, k_copies=k_copies, seed=seed)
    return lambda *run: macm_lcb(*run, cfg)


def _cosufficient_bound(alpha, seed, mc_k, n2):
    check_batch_counts(n2, mc_k)
    return lambda *run: cosufficient_lcb(*run, n2, alpha, mc_k=mc_k, seed=seed)


METHODS = {MMSE_EXACT: Method((), _mmse_bound),
           MMSE_MC: Method(("big_k",), _mmse_bound),
           MMSE_SCALE_FREE: Method(("big_k",), _scale_free_bound),
           MACM: Method(("k_copies", "m_copies"), _macm_bound),
           COSUFFICIENT: Method(("mc_k", "n2"), _cosufficient_bound)}


@dataclass(frozen=True)
class MethodSpec:
    """One inference method of METHODS to run per focal variable. A
    field the method does not read must keep its default."""

    name: str
    big_k: int = 500          # MMSE_MC null copies
    k_copies: int = 100       # MACM indicator copies (0 = closed form)
    n2: int = 100             # co-sufficient batch size
    mc_k: int = 0             # co-sufficient within-batch copies (0 = exact)

    def __post_init__(self) -> None:
        if self.name not in METHODS or self.name == MMSE_SCALE_FREE:
            raise ValidationError(f"unknown method {self.name!r}")
        read = ("name",) + METHODS[self.name].reads
        unread = [f.name for f in fields(self) if f.name not in read
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValidationError(
                f"method {self.name} does not read {', '.join(unread)}")
        if self.name == MMSE_MC and self.big_k == 0:
            raise ValidationError("MMSE_MC needs big_k >= 2; 0 is MMSE_EXACT")
        self.bound(alpha=0.05, seed=0)      # checks the counts

    def bound(self, alpha, seed):
        reads, bound = METHODS[self.name]
        return bound(alpha, seed, **{n: getattr(self, n, None) for n in reads})

    @property
    def label(self) -> str:
        if self.name == MMSE_MC:
            return f"MMSE_MC_K{self.big_k}"
        if self.name == COSUFFICIENT:
            return f"COSUFFICIENT_N2_{self.n2}"
        return self.name

    @property
    def closed_form(self) -> bool:
        """Whether it uses closed-form moments (0 copies): mu must be linear in x."""
        return all(getattr(self, f) == 0 for f in METHODS[self.name].reads[:1])


# The ExperimentSpec fields only some studies read, each with the test
# of whether a spec reads it.
_STUDY_READS = {
    "corruption_tau": lambda spec: spec.fitter == FIT_MU_STAR_CORRUPTED,
    "misspec_m_rows": lambda spec: spec.misspecification == MISSPEC_INSAMPLE,
    "oracle_draws": lambda spec: spec.mu_star.kind != LINEAR_SPARSE,
    "cv": lambda spec: spec.fitter in PENALIZED,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one synthetic coverage/half-width study. A
    field the study does not read must keep its default."""

    n: int
    p: int
    mu_star: MuStarSpec
    methods: tuple[MethodSpec, ...]
    model_kind: str = MODEL_AR1
    rho: float = 0.3
    fitter: str = LASSO
    cv: CvConfig = CvConfig()
    split_proportion: float = 0.5
    replicates: int = 64
    base_seed: int = 0
    alpha: float = 0.05
    variables: tuple[int, ...] | None = None    # 1-based; None = all
    misspecification: str = MISSPEC_NONE
    misspec_m_rows: int = 0
    corruption_tau: float = 0.0                 # for MU_STAR_CORRUPTED
    oracle_draws: int = 100_000

    def __post_init__(self) -> None:
        if self.n < 4 or self.p < 1:
            raise ValidationError("need n >= 4 and p >= 1")
        if self.model_kind not in (MODEL_AR1, MODEL_COPULA_AR1):
            raise ValidationError(f"unknown model kind {self.model_kind!r}")
        if (self.model_kind == MODEL_COPULA_AR1
                and self.mu_star.kind != NONLINEAR_F1):
            # The linear and logistic oracles assume Gaussian AR(1) rows.
            raise ValidationError(
                f"{self.mu_star.kind} has no oracle under {MODEL_COPULA_AR1}")
        object.__setattr__(self, "methods", tuple(self.methods))
        labels = [m.label for m in self.methods]   # the summary's keys
        if not labels or len(set(labels)) < len(labels):
            raise ValidationError(f"need methods with distinct labels, got {labels}")
        if self.fitter not in FITTERS + (FIT_MU_STAR, FIT_MU_STAR_CORRUPTED):
            raise ValidationError(f"unknown fitter {self.fitter!r}")
        closed = [m.label for m in self.methods if m.closed_form]
        if closed and self.fit_link == "binary_mean":
            # Checked here, not when the first bound runs after the oracle.
            raise ValidationError(
                f"closed-form methods {closed} need an identity-link mu; "
                f"fitter {self.fitter} gives a binary_mean link")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.misspecification not in (MISSPEC_NONE, MISSPEC_INSAMPLE):
            raise ValidationError(
                f"unknown misspecification mode {self.misspecification!r}")
        defaults = {f.name: f.default for f in fields(self)}
        unread = [name for name, reads in _STUDY_READS.items()
                  if not reads(self) and getattr(self, name) != defaults[name]]
        if unread:
            raise ValidationError(
                f"this study does not read {', '.join(unread)}")
        if _STUDY_READS["oracle_draws"](self) and self.oracle_draws < 2:
            raise ValidationError(
                f"oracle_draws must be >= 2, got {self.oracle_draws}")
        if self.variables is not None:
            variables = tuple(int(v) for v in self.variables if float(v).is_integer())
            if len(set(variables) & set(range(1, self.p + 1))) < len(self.variables):
                raise ValidationError("variables must be distinct whole numbers in "
                                      f"[1, p], got {list(self.variables)}")
            object.__setattr__(self, "variables", variables)
        # The rules a replicate applies after the oracle, by their owners.
        mu_star = self.realized_mu_star     # by build_mu_star's rules
        if self.fitter in (FIT_MU_STAR, FIT_MU_STAR_CORRUPTED):
            _mu_star_coef(mu_star)
        ConfidenceLevel(self.alpha)
        check_split(self.split_proportion, self.n)
        n_fit = math.floor(self.split_proportion * self.n)
        if _STUDY_READS["cv"](self):
            self.cv.check_rows(n_fit)
        model = focal_model(self, 1)    # its Ar1Model checks rho
        if self.misspecification == MISSPEC_INSAMPLE:
            _check_insample_rows(self.misspec_m_rows or self.n, self.p)
            # The bounds get a Gaussian refit: the latent law's family.
            model = Ar1Model(self.p, self.rho, 1)
        for method in self.methods:
            if method.name == COSUFFICIENT:
                check_batch_plan(model, self.n - n_fit, self.p - 1,
                                 method.n2, method.mc_k)

    @functools.cached_property
    def realized_mu_star(self) -> RealizedMuStar:
        """The mu* of this study, built once: the oracle and every
        replicate share it, and a pickled spec carries it to workers."""
        return build_mu_star(self.mu_star, self.n, self.p)

    @property
    def fit_link(self) -> str:
        """The link of the working regression the fitter gives."""
        if self.fitter in (LOGIT_L1, LOGIT_L2) or (
                self.fitter in (FIT_MU_STAR, FIT_MU_STAR_CORRUPTED)
                and self.mu_star.kind == LOGISTIC_LINEAR):
            return "binary_mean"
        return "identity"

    @property
    def variable_list(self) -> tuple[int, ...]:
        return self.variables if self.variables is not None \
            else tuple(range(1, self.p + 1))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        d = _json_object("spec", json.loads(text), _SPEC_KINDS)
        try:
            d["mu_star"] = MuStarSpec(
                **_json_object("spec mu_star", d["mu_star"], _MU_STAR_KINDS))
            d["methods"] = tuple(
                MethodSpec(**_json_object("spec method", m, _METHOD_KINDS))
                for m in d["methods"])
            # The constructors make lambda_grid and variables tuples.
            if d.get("cv") is not None:
                d["cv"] = CvConfig(**_json_object("spec cv", d["cv"], _CV_KINDS))
            else:
                d.pop("cv", None)
            return cls(**d)
        except TypeError as exc:     # names an unknown or missing key
            raise ValidationError(f"spec JSON: {exc}") from None


# The JSON value kind of each field of a spec and of its parts
# (core.check_json_values).
_SPEC_KINDS = {"n": int, "p": int, "model_kind": str, "rho": float,
               "fitter": str, "split_proportion": float, "replicates": int,
               "base_seed": int, "alpha": float, "variables": (None, 1),
               "misspecification": str, "misspec_m_rows": int,
               "corruption_tau": float, "oracle_draws": int}
_MU_STAR_KINDS = {"kind": str, "sparsity": int, "amplitude": float,
                  "seed": int}
_METHOD_KINDS = {"name": str, "big_k": int, "k_copies": int, "n2": int,
                 "mc_k": int}
_CV_KINDS = {"folds": int, "lambda_grid": (None, 1), "num_lambdas": int,
             "lambda_min_ratio": float}


def _json_object(what: str, cfg, kinds: dict):
    """cfg, its value kinds checked when it is a JSON object; anything
    else is left to the constructor, whose TypeError names it."""
    if isinstance(cfg, dict):
        check_json_values(what, cfg, kinds)
    return cfg


def focal_model(spec: ExperimentSpec, variable: int) -> CovariateModel:
    """Conditional model of W_variable given the rest (1-based)."""
    latent = Ar1Model(spec.p, spec.rho, variable)
    if spec.model_kind == MODEL_COPULA_AR1:
        return CopulaModel(latent)
    return latent


def generate_replicate(spec: ExperimentSpec, replicate_index: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Covariates W (n, p) and responses y for one replicate."""
    x, z = focal_model(spec, 1).sample_joint(
        spec.n, derive_seed(spec.base_seed, replicate_index, 1))
    w = np.concatenate([x, z], axis=1)
    signal = spec.realized_mu_star.values(w)
    rng = seeded_rng(spec.base_seed, replicate_index, 2)
    if spec.mu_star.kind == LOGISTIC_LINEAR:
        prob = 1.0 / (1.0 + np.exp(-signal))
        y = np.where(rng.random(spec.n) < prob, 1.0, -1.0)
    else:
        y = signal + rng.standard_normal(spec.n)
    return w, y


def oracle_values(spec: ExperimentSpec) -> np.ndarray:
    """Per-variable importance oracle (same for every replicate)."""
    mu_star = spec.realized_mu_star
    if spec.mu_star.kind == LINEAR_SPARSE:
        return mmse_oracle_linear(mu_star.coef, spec.rho)
    if spec.mu_star.kind == LOGISTIC_LINEAR:
        return macm_oracle_values(mu_star, spec.rho, spec.oracle_draws,
                                  _ORACLE_SEED)
    out = np.zeros(spec.p)
    for j0 in mu_star.support:
        model = focal_model(spec, int(j0) + 1)
        outer = max(spec.oracle_draws // 100, 100)
        value, _ = mmse_oracle_nested_mc(mu_star, model, outer, 400,
                                         derive_seed(_ORACLE_SEED, int(j0)),
                                         int(j0))
        out[j0] = value
    return out


def _mu_star_coef(mu_star: RealizedMuStar) -> np.ndarray:
    """The coefficients that the mu* fitters hand out as the fit."""
    if mu_star.coef is None:
        raise ValidationError("coefficient fitters need a linear mu*")
    return mu_star.coef


def _fit_working_regression(spec: ExperimentSpec, fit_ds: Dataset,
                            replicate_index: int) -> LinearWorkingRegression:
    """Fits (or fabricates) a full-p coefficient working regression."""
    if spec.fitter in (FIT_MU_STAR, FIT_MU_STAR_CORRUPTED):
        coef = _mu_star_coef(spec.realized_mu_star).copy()
        if spec.fitter == FIT_MU_STAR_CORRUPTED:
            noise_rng = seeded_rng(spec.base_seed, replicate_index, 4)
            coef = coef + spec.corruption_tau * noise_rng.standard_normal(spec.p)
        return LinearWorkingRegression(CUSTOM, 0.0, coef, np.empty(0),
                                       link=spec.fit_link)
    return fit(spec.fitter, fit_ds, spec.cv,
               derive_seed(spec.base_seed, replicate_index, 3))


def _focal_view(full_fit: LinearWorkingRegression, j0: int
                ) -> LinearWorkingRegression:
    """Re-expresses a full-p coefficient fit with variable j0 (0-based)
    as the focal x and the remaining columns as z."""
    coef = full_fit.x_coef
    return LinearWorkingRegression(
        full_fit.kind, full_fit.intercept, coef[j0:j0 + 1],
        np.delete(coef, j0), link=full_fit.link)


def _check_insample_rows(m: int, p: int) -> None:
    if m < p + 2:
        raise SizeError(f"in-sample fit needs m >= p + 2 = {p + 2} rows")


def _insample_gaussian_fit(w: np.ndarray, j0: int,
                           m: int) -> GaussianLinearModel:
    """Refits the conditional law of W_j on the other columns from m
    in-sample rows by ridge-regularized Gaussian regression."""
    p = w.shape[1]
    _check_insample_rows(m, p)
    rows = w[:m]
    x = rows[:, j0]
    z = np.delete(rows, j0, axis=1)
    design = np.hstack([np.ones((m, 1)), z])
    penalty = _MISSPEC_RIDGE * np.eye(p)
    penalty[0, 0] = 0.0
    gamma = np.linalg.solve(design.T @ design / m + penalty,
                            design.T @ x / m)
    resid = x - design @ gamma
    sigma2 = max(float(resid @ resid) / max(m - p, 1), 1e-12)
    return GaussianLinearModel(gamma, sigma2, np.zeros(p - 1), np.eye(p - 1))


_ZERO_SHORTCUT_FITTERS = (LASSO, LOGIT_L1)


def _run_replicate(spec: ExperimentSpec, replicate_index: int) -> list[dict]:
    w, y = generate_replicate(spec, replicate_index)
    full = Dataset(y, w, np.empty((spec.n, 0)))
    parts = split(full, spec.split_proportion,
                  derive_seed(spec.base_seed, replicate_index, 5))
    full_fit = _fit_working_regression(spec, parts.fit_part, replicate_index)
    infer_w = parts.infer_part.x
    infer_y = parts.infer_part.y
    rows: list[dict] = []
    for variable in spec.variable_list:
        j0 = variable - 1
        mu_j = _focal_view(full_fit, j0)
        infer_ds = Dataset(infer_y, infer_w[:, j0:j0 + 1],
                           np.delete(infer_w, j0, axis=1))
        # A zeroed focal coefficient makes every method's bound 0, so no
        # covariate model is built; otherwise one serves every method.
        if (spec.fitter in _ZERO_SHORTCUT_FITTERS
                and full_fit.x_coef[j0] == 0.0):
            model = None
        elif spec.misspecification == MISSPEC_INSAMPLE:
            model = _insample_gaussian_fit(w, j0, spec.misspec_m_rows or spec.n)
        else:
            model = focal_model(spec, variable)
        for mi, method in enumerate(spec.methods):
            estimand = MACM_GAP if method.name == MACM else MMSE_GAP
            seed = derive_seed(spec.base_seed, replicate_index, 6, j0, mi)
            if model is None:
                rep = LcbReport(0.0, 0.0, 0.0, infer_ds.n, estimand,
                                degenerate=True, seed=seed)
            else:
                rep = method.bound(spec.alpha, seed)(infer_ds, mu_j, model)
            rows.append({"replicate": replicate_index, "variable": variable,
                         "method": method.label, "lcb": rep.lcb,
                         "point": rep.point, "se": rep.se,
                         "degenerate": int(rep.degenerate)})
    return rows


def _covered(lcb: float, oracle: float) -> bool:
    """Whether an LCB covers the oracle, up to rounding."""
    return lcb <= oracle + 1e-12


@dataclass(frozen=True)
class ExperimentResult:
    """Per-(replicate, variable, method) detail plus aggregates."""

    spec: ExperimentSpec
    detail: tuple[dict, ...]
    oracle: np.ndarray

    def summary(self) -> list[dict]:
        rows = []
        for method in sorted({d["method"] for d in self.detail}):
            for variable in self.spec.variable_list:
                sub = [d for d in self.detail
                       if d["method"] == method and d["variable"] == variable]
                if not sub:
                    continue
                oracle = float(self.oracle[variable - 1])
                covered = np.array([_covered(d["lcb"], oracle) for d in sub])
                hw = np.array([oracle - d["lcb"] for d in sub])
                r = len(sub)
                cov = float(covered.mean())
                rows.append({
                    "method": method, "variable": variable, "oracle": oracle,
                    "replicates": r, "coverage": cov,
                    "coverage_se": math.sqrt(max(cov * (1 - cov), 0.0) / r),
                    "mean_half_width": float(hw.mean()),
                    "half_width_se": float(hw.std(ddof=1) / math.sqrt(r))
                    if r > 1 else 0.0,
                    "degenerate_rate": float(np.mean(
                        [d["degenerate"] for d in sub]))})
        return rows

    def write_csvs(self, detail_path, summary_path) -> None:
        detail_cols = ["replicate", "variable", "method", "lcb", "point",
                       "se", "degenerate", "oracle", "covered", "half_width"]
        with open(detail_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(detail_cols)
            for d in self.detail:
                oracle = float(self.oracle[d["variable"] - 1])
                writer.writerow(_csv_cells([
                    d["replicate"], d["variable"], d["method"], d["lcb"],
                    d["point"], d["se"], d["degenerate"], oracle,
                    int(_covered(d["lcb"], oracle)), oracle - d["lcb"]]))
        summary_cols = ["method", "variable", "oracle", "replicates",
                        "coverage", "coverage_se", "mean_half_width",
                        "half_width_se", "degenerate_rate"]
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(summary_cols)
            for row in self.summary():
                writer.writerow(_csv_cells(row[c] for c in summary_cols))


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Runs every replicate, with at most one worker each, and aggregates;
    deterministic given spec.base_seed, independent of the thread count."""
    oracle = oracle_values(spec)
    threads = min(threads, spec.replicates)
    if threads > 1:
        from multiprocessing import get_context
        with get_context("spawn").Pool(threads) as pool:
            chunks = pool.starmap(_run_replicate,
                                  [(spec, r) for r in range(spec.replicates)])
    else:
        chunks = [_run_replicate(spec, r) for r in range(spec.replicates)]
    detail = tuple(row for chunk in chunks for row in chunk)
    return ExperimentResult(spec, detail, oracle)
