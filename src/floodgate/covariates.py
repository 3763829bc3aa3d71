"""Conditional laws of X given Z.

Each model simulates full covariate rows, and given(z) computes once what
its law of X takes from rows z: GaussianRows, FiniteRows or, for the copula,
MappedRows of latent Gaussian rows, on which sample_null_copies draws.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import _normal_cdf_into, normal_quantile, philox_rng
from .errors import ShapeError, ValidationError


@dataclass(frozen=True)
class NullCopies:
    """K resampled versions of the focal covariates, shape (K, n, d_x)."""

    copies: np.ndarray


class GaussianRows:
    """X | Z = z_i ~ N(mean[i], cov), cov (d_x, d_x) or per row (n, d_x, d_x);
    sample draws (k, n, d_x) with chol, a shared (d_x, d_x) Cholesky factor."""

    def __init__(self, z, mean, cov, chol) -> None:
        self.z, self.mean, self.cov, self.chol = z, mean, cov, chol

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.standard_normal((k,) + self.mean.shape)
        # In place where the draws allow: a sum or product has the same
        # bits in either operand order.
        if self.chol.size == 1:   # a 1 x 1 factor: the matmul's values, faster
            draws *= self.chol[0, 0]
        else:
            draws = draws @ self.chol.T
        draws += self.mean[None, :, :]
        return draws


class FiniteRows:
    """X | Z = z_i takes the value k with probability pmf[i, k];
    sample(k, rng) is (k, n, 1)."""

    def __init__(self, z, pmf) -> None:
        self.z, self.pmf = z, pmf

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        cum = np.cumsum(self.pmf, axis=1)
        u = rng.random((k, len(self.pmf)))
        copies = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
        return copies.astype(float)[:, :, None]


class MappedRows:
    """Rows whose X is a fixed map of a latent X drawn from latent rows."""

    def __init__(self, z, latent) -> None:
        self.z, self.latent = z, latent


class CovariateModel(ABC):
    """A joint covariate law split into a focal block X and the rest Z."""

    @property
    @abstractmethod
    def d_x(self) -> int: ...

    @property
    @abstractmethod
    def d_z(self) -> int: ...

    @abstractmethod
    def sample_joint(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw n i.i.d. rows; returns (x, z) with shapes (n,d_x), (n,d_z)."""

    @abstractmethod
    def given(self, z: np.ndarray):
        """Law of X on the rows z, a row kind (rows.z is z if 2-D float)."""

    def sample_null_copies(self, rows, big_k: int,
                           seed: int | np.random.Generator) -> NullCopies:
        """Draw big_k conditionally independent copies of X on the rows.

        A Generator seed is advanced in place, so successive calls on one
        generator continue its stream: drawing a then b copies equals
        drawing a + b copies at once, row for row.
        """
        if big_k < 1:
            raise ValidationError("big_k must be >= 1")
        return NullCopies(rows.sample(big_k, philox_rng(seed)))

    @abstractmethod
    def to_config(self) -> dict: ...

    def to_json(self) -> str:
        cfg = {"model": type(self).__name__, **self.to_config()}
        return json.dumps(cfg, indent=2)

    def _check_z(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, None] if self.d_z == 1 else z[None, :]
        if z.shape[1] != self.d_z:
            raise ShapeError(f"z has {z.shape[1]} columns, model expects {self.d_z}")
        return z


class _GaussianConditional(CovariateModel):
    """X | Z ~ N(shift + Z B^T, cov): the conditional law of both Gaussian
    covariate models, set once by their constructors through _set_law."""

    def _set_law(self, shift: np.ndarray, coef: np.ndarray,
                 cov: np.ndarray) -> None:
        # object.__setattr__, because GaussianLinearModel is frozen.
        for name, value in (("_shift", shift), ("_coef", coef),
                            ("_cond_cov", cov),
                            ("_cond_chol", np.linalg.cholesky(cov))):
            object.__setattr__(self, name, value)

    @property
    def d_x(self) -> int:
        return self._coef.shape[0]

    @property
    def d_z(self) -> int:
        return self._coef.shape[1]

    def given(self, z):
        z = self._check_z(z)
        return GaussianRows(z, z @ self._coef.T + self._shift,
                            self._cond_cov, self._cond_chol)


@dataclass(frozen=True)
class GaussianLinearModel(_GaussianConditional):
    """X | Z ~ N((1, Z) gamma, sigma2) with Z ~ N(z_mean, z_cov)."""

    gamma: np.ndarray
    sigma2: float
    z_mean: np.ndarray
    z_cov: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        z_mean = np.atleast_1d(np.asarray(self.z_mean, dtype=float))
        z_cov = np.asarray(self.z_cov, dtype=float)  # JSON holds 0 x 0 as []
        z_cov = np.atleast_2d(z_cov) if z_cov.size else z_cov.reshape(0, 0)
        if self.sigma2 <= 0:
            raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
        d_z = len(z_mean)
        if gamma.shape != (d_z + 1,):
            raise ShapeError(f"gamma must have length d_z+1={d_z + 1}")
        if z_cov.shape != (d_z, d_z):
            raise ShapeError("z_cov must be square of side d_z")
        if not np.allclose(z_cov, z_cov.T):
            raise ValidationError("z_cov must be symmetric")
        if d_z and np.linalg.eigvalsh(z_cov).min() <= 0:
            raise ValidationError("z_cov must be positive definite")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "z_mean", z_mean)
        object.__setattr__(self, "z_cov", z_cov)
        self._set_law(gamma[:1], gamma[None, 1:], np.array([[self.sigma2]]))

    def sample_joint(self, n, seed):
        if n < 1:
            raise ValidationError("n must be >= 1")
        rng = philox_rng(seed)
        if self.d_z:
            chol = np.linalg.cholesky(self.z_cov)
            z = self.z_mean + rng.standard_normal((n, self.d_z)) @ chol.T
        else:
            z = np.empty((n, 0))
        mean = self.given(z).mean[:, 0]
        x = mean + math.sqrt(self.sigma2) * rng.standard_normal(n)
        return x[:, None], z

    def to_config(self):
        return {"gamma": self.gamma.tolist(), "sigma2": float(self.sigma2),
                "z_mean": self.z_mean.tolist(), "z_cov": self.z_cov.tolist()}


def _as_focal_tuple(focal_index) -> tuple[int, ...]:
    if isinstance(focal_index, (int, np.integer)):
        return (int(focal_index),)
    return tuple(int(j) for j in focal_index)


def ar1_covariance(dim: int, rho: float) -> np.ndarray:
    idx = np.arange(dim)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _ar1_rows(dim: int, rho: float, n: int, seed: int) -> np.ndarray:
    """n draws of the stationary AR(1) vector, coordinate-major: shape
    (dim, n), so each step of the recursion writes one contiguous row."""
    rng = philox_rng(seed)
    w = np.empty((dim, n))
    w[0] = rng.standard_normal(n)
    scale = math.sqrt(1.0 - rho ** 2)
    for j in range(1, dim):
        w[j] = rho * w[j - 1] + scale * rng.standard_normal(n)
    return w


class Ar1Model(_GaussianConditional):
    """Stationary Gaussian AR(1) vector with unit marginal variances.

    W_1 ~ N(0,1) and W_{j+1} = rho W_j + sqrt(1-rho^2) eps_{j+1}; the
    focal block X is the column(s) at focal_index (1-based) and Z is the
    remaining columns in order. X | Z comes from partitioning the
    covariance of W.
    """

    def __init__(self, dim: int, rho: float, focal_index) -> None:
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        if not -1.0 < rho < 1.0:
            raise ValidationError(f"rho must lie in (-1,1), got {rho}")
        self.dim = int(dim)
        self.rho = float(rho)
        self.focal_index = _as_focal_tuple(focal_index)
        focal = self.focal_index
        if not focal or len(set(focal)) != len(focal):
            raise ValidationError("focal_index must be distinct indices")
        if any(j < 1 or j > dim for j in focal):
            raise ValidationError(f"focal indices must lie in [1, {dim}]")
        s = np.array(sorted(j - 1 for j in focal))
        r = np.array([j for j in range(dim) if j + 1 not in focal], dtype=int)
        self._focal0, self._rest0 = s, r
        cov = ar1_covariance(dim, rho)
        solve = np.linalg.solve(cov[np.ix_(r, r)], cov[np.ix_(r, s)])
        cond_cov = cov[np.ix_(s, s)] - cov[np.ix_(s, r)] @ solve
        # A shift of -0.0 adds exactly nothing, even to a -0.0 mean.
        self._set_law(np.full(len(s), -0.0), solve.T,
                      0.5 * (cond_cov + cond_cov.T))

    def sample_joint(self, n, seed):
        if n < 1:
            raise ValidationError("n must be >= 1")
        w = _ar1_rows(self.dim, self.rho, n, seed)
        # Column-major (n, d) views. Matrix products on x and z round
        # according to their layout, so the layout is part of the output.
        return w[self._focal0].T, w[self._rest0].T

    def row_weights(self) -> tuple[np.ndarray, float]:
        """The conditional law of a single focal coordinate as a map of
        full rows: E[X | Z] = weights @ w for a (dim,) or (dim, n) w in
        coordinate order (the focal weight is 0), and the conditional sd."""
        if self.d_x != 1:
            raise ValidationError("row weights need a single focal index")
        weights = np.zeros(self.dim)
        weights[self._rest0] = self._coef[0]
        return weights, math.sqrt(float(self._cond_cov[0, 0]))

    def to_config(self):
        return {"dim": self.dim, "rho": self.rho,
                "focal_index": list(self.focal_index)}


class CopulaModel(CovariateModel):
    """Gaussian-copula covariates: W_j = 2 Phi(L_j) - 1 for a latent
    AR(1) vector L, giving Uniform[-1,1] marginals."""

    def __init__(self, latent: Ar1Model) -> None:
        self.latent = latent

    @property
    def d_x(self) -> int:
        return self.latent.d_x

    @property
    def d_z(self) -> int:
        return self.latent.d_z

    @staticmethod
    def _to_uniform(latent_vals: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
        """2 Phi(latent) - 1, into a new C-ordered array, or into out: a
        C-contiguous float array of the same shape, which may be
        latent_vals itself."""
        latent_vals = np.asarray(latent_vals, dtype=float)
        u = _normal_cdf_into(latent_vals, np.empty(latent_vals.shape)
                             if out is None else out)
        u *= 2.0
        u -= 1.0
        return u

    @staticmethod
    def _to_latent(uniform_vals: np.ndarray) -> np.ndarray:
        u = np.clip((np.asarray(uniform_vals) + 1.0) / 2.0, 1e-15, 1 - 1e-15)
        return -normal_quantile(u)

    def sample_joint(self, n, seed):
        x_lat, z_lat = self.latent.sample_joint(n, seed)
        return self._to_uniform(x_lat), self._to_uniform(z_lat)

    def given(self, z):
        z = self._check_z(z)
        return MappedRows(z, self.latent.given(self._to_latent(z)))

    def sample_null_copies(self, rows, big_k, seed):
        copies = self.latent.sample_null_copies(rows.latent, big_k, seed).copies
        # The latent draws are ours: map them to uniforms where they lie.
        return NullCopies(self._to_uniform(copies, out=copies))

    def to_config(self):
        return {"latent": self.latent.to_config()}


class DiscreteMarkovChain(CovariateModel):
    """A length-p Markov chain over states {0..K-1}; the focal variable
    must be interior (both neighbors exist) so its conditional law given
    the rest depends only on the two adjacent states."""

    def __init__(self, initial, transitions, focal_index: int) -> None:
        initial = np.asarray(initial, dtype=float)
        transitions = [np.asarray(t, dtype=float) for t in transitions]
        k = len(initial)
        if k < 2:
            raise ValidationError("need at least 2 states")
        if abs(initial.sum() - 1.0) > 1e-12 or initial.min() < 0:
            raise ValidationError("initial must be a probability vector")
        for t in transitions:
            if t.shape != (k, k):
                raise ShapeError("each transition matrix must be K x K")
            if t.min() < 0 or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
                raise ValidationError("transition rows must sum to 1")
        p = len(transitions) + 1
        if not 1 < focal_index < p:
            raise ValidationError(
                f"focal_index must be interior (1 < j < {p}), got {focal_index}")
        self.initial = initial
        self.transitions = transitions
        self.focal_index = int(focal_index)
        self.num_states = k
        self.chain_length = p

    @property
    def d_x(self) -> int:
        return 1

    @property
    def d_z(self) -> int:
        return self.chain_length - 1

    def sample_path(self, n: int, seed: int) -> np.ndarray:
        rng = philox_rng(seed)
        path = np.empty((n, self.chain_length), dtype=np.int64)
        path[:, 0] = rng.choice(self.num_states, size=n, p=self.initial)
        u = rng.random((n, self.chain_length - 1))
        for j, t in enumerate(self.transitions):
            cum = np.cumsum(t, axis=1)
            path[:, j + 1] = (u[:, j][:, None] > cum[path[:, j]]).sum(axis=1)
        return path

    def sample_joint(self, n, seed):
        if n < 1:
            raise ValidationError("n must be >= 1")
        path = self.sample_path(n, seed)
        f = self.focal_index - 1
        x = path[:, f].astype(float)[:, None]
        z = np.delete(path, f, axis=1).astype(float)
        return x, z

    def neighbor_states(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right neighbor states of the focal variable, read off
        the z block (the full path with the focal column removed); each
        must be an integer state in 0..K-1."""
        z = self._check_z(z)
        f = self.focal_index - 1
        pair = z[:, f - 1:f + 1]
        if not np.isin(pair, np.arange(self.num_states)).all():
            raise ValidationError("neighbor states must be integers in "
                                  f"0..{self.num_states - 1}")
        return pair[:, 0].astype(np.int64), pair[:, 1].astype(np.int64)

    def given(self, z):
        """Rows of q(. | k1, k2) proportional to A[k1, k] * B[k, k2]."""
        z = self._check_z(z)
        k1, k2 = self.neighbor_states(z)
        a = self.transitions[self.focal_index - 2]   # into the focal variable
        b = self.transitions[self.focal_index - 1]   # out of the focal variable
        w = a[k1, :] * b[:, k2].T
        totals = w.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise ValidationError("a neighbor pair has zero path probability")
        return FiniteRows(z, w / totals)

    def to_config(self):
        return {"initial": self.initial.tolist(),
                "transitions": [t.tolist() for t in self.transitions],
                "focal_index": self.focal_index}


_MODELS = (GaussianLinearModel, Ar1Model, CopulaModel, DiscreteMarkovChain)


def model_from_json(text: str) -> CovariateModel:
    """The model whose to_json is text: its constructor's arguments."""
    cfg = json.loads(text)
    kind = cfg.pop("model", None) if isinstance(cfg, dict) else type(cfg)
    cls = next((c for c in _MODELS if c.__name__ == kind), None)
    if cls is None:
        raise ValidationError("model JSON must be an object naming a known "
                              f"covariate model type, got {kind!r}")
    try:        # an unknown or a missing key raises TypeError
        if cls is CopulaModel and "latent" in cfg:
            cfg["latent"] = Ar1Model(**cfg["latent"])
        return cls(**cfg)
    except TypeError as exc:
        raise ValidationError(f"{kind} JSON: {exc}") from None
