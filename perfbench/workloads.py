"""The benchmark's four workloads: what each runs, at full and smoke size.

Two workloads are seeded coverage studies (``run_experiment``), the unit
a researcher waits for; two are ``floodgate infer`` invocations on
generated files, the unit an analyst waits for. Each stresses different
layers, so a change to one layer shows on one workload and reads "no
change" on another:

- sim_lasso_mmse: the A1 design (n=600, p=40, 10-fold-CV LASSO, exact +
  K=2 + K=500 mMSE) plus a light co-sufficient method. LASSO coordinate
  descent and AR(1) null copies dominate; the oracle is closed-form.
- sim_logit_macm: the A6 design (n=500, logistic mu*, L1-logistic fit,
  MACM). The logistic fitter and the Monte Carlo MACM oracle dominate;
  LASSO never runs.
- infer_csv_lasso: ``infer --fit lasso --method mmse_exact`` on a
  100k-row table. CSV parsing and the LASSO Gram matrix dominate; no
  null copies are drawn.
- infer_copula_macm: ``infer --mu --method macm`` on 1500 copula rows.
  No fitting; the copula transforms and the (4n + K, n) copy pool
  dominate time and memory.

Inputs come only from the workload seed. The infer workloads generate
their tables with numpy here rather than with the library's samplers,
so a change to the library cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


# Pinned to 1 in every child: one thread per operation, as the load
# shape says, and far less run-to-run spread on a 2-core machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "sim" or "infer"
    # Layers that must record calls during timed operations (and, for
    # setup_layers, during set-up); zero calls fails the traced run.
    layers: tuple[str, ...]
    setup_layers: tuple[str, ...] = ()


_SIM_LAYERS = ("core.split", "covariates.sample_joint",
               "covariates.Ar1Model.sample_null_copies",
               "mmse.mu_null_values", "simulate.run_experiment",
               "simulate.oracle_values", "simulate.generate_replicate")

WORKLOADS = {w.name: w for w in (
    Workload("sim_lasso_mmse", "sim", _SIM_LAYERS + (
        "regression.fit_lasso", "mmse.floodgate_lcb", "core.ratio_lcb",
        "cosufficient.cosufficient_lcb")),
    Workload("sim_logit_macm", "sim", _SIM_LAYERS + (
        "regression.fit_logistic", "macm.macm_lcb",
        "macm.macm_gap_oracle")),
    Workload("infer_csv_lasso", "infer", (
        "cli.main", "core.Dataset.from_csv", "core.split",
        "regression.fit_lasso", "mmse.floodgate_lcb", "core.ratio_lcb"),
        setup_layers=("core.Dataset.to_csv",)),
    Workload("infer_copula_macm", "infer", (
        "cli.main", "core.Dataset.from_csv",
        "covariates.CopulaModel.sample_null_copies",
        "covariates.Ar1Model.sample_null_copies", "mmse.mu_null_values",
        "macm.macm_lcb"),
        setup_layers=("core.Dataset.to_csv",)),
)}


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


# ---------------------------------------------------------------------------
# Simulation workloads


def sim_spec(name: str, smoke: bool, base_seed: int):
    """The ExperimentSpec of one study."""
    from floodgate.regression import CvConfig
    from floodgate.simulate import (COSUFFICIENT, LINEAR_SPARSE,
                                    LOGISTIC_LINEAR, MACM, MMSE_EXACT,
                                    MMSE_MC, ExperimentSpec, MethodSpec,
                                    MuStarSpec)
    if name == "sim_lasso_mmse":
        n, p, sparsity, big_k, n2, mc_k, reps = (
            (60, 8, 3, 50, 12, 10, 1) if smoke else
            (600, 40, 10, 500, 100, 100, 3))
        return ExperimentSpec(
            n=n, p=p,
            mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=sparsity,
                               amplitude=5.0, seed=101),
            methods=(MethodSpec(MMSE_EXACT), MethodSpec(MMSE_MC, big_k=2),
                     MethodSpec(MMSE_MC, big_k=big_k),
                     MethodSpec(COSUFFICIENT, n2=n2, mc_k=mc_k)),
            rho=0.3, fitter="LASSO", split_proportion=0.5,
            replicates=reps, base_seed=base_seed)
    if name == "sim_logit_macm":
        n, p, sparsity, k, folds, lambdas, draws, reps = (
            (120, 8, 3, 20, 3, 5, 2000, 1) if smoke else
            (500, 40, 10, 100, 5, 20, 100_000, 2))
        return ExperimentSpec(
            n=n, p=p,
            mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=sparsity,
                               amplitude=15.0, seed=606),
            methods=(MethodSpec(MACM, k_copies=k),),
            rho=0.3, fitter="LOGIT_L1",
            cv=CvConfig(folds=folds, num_lambdas=lambdas),
            replicates=reps, base_seed=base_seed, oracle_draws=draws)
    raise KeyError(name)


def study_rows(result) -> list[list]:
    """The checked outputs of one study, one row per detail record."""
    return [[f"r{d['replicate']}/v{d['variable']}/{d['method']}",
             float(d["lcb"]), float(d["point"]), float(d["se"]),
             int(d["degenerate"])] for d in result.detail]


def study_cells(spec) -> int:
    """Variables x methods x replicates: the inference calls a study
    would make without the LASSO/L1 zero-coefficient shortcut."""
    return len(spec.variable_list) * len(spec.methods) * spec.replicates


# ---------------------------------------------------------------------------
# Infer workloads


def _ar1(rng, n: int, dim: int, rho: float):
    import numpy as np
    w = np.empty((n, dim))
    w[:, 0] = rng.standard_normal(n)
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, dim):
        w[:, j] = rho * w[:, j - 1] + scale * rng.standard_normal(n)
    return w


def write_infer_inputs(name: str, smoke: bool, seed: int, work: Path) -> None:
    """Draw the workload's table from the seed and write data.csv (with
    ``Dataset.to_csv``), model.json and, for MACM, mu.json into work."""
    import numpy as np
    from floodgate import Dataset
    rng = np.random.default_rng([seed, 7])
    if name == "infer_csv_lasso":
        n, dim, active = (2000, 7, 2) if smoke else (100_000, 41, 10)
        w = _ar1(rng, n, dim, 0.3)
        beta = np.zeros(dim - 1)
        beta[:active] = 0.3
        y = 0.5 * w[:, 0] + w[:, 1:] @ beta + rng.standard_normal(n)
        model = {"model": "Ar1Model", "dim": dim, "rho": 0.3,
                 "focal_index": [1]}
    elif name == "infer_copula_macm":
        n, dim, active = (150, 8, 3) if smoke else (1500, 40, 8)
        latent = _ar1(rng, n, dim, 0.3)
        w = np.vectorize(math.erf, otypes=[float])(latent / math.sqrt(2.0))
        coef = np.zeros(dim - 1)
        coef[:active] = 0.8
        f = 1.5 * w[:, 0] + w[:, 1:] @ coef
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-f)), 1.0, -1.0)
        model = {"model": "CopulaModel",
                 "latent": {"dim": dim, "rho": 0.3, "focal_index": [1]}}
        mu = {"kind": "CUSTOM", "intercept": 0.0, "x_coef": [1.5],
              "z_coef": coef.tolist(), "link": "binary_mean"}
        (work / "mu.json").write_text(json.dumps(mu))
    else:
        raise KeyError(name)
    Dataset(y, w[:, :1], w[:, 1:]).to_csv(work / "data.csv")
    (work / "model.json").write_text(json.dumps(model))


def infer_args(name: str, smoke: bool, seed: int, work: Path,
               out: Path) -> list[str]:
    """Arguments of one ``floodgate infer`` invocation."""
    args = ["infer", str(work / "data.csv"), "--model",
            str(work / "model.json"), "--seed", str(seed), "--out", str(out)]
    if name == "infer_csv_lasso":
        return args + ["--fit", "lasso", "--method", "mmse_exact"] + (
            ["--cv-folds", "3"] if smoke else [])
    return args + ["--mu", str(work / "mu.json"), "--method", "macm"] + (
        ["--k", "50"] if smoke else [])


def report_rows(path: Path) -> list[list]:
    """The checked outputs of one invocation, read from its report CSV."""
    import csv
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    return [[r["variable"], float(r["lcb"]), float(r["point"]),
             float(r["se"]), int(r["degenerate"])] for r in records]
