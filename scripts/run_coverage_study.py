#!/usr/bin/env python3
"""Runs the linear-design coverage study and writes detail/summary CSVs.

Reproduces the headline experiment: sparse linear signal over AR(1)
covariates, cross-validated LASSO working regression on a 50/50 split,
and mMSE-gap lower confidence bounds with exact conditional moments and
with Monte Carlo moments (K = 2 and K = 500).

Example:
    python scripts/run_coverage_study.py --out-dir results/coverage \
        --replicates 64 --threads 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from floodgate.cli import main as cli_main
from floodgate.simulate import (ExperimentSpec, LINEAR_SPARSE, MethodSpec,
                                MMSE_EXACT, MMSE_MC, MuStarSpec)


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        n=args.n, p=args.p,
        mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=args.sparsity,
                           amplitude=args.amplitude, seed=args.mu_seed),
        methods=(MethodSpec(MMSE_EXACT),
                 MethodSpec(MMSE_MC, big_k=2),
                 MethodSpec(MMSE_MC, big_k=500)),
        rho=args.rho, fitter="LASSO", split_proportion=0.5,
        replicates=args.replicates, base_seed=args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/coverage")
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--p", type=int, default=40)
    parser.add_argument("--sparsity", type=int, default=10)
    parser.add_argument("--amplitude", type=float, default=5.0,
                        help="signal amplitude, scaled internally by 1/sqrt(n)")
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--replicates", type=int, default=256)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--mu-seed", type=int, default=101)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(build_spec(args).to_json(), encoding="utf-8")
    return cli_main(["simulate", str(spec_path), "--out-dir", str(out_dir),
                     "--threads", str(args.threads)])


if __name__ == "__main__":
    raise SystemExit(main())
