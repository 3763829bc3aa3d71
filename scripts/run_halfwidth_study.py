#!/usr/bin/env python3
"""Half-width scaling study: how fast the bound closes on the truth.

Runs the design of studies/a4_halfwidth.json (the exact-moment mMSE-gap
bound, with the true sparse linear signal as the working regression, on
one support variable) at several sample sizes and reports the median
half-width (oracle importance minus the bound), raw and scaled by
sqrt(n). An accurate working regression should keep the scaled column
roughly flat.

Example:
    python scripts/run_halfwidth_study.py --sizes 500 2000 8000
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from floodgate.simulate import ExperimentSpec, run_experiment

STUDY = ROOT / "studies" / "a4_halfwidth.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[500, 2000, 8000])
    parser.add_argument("--replicates", type=int, default=None,
                        help="replicates per size (default: the study's)")
    args = parser.parse_args(argv)

    spec = ExperimentSpec.from_json(STUDY.read_text(encoding="utf-8"))
    if args.replicates is not None:
        spec = dataclasses.replace(spec, replicates=args.replicates)
    focal, = spec.variables
    print(f"{'n':>8} {'median hw':>12} {'sqrt(n) x hw':>14}")
    for n in args.sizes:
        result = run_experiment(dataclasses.replace(spec, n=n))
        oracle = float(result.oracle[focal - 1])
        hw = float(np.median([oracle - d["lcb"] for d in result.detail]))
        print(f"{n:>8} {hw:>12.5f} {hw * math.sqrt(n):>14.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
