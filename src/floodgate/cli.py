"""Command-line entry points: infer, fit, and simulate.

Every command writes its outputs under --out/--out-dir together with a
run manifest (resolved configuration, seeds, and SHA-256 hashes of the
inputs) so any run can be reproduced bit-exactly.

Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .core import (ConfidenceLevel, Dataset, check_seed, check_split,
                   reports_to_csv)
from .covariates import model_from_json
from .errors import FloodgateError, ValidationError
# fit_lasso: read by perfbench's test_tracer_install_and_uninstall_restore_every_binding
from .regression import (FITTERS, GRAM_FITTERS, PENALIZED, CvConfig, fit,
                         fit_lasso, regression_from_json)
from .simulate import METHODS, ExperimentSpec, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_path: Path, command: str, config: dict,
                    inputs: dict[Path, str]) -> None:
    """The run manifest; inputs maps each input file to its SHA-256."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {str(p): digest for p, digest in inputs.items()},
    }
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                             encoding="utf-8")


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(value, 1)
    return os.cpu_count() or 1


def _resolve_run_options(args) -> CvConfig | None:
    """Check every option before any file is read: reject a set option
    this run does not read, fill in the default of each one it reads, so
    the manifest records it, and return the fitter's CvConfig (None for
    OLS or --mu)."""
    fitter = args.fitter if args.command == "fit" else args.fit
    check_seed(args.seed, "--seed")
    reads = {}
    if args.command == "infer":
        if (args.mu is None) == (fitter is None):
            raise ValidationError("exactly one of --mu or --fit is required")
        ConfidenceLevel(args.alpha)
        method = METHODS[args.method.upper()]
        if args.k is None:
            args.k = {"mmse_exact": 0, "cosufficient": 100}.get(args.method, 500)
        if args.k and not method.reads:
            raise ValidationError(f"--method {args.method} is mmse_mc --k 0")
        reads = {"m": "m_copies" in method.reads and args.k > 0,
                 "n2": "n2" in method.reads,
                 "split": fitter is not None}
    reads["cv_folds"] = fitter is not None and fitter.upper() in PENALIZED
    unread = [f"--{name.replace('_', '-')}" for name, read in reads.items()
              if not read and getattr(args, name) is not None]
    if unread:
        raise ValidationError(f"this run does not read {', '.join(unread)}")
    for name, default in (("n2", 100), ("split", 0.5), ("cv_folds", 10)):
        if reads.get(name) and getattr(args, name) is None:
            setattr(args, name, default)
    if reads.get("split"):
        check_split(args.split)
    return CvConfig(folds=args.cv_folds) if reads["cv_folds"] else None


def _fit_folds(fitter: str | None, cv: CvConfig | None,
               seed: int) -> tuple[int, int] | None:
    """Dataset.from_csv's `folds`: a Gram fitter reads only the fold
    moments of its fit rows, so the read keeps no fit row."""
    if fitter is None or fitter.upper() not in GRAM_FITTERS:
        return None
    return cv.folds, seed


def _cmd_fit(args) -> int:
    cv = _resolve_run_options(args)
    digest = hashlib.sha256()
    data = Dataset.from_csv(args.data, x_cols=args.x_cols,
                            folds=_fit_folds(args.fitter, cv, args.seed),
                            digest=digest)
    mu = fit(args.fitter.upper(), data, cv, args.seed)
    out = Path(args.out)
    out.write_text(mu.to_json(), encoding="utf-8")
    _write_manifest(out, "fit",
                    {"data": args.data, "fitter": args.fitter,
                     "cv_folds": args.cv_folds, "seed": args.seed,
                     "x_cols": args.x_cols},
                    {Path(args.data): digest.hexdigest()})
    return EXIT_OK


def _cmd_infer(args) -> int:
    cv = _resolve_run_options(args)
    # The counts are checked before any data is read; --k is the copy count.
    method = METHODS[args.method.upper()]
    counts = {"n2": args.n2, "m_copies": args.m}
    bound = method.bound(args.alpha, args.seed, **{
        name: counts.get(name, args.k) for name in method.reads})
    # With --fit the rows go from the parse straight into the two parts.
    digest = hashlib.sha256()
    data = Dataset.from_csv(
        args.data, x_cols=args.x_cols,
        split_at=None if args.mu is not None else (args.split, args.seed),
        folds=_fit_folds(args.fit, cv, args.seed), digest=digest)
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    # The CSV's hash is the read's: the file is not read again.
    inputs = {Path(args.data): digest.hexdigest(),
              Path(args.model): _sha256(Path(args.model))}
    if args.mu is not None:
        mu = regression_from_json(Path(args.mu).read_text(encoding="utf-8"))
        infer_part = data
        inputs[Path(args.mu)] = _sha256(Path(args.mu))
    else:
        mu = fit(args.fit.upper(), data.fit_part, cv, args.seed)
        infer_part = data.infer_part
    report = bound(infer_part, mu, model)

    out = Path(args.out)
    label = ",".join(args.x_cols) if args.x_cols else "x"
    extra = sorted(k for k, v in report.diagnostics.items()
                   if isinstance(v, (int, float)))
    reports_to_csv(out, [(label, report)], extra_columns=extra)
    _write_manifest(out, "infer",
                    {k: v for k, v in vars(args).items() if k != "func"},
                    inputs)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = ExperimentSpec.from_json(
        Path(args.spec).read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(spec, threads=_resolve_threads(args.threads))
    detail = out_dir / "detail.csv"
    summary = out_dir / "summary.csv"
    result.write_csvs(detail, summary)
    _write_manifest(detail, "simulate",
                    {"spec": args.spec, "out_dir": args.out_dir},
                    {Path(args.spec): _sha256(Path(args.spec))})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodgate",
        description="Asymptotic lower confidence bounds for model-free "
                    "variable importance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="compute an importance LCB")
    p_infer.add_argument("data", help="dataset CSV (columns y, x*, z*)")
    p_infer.add_argument("--model", required=True, help="covariate model JSON")
    p_infer.add_argument("--mu", help="serialized working regression JSON")
    p_infer.add_argument("--fit", choices=[f.lower() for f in FITTERS],
                         help="fit mu on a split instead of loading one")
    p_infer.add_argument("--method", choices=[m.lower() for m in METHODS],
                         default="mmse_mc")
    p_infer.add_argument("--alpha", type=float, default=0.05)
    p_infer.add_argument("--k", type=int, default=None,
                         help="null copies per row, 0 = closed-form moments "
                              "(default 500; 100 for cosufficient)")
    p_infer.add_argument("--m", type=int, default=None,
                         help="MACM mean-estimation copies, read when "
                              "--k > 0 (default 4n)")
    p_infer.add_argument("--n2", type=int, default=None,
                         help="co-sufficient batch size (default 100)")
    p_infer.add_argument("--split", type=float, default=None,
                         help="fit share of the rows, read with --fit "
                              "(default 0.5)")
    p_infer.add_argument("--cv-folds", type=int, default=None,
                         help="CV folds of a penalized --fit (default 10)")
    p_infer.add_argument("--x-cols", nargs="+", default=None,
                         help="names of the focal columns")
    p_infer.add_argument("--seed", type=int, default=0)
    p_infer.add_argument("--out", required=True)
    p_infer.set_defaults(func=_cmd_infer)

    p_fit = sub.add_parser("fit", help="fit and serialize a working regression")
    p_fit.add_argument("data")
    p_fit.add_argument("--fitter", choices=[f.lower() for f in FITTERS],
                       required=True)
    p_fit.add_argument("--cv-folds", type=int, default=None,
                       help="CV folds of a penalized fitter (default 10)")
    p_fit.add_argument("--x-cols", nargs="+", default=None)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a coverage experiment")
    p_sim.add_argument("spec", help="experiment spec JSON")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FloodgateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: invalid input ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
