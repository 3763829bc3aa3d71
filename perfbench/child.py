"""Child processes of the benchmark; ``run.py`` starts them one at a time.

    child.py setup --workload W --seed N --launch T --out F [--smoke] [--trace]
        Import floodgate and prepare the workload (for a study: run a
        small warm-up study; for infer: write the input files into
        --work), then write the set-up record to F.

    child.py sim ... --seconds S
        Set up as above, then run studies (``run_experiment``) one after
        another for S seconds and write their times and outputs to F.
        With --trace, each study runs untraced and then traced on the
        same seed, so the pair gives the tracing overhead.

    child.py infer --launch T --op I --trace-out F -- ARGS...
        Run ``floodgate infer ARGS`` in this process with every layer
        traced, and write the spans to F.

T is the parent's monotonic clock reading just before it started the
child, so set-up time and the traced process span include interpreter
start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path

import probe
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def import_floodgate() -> None:
    """Import every floodgate module (the tracer patches all bindings),
    and refuse a floodgate that is not this checkout's own."""
    import floodgate
    import floodgate.cli  # noqa: F401  (loads every submodule)
    src = (ROOT / "src").resolve()
    if Path(floodgate.__file__).resolve().parent.parent != src:
        raise SystemExit(f"floodgate imported from {floodgate.__file__}, "
                         f"not from {src}")


def env_record(workload: str, seed: int) -> dict:
    """Facts that make two results comparable: same machine, same
    libraries, same thread pinning, same seed."""
    import numpy as np
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in wl.BLAS_THREAD_VARS},
    }


def setup(args) -> dict:
    """Runs the workload's set-up and returns its record."""
    import_floodgate()
    record = {}
    if wl.WORKLOADS[args.workload].kind == "sim":
        from floodgate.simulate import run_experiment
        run_experiment(wl.sim_spec(args.workload, True, 0), threads=1)
    else:
        tracer = tr.Tracer() if args.trace else None
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        try:
            wl.write_infer_inputs(args.workload, args.smoke, args.seed,
                                  Path(args.work))
        finally:
            if tracer is not None:
                tracer.uninstall()
                record["trace"] = [tracer.dump()]
    record["setup_s"] = tr.clock() - args.launch
    record["env"] = env_record(args.workload, args.seed)
    return record


def run_study(workload: str, smoke: bool, seed: int,
              tracer: tr.Tracer | None, index: int) -> dict:
    import floodgate.simulate   # looked up at call time: the tracer patches it
    spec = wl.sim_spec(workload, smoke, seed)
    op = {"index": index, "traced": tracer is not None, "rows": None,
          "error": None, "cells": wl.study_cells(spec)}
    if tracer is not None:
        tracer.op = index
        tracer.install()
        root = tracer.begin(tr.ROOT)
    start = tr.clock()
    try:
        result = floodgate.simulate.run_experiment(spec, threads=1)
        op["rows"] = wl.study_rows(result)
    except Exception:   # one failed study is counted, the run goes on
        op["error"] = traceback.format_exc(limit=4)
    finally:
        op["wall"] = tr.clock() - start
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
    return op


def cmd_sim(args) -> dict:
    record = setup(args)
    tracer = tr.Tracer() if args.trace else None
    record["probe_after_setup"] = before = probe.probe()
    start = tr.clock()
    ops: list[dict] = []
    index = 0
    while index < args.max_ops:
        # Start another study only if one more is expected to end
        # within the measured window.
        elapsed = tr.clock() - start
        per_index = (statistics.median(o["wall"] for o in ops)
                     * (2 if args.trace else 1)) if ops else 0.0
        if ops and elapsed + per_index > args.seconds:
            break
        seed = wl.op_seed(args.seed, index)
        for op_tracer in ((None, tracer) if args.trace else (None,)):
            op = run_study(args.workload, args.smoke, seed, op_tracer, index)
            after = probe.probe()
            op["probe"] = (before + after) / 2.0
            before = after
            ops.append(op)
        index += 1
    record["ops"] = ops
    if tracer is not None:
        record["trace"] = [tracer.dump()]
    return record


def cmd_infer(args) -> int:
    tracer = tr.Tracer()
    tracer.op = args.op
    root = tracer.begin(tr.ROOT, start=args.launch)
    import_floodgate()
    import floodgate.cli
    tracer.install()
    try:
        code = floodgate.cli.main(args.cli_args)
    finally:
        tracer.end(root)
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "sim"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--launch", type=float, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--work", required=True)
        p.add_argument("--smoke", action="store_true")
        p.add_argument("--trace", action="store_true")
        if name == "sim":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--max-ops", type=int, default=10 ** 6)
    p = sub.add_parser("infer")
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("--trace-out", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.command == "infer":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        return cmd_infer(args)
    record = cmd_sim(args) if args.command == "sim" else setup(args)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
