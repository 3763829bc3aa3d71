#!/usr/bin/env python3
"""The floodgate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--record-reference]

Run from the root of a checkout. The load is batch work in a closed
loop: one operation at a time, each in a fresh child process started
after the previous one ended, with BLAS pinned to one thread. A study
workload runs ``run_experiment`` studies in one worker process; an infer
workload runs one ``floodgate infer`` process per operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones:

- op_s: median seconds of one operation (a whole study, or one
  ``floodgate infer`` process from start to exit);
- peak_rss_mb: peak resident memory of the process doing the work
  (the study worker; the largest infer process);
- setup_s: median over three set-ups of the time from process start to
  the first timed operation: imports, input generation, file writes and
  warm-up.

Both times are wall times scaled to a reference machine speed by a
probe run before and after each operation and set-up (see probe.py).

With ``--trace 1`` the same operations run alternately untraced and
traced, and the metrics are per-layer self times and counts per traced
operation (see tracer.py), plus the tracing overhead. The line before
the result is the environment record. Spans and timings are written to
``.perfbench/`` in the checkout.

``--smoke`` runs every workload at tiny sizes; ``--record-reference``
records the default seed's outputs as the reference that later runs on
that seed are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import check
import probe
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUPS = 3
REFERENCE_OPS = 3                       # ops recorded
TIME_LIMIT_S = 170.0                    # children are killed past this
ACCOUNTING_TOLERANCE = 0.05

# Metrics counted during set-up rather than during timed operations.
SETUP_LAYERS = ("core.Dataset.to_csv",)
PER_LAYER = tuple(
    [f"{name}.{stat}" for name in tr.LAYER_NAMES
     for stat in ("calls", "self_s")]
    + ["covariates.Ar1Model.sample_null_copies.copies",
       "covariates.Ar1Model.sample_null_copies.bytes",
       "core.Dataset.from_csv.bytes", "core.Dataset.to_csv.bytes",
       "simulate.inference_frac", f"{tr.ROOT}.self_s",
       "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
       "trace.self_sum_frac", "machine.probe_s"])


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in wl.BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children one at a time and kills any still running when
    the run's time limit passes."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()

    def run(self, make_argv) -> tuple[int, float, float, float]:
        """Runs ``make_argv(launch)``; returns (exit code, launch time,
        wall seconds, peak RSS in MB)."""
        launch = tr.clock()
        proc = subprocess.Popen(make_argv(launch), env=self.env, cwd=ROOT,
                                stdout=sys.stderr)
        timer = threading.Timer(max(self.deadline - tr.clock(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = tr.clock() - launch
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, launch, wall, usage.ru_maxrss / 1024.0


def child_argv(command: str, args, launch: float, out: Path,
               work: Path) -> list[str]:
    argv = [sys.executable, str(HERE / "child.py"), command,
            "--workload", args.workload, "--seed", str(args.seed),
            "--launch", repr(launch), "--out", str(out), "--work", str(work)]
    if args.smoke:
        argv.append("--smoke")
    if args.trace:
        argv.append("--trace")
    return argv


def run_setups(runner: Runner, args, work: Path, count: int
               ) -> tuple[list[dict], float]:
    """Runs ``count`` set-up children; returns their records and the
    last machine probe."""
    records = []
    before = probe.probe()
    for i in range(count):
        out = work / f"setup-{i}.json"
        code, *_ = runner.run(
            lambda t: child_argv("setup", args, t, out, work))
        if code != 0:
            raise BenchError(f"set-up exited with code {code}")
        after = probe.probe()
        record = json.loads(out.read_text())
        record["probe"] = (before + after) / 2.0
        before = after
        for dump in record.get("trace", []):     # one op id per set-up
            dump["spans"] = [span[:5] + [f"setup-{i}"]
                             for span in dump["spans"]]
            dump["counters"] = [[f"setup-{i}", *c[1:]]
                                for c in dump["counters"]]
        records.append(record)
    return records, before


def run_sim(runner: Runner, args, work: Path) -> dict:
    setups, before = run_setups(runner, args, work,
                                (1 if args.smoke else SETUPS) - 1)
    out = work / "sim.json"

    def argv(launch):
        extra = ["--seconds", str(args.seconds)]
        if args.max_ops is not None:
            extra += ["--max-ops", str(args.max_ops)]
        return child_argv("sim", args, launch, out, work) + extra

    code, _, _, rss = runner.run(argv)
    if code != 0:
        raise BenchError(f"study worker exited with code {code}")
    record = json.loads(out.read_text())
    record["probe"] = (before + record["probe_after_setup"]) / 2.0
    return {"setups": setups + [record], "ops": record["ops"],
            "peak_rss_mb": rss, "env": record["env"],
            "trace": record.get("trace", [])}


def run_infer(runner: Runner, args, work: Path) -> dict:
    setups, before = run_setups(runner, args, work,
                                1 if args.smoke else SETUPS)
    trace = [d for s in setups for d in s.get("trace", [])]
    ops: list[dict] = []
    rss: list[float] = []
    start = tr.clock()
    index = 0
    while args.max_ops is None or index < args.max_ops:
        walls = [o["wall"] for o in ops]
        per_index = statistics.median(walls) * (2 if args.trace else 1) \
            if walls else 0.0
        if ops and tr.clock() - start + per_index > args.seconds:
            break
        seed = wl.op_seed(args.seed, index)
        for traced in ((False, True) if args.trace else (False,)):
            report = work / f"report-{index}-{int(traced)}.csv"
            spans = work / f"trace-{index}.json"
            cli_args = wl.infer_args(args.workload, args.smoke, seed, work,
                                     report)
            if traced:
                def argv(launch):
                    return [sys.executable, str(HERE / "child.py"), "infer",
                            "--launch", repr(launch), "--op", str(index),
                            "--trace-out", str(spans), "--", *cli_args]
            else:
                def argv(launch):
                    return [sys.executable, "-m", "floodgate.cli", *cli_args]
            code, launch, wall, peak = runner.run(argv)
            after = probe.probe()
            op = {"index": index, "traced": traced, "wall": wall,
                  "probe": (before + after) / 2.0, "rows": None,
                  "error": None, "cells": 1}
            before = after
            if code != 0:
                op["error"] = f"floodgate infer exited with code {code}"
            else:
                try:
                    op["rows"] = wl.report_rows(report)
                except (OSError, KeyError, ValueError) as exc:
                    op["error"] = f"unreadable report: {exc!r}"
            if traced and spans.exists():
                dump = json.loads(spans.read_text())
                # The process span ends when this process reaped the
                # child, so interpreter exit is accounted to it too.
                dump["spans"][0][3] = launch + wall
                trace.append(dump)
            if not traced:
                rss.append(peak)
            ops.append(op)
        index += 1
    return {"setups": setups, "ops": ops, "peak_rss_mb": max(rss),
            "env": setups[-1]["env"], "trace": trace}


def check_ops(run: dict, args) -> tuple[int, list[str]]:
    """Failed-op count and the problems found in the outputs."""
    errors: list[str] = []
    failed = 0
    for op in run["ops"]:
        problems = [op["error"]] if op["error"] else \
            check.invariant_errors(op["rows"])
        if problems:
            failed += 1
            errors += [f"op {op['index']}: {p}" for p in problems[:3]]
    if args.seed == check.DEFAULT_SEED and not args.record_reference:
        reference = check.load_reference(args.workload, args.smoke)
        if reference is None:
            errors.append("no reference recorded for the default seed")
        else:
            for traced in (False, True):     # ops come in index order
                errors += check.reference_errors(
                    [o["rows"] for o in run["ops"] if o["traced"] == traced],
                    reference)
    return failed, errors


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Scales a wall time measured while the probe took ``probe_s`` to
    the probe's reference speed (see probe.py)."""
    return seconds * probe.REFERENCE_S / probe_s


def end_to_end_metrics(run: dict) -> dict:
    ops = [o for o in run["ops"] if not o["error"]] or run["ops"]
    return {
        "op_s": statistics.median(at_reference_speed(o["wall"], o["probe"])
                                  for o in ops),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(at_reference_speed(s["setup_s"],
                                                        s["probe"])
                                     for s in run["setups"]),
    }


def per_layer_metrics(run: dict, workload: wl.Workload
                      ) -> tuple[dict, list[str], list[str]]:
    """(metrics, accounting errors, layers that recorded no calls)."""
    traced = [o for o in run["ops"] if o["traced"]]
    untraced = [o for o in run["ops"] if not o["traced"]]
    ops_agg = tr.aggregate(run["trace"], [o["index"] for o in traced])
    setup_agg = tr.aggregate(run["trace"], [
        f"setup-{i}" for i in range(len(run["setups"]))])
    metrics = {}
    for name in PER_LAYER:
        layer = name.rsplit(".", 1)[0]
        source = setup_agg if layer in SETUP_LAYERS else ops_agg
        metrics[name] = source.get(name, 0.0)
    inference_calls = sum(ops_agg.get(f"{name}.calls", 0.0)
                          for name in tr.INFERENCE_LAYERS)
    cells = statistics.mean(o["cells"] for o in traced)
    metrics["simulate.inference_frac"] = (
        inference_calls / cells if workload.kind == "sim" else 0.0)
    traced_wall = statistics.mean(o["wall"] for o in traced)
    self_sum = sum(v for k, v in ops_agg.items() if k.endswith(".self_s"))
    untraced_by_index = {o["index"]: o["wall"] for o in untraced}
    metrics["trace.wall_s"] = statistics.median(o["wall"] for o in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(
        untraced_by_index.values())
    # Each traced op follows an untraced op on the same seed, so the
    # paired difference is the overhead without the machine's drift.
    metrics["trace.overhead_s"] = statistics.median(
        o["wall"] - untraced_by_index[o["index"]] for o in traced)
    metrics["trace.self_sum_frac"] = self_sum / traced_wall
    metrics["machine.probe_s"] = statistics.median(
        o["probe"] for o in run["ops"])

    errors = []
    if abs(metrics["trace.self_sum_frac"] - 1.0) > ACCOUNTING_TOLERANCE:
        errors.append(f"self times sum to {metrics['trace.self_sum_frac']:.4f}"
                      " of the traced wall time")
    bad = tr.negative_self_times(run["trace"])
    if bad:
        errors.append(f"spans shorter than their children: {sorted(set(bad))}")
    silent = [name for name in workload.layers + workload.setup_layers
              if metrics[f"{name}.calls"] == 0.0]
    return metrics, errors, silent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="floodgate benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default seed's outputs as the "
                             "reference")
    args = parser.parse_args(argv)
    args.max_ops = None
    if args.record_reference:
        if args.seed != check.DEFAULT_SEED or args.trace:
            parser.error("--record-reference needs the default seed "
                         f"{check.DEFAULT_SEED} and --trace 0")
        args.max_ops = REFERENCE_OPS
        args.seconds = float("inf")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "floodgate" / "__init__.py").is_file():
        print(f"error: no floodgate sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    runner = Runner(tr.clock() + TIME_LIMIT_S)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        run = (run_sim if workload.kind == "sim" else run_infer)(
            runner, args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, errors = check_ops(run, args)
    if args.trace:
        metrics, accounting, silent = per_layer_metrics(run, workload)
        if silent:
            print(f"error: layers recorded no calls on {args.workload}: "
                  f"{silent}; a layer was renamed or bypassed",
                  file=sys.stderr)
            return 1
        errors += accounting
    else:
        metrics = end_to_end_metrics(run)
    if args.record_reference and not errors and not failed:
        path = check.write_reference(args.workload, args.smoke,
                                     [o["rows"] for o in run["ops"]])
        print(f"recorded {path}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(run["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    for line in errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    record = {"args": vars(args), "env": run["env"], "result": result,
              "setups": [{k: s[k] for k in ("setup_s", "probe")}
                         for s in run["setups"]],
              "ops": [{k: o[k] for k in ("index", "traced", "wall", "probe",
                                         "error")}
                      for o in run["ops"]],
              "errors": errors, "trace": run["trace"] if args.trace else None}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else "")
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record))
    print("env: " + json.dumps(run["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
