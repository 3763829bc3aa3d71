"""Tests of the benchmark itself, at smoke sizes (a few seconds each).

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must not touch during timed operations.
BYPASSED = {
    "sim_lasso_mmse": ("regression.fit_logistic", "macm.macm_lcb",
                       "macm.macm_gap_oracle", "core.Dataset.from_csv",
                       "covariates.CopulaModel.sample_null_copies", "cli.main"),
    "sim_logit_macm": ("regression.fit_lasso", "mmse.floodgate_lcb",
                       "cosufficient.cosufficient_lcb",
                       "core.Dataset.from_csv", "cli.main"),
    "infer_csv_lasso": ("covariates.Ar1Model.sample_null_copies",
                        "mmse.mu_null_values", "covariates.sample_joint",
                        "macm.macm_lcb", "simulate.run_experiment"),
    "infer_copula_macm": ("regression.fit_lasso", "regression.fit_logistic",
                          "core.split", "covariates.sample_joint",
                          "simulate.run_experiment"),
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def smoke_runs(request):
    name = request.param
    results = {}
    for trace in (0, 1):
        proc = run_bench("--workload", name, "--seed", str(check.DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return name, results


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(wl.WORKLOADS)


def test_smoke_schema_and_metric_names(smoke_runs):
    name, results = smoke_runs
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, name
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"])
    for metric in BENCHMARK["end_to_end"]:
        assert results[0]["metrics"][metric["name"]]["value"] > 0


def test_smoke_layers_used_and_bypassed(smoke_runs):
    name, results = smoke_runs
    metrics = {k: v["value"] for k, v in results[1]["metrics"].items()}
    workload = wl.WORKLOADS[name]
    for layer in workload.layers + workload.setup_layers:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in BYPASSED[name]:
        assert metrics[f"{layer}.calls"] == 0, layer
    assert abs(metrics["trace.self_sum_frac"] - 1.0) < 0.05


def _reference_rows():
    reference = check.load_reference("sim_lasso_mmse", smoke=True)
    assert reference is not None
    return reference, [[list(row) for row in op] for op in reference["ops"]]


def test_reference_matches_itself():
    reference, rows = _reference_rows()
    assert check.reference_errors(rows, reference) == []
    assert all(check.invariant_errors(op) == [] for op in rows)


@pytest.mark.parametrize("column,factor", [(1, 1.001), (2, 0.999), (3, 1.01)])
def test_perturbed_output_trips_reference_check(column, factor):
    reference, rows = _reference_rows()
    row = next(r for r in rows[0] if r[column] > 0)
    row[column] *= factor
    assert check.reference_errors(rows, reference)


@pytest.mark.parametrize("row", [
    ["a", float("nan"), 1.0, 1.0, 0],      # non-finite
    ["b", -0.1, 1.0, 1.0, 0],              # negative bound
    ["c", 1.2, 1.0, 1.0, 0],               # bound above the point estimate
    ["d", 0.5, 1.0, 1.0, 1],               # degenerate with a positive bound
])
def test_broken_invariants_are_reported(row):
    assert check.invariant_errors([row])


def test_negative_point_with_zero_bound_is_valid():
    assert check.invariant_errors([["macm", 0.0, -0.02, 0.3, 0]]) == []


def test_tracer_install_and_uninstall_restore_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import floodgate.cli
    import floodgate.covariates
    import floodgate.regression
    import floodgate.simulate
    original = floodgate.regression.fit_lasso
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert floodgate.simulate.fit_lasso is floodgate.cli.fit_lasso
        assert floodgate.simulate.fit_lasso is not original
        assert "sample_null_copies" in vars(floodgate.covariates.Ar1Model)
    finally:
        tracer.uninstall()
    assert floodgate.simulate.fit_lasso is original
    assert floodgate.cli.fit_lasso is original
    assert "sample_null_copies" not in vars(floodgate.covariates.Ar1Model)


def test_self_time_subtracts_direct_children():
    spans = [[0, "root", 0.0, 10.0, None, 1],
             [1, "a", 1.0, 5.0, 0, 1],
             [2, "b", 2.0, 3.0, 1, 1]]
    assert tr.self_times(spans) == {0: 6.0, 1: 3.0, 2: 1.0}
    agg = tr.aggregate([{"spans": spans, "counters": []}], [1])
    assert sum(agg.values()) == 10.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sim_lasso_mmse", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
