import csv
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floodgate import (Ar1Model, CvConfig, Dataset, DiscreteMarkovChain,
                       ExperimentSpec, FloodgateConfig, GaussianLinearModel,
                       LinearWorkingRegression, MacmConfig, MethodSpec,
                       MuStarSpec, cosufficient_lcb, fit_logistic, fit_ridge,
                       floodgate_lcb, floodgate_lcb_scale_free, macm_lcb,
                       regression_from_json)
from floodgate.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from floodgate.regression import OLS
from floodgate.simulate import FIT_MU_STAR, LINEAR_SPARSE, MMSE_EXACT, MMSE_MC


@pytest.fixture
def workspace(tmp_path):
    model = Ar1Model(dim=6, rho=0.3, focal_index=1)
    mu = LinearWorkingRegression(OLS, 0.0, np.array([1.5]),
                                 np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
    x, z = model.sample_joint(400, seed=1)
    rng = np.random.default_rng(2)
    y = mu.predict(x, z) + rng.standard_normal(400)
    data_path = tmp_path / "data.csv"
    Dataset(y, x, z).to_csv(data_path)
    model_path = tmp_path / "model.json"
    model_path.write_text(model.to_json())
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(mu.to_json())
    return {"dir": tmp_path, "data": str(data_path),
            "model": str(model_path), "mu": str(mu_path)}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _chain():
    t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    return DiscreteMarkovChain(np.array([0.5, 0.3, 0.2]), [t, t, t],
                               focal_index=2)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """Small AR(1), sign and chain inputs: {kind: (data, model, mu)}."""
    root = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(3)
    files = {}
    for kind, model in (("ar1", Ar1Model(dim=4, rho=0.3, focal_index=1)),
                        ("signs", Ar1Model(dim=4, rho=0.3, focal_index=1)),
                        ("dmc", _chain())):
        x, z = model.sample_joint(60, seed=4)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.0]),
                                     np.full(z.shape[1], 0.3))
        y = mu.predict(x, z) + rng.standard_normal(60)
        if kind == "signs":
            y = np.where(y > 0, 1.0, -1.0)
        paths = [root / f"{kind}_{name}" for name in
                 ("data.csv", "model.json", "mu.json")]
        Dataset(y, x, z).to_csv(paths[0])
        paths[1].write_text(model.to_json())
        paths[2].write_text(mu.to_json())
        files[kind] = [str(path) for path in paths]
    return files


class TestInfer:
    def test_exact_inference_writes_report_and_manifest(self, workspace):
        out = workspace["dir"] / "report.csv"
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--method", "mmse_exact",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert len(rows) == 1
        assert rows[0]["estimand"] == "MMSE_GAP"
        assert float(rows[0]["lcb"]) > 0.0
        manifest = json.loads((workspace["dir"] / "report.csv.manifest.json")
                              .read_text())
        assert manifest["command"] == "infer"
        assert workspace["data"] in manifest["inputs"]

    def test_mc_inference_seed_determinism(self, workspace):
        outs = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            out = workspace["dir"] / f"mc_{tag}.csv"
            code = main(["infer", workspace["data"],
                         "--model", workspace["model"],
                         "--mu", workspace["mu"], "--method", "mmse_mc",
                         "--k", "20", "--seed", str(seed), "--out", str(out)])
            assert code == EXIT_OK
            outs.append(_read_csv(out)[0]["lcb"])
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_fit_then_infer_split_path(self, workspace):
        out = workspace["dir"] / "split.csv"
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--fit", "ols", "--method", "mmse_exact",
                     "--split", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert int(_read_csv(out)[0]["n_eff"]) == 200

    def test_scale_free_bounded(self, workspace):
        out = workspace["dir"] / "sf.csv"
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--method", "mmse_scale_free",
                     "--k", "0", "--out", str(out)])
        assert code == EXIT_OK
        row = _read_csv(out)[0]
        assert row["estimand"] == "MMSE_GAP_SCALE_FREE"
        assert 0.0 <= float(row["lcb"]) <= 1.0

    def test_cosufficient_method(self, workspace, tmp_path):
        # The AR(1) model and its hand-written Gaussian family give the
        # same report.
        fam = GaussianLinearModel(np.concatenate([[0.0], [0.3], np.zeros(4)]),
                                  0.91, np.zeros(5), np.eye(5))
        fam_path = tmp_path / "family.json"
        fam_path.write_text(fam.to_json())
        rows = []
        for tag, model_path in (("fam", str(fam_path)),
                                ("ar1", workspace["model"])):
            out = workspace["dir"] / f"cosuf_{tag}.csv"
            code = main(["infer", workspace["data"], "--model", model_path,
                         "--mu", workspace["mu"], "--method", "cosufficient",
                         "--n2", "100", "--k", "0", "--out", str(out)])
            assert code == EXIT_OK
            rows.append(_read_csv(out)[0])
        assert int(rows[0]["n_eff"]) == 4
        assert rows[0] == rows[1]

    def test_k_zero_is_closed_form_for_every_method(self, workspace,
                                                    tmp_path):
        data = Dataset.from_csv(workspace["data"])
        model = Ar1Model(dim=6, rho=0.3, focal_index=1)
        mu = LinearWorkingRegression(OLS, 0.0, np.array([1.5]),
                                     np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
        signs = Dataset(np.sign(data.y - data.y.mean()), data.x, data.z)
        signs_path = tmp_path / "signs.csv"
        signs.to_csv(signs_path)
        exact = FloodgateConfig(big_k=0)
        expected = {
            "mmse_mc": floodgate_lcb(data, mu, model, exact),
            "mmse_scale_free": floodgate_lcb_scale_free(data, mu, model,
                                                        exact),
            "macm": macm_lcb(signs, mu, model, MacmConfig(k_copies=0)),
            "cosufficient": cosufficient_lcb(data, mu, model, 100, mc_k=0),
        }
        for method, report in expected.items():
            out = tmp_path / f"{method}.csv"
            data_path = signs_path if method == "macm" else workspace["data"]
            code = main(["infer", str(data_path), "--model", workspace["model"],
                         "--mu", workspace["mu"], "--method", method,
                         "--k", "0", "--out", str(out)])
            assert code == EXIT_OK
            row = _read_csv(out)[0]
            assert [float(row["lcb"]), float(row["point"])] == pytest.approx(
                [report.lcb, report.point], rel=1e-10, abs=1e-12), method
        # The Monte Carlo default differs from the closed form.
        out = tmp_path / "cosufficient_mc.csv"
        assert main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--method", "cosufficient",
                     "--out", str(out)]) == EXIT_OK
        assert float(_read_csv(out)[0]["lcb"]) != pytest.approx(
            expected["cosufficient"].lcb, rel=1e-6)

    @pytest.mark.parametrize("method, k", [("cosufficient", 100),
                                           ("mmse_exact", 0),
                                           ("macm", 500)])
    def test_manifest_records_resolved_copy_count(self, workspace, method, k):
        out = workspace["dir"] / "k.csv"
        data, extra = workspace["data"], []
        if method == "macm":
            rows = Dataset.from_csv(data)
            data, extra = str(workspace["dir"] / "signs.csv"), ["--m", "50"]
            Dataset(np.sign(rows.y - rows.y.mean()), rows.x,
                    rows.z).to_csv(data)
        code = main(["infer", data, "--model", workspace["model"],
                     "--mu", workspace["mu"], "--method", method,
                     "--out", str(out)] + extra)
        assert code == EXIT_OK
        manifest = json.loads((workspace["dir"] / "k.csv.manifest.json")
                              .read_text())
        assert manifest["config"]["k"] == k

    @pytest.mark.parametrize("extra, unread", [
        (["--mu", "MU", "--method", "mmse_mc", "--k", "0", "--n2", "3",
          "--m", "-5"], ["--m", "--n2"]),
        (["--mu", "MU", "--cv-folds", "5"], ["--cv-folds"]),
        (["--mu", "MU", "--split", "0.3"], ["--split"]),
        (["--fit", "ols", "--cv-folds", "5"], ["--cv-folds"]),
        (["--mu", "MU", "--method", "macm", "--k", "0", "--m", "50"],
         ["--m"]),
    ])
    def test_unread_options_are_rejected(self, workspace, capsys, extra,
                                         unread):
        extra = [workspace["mu"] if a == "MU" else a for a in extra]
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--out", str(workspace["dir"] / "x.csv")] + extra)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert all(option in err for option in unread), err

    @pytest.mark.parametrize("extra, resolved", [
        (["--mu", "MU"], {"n2": None, "split": None, "cv_folds": None}),
        (["--mu", "MU", "--method", "cosufficient"],
         {"n2": 100, "split": None, "cv_folds": None}),
        (["--fit", "ols", "--method", "mmse_exact"],
         {"n2": None, "split": 0.5, "cv_folds": None}),
        (["--fit", "lasso", "--method", "mmse_exact"],
         {"n2": None, "split": 0.5, "cv_folds": 10}),
    ])
    def test_manifest_records_read_options(self, workspace, extra, resolved):
        out = workspace["dir"] / "r.csv"
        extra = [workspace["mu"] if a == "MU" else a for a in extra]
        assert main(["infer", workspace["data"], "--model", workspace["model"],
                     "--out", str(out)] + extra) == EXIT_OK
        config = json.loads((workspace["dir"] / "r.csv.manifest.json")
                            .read_text())["config"]
        assert {k: config[k] for k in resolved} == resolved

    def test_chain_batch_size_zero_is_a_validation_error(self, small_files,
                                                         tmp_path, capsys):
        data, model, mu = small_files["dmc"]
        code = main(["infer", data, "--model", model, "--mu", mu,
                     "--method", "cosufficient", "--n2", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert "n2" in capsys.readouterr().err

    @pytest.mark.parametrize("method, counts, message", [
        ("mmse_mc", ["--k=1"], "big_k"),
        ("mmse_scale_free", ["--k=1"], "big_k"),
        ("macm", ["--k=-3"], "k_copies"),
        ("macm", ["--m=0"], "m_copies"),
        ("cosufficient", ["--n2=0"], "n2"),
        ("cosufficient", ["--k=1"], "mc_k")])
    def test_copy_counts_checked_before_the_data(self, workspace, capsys,
                                                 method, counts, message):
        # A missing data file exits 3 once it is opened: these exit 2.
        code = main(["infer", str(workspace["dir"] / "nope.csv"),
                     "--model", workspace["model"], "--fit", "lasso",
                     "--method", method, *counts,
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_chain_exact_mmse_runs_and_exact_macm_does_not(
            self, small_files, tmp_path, capsys):
        # A chain's conditional pmf gives exact mMSE moments for any mu;
        # the exact MACM probabilities stay Gaussian-only.
        data, model, mu = small_files["dmc"]
        out = str(tmp_path / "x.csv")
        assert main(["infer", data, "--model", model, "--mu", mu, "--method",
                     "mmse_exact", "--out", out]) == EXIT_OK
        rows = Dataset.from_csv(data)
        signs = tmp_path / "signs.csv"
        Dataset(np.where(rows.y > 0, 1.0, -1.0), rows.x, rows.z).to_csv(signs)
        code = main(["infer", str(signs), "--model", model, "--mu", mu,
                     "--method", "macm", "--k", "0", "--out", out])
        assert code == EXIT_VALIDATION
        assert "Gaussian" in capsys.readouterr().err

    def test_mmse_exact_rejects_copies(self, workspace, capsys):
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--method", "mmse_exact",
                     "--k", "20", "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION
        assert "mmse_mc --k 0" in capsys.readouterr().err

    def test_response_as_focal_column_is_rejected(self, workspace, tmp_path,
                                                  capsys):
        # With y as x, Z is the six covariates; a model of that width and
        # an OLS fit would otherwise run on x == y.
        model_path = tmp_path / "ar1_7.json"
        model_path.write_text(Ar1Model(dim=7, rho=0.3, focal_index=1).to_json())
        code = main(["infer", workspace["data"], "--model", str(model_path),
                     "--fit", "ols", "--x-cols", "y",
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION
        assert "x-cols" in capsys.readouterr().err

    def test_requires_exactly_one_of_mu_or_fit(self, workspace):
        out = str(workspace["dir"] / "x.csv")
        both = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--fit", "ols", "--out", out])
        neither = main(["infer", workspace["data"],
                        "--model", workspace["model"], "--out", out])
        assert both == EXIT_VALIDATION and neither == EXIT_VALIDATION

    def test_bad_alpha(self, workspace):
        code = main(["infer", workspace["data"], "--model", workspace["model"],
                     "--mu", workspace["mu"], "--alpha", "1.5",
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION

    def test_missing_input_file(self, workspace):
        code = main(["infer", str(workspace["dir"] / "nope.csv"),
                     "--model", workspace["model"], "--mu", workspace["mu"],
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_IO

    def test_malformed_model_json(self, workspace):
        bad = workspace["dir"] / "bad.json"
        bad.write_text("{not json")
        code = main(["infer", workspace["data"], "--model", str(bad),
                     "--mu", workspace["mu"],
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("which, text, named", [
        ("model", "[1, 2]", "object"),
        ("model", '"Ar1Model"', "object"),
        ("model", '{"model": "Ar1Model", "dim": 6, "rh0": 0.3, '
                  '"focal_index": [1]}', "rh0"),
        ("model", '{"model": "Ar1Model", "dim": 6, "focal_index": [1]}',
         "rho"),
        ("model", '{"model": "CopulaModel"}', "latent"),
        ("model", '{"model": "CopulaModel", "latent": [6, 0.3, [1]]}',
         "mapping"),
        ("model", '{"model": "CopulaModel", "latent": {"dim": 6, "rho": 0.3, '
                  '"focal_index": [1], "extra": 1}}', "extra"),
        ("mu", "[3]", "mapping"),
        ("mu", '{"kind": "OLS", "intercept": 0.0, "x_coef": [1.5], '
               '"z_coef": [0, 0, 0, 0, 0], "lnk": "identity"}', "lnk"),
        ("mu", '{"kind": "OLS", "x_coef": [1.5], "z_coef": [0, 0, 0, 0, 0]}',
         "intercept"),
    ])
    def test_json_inputs_reject_what_they_do_not_read(self, workspace, capsys,
                                                      which, text, named):
        bad = workspace["dir"] / "bad.json"
        bad.write_text(text)
        inputs = {"model": workspace["model"], "mu": workspace["mu"],
                  which: str(bad)}
        code = main(["infer", workspace["data"], "--model", inputs["model"],
                     "--mu", inputs["mu"],
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("which, text, named", [
        ("model", '{"model": "Ar1Model", "dim": "a", "rho": 0.3, '
                  '"focal_index": [1]}', "dim must be an integer"),
        ("model", '{"model": "Ar1Model", "dim": 6, "rho": "0.3", '
                  '"focal_index": [1]}', "rho must be a number"),
        ("model", '{"model": "Ar1Model", "dim": 6, "rho": 0.3, '
                  '"focal_index": "1"}', "focal_index must be an integer or"),
        ("model", '{"model": "CopulaModel", "latent": {"dim": true, '
                  '"rho": 0.3, "focal_index": [1]}}', "dim must be an integer"),
        ("model", '{"model": "DiscreteMarkovChain", "initial": 3, '
                  '"transitions": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], '
                  '"focal_index": 2}', "initial must be a 1-d array"),
        ("model", '{"model": "DiscreteMarkovChain", "initial": [0.5, 0.5], '
                  '"transitions": [[[1, 0], [0, 1]], [[1, 0]]], '
                  '"focal_index": 2}', "transitions must be a 3-d array"),
        ("model", '{"model": "GaussianLinearModel", "gamma": [0, 1], '
                  '"sigma2": 1, "z_mean": [0], "z_cov": [["a"]]}',
         "z_cov must be a 2-d array"),
        # numpy reads [1, true] as the integers [1, 1].
        ("model", '{"model": "GaussianLinearModel", "gamma": [1, true], '
                  '"sigma2": 1, "z_mean": [0], "z_cov": [[1]]}',
         "gamma must be a 1-d array"),
        ("model", '{"model": "GaussianLinearModel", "gamma": [0, 1], '
                  '"sigma2": 1, "z_mean": [0], "z_cov": [[false]]}',
         "z_cov must be a 2-d array"),
        ("mu", '{"kind": "OLS", "intercept": "a", "x_coef": [1.5], '
               '"z_coef": [0, 0, 0, 0, 0]}', "intercept must be a number"),
        ("mu", '{"kind": "OLS", "intercept": 0.0, "x_coef": [[1.5]], '
               '"z_coef": [0, 0, 0, 0, 0]}', "x_coef must be a 1-d array"),
        ("mu", '{"kind": "OLS", "intercept": 0.0, "x_coef": [1.5], '
               '"z_coef": [0, null, 0, 0, 0]}', "z_coef must be a 1-d array"),
        ("mu", '{"kind": "OLS", "intercept": 0.0, "x_coef": [true], '
               '"z_coef": [0, 0, 0, 0, 0]}', "x_coef must be a 1-d array"),
        ("mu", '{"kind": 1, "intercept": 0.0, "x_coef": [1.5], '
               '"z_coef": [0, 0, 0, 0, 0]}', "kind must be a string"),
        ("mu", '{"kind": "OLS", "intercept": 0.0, "x_coef": [1.5], '
               '"z_coef": [0, 0, 0, 0, 0], "link": null}',
         "link must be a string"),
    ])
    def test_json_inputs_check_value_kinds(self, workspace, capsys, which,
                                           text, named):
        # The readers name the key whose value has the wrong kind, rather
        # than a numpy traceback or Python's own TypeError text.
        bad = workspace["dir"] / "bad.json"
        bad.write_text(text)
        inputs = {"model": workspace["model"], "mu": workspace["mu"],
                  which: str(bad)}
        code = main(["infer", workspace["data"], "--model", inputs["model"],
                     "--mu", inputs["mu"],
                     "--out", str(workspace["dir"] / "x.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


def _optional(*values):
    """One of values, or the option left out (three times in four), so
    that many runs get past the unread-option check."""
    return st.sampled_from([None] * 3 * len(values) + list(values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["ar1", "signs", "dmc"]),
       fit=st.sampled_from([None, "ols", "lasso"]),
       method=st.sampled_from(["mmse_exact", "mmse_mc", "mmse_scale_free",
                               "macm", "cosufficient"]),
       k=_optional(2, 5, 0, 1, -1), m=_optional(3, 0, 1, -2),
       n2=_optional(6, 20, 0, 1, -1),
       split=_optional(0.5, 0.02, 0.0, 1.0, -0.3),
       cv_folds=_optional(3, 40, 0, 1, -2),
       alpha=_optional(0.3, 0.0, 1.0, -0.1))
# A batch size of 0 on a chain once escaped as ZeroDivisionError.
@example(kind="dmc", fit=None, method="cosufficient", k=None, m=None, n2=0,
         split=None, cv_folds=None, alpha=None)
def test_infer_exit_contract(small_files, kind, fit, method, k, m, n2, split,
                             cv_folds, alpha):
    """Whatever the options, infer returns 0, 2 or 3 and raises nothing."""
    data, model, mu = small_files[kind]
    out = str(Path(data).parent / "fuzz.csv")
    # "--option=value": argparse reads a value such as "-1e-05" after a
    # separate "--option" as an option name.
    argv = ["infer", data, "--model", model, "--method", method,
            "--out", out]
    argv += ["--mu", mu] if fit is None else ["--fit", fit]
    for option, value in (("--k", k), ("--m", m), ("--n2", n2),
                          ("--split", split), ("--cv-folds", cv_folds),
                          ("--alpha", alpha)):
        if value is not None:
            argv.append(f"{option}={value}")
    assert main(argv) in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)


@pytest.mark.parametrize("argv, message", [
    (["fit", "--fitter", "lasso", "--cv-folds", "1"], "folds"),
    (["fit", "--fitter", "ridge", "--cv-folds", "0"], "folds"),
    (["fit", "--fitter", "ols", "--cv-folds", "5"], "--cv-folds"),
    (["infer", "--fit", "lasso", "--cv-folds", "1"], "folds"),
    (["infer", "--fit", "lasso", "--split", "1.5"], "split"),
    (["infer", "--fit", "ols", "--split", "0"], "split"),
    (["infer", "--fit", "ols", "--alpha", "1.5"], "alpha"),
    (["infer", "--mu", "MU", "--method", "cosufficient", "--alpha", "0"],
     "alpha"),
    (["infer", "--mu", "MU", "--fit", "ols"], "exactly one of --mu or --fit"),
    (["infer"], "exactly one of --mu or --fit"),
    (["infer", "--fit", "lasso", "--seed", "-1"], "--seed must be"),
    (["infer", "--mu", "MU", "--method", "mmse_mc", "--seed", "-1"],
     "--seed must be"),
    (["infer", "--mu", "MU", "--seed", str(2 ** 64)], "--seed must be"),
    (["fit", "--fitter", "ols", "--seed", "-1"], "--seed must be")])
def test_options_checked_before_any_file_is_read(tmp_path, capsys, argv,
                                                 message):
    # Every input is missing, so a run that opens one exits 3 (EXIT_IO).
    command, options = argv[0], [str(tmp_path / "mu.json") if a == "MU"
                                 else a for a in argv[1:]]
    if command == "infer":
        options += ["--model", str(tmp_path / "model.json")]
    code = main([command, str(tmp_path / "missing.csv"), *options,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "--fitter", "lasso", "--cv-folds", "2"],
    ["infer", "--fit", "lasso", "--cv-folds", "2", "--split", "0.9",
     "--alpha", "0.5"]])
def test_valid_options_reach_the_missing_file(tmp_path, argv):
    options = argv[1:] + (["--model", str(tmp_path / "model.json")]
                          if argv[0] == "infer" else [])
    code = main([argv[0], str(tmp_path / "missing.csv"), *options,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_IO


class TestFit:
    def test_fit_writes_regression_json(self, workspace):
        out = workspace["dir"] / "fit.json"
        code = main(["fit", workspace["data"], "--fitter", "ols",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kind"] == "OLS"
        assert abs(payload["x_coef"][0] - 1.5) < 0.2

    def test_ols_does_not_read_cv_folds(self, workspace, capsys):
        code = main(["fit", workspace["data"], "--fitter", "ols",
                     "--cv-folds", "-3",
                     "--out", str(workspace["dir"] / "fit.json")])
        assert code == EXIT_VALIDATION
        assert "--cv-folds" in capsys.readouterr().err

    def test_all_constant_design_is_a_validation_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "flat.csv"
        Dataset(np.arange(50.0), np.full((50, 1), 2.0),
                np.ones((50, 1))).to_csv(path)
        code = main(["fit", str(path), "--fitter", "lasso", "--cv-folds", "5",
                     "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_VALIDATION
        assert "all columns of [x, z] are constant" in capsys.readouterr().err

    def test_fit_is_deterministic(self, workspace):
        texts = []
        for tag in ("a", "b"):
            out = workspace["dir"] / f"fit_{tag}.json"
            assert main(["fit", workspace["data"], "--fitter", "lasso",
                         "--cv-folds", "4", "--seed", "5",
                         "--out", str(out)]) == EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]


@pytest.mark.parametrize("fitter, kind, fit", [
    ("ridge", "ar1", fit_ridge),
    ("logit_l1", "signs", functools.partial(fit_logistic, penalty="L1")),
    ("logit_l2", "signs", functools.partial(fit_logistic, penalty="L2"))])
def test_penalized_fitters_fit_and_infer(small_files, tmp_path, fitter, kind,
                                         fit):
    # fit reads the default 10 folds; the logistic fits take +-1 labels.
    data, model, _ = small_files[kind]
    out = tmp_path / "mu.json"
    assert main(["fit", data, "--fitter", fitter, "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    assert regression_from_json(out.read_text()) == fit(
        Dataset.from_csv(data), cv=CvConfig(folds=10), seed=5)
    manifest = json.loads((tmp_path / "mu.json.manifest.json").read_text())
    assert manifest["config"]["cv_folds"] == 10
    assert main(["infer", data, "--model", model, "--fit", fitter,
                 "--cv-folds", "3", "--k", "4",
                 "--out", str(tmp_path / "lcb.csv")]) == EXIT_OK
    assert len(_read_csv(tmp_path / "lcb.csv")) == 1


class TestSimulate:
    def _spec_path(self, tmp_path, replicates=3):
        spec = ExperimentSpec(
            n=120, p=5,
            mu_star=MuStarSpec(LINEAR_SPARSE, sparsity=2, amplitude=10.0,
                               seed=4),
            methods=(MethodSpec(MMSE_EXACT), MethodSpec(MMSE_MC, big_k=5)),
            fitter=FIT_MU_STAR, replicates=replicates, base_seed=31,
            variables=(1, 2))
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        return path

    def test_simulate_outputs(self, tmp_path):
        spec_path = self._spec_path(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["simulate", str(spec_path), "--out-dir", str(out_dir),
                     "--threads", "1"])
        assert code == EXIT_OK
        detail = _read_csv(out_dir / "detail.csv")
        summary = _read_csv(out_dir / "summary.csv")
        assert len(detail) == 3 * 2 * 2
        assert len(summary) == 2 * 2
        assert (out_dir / "detail.csv.manifest.json").exists()

    def test_threads_do_not_change_bytes(self, tmp_path):
        spec_path = self._spec_path(tmp_path)
        blobs = []
        for tag, threads in (("t1", "1"), ("t2", "2")):
            out_dir = tmp_path / tag
            assert main(["simulate", str(spec_path), "--out-dir",
                         str(out_dir), "--threads", threads]) == EXIT_OK
            blobs.append((out_dir / "detail.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("where", ["top", "method"])
    def test_unknown_spec_key(self, tmp_path, capsys, where):
        path = self._spec_path(tmp_path)
        spec = json.loads(path.read_text())
        if where == "top":
            spec["typo_field"] = 1
        else:
            spec["methods"][0]["bogus"] = 1
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert ("typo_field" if where == "top" else "bogus") in err

    @pytest.mark.parametrize("key", ["tolerance", "max_iters"])
    def test_solver_constants_are_unknown_cv_keys(self, tmp_path, capsys, key):
        path = self._spec_path(tmp_path)
        spec = json.loads(path.read_text())
        spec["cv"][key] = 1
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err

    def test_unread_method_field(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        spec = json.loads(path.read_text())
        spec["methods"] = [{"name": "MACM", "big_k": 7}]
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "big_k" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value, named", [
        ((), "n", "a", "spec JSON: n must be an integer"),
        ((), "rho", "0.3", "spec JSON: rho must be a number"),
        ((), "replicates", 2.5, "spec JSON: replicates must be an integer"),
        ((), "base_seed", True, "spec JSON: base_seed must be an integer"),
        ((), "base_seed", -1, "base_seed must be a whole number"),
        (("mu_star",), "seed", -4, "mu_star seed must be a whole number"),
        ((), "variables", [1, True], "spec JSON: variables must be null or"),
        ((), "variables", [1.5, 2.9], "variables must be distinct whole"),
        (("mu_star",), "amplitude", "10", "mu_star JSON: amplitude must be"),
        (("methods", 1), "big_k", 5.0, "method JSON: big_k must be"),
        (("cv",), "lambda_grid", [1, "a"], "cv JSON: lambda_grid must be"),
    ])
    def test_spec_value_kinds(self, tmp_path, capsys, where, key, value,
                              named):
        # The spec reader names the key whose value has the wrong kind;
        # none of these reaches run_experiment or Python's own TypeError.
        path = self._spec_path(tmp_path)
        spec = json.loads(path.read_text())
        part = spec
        for step in where:
            part = part[step]
        part[key] = value
        path.write_text(json.dumps(spec))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_invalid_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 10}))
        code = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
