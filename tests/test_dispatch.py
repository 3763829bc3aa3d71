"""Golden outputs of the method and fitter dispatch.

Every `floodgate infer` method and copy-count form, each `--fit` fitter,
and the rows of one simulation replicate that lists every MethodSpec
kind, run on a small seeded table. Each case's lcb, point and se are
pinned bit for bit as float.hex, so a change to how a method or fitter
is chosen and called must leave every output exactly as it was.
"""

import numpy as np
import pytest

from floodgate import (Ar1Model, Dataset, ExperimentSpec,
                       LinearWorkingRegression, MethodSpec, MuStarSpec, cli)
from floodgate.regression import CUSTOM
from floodgate.simulate import (COSUFFICIENT, LOGISTIC_LINEAR, MACM,
                                MMSE_EXACT, MMSE_MC, _run_replicate)

# Case name -> the infer arguments after the data and the model.
INFER_CASES = {
    "mmse_exact": ["--method", "mmse_exact"],
    "mmse_mc": ["--method", "mmse_mc"],
    "mmse_mc_k0": ["--method", "mmse_mc", "--k", "0"],
    "mmse_scale_free": ["--method", "mmse_scale_free"],
    "macm": ["--method", "macm"],
    "macm_m300": ["--method", "macm", "--m", "300"],
    "macm_k0": ["--method", "macm", "--k", "0"],
    "cosufficient_k0": ["--method", "cosufficient", "--k", "0"],
    "cosufficient": ["--method", "cosufficient"],
    "cosufficient_k20_n2_50": ["--method", "cosufficient", "--k", "20",
                               "--n2", "50"],
    "fit_ols": ["--fit", "ols"],
    "fit_ridge": ["--fit", "ridge"],
    "fit_lasso": ["--fit", "lasso"],
    "fit_logit_l1": ["--fit", "logit_l1", "--cv-folds", "5"],
    "fit_logit_l2": ["--fit", "logit_l2"],
}

# (lcb, point, se) of each case, recorded before the method table and
# regression.fit replaced the per-front-end dispatch. The LASSO and ridge
# fits (fit_lasso, fit_ridge and every row of the LASSO replicate) were
# recorded again when those fitters moved to fold co-moments: each value
# moved by at most 2.4e-14 relative, and no MACM indicator flipped.
GOLDEN = {
    "cosufficient": [
        "0x1.aed168056b619p-2",
        "0x1.aff09cf2287f6p-2",
        "0x1.eddea306e8f32p-11"],
    "cosufficient_k0": [
        "0x1.a2d2e3a2f7ca1p-2",
        "0x1.b0ee228a7de91p-2",
        "0x1.841c26b22fd3fp-7"],
    "cosufficient_k20_n2_50": [
        "0x1.725ecebbc5402p-2",
        "0x1.c02d50e7759ddp-2",
        "0x1.7a6cbf1a0a317p-4"],
    "fit_lasso": [
        "0x1.584ee0e4878b6p-2",
        "0x1.e90fd446b7083p-2",
        "0x1.b80521bd0c9b0p-1"],
    "fit_logit_l1": [
        "0x1.732838554f376p-2",
        "0x1.012043671f7dfp-1",
        "0x1.b2fa4e1cc7b32p-1"],
    "fit_logit_l2": [
        "0x1.72a1301830e4cp-2",
        "0x1.006d9e999a3f3p-1",
        "0x1.b056b265d929dp-1"],
    "fit_ols": [
        "0x1.5640e940c80cep-2",
        "0x1.e24ffa941bcebp-2",
        "0x1.a9bfaab13817ep-1"],
    "fit_ridge": [
        "0x1.5612d86454b8ap-2",
        "0x1.e1f9ada3e1f81p-2",
        "0x1.a9455cae3bf1dp-1"],
    "macm": [
        "0x1.37f0902e543c0p-2",
        "0x1.a5d3996fa82e9p-2",
        "0x1.d8649f98be576p-2"],
    "macm_k0": [
        "0x1.0bf45cd088772p-2",
        "0x1.7ae147ae147aep-2",
        "0x1.dcdb9f1ea64c4p-2"],
    "macm_m300": [
        "0x1.2230acc7cc274p-2",
        "0x1.903d9a95421c0p-2",
        "0x1.d918b7656c602p-2"],
    "mmse_exact": [
        "0x1.5e1a5e869e018p-2",
        "0x1.c5a054bd0dc01p-2",
        "0x1.bd0963995dbc8p-1"],
    "mmse_mc": [
        "0x1.5b92f92a4afb5p-2",
        "0x1.c2b9eb0bbce0ep-2",
        "0x1.bb70eba19e5ffp-1"],
    "mmse_mc_k0": [
        "0x1.5e1a5e869e018p-2",
        "0x1.c5a054bd0dc01p-2",
        "0x1.bd0963995dbc8p-1"],
    "mmse_scale_free": [
        "0x1.9f0c85cc21cb4p-4",
        "0x1.88527c79ed9dcp-3",
        "0x1.bb70eba19e5ffp-1"],
    "replicate/v1/COSUFFICIENT_N2_20": [
        "0x1.10ee8947c4137p-3",
        "0x1.ba0862d7f176cp-3",
        "0x1.cbc348ae4f282p-4"],
    "replicate/v1/COSUFFICIENT_N2_25": [
        "0x1.ac7165a5453c7p-3",
        "0x1.fd6e22841a9b6p-3",
        "0x1.89e4e068ac77bp-5"],
    "replicate/v1/MACM": [
        "0x1.5d1795da0caafp-3",
        "0x1.4fdf3b645a1cap-2",
        "0x1.ea6561a671e46p-2"],
    "replicate/v1/MMSE_EXACT": [
        "0x1.98fd6bd46269ep-3",
        "0x1.5e9f47586c24ep-2",
        "0x1.bc31f90349077p-1"],
    "replicate/v1/MMSE_MC_K50": [
        "0x1.b8677f6ffcad3p-3",
        "0x1.6d401d3c70667p-2",
        "0x1.b8ea6037e05e0p-1"],
    "replicate/v2/COSUFFICIENT_N2_20": [
        "0x1.15f9707d0d34cp-4",
        "0x1.906f45972f876p-3",
        "0x1.636b968fb25b5p-3"],
    "replicate/v2/COSUFFICIENT_N2_25": [
        "0x1.fc0358ba4d1a0p-9",
        "0x1.a9a494c2c42f3p-4",
        "0x1.f23dec3882368p-4"],
    "replicate/v2/MACM": [
        "0x1.083b2564244c0p-7",
        "0x1.5a1cac083126ep-3",
        "0x1.f4f3e5866f7f3p-2"],
    "replicate/v2/MMSE_EXACT": [
        "0x0.0p+0",
        "0x1.f481d58c51a3dp-4",
        "0x1.911e31f2565a8p-1"],
    "replicate/v2/MMSE_MC_K50": [
        "0x0.0p+0",
        "0x1.e0a204cad535dp-4",
        "0x1.8d746e3552c2bp-1"],
    "replicate/v3/COSUFFICIENT_N2_20": [
        "0x0.0p+0",
        "0x1.24b9ffa43fbfcp-4",
        "0x1.d55872f479302p-4"],
    "replicate/v3/COSUFFICIENT_N2_25": [
        "0x1.80b4bc6f16698p-7",
        "0x1.5631493ee3904p-4",
        "0x1.659afbd54f075p-4"],
    "replicate/v3/MACM": [
        "0x0.0p+0",
        "0x1.eb851eb851eb4p-6",
        "0x1.0aa089a1bf318p-1"],
    "replicate/v3/MMSE_EXACT": [
        "0x0.0p+0",
        "0x1.07521d66163afp-4",
        "0x1.7d9f2d3d62c0ap-1"],
    "replicate/v3/MMSE_MC_K50": [
        "0x0.0p+0",
        "0x1.fd50d819da482p-5",
        "0x1.8e71af6381404p-1"],
    "replicate/v4/COSUFFICIENT_N2_20": [
        "0x1.c4566efc87e0dp-5",
        "0x1.dc873a2d03975p-4",
        "0x1.5458c80fb94a0p-4"],
    "replicate/v4/COSUFFICIENT_N2_25": [
        "0x1.5b5991f1fa344p-5",
        "0x1.6ecb3971ed2c8p-3",
        "0x1.54671ca82a5b0p-3"],
    "replicate/v4/MACM": [
        "0x1.07c31461cfbf0p-4",
        "0x1.dd2f1a9fbe76ep-3",
        "0x1.066960fbdb8e7p-1"],
    "replicate/v4/MMSE_EXACT": [
        "0x1.6381eefd2c878p-5",
        "0x1.660b88bd709bbp-3",
        "0x1.991b47daab900p-1"],
    "replicate/v4/MMSE_MC_K50": [
        "0x1.360cbff4378b0p-6",
        "0x1.304f075fa26c8p-3",
        "0x1.939c71dab2064p-1"],
    "replicate/v5/COSUFFICIENT_N2_20": [
        "0x0.0p+0",
        "-0x1.99f4381622650p-7",
        "0x1.db21d91646e8cp-3"],
    "replicate/v5/COSUFFICIENT_N2_25": [
        "0x0.0p+0",
        "-0x1.eeecb3b53ddb6p-4",
        "0x1.48abc10da90bap-2"],
    "replicate/v5/MACM": [
        "0x0.0p+0",
        "0x1.a9fbe76c8b437p-7",
        "0x1.04e22c608dd55p-1"],
    "replicate/v5/MMSE_EXACT": [
        "0x0.0p+0",
        "-0x1.f63804eb74f20p-5",
        "0x1.d603fce540311p-1"],
    "replicate/v5/MMSE_MC_K50": [
        "0x0.0p+0",
        "-0x1.9f986f1da4001p-5",
        "0x1.d4fa435678e23p-1"],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 200-row table with a sign response, its AR(1) model (d_z = 4)
    and an identity-link linear mu."""
    root = tmp_path_factory.mktemp("dispatch")
    model = Ar1Model(dim=5, rho=0.3, focal_index=1)
    x, z = model.sample_joint(200, seed=11)
    f = 1.5 * x[:, 0] + z @ np.array([0.8, -0.5, 0.0, 0.3])
    prob = 1.0 / (1.0 + np.exp(-f))
    y = np.where(np.random.default_rng(12).random(200) < prob, 1.0, -1.0)
    mu = LinearWorkingRegression(CUSTOM, 0.1, np.array([0.6]),
                                 np.array([0.3, -0.2, 0.0, 0.1]))
    paths = {name: root / name for name in ("data.csv", "model.json",
                                            "mu.json")}
    Dataset(y, x, z).to_csv(paths["data.csv"])
    paths["model.json"].write_text(model.to_json(), encoding="utf-8")
    paths["mu.json"].write_text(mu.to_json(), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def infer_values(files, out, args, monkeypatch):
    """(lcb, point, se) of one infer run, read from its report itself:
    the CSV rounds to 12 digits."""
    reports = []
    write = cli.reports_to_csv

    def record(path, rows, **kwargs):
        reports.extend(rep for _, rep in rows)
        write(path, rows, **kwargs)

    monkeypatch.setattr(cli, "reports_to_csv", record)
    source = [] if args[0] == "--fit" else ["--mu", files["mu.json"]]
    if args[0] == "--fit":
        args = args + ["--method", "mmse_mc", "--k", "50"]
    code = cli.main(["infer", files["data.csv"], "--model",
                     files["model.json"], *source, *args, "--seed", "5",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    (rep,) = reports
    return [rep.lcb, rep.point, rep.se]


def replicate_values():
    """(lcb, point, se) of each row of replicate 1 of a LASSO study that
    lists every MethodSpec kind, keyed by variable and method label."""
    spec = ExperimentSpec(
        n=200, p=5,
        mu_star=MuStarSpec(LOGISTIC_LINEAR, sparsity=2, amplitude=15.0,
                           seed=3),
        methods=(MethodSpec(MMSE_EXACT), MethodSpec(MMSE_MC, big_k=50),
                 MethodSpec(MACM, k_copies=20),
                 MethodSpec(COSUFFICIENT, n2=20),
                 MethodSpec(COSUFFICIENT, n2=25, mc_k=10)),
        fitter="LASSO", replicates=2, base_seed=8)
    return {f"v{row['variable']}/{row['method']}":
            [row["lcb"], row["point"], row["se"]]
            for row in _run_replicate(spec, 1)}


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", sorted(INFER_CASES))
def test_infer_outputs_are_golden(files, tmp_path, monkeypatch, case):
    values = infer_values(files, tmp_path / "out.csv", INFER_CASES[case],
                          monkeypatch)
    assert _hex(values) == GOLDEN[case]


def test_replicate_rows_are_golden():
    rows = {f"replicate/{key}": _hex(values)
            for key, values in replicate_values().items()}
    assert rows == {key: value for key, value in GOLDEN.items()
                    if key.startswith("replicate/")}
