"""Smoke runs of the study scripts in scripts/ at tiny sizes, and of
README's library quick start."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_halfwidth_study_prints_one_row_per_size(capsys):
    script = _load("run_halfwidth_study")
    code = script.main(["--sizes", "60", "120", "--replicates", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line, n in zip(lines[1:], (60, 120)):
        size, hw, scaled = line.split()
        assert int(size) == n
        assert float(scaled) == pytest.approx(float(hw) * n ** 0.5, abs=1e-3)


def test_readme_library_quick_start_runs(capsys):
    # Runs the documented example, so a deleted name cannot stay in it.
    section = README.read_text().split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    lcb, point, se = map(float, capsys.readouterr().out.split())
    assert 0.0 <= lcb <= point and se > 0.0


def test_package_exports_every_import_and_no_module():
    import types

    import floodgate

    exported = set(floodgate.__all__)
    assert len(exported) == len(floodgate.__all__)
    modules = {name for name in exported
               if isinstance(getattr(floodgate, name), types.ModuleType)}
    assert not modules
    # Every function and class the package imports is exported.
    imported = {name for name, obj in vars(floodgate).items()
                if not name.startswith("_")
                and not isinstance(obj, types.ModuleType)}
    assert exported == imported
    star = {}
    exec("from floodgate import *", star)
    star.pop("__builtins__")
    assert set(star) == exported


def test_readme_qualified_names_resolve():
    # Each backticked name the README qualifies by a floodgate module
    # (`mmse.null_mu_blocks`, `floodgate.simulate.ExperimentSpec`) or by
    # a name floodgate exports (`Dataset.to_csv`) must exist.
    import importlib
    import re

    import floodgate

    cited = set(re.findall(r"`([A-Za-z_][\w.]*\.[A-Za-z_]\w*)",
                           README.read_text()))
    resolved = []
    for name in sorted(cited):
        parts = name.split(".")
        if parts[0] == "floodgate":
            parts = parts[1:]
        try:
            obj = importlib.import_module(f"floodgate.{parts[0]}")
        except ModuleNotFoundError:
            if parts[0] not in floodgate.__all__:
                continue        # numpy, csv, a variable, a file name
            obj = getattr(floodgate, parts[0])
        for attr in parts[1:]:
            assert hasattr(obj, attr), f"README cites {name}, which is gone"
            obj = getattr(obj, attr)
        resolved.append(name)
    assert "regression._active_set_paths" in resolved
    assert "Dataset.to_csv" in resolved
