"""Correctness checks on the bounds the benchmark's operations return.

Every operation yields rows ``[key, lcb, point, se, degenerate]``: one
per (replicate, variable, method) for a study, one per invocation of
``floodgate infer``. Each row must be finite with ``0 <= lcb`` and
``lcb <= max(point, 0)`` (MACM's point estimate may be negative while
its bound clamps at 0), and a degenerate row must carry ``lcb == 0``.
On the default seed the rows are also compared with a reference file
recorded from the same workload, within the tolerance stored in that
file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
# Refactors named in the roadmap change sums by summation order (~1e-12)
# and LASSO coefficients by up to ~1.5e-8; anything larger is a change
# of results, not of speed.
TOLERANCE = {"rtol": 1e-6, "atol": 1e-6}


def invariant_errors(rows) -> list[str]:
    errors = []
    for key, lcb, point, se, degenerate in rows:
        if not all(math.isfinite(v) for v in (lcb, point, se)):
            errors.append(f"{key}: non-finite output {lcb}, {point}, {se}")
        elif not 0.0 <= lcb <= max(point, 0.0):
            errors.append(f"{key}: lcb {lcb} outside [0, max(point {point}, 0)]")
        elif degenerate and lcb != 0.0:
            errors.append(f"{key}: degenerate with lcb {lcb} != 0")
    return errors


def _close(a: float, b: float, tol: dict) -> bool:
    return abs(a - b) <= tol["atol"] + tol["rtol"] * abs(b)


def reference_errors(ops_rows, reference: dict) -> list[str]:
    """Compare each op's rows with the reference rows for the same op
    index; ops beyond the recorded ones are not compared."""
    tol = reference["tolerance"]
    errors = []
    for index, (rows, ref_rows) in enumerate(zip(ops_rows, reference["ops"])):
        if rows is None:
            continue
        if [r[0] for r in rows] != [r[0] for r in ref_rows]:
            errors.append(f"op {index}: row keys differ from the reference")
            continue
        for row, ref in zip(rows, ref_rows):
            for label, got, want in zip(("lcb", "point", "se"), row[1:4],
                                        ref[1:4]):
                if not _close(got, want, tol):
                    errors.append(f"op {index} {row[0]}: {label} {got!r} "
                                  f"!= reference {want!r}")
            if bool(row[4]) != bool(ref[4]):
                errors.append(f"op {index} {row[0]}: degenerate flag differs")
    return errors


def reference_path(workload: str, smoke: bool) -> Path:
    suffix = ".smoke" if smoke else ""
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_reference(workload: str, smoke: bool) -> dict | None:
    path = reference_path(workload, smoke)
    return json.loads(path.read_text()) if path.exists() else None


def write_reference(workload: str, smoke: bool, ops_rows) -> Path:
    path = reference_path(workload, smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps({"workload": workload, "seed": DEFAULT_SEED,
                       "smoke": smoke, "tolerance": TOLERANCE})
    ops = ",\n".join("[\n" + ",\n".join(json.dumps(row) for row in rows)
                     + "\n]" for rows in ops_rows)
    path.write_text(head[:-1] + ', "ops": [\n' + ops + "\n]}\n")
    return path
