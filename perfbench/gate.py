"""Correctness gate applied to the output directory of every benchmark run.

Checked on every run:
- exactly the expected files exist, each with the expected row count, and
  the run metadata lists them;
- every value is finite, W in [-1, 1], S in [0, ln 2] (both up to
  rounding), Q >= 0, and the long-form Q CSV and matrix file agree;
- each Q grid Riemann-sums to its branch state's norm within 2 %
  (acceptance criterion 8 asks for 1: the two agree for the norm-conserving
  ode backend, while the analytic closed form's norm is 0.943 at 7 pi / 2,
  the known defect that also makes analytic + entropy exit 2);
- against reference.json, which holds the seed commit's outputs for every
  qg the seeds can draw: W and S within 1e-6 absolute (the bar of acceptance
  criterion 9) on every ``w_stride``-th sample, a coarse subsample of Q
  within 1e-6 x max Q, and the same cat-report ``peaks`` and ``bimodal``.
An exact propagator replacing DOP853 moves amplitudes by ~3e-9, well inside
these tolerances.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import QGRID_EXTENT, SCENARIO_NAME, Workload, qg_token

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SCALAR_TOL = 1e-6
Q_REL_TOL = 1e-6
Q_NORM_TOL = 0.02
ROUNDING = 1e-12  # W and S may leave their ranges by floating-point rounding
CAT_KEYS = ("peaks", "bimodal", "separation", "height_ratio", "locations",
            "ansatz_fidelity")


def load_reference(size: str, workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[size][workload]


def expected_files(workload: Workload, qgs: tuple) -> list:
    names = []
    for qg in qgs:
        prefix = f"{SCENARIO_NAME}_{qg_token(qg)}"
        for out in workload.outputs:
            if out == "qgrid":
                names += [f"{prefix}_qgrid.csv", f"{prefix}_qgrid.matrix.txt"]
            elif out == "cat_report":
                names.append(f"{prefix}_cat_report.txt")
            else:
                names.append(f"{prefix}_{out}.csv")
    return names


def _lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def read_scalar_csv(path: Path, n_rows: int) -> tuple:
    """(lambda_t, value) columns of an inversion/entropy file."""
    lines = _lines(path)
    if lines[:1] != ["lambda_t,value"]:
        raise ValueError(f"{path.name}: bad header")
    if len(lines) != n_rows + 1:
        raise ValueError(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    return data[:, 0], data[:, 1]


def read_qgrid(csv_path: Path, matrix_path: Path, n: int) -> np.ndarray:
    """Q values as an (n, n) array, rows = y ascending; both files must agree."""
    with csv_path.open(encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "x,y,q":
            raise ValueError(f"{csv_path.name}: bad header")
        long_form = np.loadtxt(fh, delimiter=",", ndmin=2)
    if long_form.shape != (n * n, 3):
        raise ValueError(f"{csv_path.name}: shape {long_form.shape}, expected {(n * n, 3)}")
    lines = _lines(matrix_path)
    if len(lines) != n + 3 or not all(ln.startswith("#") for ln in lines[:3]):
        raise ValueError(f"{matrix_path.name}: {len(lines)} lines, expected 3 + {n}")
    matrix = np.array([ln.split() for ln in lines[3:]], dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"{matrix_path.name}: shape {matrix.shape}, expected {(n, n)}")
    if not np.array_equal(long_form[:, 2].reshape(n, n), matrix):
        raise ValueError(f"{csv_path.name} and {matrix_path.name} disagree")
    return matrix


def read_cat_report(path: Path) -> dict:
    kv = dict(ln.split(" = ", 1) for ln in _lines(path) if " = " in ln)
    if tuple(kv) != CAT_KEYS:
        raise ValueError(f"{path.name}: keys {tuple(kv)}, expected {CAT_KEYS}")
    if kv["bimodal"] not in ("true", "false") or int(kv["peaks"]) < 1:
        raise ValueError(f"{path.name}: bad peaks/bimodal {kv['peaks']}/{kv['bimodal']}")
    for key in ("separation", "height_ratio", "ansatz_fidelity"):
        if not math.isfinite(float(kv[key])):
            raise ValueError(f"{path.name}: {key} is not finite")
    return kv


def _compare(label: str, got: np.ndarray, ref: list, tol: float) -> list:
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} vs reference {ref.shape}"]
    dev = float(np.max(np.abs(got - ref)))
    return [] if dev <= tol else [f"{label}: deviates from reference by {dev:.3e} > {tol:.1e}"]


def check_outputs(out_dir: Path, workload: Workload, qgs: tuple, n_samples: int,
                  qgrid_n: int, lam_t: np.ndarray, reference: dict) -> list:
    """Problems found in one run's outputs; an empty list means it passed.

    ``reference`` is this size's and workload's entry of reference.json,
    whose ``values`` are keyed by ``repr(qg)``.  While make_reference.py
    builds it, the entries hold only ``state_norm`` and nothing is compared.
    """
    expected = expected_files(workload, qgs)
    present = sorted(p.name for p in out_dir.iterdir())
    meta_name = f"{SCENARIO_NAME}_run_metadata.txt"
    if present != sorted(expected + [meta_name]):
        return [f"files {present}, expected {sorted(expected + [meta_name])}"]
    meta = dict(ln.split(" = ", 1) for ln in _lines(out_dir / meta_name) if " = " in ln)
    if meta.get("files") != ", ".join(expected):
        return [f"metadata lists files {meta.get('files')!r}"]

    problems = []
    for qg in qgs:
        prefix = out_dir / f"{SCENARIO_NAME}_{qg_token(qg)}"
        label = f"qg={qg!r}"
        ref = reference["values"].get(repr(qg))
        if ref is None:
            problems.append(f"{label}: no reference outputs stored")
            continue
        try:
            for out, lo, hi in (("inversion", -1.0, 1.0), ("entropy", 0.0, math.log(2.0))):
                if out not in workload.outputs:
                    continue
                t, v = read_scalar_csv(Path(f"{prefix}_{out}.csv"), n_samples)
                if not np.allclose(t, lam_t, rtol=1e-15, atol=0.0):
                    problems.append(f"{label} {out}: lambda_t column differs from the sweep")
                if not np.all(np.isfinite(v)) or v.min() < lo - ROUNDING \
                        or v.max() > hi + ROUNDING:
                    problems.append(f"{label} {out}: values outside [{lo}, {hi:.6f}] "
                                    f"or not finite")
                if out in ref:
                    problems += _compare(f"{label} {out}", v[::reference["w_stride"]],
                                         ref[out], SCALAR_TOL)
            if "qgrid" in workload.outputs:
                q = read_qgrid(Path(f"{prefix}_qgrid.csv"),
                               Path(f"{prefix}_qgrid.matrix.txt"), qgrid_n)
                if not np.all(np.isfinite(q)) or q.min() < 0.0:
                    problems.append(f"{label} qgrid: negative or non-finite values")
                dx = 2.0 * QGRID_EXTENT / (qgrid_n - 1)
                mass = float(q.sum()) * dx * dx
                if abs(mass - ref["state_norm"]) > Q_NORM_TOL:
                    problems.append(f"{label} qgrid: Riemann sum {mass:.6f} not within "
                                    f"{Q_NORM_TOL} of the state norm {ref['state_norm']:.6f}")
                if "qgrid" in ref:
                    qref = np.asarray(ref["qgrid"])
                    stride = reference["q_stride"]
                    problems += _compare(f"{label} qgrid", q[::stride, ::stride], qref,
                                         Q_REL_TOL * float(qref.max()))
            if "cat_report" in workload.outputs:
                kv = read_cat_report(Path(f"{prefix}_cat_report.txt"))
                for key in ("peaks", "bimodal"):
                    if key in ref and kv[key] != ref[key]:
                        problems.append(f"{label} cat_report: {key} = {kv[key]}, "
                                        f"reference {ref[key]}")
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: {exc}")
    return problems
