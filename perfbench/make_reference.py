"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/make_reference.py

Runs every workload once per size over the whole qg lattice the seeds can
draw, checks the outputs with the gate's invariants, and stores a subsample
of them: about 100 samples of each W and S curve, an 11 x 11 subgrid of each
Q grid, each cat report's peaks and bimodal, and the norm of the branch
state each Q grid was computed from.  Regenerate only when a change is meant
to move the outputs beyond the gate's tolerances, and say so in the change.
Takes about seven minutes on a 2-core Xeon.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import gate  # noqa: E402
from workloads import (SCENARIO_NAME, SIZES, WORKLOADS, qg_lattice,  # noqa: E402
                       qg_token, scenario_text)


def reference_for(workload, size_name: str, work: Path) -> dict:
    from gravjcm import cli

    size = SIZES[size_name]
    n_samples = 1 if workload.single_instant else size["n_samples"]
    qgs = (0.0,) + tuple(v for f in workload.figure_qg for v in qg_lattice(f))
    text = scenario_text(workload, qgs, size_name)
    scenario = work / f"{size_name}-{workload.name}.txt"
    scenario.write_text(text, encoding="utf-8")
    out = work / f"{size_name}-{workload.name}"
    out.mkdir()
    if cli.main(["run", str(scenario), "--out", str(out)]) != 0:
        raise SystemExit(f"{workload.name}: gravjcm run failed")
    values = {repr(qg): {} for qg in qgs}
    if "qgrid" in workload.outputs:
        sc = cli.parse_scenario(text)
        for qg in qgs:
            state = cli._states_for(sc, workload.backend, qg)[-1]
            values[repr(qg)]["state_norm"] = state.norm()
    reference = {"w_stride": max(1, n_samples // 100),
                 "q_stride": (size["qgrid_n"] - 1) // 10, "values": values}
    lam_t = np.linspace(0.0, size["t_end"], size["n_samples"])
    problems = gate.check_outputs(out, workload, qgs, n_samples, size["qgrid_n"],
                                  lam_t, reference)
    if problems:
        raise SystemExit(f"{workload.name}: " + "; ".join(problems))
    for qg in qgs:
        prefix = out / f"{SCENARIO_NAME}_{qg_token(qg)}"
        entry = values[repr(qg)]
        for name in ("inversion", "entropy"):
            if name in workload.outputs:
                _, v = gate.read_scalar_csv(Path(f"{prefix}_{name}.csv"), n_samples)
                entry[name] = v[::reference["w_stride"]].tolist()
        if "qgrid" in workload.outputs:
            q = gate.read_qgrid(Path(f"{prefix}_qgrid.csv"),
                                Path(f"{prefix}_qgrid.matrix.txt"), size["qgrid_n"])
            stride = reference["q_stride"]
            entry["qgrid"] = q[::stride, ::stride].tolist()
        if "cat_report" in workload.outputs:
            kv = gate.read_cat_report(Path(f"{prefix}_cat_report.txt"))
            entry["peaks"] = kv["peaks"]
            entry["bimodal"] = kv["bimodal"]
    return reference


def main() -> None:
    work_root = HERE.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for size_name in ("tiny", "full"):
            reference[size_name] = {}
            for workload in WORKLOADS.values():
                print(f"reference: {size_name} {workload.name}", file=sys.stderr, flush=True)
                reference[size_name][workload.name] = reference_for(
                    workload, size_name, Path(tmp))
    gate.REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    try:
        work_root.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    main()
