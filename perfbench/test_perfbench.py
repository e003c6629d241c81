"""Self-check of the benchmark harness at the tiny size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
the correctness gate passes pristine outputs and fails corrupted ones, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import (SCENARIO_NAME, SIZES, WORKLOADS, draw_qg, qg_token,  # noqa: E402
                       scenario_text)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] == 1 + trace
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert "error_rate" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "ode-sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeded_qg_values_are_distinct_and_have_references():
    for name, wl in WORKLOADS.items():
        for seed in range(50):
            qgs = draw_qg(wl, seed)
            assert qgs == draw_qg(wl, seed)
            assert qgs[0] == 0.0 and len(qgs) == 1 + len(wl.figure_qg)
            assert len({qg_token(v) for v in qgs}) == len(qgs)
            for size in SIZES:
                values = gate.load_reference(size, name)["values"]
                assert all(repr(v) in values for v in qgs)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Tiny outputs of the analytic sweep and the Q snapshot, one set each."""
    from gravjcm.cli import main

    made = {}
    for name in ("analytic-sweep", "qgrid-snapshot"):
        wl = WORKLOADS[name]
        qgs = draw_qg(wl, 3)
        base = tmp_path_factory.mktemp(name)
        scenario = base / "scenario.txt"
        scenario.write_text(scenario_text(wl, qgs, "tiny"))
        out = base / "out"
        out.mkdir()
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        made[name] = (wl, qgs, out)
    return made


def _gate(wl, qgs, out):
    s = SIZES["tiny"]
    n_samples = 1 if wl.single_instant else s["n_samples"]
    return gate.check_outputs(out, wl, qgs, n_samples, s["qgrid_n"],
                              np.linspace(0.0, s["t_end"], s["n_samples"]),
                              gate.load_reference("tiny", wl.name))


def _edit_value(path: Path, row: int, new: str) -> None:
    lines = path.read_text().splitlines()
    t, _ = lines[row].split(",")
    lines[row] = f"{t},{new}"
    path.write_text("\n".join(lines) + "\n")


def _scale_q(matrix: Path, factor: float) -> None:
    """Scale Q in the matrix file and the long-form CSV beside it alike."""
    lines = matrix.read_text().splitlines()
    out = lines[:3] + [" ".join(repr(float(v) * factor) for v in ln.split())
                       for ln in lines[3:]]
    matrix.write_text("\n".join(out) + "\n")
    csv = matrix.with_name(matrix.name.replace(".matrix.txt", ".csv"))
    lines = csv.read_text().splitlines()
    out = lines[:1] + [f"{x},{y},{float(q) * factor!r}"
                       for x, y, q in (ln.split(",") for ln in lines[1:])]
    csv.write_text("\n".join(out) + "\n")


def _bump_peaks(path: Path) -> None:
    text = path.read_text()
    path.write_text(re.sub(r"^peaks = (\d+)$", lambda m: f"peaks = {int(m[1]) + 1}",
                           text, flags=re.M))


# name -> (workload, file suffix, corruption, words the gate's report must hold)
CORRUPTIONS = {
    "missing row": ("analytic-sweep", "inversion.csv",
                    lambda p: p.write_text("".join(p.read_text().splitlines(True)[:-1])),
                    "rows, expected"),
    "W out of range": ("analytic-sweep", "inversion.csv",
                       lambda p: _edit_value(p, 7, "1.5"), "values outside"),
    "not finite": ("analytic-sweep", "inversion.csv",
                   lambda p: _edit_value(p, 7, "nan"), "not finite"),
    "W off reference": ("analytic-sweep", "inversion.csv",
                        lambda p: _edit_value(p, 3, repr(float(
                            p.read_text().splitlines()[3].split(",")[1]) + 1e-5)),
                        "deviates from reference"),
    "missing file": ("analytic-sweep", "inversion.csv", lambda p: p.unlink(), "expected"),
    "Q rescaled": ("qgrid-snapshot", "qgrid.matrix.txt", lambda p: _scale_q(p, 1.05),
                   "Riemann sum"),
    "peaks changed": ("qgrid-snapshot", "cat_report.txt", _bump_peaks, "peaks = "),
}


def test_gate_passes_pristine_outputs(pristine):
    for wl, qgs, out in pristine.values():
        assert _gate(wl, qgs, out) == []


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_gate_fails_corrupted_output(pristine, tmp_path, corruption):
    name, suffix, corrupt, words = CORRUPTIONS[corruption]
    wl, qgs, out = pristine[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy / f"{SCENARIO_NAME}_{qg_token(qgs[-1])}_{suffix}")
    problems = _gate(wl, qgs, copy)
    assert any(words in p for p in problems), problems
