"""Tests for the command-line front end.

A reduced scenario (few nodes, coarse grid, short sweep) keeps runtimes low;
the full builtin figures are exercised by the acceptance suite.
"""

import math

import numpy as np
import pytest

from gravjcm import cli
from gravjcm.cli import main
from gravjcm.observables import QGrid

SMALL_SWEEP = """\
# reduced sweep for fast tests
alpha = 2
delta0 = 0
qg = 0
t_end = 6
n_samples = 40
n_nodes = 4
outputs = inversion, entropy
"""

SMALL_GRID = """\
alpha = 2
qg = 0, 1.5e7
t_start = {t}
t_end = {t}
n_samples = 1
n_nodes = 4
outputs = qgrid, cat_report
qgrid.extent = 7
qgrid.n = 41
""".format(t=7.0 * math.pi / 2.0)


def write_scenario(tmp_path, text, name="scn.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_run_sweep_outputs(tmp_path, capsys):
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 0
    inv = out / "custom_qg0_inversion.csv"
    ent = out / "custom_qg0_entropy.csv"
    meta = out / "custom_run_metadata.txt"
    assert inv.is_file() and ent.is_file() and meta.is_file()
    lines = inv.read_text().splitlines()
    assert lines[0] == "lambda_t,value"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-8)
    meta_text = meta.read_text()
    assert "scenario.backend = ode" in meta_text
    assert "branch_audit.winner = 2" in meta_text


def test_run_qgrid_outputs(tmp_path):
    scn = write_scenario(tmp_path, SMALL_GRID)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 0
    grid_csv = out / "custom_qg0_qgrid.csv"
    matrix = out / "custom_qg0_qgrid.matrix.txt"
    cat = out / "custom_qg1p5e07_cat_report.txt"
    assert grid_csv.is_file() and matrix.is_file() and cat.is_file()
    rows = grid_csv.read_text().splitlines()
    assert rows[0] == "x,y,q"
    assert len(rows) == 41 * 41 + 1
    mat = np.loadtxt(str(matrix))
    assert mat.shape == (41, 41)
    # long form and matrix form carry the same values
    x, y, q = (np.array(col) for col in
               zip(*(tuple(map(float, r.split(","))) for r in rows[1:])))
    assert float(np.max(np.abs(q.reshape(41, 41) - mat))) == 0.0
    assert "bimodal = " in cat.read_text()


def test_writers_match_per_value_formatting(tmp_path):
    # the array writers against one 17-digit format call per value
    x = np.array([-1.5, 0.0, 2.0])
    y = np.array([-0.0, 1e-300])
    vals = np.array([[0.0, -0.0, 1e-300], [1.2e8, 5e-324, 1.0 / 3.0]])
    cli._write_qgrid(tmp_path / "g_qgrid", QGrid(x=x, y=y, values=vals))
    cli._write_scalar_csv(tmp_path / "s.csv", x, 3.0 * x)

    def fmt(seq):
        return [f"{v:.17g}" for v in seq]

    long_form = ["x,y,q"] + [",".join(fmt([xv, yv, vals[iy, ix]]))
                             for iy, yv in enumerate(y) for ix, xv in enumerate(x)]
    matrix = ["# rows: y ascending; columns: x ascending",
              "# x " + " ".join(fmt(x)), "# y " + " ".join(fmt(y))]
    matrix += [" ".join(fmt(row)) for row in vals]
    scalar = ["lambda_t,value"] + [",".join(fmt([t, 3.0 * t])) for t in x]
    for name, lines in (("g_qgrid.csv", long_form), ("g_qgrid.matrix.txt", matrix),
                        ("s.csv", scalar)):
        assert (tmp_path / name).read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_run_missing_output_dir_exits_3(tmp_path, capsys):
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    missing = tmp_path / "nope"
    assert main(["run", str(scn), "--out", str(missing)]) == 3
    assert "nope" in capsys.readouterr().err


def test_run_bad_scenario_exits_1(tmp_path, capsys):
    scn = write_scenario(tmp_path, "t_end = -3\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_run_unreadable_scenario_exits_3(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(tmp_path / "ghost.txt"), "--out", str(out)]) == 3


def test_run_qgrid_needs_single_instant(tmp_path, capsys):
    scn = write_scenario(tmp_path, "outputs = qgrid\nn_samples = 5\nt_end = 2\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert "single-instant" in capsys.readouterr().err


@pytest.mark.parametrize("qgs", ["0, 0", "1.5e7, 1.5000001e7"])
def test_run_colliding_qg_tags_exits_1(tmp_path, capsys, qgs):
    # equal values, or values equal at %g precision, would share file names
    scn = write_scenario(tmp_path, SMALL_SWEEP.replace("qg = 0", f"qg = {qgs}"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not any(out.iterdir())


# Inputs that would fail only after the audit and set-up (exit 2), run
# silently with a setting ignored, write outside --out, or set the removed
# literal_paper_mode key or backend = both; each is a scenario error found
# before any work or write.
REJECTED_UP_FRONT = {
    "ode_tol_out_of_range": "t_end = 1\nn_samples = 5\node_tol = 1e-4\n",
    "q_window_misses_disk": "alpha = 5\nt_end = 0\nn_samples = 1\n"
                            "outputs = qgrid\nqgrid.extent = 5\n",
    "nmax_truncates_field": "alpha = 5\nt_end = 1\nn_samples = 5\nnmax = 10\n",
    "literal_mode_on_ode": "t_end = 1\nn_samples = 5\n"
                           "literal_paper_mode = true\nbackend = ode\n",
    "literal_mode_on_analytic": "t_end = 1\nn_samples = 5\n"
                                "literal_paper_mode = true\nbackend = analytic\n",
    "backend_both": "t_end = 1\nn_samples = 5\nbackend = both\n",
    "cat_report_on_sweep": "t_end = 1\nn_samples = 5\noutputs = cat_report\n",
    "name_escapes_out": "t_end = 1\nn_samples = 5\nname = ../escaped\n",
}


@pytest.mark.parametrize("text", REJECTED_UP_FRONT.values(), ids=REJECTED_UP_FRONT)
def test_run_bad_input_rejected_up_front(tmp_path, capsys, text):
    scn = write_scenario(tmp_path, "qg = 0\nn_nodes = 2\n" + text)
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert "scenario error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    assert not any(out.iterdir())


@pytest.mark.parametrize("delta0, code", [(0.0, 2), (8.5e7, 0)],
                         ids=["resonant", "published_detuning"])
def test_run_analytic_norm_rule(tmp_path, capsys, delta0, code):
    # on resonance the closed form's norm passes 1 + NORM_SLACK by lam*t ~ 1;
    # at the published detuning it stays below 1
    text = SMALL_SWEEP.replace("delta0 = 0", f"delta0 = {delta0!r}").replace(
        "outputs = inversion, entropy", "outputs = inversion")
    scn = write_scenario(tmp_path, text + "backend = analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == code
    if code:
        assert "branch norm" in capsys.readouterr().err
        assert not any(out.iterdir())
    else:
        w = np.loadtxt(out / "custom_qg0_inversion.csv", delimiter=",", skiprows=1)[:, 1]
        assert float(np.max(np.abs(w))) <= 1.0


def test_crosscheck_tol_out_of_range_exits_1(tmp_path, capsys):
    report = tmp_path / "cc.txt"
    rc = main(["crosscheck", "--tol", "1e-4", "--tmax", "2", "--samples", "16",
               "--report", str(report)])
    assert rc == 1
    assert "scenario error" in capsys.readouterr().err
    assert not report.exists()


def test_run_deterministic_bytes(tmp_path):
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["run", str(scn), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("custom_qg0_inversion.csv", "custom_qg0_entropy.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_crosscheck_reports_and_appends(tmp_path, capsys):
    report = tmp_path / "cc.txt"
    rc = main(["crosscheck", "--qg", "0", "--tmax", "2", "--samples", "16",
               "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_dW=" in out and "max_dS=" in out
    assert report.read_text().strip() in out.strip()
    # disagreement between the backends is a finding, not a failure
    dw = float(out.split("max_dW=")[1].split()[0])
    assert dw >= 0.0


def test_audit_branches_reports_winner(capsys):
    assert main(["audit-branches"]) == 0
    out = capsys.readouterr().out
    assert "winner_variant = 2" in out
    assert "matches_pinned = true" in out
    residual = float(out.split("winner_residual = ")[1].splitlines()[0])
    assert residual < 1e-8
