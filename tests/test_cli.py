"""Tests for the command-line front end.

A reduced scenario (few nodes, coarse grid, short sweep) keeps runtimes low;
the full builtin figures are exercised by the acceptance suite.
"""

import math
import shlex
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravjcm
from gravjcm import analytic, cli, core
from gravjcm.analytic import branch_states_analytic
from gravjcm.cli import main
from gravjcm.core import adaptive_nmax, build_momentum_grid, coherent_amplitudes
from gravjcm.observables import QGrid, QGridSpec, entropy, inversion, overlaps, q_function
from gravjcm.ode import branch_states_ode_sweep
from gravjcm.scenario import parse_scenario
from storing_sweep import store_sweeps

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
    # the package's own version, whether installed or run from a checkout
    assert f"\nversion = {gravjcm.__version__}\n" in meta_text
    # the branch audit depends only on the code version; audit-branches reports it
    assert "branch_audit" not in meta_text
    assert "nmax" not in meta_text


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
    cli._write_qgrid(tmp_path / "g_qgrid.csv", tmp_path / "g_qgrid.matrix.txt",
                     QGrid(x=x, y=y, values=vals))
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


def savetxt_qgrid(base, qg):
    """Two-np.savetxt Q-grid writer, kept as _write_qgrid's byte reference."""
    bx, by = np.meshgrid(qg.x, qg.y)  # rows y, columns x: y-major long form
    np.savetxt(base.with_suffix(".csv"),
               np.column_stack([bx.ravel(), by.ravel(), qg.values.ravel()]),
               fmt="%.17g", delimiter=",", header="x,y,q", comments="", encoding="utf-8")
    header = ("rows: y ascending; columns: x ascending\n"
              "x " + " ".join("%.17g" % v for v in qg.x) + "\n"
              "y " + " ".join("%.17g" % v for v in qg.y))
    np.savetxt(base.with_suffix(".matrix.txt"), qg.values, fmt="%.17g", header=header,
               encoding="utf-8")


# one block of rows; 401 columns in blocks of 5, 5 and 3 rows; 2100 > _BLOCK columns a block each
@pytest.mark.parametrize("nx, ny", [(29, 17), (401, 13), (2100, 3)])
def test_qgrid_writer_matches_savetxt_reference(tmp_path, nx, ny):
    # a run's last state on a non-square, off-centre window, so that an x/y swap shows
    sc = parse_scenario(SMALL_GRID)
    st = cli._states_for(sc, sc.backend, 1.5e7).last
    grid = q_function(st, QGridSpec(-7.0, 6.5, -6.5, 7.5, nx, ny), sc.alpha)
    for sub in ("new", "ref"):
        (tmp_path / sub).mkdir()
    cli._write_qgrid(tmp_path / "new" / "g_qgrid.csv", tmp_path / "new" / "g_qgrid.matrix.txt",
                     grid)
    savetxt_qgrid(tmp_path / "ref" / "g_qgrid", grid)
    for name in ("g_qgrid.csv", "g_qgrid.matrix.txt"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_qgrid_writer_streams_rows(tmp_path):
    # a 401^2 grid's text is ~14 MB; rows streamed one at a time keep ~0.2 MB alive
    x = np.linspace(-9.0, 9.0, 401)
    beta = x[None, :] + 1j * x[:, None]
    grid = QGrid(x=x, y=x.copy(), values=np.exp(-np.abs(beta - 5.0) ** 2) / math.pi)
    tracemalloc.start()
    try:
        cli._write_qgrid(tmp_path / "g_qgrid.csv", tmp_path / "g_qgrid.matrix.txt", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert (tmp_path / "g_qgrid.matrix.txt").stat().st_size > 401 ** 2 * 17


def array_text(values):
    """The array formatter's text for values, one per line."""
    return cli._text(cli._cells(np.asarray(values, dtype=np.float64), "\n")).decode("ascii")


def per_value_text(values):
    return "".join(f"{cli.FMT % v}\n" for v in np.asarray(values, dtype=np.float64).tolist())


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# every bit pattern: each exponent, subnormals and both signs equally likely
FROM_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, np.uint64).view(np.float64))).filter(math.isfinite)


@settings(max_examples=500, deadline=None)
@given(st.one_of(FINITE, FROM_BITS))
def test_array_formatter_matches_fmt_on_any_double(v):
    assert array_text([v]) == per_value_text([v])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(FINITE, FROM_BITS), min_size=1, max_size=300))
def test_array_formatter_matches_fmt_on_mixed_arrays(values):
    assert array_text(values) == per_value_text(values)


FMT_EDGES = {
    "exact_ties_round_half_even": (
        [1000000000000000.25, 1000000000000000.75, 1000000000000001.25, -1000000000000001.75],
        ["1000000000000000.2", "1000000000000000.8", "1000000000000001.2", "-1000000000000001.8"]),
    "signed_zeros": ([0.0, -0.0], ["0", "-0"]),
    "smallest_subnormal": ([5e-324, -5e-324], ["4.9406564584124654e-324",
                                               "-4.9406564584124654e-324"]),
    "largest_double": ([1.7976931348623157e308], ["1.7976931348623157e+308"]),
    "rounds_up_to_1e17": ([99999999999999999.0, 1e16, 1e17],
                          ["1e+17", "10000000000000000", "1e+17"]),
    "fixed_notation_ends_at_1e-4": ([9.9999999999999995e-05, 1e-4, 1.5e-4, 1e-5],
                                    ["9.9999999999999991e-05", "0.0001", "0.00014999999999999999",
                                     "1.0000000000000001e-05"]),
    "three_digit_exponents": ([1e100, -1.5e-100, 1e-300, 2.2250738585072014e-308],
                              ["1e+100", "-1.5e-100", "1e-300", "2.2250738585072014e-308"]),
}


@pytest.mark.parametrize("values, expected", FMT_EDGES.values(), ids=FMT_EDGES.keys())
def test_array_formatter_edge_cases(values, expected):
    assert per_value_text(values) == "".join(f"{e}\n" for e in expected)
    assert array_text(values) == per_value_text(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_values(tmp_path, bad):
    values = np.array([0.5, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        array_text(values)
    with pytest.raises(ValueError, match="finite"):
        cli._write_scalar_csv(tmp_path / "s.csv", np.arange(3.0), values)
    grid = QGrid(x=np.arange(3.0), y=np.arange(2.0), values=np.vstack([values, values]))
    with pytest.raises(ValueError, match="finite"):
        cli._write_qgrid(tmp_path / "g_qgrid.csv", tmp_path / "g_qgrid.matrix.txt", grid)


# _write_scalar_csv writes blocks of _BLOCK // 2 = 1024 rows: one row, one block short of
# full, full, one row over, within the second block, one row into the third
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2000, 2049])
def test_scalar_csv_matches_savetxt_on_a_sweep(tmp_path, n):
    # a real n-sample sweep's inversion and entropy, against np.savetxt with FMT
    sc = parse_scenario(SMALL_SWEEP.replace("n_samples = 40", f"n_samples = {n}")
                        .replace("t_end = 6", f"t_end = {6 if n > 1 else 0}")
                        .replace("qg = 0", "qg = 1.5e7"))
    sweep = cli._states_for(sc, sc.backend, 1.5e7)
    cc, dd, cd = overlaps(sweep)
    lam_t = sc.times_scaled()
    for name, values in (("inversion", inversion(cc, dd)), ("entropy", entropy(cc, dd, cd).s_f)):
        cli._write_scalar_csv(tmp_path / f"{name}.csv", lam_t, values)
        np.savetxt(tmp_path / f"{name}_ref.csv", np.column_stack([lam_t, values]), fmt=cli.FMT,
                   delimiter=",", header="lambda_t,value", comments="", encoding="utf-8")
        text = (tmp_path / f"{name}.csv").read_bytes()
        assert text == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert text.count(b"\n") == n + 1


@pytest.mark.parametrize("argv", [["crosscheck"], ["run", "--builtin", "fig1"]],
                         ids=["crosscheck_without_input", "run_without_out"])
def test_usage_error_exits_1(capsys, argv):
    # argparse's own status 2 would read as a numerical failure
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_run_nan_norm_fails_before_any_write(tmp_path, capsys, monkeypatch):
    # NaN compares false with every bound, so the gate must test for the bound holding
    real_overlaps = cli.overlaps

    def nan_at_sample_3(states):
        cc, dd, cd = real_overlaps(states)
        cc[3] = np.nan
        return cc, dd, cd

    monkeypatch.setattr(cli, "overlaps", nan_at_sample_3)
    text = SMALL_SWEEP.replace("outputs = inversion, entropy", "outputs = inversion")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 2
    assert "branch norm nan" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_sweep_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # stands in for numpy's "Unable to allocate" on a huge n_samples; nothing real is allocated
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 668. GiB")

    monkeypatch.setattr(cli, "branch_states_ode_sweep", out_of_memory)
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 2
    assert main(["crosscheck", str(scn)]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if not line.startswith(("running", "crosscheck"))]
    assert errors == ["numerical failure: Unable to allocate 668. GiB"] * 2
    assert captured.out == ""
    assert not any(out.iterdir())


def test_chunk_failing_on_a_worker_thread_exits_2(tmp_path, capsys, monkeypatch):
    # the closed form's pieces run on a thread pool; one that overflows fails the run
    # as it would in the calling thread
    real_closed = analytic.phase_integral_closed

    def closed(d0, qg, t):  # t holds a piece's times: every piece but the first fails
        if t[0, 0, 0] > 0:
            raise OverflowError("faddeeva leaves the double range at z=(1-27j)")
        return real_closed(d0, qg, t)

    monkeypatch.setattr(analytic, "phase_integral_closed", closed)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    samples = 3 * analytic.PIECE_TIMES + 8  # four pieces for the two threads
    text = SMALL_SWEEP.replace("qg = 0", "qg = 1.5e7").replace("n_samples = 40",
                                                                f"n_samples = {samples}")
    scn = write_scenario(tmp_path, text + "backend = analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("running")]
    assert errors == ["numerical failure: faddeeva leaves the double range at z=(1-27j)"]
    assert not any(out.iterdir())


def test_run_missing_output_dir_exits_3(tmp_path, capsys):
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    missing = tmp_path / "nope"
    assert main(["run", str(scn), "--out", str(missing)]) == 3
    assert "nope does not exist" in capsys.readouterr().err
    # a path that exists but is a file
    assert main(["run", str(scn), "--out", str(scn)]) == 3
    assert capsys.readouterr().err == f"i/o error: output directory {scn} is not a directory\n"


def test_run_bad_scenario_exits_1(tmp_path, capsys):
    scn = write_scenario(tmp_path, "t_end = -3\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_non_utf8_scenario_exits_1(tmp_path, capsys, command):
    # a byte-order mark of UTF-16 is no UTF-8 text: a scenario error, not a traceback
    scn = tmp_path / "scn.txt"
    scn.write_bytes(b"\xff\xfe name = x\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, str(scn)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert "scenario error" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_scenario_with_utf8_bom_is_read(tmp_path, capsys, command):
    # the byte-order mark some editors write is not part of the first key
    scn = tmp_path / "scn.txt"
    scn.write_bytes(b"\xef\xbb\xbf" + ("name = bom\n" + SMALL_SWEEP).encode())
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, str(scn)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 0
    if command == "run":
        assert (out / "bom_run_metadata.txt").is_file()
    else:
        assert capsys.readouterr().out.startswith("crosscheck qg=0 ")


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


# Inputs that would fail only after set-up (exit 2), run silently with a
# setting ignored, write outside --out, or set the removed nmax, ode_tol or
# literal_paper_mode key or backend = both; each is a scenario error found
# before any work or write.
REJECTED_UP_FRONT = {
    "ode_tol_removed_key": "t_end = 1\nn_samples = 5\node_tol = 1e-10\n",
    # the cat ansatz n w_n has no norm at alpha = 0
    "cat_report_alpha_zero": "alpha = 0\nt_end = 0\nn_samples = 1\n"
                             "outputs = cat_report\nqgrid.extent = 5\n",
    "q_window_misses_disk": "alpha = 5\nt_end = 0\nn_samples = 1\n"
                            "outputs = qgrid\nqgrid.extent = 5\n",
    "nmax_truncates_field": "alpha = 5\nt_end = 1\nn_samples = 5\nnmax = 10\n",
    # the seed e^(-|alpha|^2/2) is subnormal at 38.3 and zero at 39
    "alpha_seed_subnormal": "alpha = 38.3\nt_end = 1\nn_samples = 5\n",
    "alpha_seed_zero": "alpha = 39\nt_end = 1\nn_samples = 5\n",
    "literal_mode_on_ode": "t_end = 1\nn_samples = 5\n"
                           "literal_paper_mode = true\nbackend = ode\n",
    "literal_mode_on_analytic": "t_end = 1\nn_samples = 5\n"
                                "literal_paper_mode = true\nbackend = analytic\n",
    "backend_both": "t_end = 1\nn_samples = 5\nbackend = both\n",
    "cat_report_on_sweep": "t_end = 1\nn_samples = 5\noutputs = cat_report\n",
    "name_escapes_out": "t_end = 1\nn_samples = 5\nname = ../escaped\n",
    # distinct in lam*t, but the middle sample rounds onto an end in seconds
    "times_collapse_in_seconds": "t_start = 1\nt_end = 1.0000000000000002\nn_samples = 3\n",
    # the Q window's own bounds hold whatever the outputs
    "qgrid_n_below_3": "t_end = 1\nn_samples = 5\nqgrid.n = 2\n",
    "qgrid_extent_not_positive": "t_end = 1\nn_samples = 5\nqgrid.extent = 0\n",
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


# Sample times that overflow to infinite seconds, through a subnormal lam or a
# huge t_end, and a time grid or Q grid too large to allocate: 800 PB of times
# or 80 PB of Q values lie beyond any 64-bit address space, so numpy's
# allocation fails at once and touches no memory.  10^7 momentum nodes are
# above the node cap, refused before any Gauss-Hermite rule is computed.  Each
# is one scenario error line naming the key at fault.
BAD_TIME_GRIDS = {
    "times_overflow_to_inf": ("lam = 1e-320\n", "key 'lam'"),
    "t_end_overflows_seconds": ("lam = 1e-3\nt_end = 1e308\n",
                                "key 'lam': t_end / lam = 1e+308 / 0.001"),
    "n_samples_too_large": ("n_samples = 100000000000000000\n", "key 'n_samples': Unable"),
    "qgrid_n_too_large": ("t_end = 0\nn_samples = 1\noutputs = qgrid\nqgrid.n = 100000000\n",
                          "key 'qgrid.n': Unable"),
    # from 371 nodes numpy's Gauss-Hermite weights overflow: such a scenario once
    # built and failed after its sweeps with "branch norm nan"
    "n_nodes_above_cap": ("n_nodes = 371\n",
                          f"key 'n_nodes': n_nodes must be in 1 .. {core.MAX_NODES}, got 371"),
    "n_nodes_too_large": ("n_nodes = 10000000\n",
                          f"key 'n_nodes': n_nodes must be in 1 .. {core.MAX_NODES}, got 10000000"),
}


@pytest.mark.parametrize("command", ["run", "crosscheck"])
@pytest.mark.parametrize("text, says", BAD_TIME_GRIDS.values(), ids=BAD_TIME_GRIDS)
def test_bad_time_grid_is_one_scenario_error(tmp_path, capsys, command, text, says):
    scn = write_scenario(tmp_path, "qg = 0\n" + text)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, str(scn)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("scenario error: ") and says in err[0]
    assert not any(out.iterdir())


def test_largest_node_count_runs(tmp_path):
    # the cap is no lower than it must be: its rule is finite all the way to the entropy
    text = SMALL_SWEEP.replace("n_nodes = 4", f"n_nodes = {core.MAX_NODES}").replace(
        "n_samples = 40", "n_samples = 3").replace("t_end = 6", "t_end = 1")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
    entropy = np.loadtxt(out / "custom_qg0_entropy.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(entropy))


def test_missing_closed_form_kernel(tmp_path, capsys, monkeypatch):
    # without scipy.special every run and crosscheck works, the closed form at qg > 0
    # included; only the audit's literal variants need it, one failure line
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    text = SMALL_SWEEP.replace("delta0 = 0", "delta0 = 8.5e7").replace(
        "outputs = inversion, entropy", "outputs = inversion").replace("qg = 0", "qg = 0, 1.5e7")
    scn = write_scenario(tmp_path, text + "backend = analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert any(out.iterdir())
    assert main(["crosscheck", str(scn)]) == 0
    capsys.readouterr()
    assert main(["audit-branches"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("audit failure: scipy.special cannot be imported")


@pytest.mark.parametrize("backend", ["ode", "analytic"])
def test_detuning_phase_beyond_float64_is_one_scenario_error(tmp_path, capsys, backend):
    # a detuning whose phase overflows a step's float64 once ran into numpy warnings and
    # exited 2 from the sweep; it is refused while the scenario is built
    text = ("delta0 = 1e300\nt_end = 1\nn_samples = 5\nn_nodes = 2\nqg = 1.5e7\n"
            f"outputs = inversion\nbackend = {backend}\n")
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("scenario error: the detuning phase")
    assert not any(out.iterdir())


def test_inversion_run_forms_the_kept_instants_rows_alone(tmp_path, monkeypatch):
    # a closed-form run without entropy takes its populations from the amplitudes'
    # moduli: the one row of complex amplitudes per qg it forms is the kept instant's
    real_sweep = analytic.branch_sweep
    rows = []

    def counted(piece):
        for run in piece:
            if len(run[1]):
                rows.append(len(run[1]))
            yield run

    def counting(times, pieces, *args):
        return real_sweep(times, [counted(piece) for piece in pieces], *args)

    monkeypatch.setattr(analytic, "branch_sweep", counting)
    text = SMALL_SWEEP.replace("delta0 = 0", "delta0 = 8.5e7").replace(
        "outputs = inversion, entropy", "outputs = inversion").replace("qg = 0", "qg = 0, 1.5e7")
    out = tmp_path / "out"
    out.mkdir()
    scn = write_scenario(tmp_path, text + "backend = analytic\n")
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert rows == [1, 1]


def test_tiny_chirp_runs_as_no_chirp(tmp_path):
    # x = d0 / sqrt(2 qg) squares to inf at qg = 1e-300; the closed form squares it only
    # where the chirp has crossed resonance, so the run warns of nothing, and its W is
    # the chirp-free one
    text = ("qg = 0, 1e-300\nt_end = 1\nn_samples = 5\nn_nodes = 2\n"
            "outputs = inversion\nbackend = analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
    w0, w_tiny = (np.loadtxt(out / f"custom_{tag}_inversion.csv", delimiter=",", skiprows=1)[:, 1]
                  for tag in ("qg0", "qg1em300"))
    assert float(np.max(np.abs(w_tiny - w0))) <= 1e-12


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


def test_crosscheck_removed_key_exits_1(tmp_path, capsys):
    # the ode step-control target is a constant, ode.TOL, not a key
    scn = write_scenario(tmp_path, SMALL_SWEEP + "ode_tol = 1e-10\n")
    assert main(["crosscheck", str(scn)]) == 1
    captured = capsys.readouterr()
    assert "unknown key 'ode_tol'" in captured.err
    assert captured.out == ""


def test_run_never_overwrites(tmp_path, capsys, monkeypatch):
    scn = write_scenario(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 0
    edited = out / "custom_qg0_inversion.csv"
    edited.write_text("lambda_t,value\nhand-edited\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    calls = []

    def counted(*args, _fn=cli.branch_states_ode_sweep):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(cli, "branch_states_ode_sweep", counted)
    # a rerun would replace every file it wrote; it names them, computes nothing
    # and moves nothing
    assert main(["run", str(scn), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert all(name in err for name in before)
    assert calls == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_run_computes_every_q_grid_from_one_call(tmp_path, monkeypatch):
    # a three-qg snapshot run writes what three one-qg runs write, from one Q call
    text = SMALL_GRID.replace("qg = 0, 1.5e7", "qg = 0, 5e6, 1.5e7")
    calls = []

    def counted(*args, _fn=cli.q_function):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(cli, "q_function", counted)
    out = tmp_path / "all"
    out.mkdir()
    assert main(["run", str(write_scenario(tmp_path, text)), "--out", str(out)]) == 0
    assert len(calls) == 1
    written = {p.name: p.read_bytes() for p in out.iterdir() if "run_metadata" not in p.name}
    assert len(written) == 3 * 3
    alone = {}
    for qg in ("0", "5e6", "1.5e7"):
        scn = write_scenario(tmp_path, text.replace("qg = 0, 5e6, 1.5e7", f"qg = {qg}"),
                             name=f"qg{qg}.txt")
        sub = tmp_path / f"qg{qg}"
        sub.mkdir()
        assert main(["run", str(scn), "--out", str(sub)]) == 0
        alone.update((p.name, p.read_bytes()) for p in sub.iterdir()
                     if "run_metadata" not in p.name)
    assert len(calls) == 4
    assert written == alone


def test_run_dotted_name_keeps_every_file(tmp_path):
    # a '.' in the name is part of the stem: each qg keeps its own two Q-grid files
    scn = write_scenario(tmp_path, SMALL_GRID.replace("cat_report", "qgrid") + "name = fig.3\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 0
    meta = (out / "fig.3_run_metadata.txt").read_text(encoding="utf-8")
    files = meta.split("files = ", 1)[1].splitlines()[0].split(", ")
    assert files == [f"fig.3_{tag}_qgrid{ext}" for tag in ("qg0", "qg1p5e07")
                     for ext in (".csv", ".matrix.txt")]
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["fig.3_run_metadata.txt"])


def test_run_deterministic_bytes(tmp_path):
    # every file of a sweep run and of a Q-grid run, metadata included
    for label, text, names in (
        ("sweep", SMALL_SWEEP, {"custom_qg0_inversion.csv", "custom_qg0_entropy.csv"}),
        ("grid", SMALL_GRID, {"custom_qg0_qgrid.csv", "custom_qg1p5e07_qgrid.matrix.txt",
                              "custom_qg1p5e07_cat_report.txt"}),
    ):
        scn = write_scenario(tmp_path, text, name=f"{label}.txt")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{label}_{sub}"
            out.mkdir()
            assert main(["run", str(scn), "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert names < set(outs[0])
        assert outs[0] == outs[1]


def sweep_overlaps(sweep):
    """(cc, dd, cd) per sample: the weighted rows summed over nodes and Fock levels by hand."""
    return [np.sum(v, axis=(1, 2))
            for v in (np.abs(sweep.c) ** 2, np.abs(sweep.d) ** 2, np.conj(sweep.c) * sweep.d)]


def eig_entropy(cc, dd, cd):
    """Entropy of each normalized 2x2 overlap matrix from a Hermitian eigensolver."""
    out = []
    for a, b, c in zip(cc, dd, cd):
        lams = np.linalg.eigvalsh(np.array([[a, c], [np.conj(c), b]]) / (a + b))
        out.append(-sum(lam * math.log(lam) for lam in lams if lam > 0.0))
    return np.array(out)


def test_crosscheck_reports_each_qg(tmp_path, capsys, monkeypatch):
    # resonant, where the closed form's norm grows fastest
    text = SMALL_SWEEP.replace("qg = 0", "qg = 0, 1.5e7")
    scn = write_scenario(tmp_path, text)
    assert main(["crosscheck", str(scn)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["qg=0", "qg=15000000"]
    store_sweeps(monkeypatch)
    sc = parse_scenario(text)
    for qg, line in zip(sc.qg_list, lines):
        fields = dict(tok.split("=") for tok in line.split()[1:])
        assert list(fields) == ["qg", "tmax", "max_dW", "max_dS", "max_dnorm"]
        assert float(fields["tmax"]) == 6.0
        # disagreement between the backends is a finding, not a failure; the
        # maxima are recomputed here from both backends' stored branch states
        params = sc.params_for(qg)
        w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
        grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
        times = sc.times_seconds()
        cc_o, dd_o, cd_o = sweep_overlaps(branch_states_ode_sweep(times, params, w, grid))
        cc_a, dd_a, cd_a = sweep_overlaps(branch_states_analytic(times, params, w, grid))
        d_w = np.abs((cc_o - dd_o) - (cc_a - dd_a))
        d_s = np.abs(eig_entropy(cc_o, dd_o, cd_o) - eig_entropy(cc_a, dd_a, cd_a))
        d_norm = np.abs(cc_a + dd_a - 1.0)
        # dW and dnorm reach ~1e3 here
        assert float(fields["max_dW"]) == pytest.approx(d_w.max(), rel=1e-12)
        assert float(fields["max_dnorm"]) == pytest.approx(d_norm.max(), rel=1e-12)
        assert float(fields["max_dS"]) == pytest.approx(d_s.max(), abs=1e-10)


def test_audit_branches_reports_winner(capsys):
    assert main(["audit-branches"]) == 0
    out = capsys.readouterr().out
    assert "winner_variant = 2" in out
    assert "matches_pinned = true" in out
    residual = float(out.split("winner_residual = ")[1].splitlines()[0])
    assert residual < 1e-8


def test_failed_run_leaves_out_untouched(tmp_path, capsys):
    # qg = 0 writes its inversion before the entropy norm rule (norm 0.9967
    # at alpha = 2 and the published detuning) fails the run
    text = SMALL_SWEEP.replace("delta0 = 0\n", "").replace("qg = 0", "qg = 0, 1.5e7")
    scn = write_scenario(tmp_path, text + "backend = analytic\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn), "--out", str(out)]) == 2
    assert "branch norms" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_readme_commands_parse(monkeypatch):
    # every command line in the README's command block is accepted by main
    for name in ("_cmd_run", "_cmd_crosscheck", "_cmd_audit"):
        monkeypatch.setattr(cli, name, lambda args: 0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("gravjcm ")]
    assert commands
    for line in commands:
        # a shell redirection is not an argument
        argv = shlex.split(line.split(">", 1)[0], comments=True)[1:]
        assert main(argv) == 0, line
