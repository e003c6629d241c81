"""The benchmark tracer wraps program functions by (module, attribute) name.

A rename or move under src/ that drops one of those names would only show
up as a failing ``perfbench/run.py --trace 1``; this test catches it here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for mod, attr, _ in tracing.SPANS + tracing.LEAVES:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)


def test_states_for_calls_the_backends_by_name(monkeypatch):
    # the tracer replaces gravjcm.cli.branch_states_*; a backend table built at
    # import time would keep the originals and leave its sweep spans empty
    from gravjcm import cli

    calls = []
    for name in ("branch_states_ode_sweep", "branch_states_analytic"):
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    sc = cli.parse_scenario("alpha = 1\nqg = 0\nt_end = 1\nn_samples = 3\nn_nodes = 2\n")
    for backend in ("ode", "analytic"):
        assert cli._states_for(sc, backend, 0.0).t.size == 3
    assert calls == ["branch_states_ode_sweep", "branch_states_analytic"]


def test_tracer_reads_a_sweep_as_the_harness_does():
    # the tracer iterates the ode.sweep result for its bytes: a sweep yields the one
    # instant whose amplitudes it keeps, its last; the reference builder takes that
    # instant's norm as sweep[-1]
    from gravjcm import cli

    sc = cli.parse_scenario("alpha = 1\nqg = 0\nt_end = 1\nn_samples = 3\nn_nodes = 2\n")
    sweep = cli._states_for(sc, "ode", 0.0)
    tracer = load_tracing().Tracer("t")
    tracer._count("ode.sweep", (), sweep)
    last = sweep[-1]
    assert tracer.counters["ode.history_bytes"] == last.c.nbytes + last.d.nbytes
    assert sweep[sweep.t.size - 1] is last
    assert isinstance(last.norm(), float)


def test_tracer_reads_the_q_call_the_run_makes(tmp_path, monkeypatch):
    # the tracer sizes the Q working set from q_function's first two arguments; a
    # run passes its qg's kept instants stacked as one state
    from gravjcm import cli

    calls = []

    def counted(*args, _fn=cli.q_function):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(cli, "q_function", counted)
    scn = tmp_path / "scn.txt"
    scn.write_text("alpha = 2\nqg = 0, 1.5e7\nt_start = 2\nt_end = 2\nn_samples = 1\n"
                   "n_nodes = 4\noutputs = qgrid\nqgrid.extent = 7\nqgrid.n = 41\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["run", str(scn), "--out", str(out)]) == 0
    [args] = calls
    tracer = load_tracing().Tracer("t")
    tracer._count("observables.q_function", args, None)
    state, spec = args[0], args[1]
    assert state.c.shape[0] == 2
    assert tracer.counters["observables.qgrid_working_set_bytes"] == (
        spec.nx * spec.ny * state.nfock * 16)
