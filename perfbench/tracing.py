"""Layer spans recorded from outside the program.

``Tracer.install`` replaces public functions in the namespace where their
caller looks them up (``gravjcm.cli.q_function``, ``gravjcm.ode.solve_ivp``,
...) with wrappers that record a span per call: run id, span id, parent span
id, name, start and end.  Spans stay in memory and are written out once,
by ``dump``, when the run ends.

The Faddeeva kernel is called ~10^5 times per sweep, so it is a leaf
counter rather than a span: its calls and busy time are summed, and the
time is charged to the enclosing span so self times stay exact.

``layer_metrics`` turns a dump into the per-layer metrics; it needs no
import of the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from pathlib import Path

# (module, attribute, span name); the module is the caller's namespace.
SPANS = (
    ("gravjcm.cli", "audit_branch_variants", "cli.audit"),
    ("gravjcm.cli", "adaptive_nmax", "core.setup"),
    ("gravjcm.cli", "coherent_amplitudes", "core.setup"),
    ("gravjcm.cli", "build_momentum_grid", "core.setup"),
    ("gravjcm.cli", "branch_states_ode_sweep", "ode.sweep"),
    ("gravjcm.ode", "solve_ivp", "ode.solve_ivp"),
    ("gravjcm.cli", "branch_states_analytic", "analytic.states"),
    ("gravjcm.cli", "overlaps", "observables.overlaps"),
    ("gravjcm.cli", "inversion", "observables.inversion"),
    ("gravjcm.cli", "entropy", "observables.entropy"),
    ("gravjcm.cli", "q_function", "observables.q_function"),
    ("gravjcm.cli", "q_peak_analysis", "observables.q_peak"),
    ("gravjcm.cli", "cat_fidelity", "observables.cat_fidelity"),
    ("gravjcm.cli", "_write_scalar_csv", "cli.write"),
    ("gravjcm.cli", "_write_qgrid", "cli.write"),
    ("gravjcm.cli", "_write_kv", "cli.write"),
)
LEAVES = (("gravjcm.analytic", "faddeeva", "cerf.faddeeva"),)
# Spans whose growth of the peak-RSS high-water mark is recorded.
RSS_SPANS = ("ode.sweep", "analytic.states", "observables.q_function")
ROOT = "cli.run"

MB = 1024.0 * 1024.0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (run_id, id, parent, name, start, end)
        self.stack = [None]
        self.leaf = {}           # name -> [calls, seconds]
        self.leaf_time = {}      # enclosing span id -> seconds in leaves
        self.counters = {"ode.rhs_evals": 0, "ode.history_bytes": 0,
                         "observables.qgrid_working_set_bytes": 0}
        self.rss_kb = {name: 0 for name in RSS_SPANS}
        self._solver_bytes = 0

    def install(self) -> None:
        for mod, attr, name in SPANS:
            m = importlib.import_module(mod)
            setattr(m, attr, self._span(getattr(m, attr), name))
        for mod, attr, name in LEAVES:
            m = importlib.import_module(mod)
            setattr(m, attr, self._leaf(getattr(m, attr), name))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the call ends
        parent = self.stack[-1]
        self.stack.append(sid)
        track_rss = name in RSS_SPANS
        rss0 = _maxrss_kb() if track_rss else 0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (self.run_id, sid, parent, name, t0, t1)
        if track_rss:
            self.rss_kb[name] += _maxrss_kb() - rss0
        self._count(name, args, result)
        return result

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "ode.solve_ivp":
            c["ode.rhs_evals"] += int(result.nfev)
            self._solver_bytes = result.y.nbytes
        elif name == "ode.sweep":
            held = self._solver_bytes + sum(s.c.nbytes + s.d.nbytes for s in result)
            c["ode.history_bytes"] = max(c["ode.history_bytes"], held)
        elif name == "observables.q_function":
            state, spec = args[0], args[1]
            conj_pow = spec.nx * spec.ny * state.nfock * 16  # complex128
            c["observables.qgrid_working_set_bytes"] = max(
                c["observables.qgrid_working_set_bytes"], conj_pow)

    def _span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _leaf(self, fn, name: str):
        acc = self.leaf.setdefault(name, [0, 0.0])
        leaf_time = self.leaf_time
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                leaf_time[stack[-1]] = leaf_time.get(stack[-1], 0.0) + dt
        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "leaf": self.leaf,
            "leaf_time": {str(k): v for k, v in self.leaf_time.items()},
            "counters": self.counters,
            "rss_kb": self.rss_kb,
        }), encoding="utf-8")


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    spans = dump["spans"]
    busy, calls, children, self_s = {}, {}, {}, {}
    for _, sid, parent, name, t0, t1 in spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
    leaf_time = {int(k): v for k, v in dump["leaf_time"].items() if k != "None"}
    for _, sid, _, name, t0, t1 in spans:
        own = (t1 - t0) - children.get(sid, 0.0) - leaf_time.get(sid, 0.0)
        self_s[name] = self_s.get(name, 0.0) + own
    fadd_calls, fadd_s = dump["leaf"].get("cerf.faddeeva", [0, 0.0])
    c = dump["counters"]
    rss = dump["rss_kb"]

    def s(name):
        return busy.get(name, 0.0)

    return {
        "ode.sweep_s": (s("ode.sweep"), "s"),
        "ode.solve_ivp_s": (s("ode.solve_ivp"), "s"),
        "ode.sweep_self_s": (self_s.get("ode.sweep", 0.0), "s"),
        "ode.rhs_evals": (c["ode.rhs_evals"], "count"),
        "ode.history_mb": (c["ode.history_bytes"] / MB, "MB"),
        "ode.rss_hwm_delta_mb": (rss["ode.sweep"] / 1024.0, "MB"),
        "analytic.states_s": (s("analytic.states"), "s"),
        "analytic.self_s": (self_s.get("analytic.states", 0.0), "s"),
        "analytic.calls": (calls.get("analytic.states", 0), "count"),
        "analytic.rss_hwm_delta_mb": (rss["analytic.states"] / 1024.0, "MB"),
        "cerf.faddeeva_calls": (fadd_calls, "count"),
        "cerf.faddeeva_s": (fadd_s, "s"),
        "observables.overlaps_s": (s("observables.overlaps"), "s"),
        "observables.inversion_s": (s("observables.inversion"), "s"),
        "observables.entropy_s": (s("observables.entropy"), "s"),
        "observables.q_function_s": (s("observables.q_function"), "s"),
        "observables.qgrid_working_set_mb": (
            c["observables.qgrid_working_set_bytes"] / MB, "MB"),
        "observables.q_function_rss_hwm_delta_mb": (
            rss["observables.q_function"] / 1024.0, "MB"),
        "observables.q_peak_s": (s("observables.q_peak"), "s"),
        "observables.cat_fidelity_s": (s("observables.cat_fidelity"), "s"),
        "cli.write_s": (s("cli.write"), "s"),
        "cli.audit_s": (s("cli.audit"), "s"),
        "cli.self_s": (self_s.get(ROOT, 0.0), "s"),
        "core.setup_s": (s("core.setup"), "s"),
        "trace.spans": (len(spans), "count"),
    }
