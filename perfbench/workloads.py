"""Benchmark workloads: seeded scenarios derived from the paper's figures.

Every workload runs the reference experiment (32 momentum nodes, adaptive
Fock cutoff nmax = 100, so 32 x 101 two-level blocks).  The seed only moves
the nonzero gravity values: each is drawn from an 11-point lattice of
+-5 % in 1 % steps around a figure value (0.5e7 or 1.5e7 rad/s^2).  qg = 0
is always kept because it takes its own code path (the elementary phase
integral instead of the closed form).  Lattice values are whole multiples
of 5e4, so they are exact in binary and distinct at ``%g`` precision, which
is what the CLI uses to name output files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HALF_REVIVAL_LAMT = 7.0 * math.pi / 2.0
QG_OFFSETS_PERCENT = tuple(range(-5, 6))

# Problem sizes: "full" is the reference experiment; "tiny" only exercises
# the harness itself (its outputs have no stored references).
SIZES = {
    "full": {"n_nodes": 32, "n_samples": 2000, "t_end": 25.0, "qgrid_n": 401},
    "tiny": {"n_nodes": 32, "n_samples": 40, "t_end": 2.5, "qgrid_n": 101},
}
QGRID_EXTENT = 9.0
NMAX_PLUS_ONE = 101  # adaptive_nmax(alpha = 5) + 1 Fock levels per block


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    outputs: tuple
    figure_qg: tuple     # nonzero figure values the seed perturbs
    single_instant: bool


# Why each workload exists:
# - ode-sweep: fig1/fig2 sweep on the DOP853 backend, unchirped and strongest
#   chirp. The ode layer does almost all the work; analytic does none.
# - analytic-sweep: the same sweep on the closed form, all three figure qg.
#   analytic + cerf do the work (qg = 0 takes the elementary path) and ode
#   does nothing. Entropy is left out: the closed form's norm defect makes
#   analytic + entropy exit 2 at these parameters.
# - qgrid-snapshot: fig3's single instant 7 pi / 2 on a 401^2 Q grid. Grid-
#   and write-heavy (~40 MB of text) where the sweeps are solver-heavy.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ode-sweep", "ode", ("inversion", "entropy"), (1.5e7,), False),
        Workload("analytic-sweep", "analytic", ("inversion",), (0.5e7, 1.5e7), False),
        Workload("qgrid-snapshot", "analytic", ("qgrid", "cat_report"),
                 (0.5e7, 1.5e7), True),
    )
}

SCENARIO_NAME = "bench"


def qg_lattice(figure_value: float) -> list:
    """All values the seed can draw around one figure value, ascending."""
    step = figure_value / 100.0
    return [step * (100 + k) for k in QG_OFFSETS_PERCENT]


def draw_qg(workload: Workload, seed: int) -> tuple:
    """qg = 0 plus one lattice value per figure value, fixed by the seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    qgs = (0.0,) + tuple(rng.choice(qg_lattice(v)) for v in workload.figure_qg)
    tags = {qg_token(v) for v in qgs}
    if len(tags) != len(qgs):
        raise ValueError(f"qg values {qgs} collide at %g precision")
    return qgs


def qg_token(qg: float) -> str:
    """Filename tag the CLI gives a gravity value (README: `qg0`, `qg1p5e07`)."""
    return ("qg%g" % qg).replace("+", "").replace("-", "m").replace(".", "p")


def scenario_text(workload: Workload, qgs: tuple, size: str) -> str:
    s = SIZES[size]
    if workload.single_instant:
        t_start = t_end = HALF_REVIVAL_LAMT
        n_samples = 1
    else:
        t_start, t_end, n_samples = 0.0, s["t_end"], s["n_samples"]
    lines = [
        f"name = {SCENARIO_NAME}",
        "qg = " + ", ".join(repr(v) for v in qgs),
        f"backend = {workload.backend}",
        "outputs = " + ", ".join(workload.outputs),
        f"t_start = {t_start!r}",
        f"t_end = {t_end!r}",
        f"n_samples = {n_samples}",
        f"n_nodes = {s['n_nodes']}",
        f"qgrid.extent = {QGRID_EXTENT!r}",
        f"qgrid.n = {s['qgrid_n']}",
    ]
    return "\n".join(lines) + "\n"


def problem_size(workload: Workload, qgs: tuple, size: str) -> dict:
    s = SIZES[size]
    return {
        "momentum_nodes_K": s["n_nodes"],
        "fock_levels_nmax_plus_1": NMAX_PLUS_ONE,
        "samples": 1 if workload.single_instant else s["n_samples"],
        "qg_count": len(qgs),
        "qg_values": list(qgs),
        "grid_points": s["qgrid_n"] ** 2 if "qgrid" in workload.outputs else 0,
    }
