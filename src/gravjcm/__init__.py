"""Jaynes-Cummings dynamics of a moving two-level atom under gravity.

Two independent backends (closed-form and time-ordered integration) compute
the branch amplitudes; observables derive the atomic inversion, the field
entropy, the Husimi Q-function, and cat-state diagnostics from them.
"""

from .core import (
    BranchState,
    CoherentField,
    MomentumGrid,
    PhysicalParams,
    TruncationError,
    adaptive_nmax,
    build_momentum_grid,
    coherent_amplitudes,
    paper_defaults,
)
from .analytic import (
    BranchCoeffs,
    PhaseIntegrals,
    audit_branch_variants,
    branch_coeffs,
    branch_states_analytic,
    detuning0_of_p,
    phase_integral_closed,
    phase_integral_elementary,
    phase_integral_quadrature,
)
from .ode import IntegrationError, branch_states_ode_sweep
from .observables import (
    EntropyPair,
    OverlapTriple,
    QGrid,
    QGridSpec,
    QPeakReport,
    cat_fidelity,
    entropy,
    inversion,
    overlaps,
    q_function,
    q_peak_analysis,
)
from .scenario import Scenario, ScenarioError, builtin_scenario, parse_scenario, serialize_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
