"""Jaynes-Cummings dynamics of a moving two-level atom under gravity.

Two independent backends (closed-form and time-ordered integration) compute
the branch amplitudes; observables derive the atomic inversion, the field
entropy, the Husimi Q-function, and cat-state diagnostics from them.
"""

__version__ = "0.1.0"
