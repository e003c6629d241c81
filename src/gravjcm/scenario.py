"""Declarative experiment descriptions.

A Scenario is one flat record of the document's keys: the physical
parameters, the gravity values to scan, the time sweep, the backend choice,
and the requested outputs, decoupled from the numerics.  The user-facing
time unit is the scaled time lam*t everywhere (the figures' horizontal axis);
conversion to seconds happens exactly once, in ``times_seconds``.

The text format is flat ``key = value`` lines, UTF-8, with ``#`` comments.
One table, ``KEYS``, gives each key its field, default, reader and writer.
Unknown keys are hard errors.  Keys left out take the canonical defaults of
the reference experiment (the Hamiltonian constants from ``paper_defaults``);
each default fill is echoed in the provenance log.
The builtin figures are override documents that go through the same parser.

Validation is complete here: every input rule is checked when a Scenario is
built, so a run that starts never fails on its input.  Rules whose bound
belongs to a numerical layer (the Hamiltonian constants, sigma0, a finite
|alpha|^2, the coherent amplitudes' sum, distinct sample times in seconds,
the Q window and grid, the cat ansatz's norm)
call that layer's own check, so each bound is written once.  The Fock cutoff
is no input: ``adaptive_nmax`` derives it from alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (PhysicalParams, adaptive_nmax, build_momentum_grid, check_times,
                   coherent_amplitudes, paper_defaults)
from .observables import QGridSpec, cat_ansatz, check_q_window

VALID_BACKENDS = ("ode", "analytic")
VALID_OUTPUTS = ("inversion", "entropy", "qgrid", "cat_report")
# outputs taken from one state, so they need a single-instant time spec
SNAPSHOT_OUTPUTS = ("qgrid", "cat_report")

FIG3_LAMT = 7.0 * math.pi / 2.0


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


def qg_token(qg: float) -> str:
    """File tag of a gravity value (``qg0``, ``qg5e06``, ``qg1p5e07``)."""
    return ("qg%g" % qg).replace("+", "").replace("-", "m").replace(".", "p")


def _layer_check(key: str, check, *args):
    """Run a numerical layer's own argument check as a scenario rule; returns its result.

    An array too large to allocate is a scenario error too.
    """
    try:
        return check(*args)
    except (ValueError, MemoryError) as exc:
        raise ScenarioError(f"key {key!r}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """Immutable run description, one field per document key; shared freely once built."""

    name: str
    omega_rec: float
    lam: float
    delta0: float
    sigma0: float
    alpha: complex
    qg_list: tuple
    t_start: float  # scaled time lam*t; a single instant is t_start == t_end
    t_end: float
    n_samples: int
    backend: str
    outputs: tuple
    qgrid_extent: float
    qgrid_n: int
    n_nodes: int
    provenance: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name or self.name.startswith(".") or set("/\\\0") & set(self.name):
            raise ScenarioError(
                "name must be a plain file-name stem (no path separator or NUL, "
                f"no leading '.'), got {self.name!r}"
            )
        if self.backend not in VALID_BACKENDS:
            raise ScenarioError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        if not self.qg_list:
            raise ScenarioError("qg_list must be non-empty")
        if not all(0 <= v < math.inf for v in self.qg_list):
            raise ScenarioError("qg values must be finite and >= 0")
        tags = [qg_token(v) for v in self.qg_list]
        if len(set(self.qg_list)) < len(tags) or len(set(tags)) < len(tags):
            raise ScenarioError(
                "qg values must be distinct and give distinct file tags, got "
                f"{', '.join(map(repr, self.qg_list))} -> {', '.join(tags)}"
            )
        try:
            self.params_for(self.qg_list[0])
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        # the grid's two rules apart: n_nodes at sigma0 = 1, sigma0 at one node
        _layer_check("n_nodes", build_momentum_grid, 1.0, self.n_nodes)
        _layer_check("sigma0", build_momentum_grid, self.sigma0, 1)
        nmax = _layer_check("alpha", adaptive_nmax, self.alpha)
        _layer_check("alpha", coherent_amplitudes, self.alpha, nmax)
        if self.t_start < 0:
            raise ScenarioError("t_start must be >= 0")
        if self.t_end == self.t_start:
            if self.n_samples != 1:
                raise ScenarioError("a single-instant sweep needs n_samples = 1")
        elif self.t_end < self.t_start:
            raise ScenarioError("t_end must exceed t_start")
        elif self.n_samples < 2:
            raise ScenarioError("a time sweep needs n_samples >= 2")
        seconds = _layer_check("n_samples", self.times_seconds)
        if not math.isfinite(seconds[-1]):  # t_end is finite: lam overflowed it
            raise ScenarioError(
                f"key 'lam': t_end / lam = {self.t_end!r} / {self.lam!r} is beyond the "
                "largest float64 in seconds; lower t_end or raise lam"
            )
        _layer_check("n_samples", check_times, seconds)
        bad = [o for o in self.outputs if o not in VALID_OUTPUTS]
        if bad:
            raise ScenarioError(f"unknown outputs {bad}; valid: {VALID_OUTPUTS}")
        if not self.outputs:
            raise ScenarioError("outputs must be non-empty")
        spec = _layer_check("qgrid", self.qgrid_spec)
        if set(SNAPSHOT_OUTPUTS) & set(self.outputs):
            if self.n_samples != 1:
                raise ScenarioError(
                    "qgrid and cat_report outputs require a single-instant time spec"
                )
            _layer_check("qgrid.extent", check_q_window, self.qgrid_extent, self.alpha)
            _layer_check("qgrid.n", np.empty, (spec.ny, spec.nx))  # the grid's Q values
        if "cat_report" in self.outputs:
            _layer_check("alpha", cat_ansatz, self.alpha, nmax + 2)  # a state's Fock levels

    def times_scaled(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)

    def times_seconds(self) -> np.ndarray:
        """The single lam*t -> seconds conversion point; an overflow gives inf, not a warning."""
        with np.errstate(over="ignore"):
            return self.times_scaled() / self.lam

    def qgrid_spec(self) -> QGridSpec:
        """The Q window: qgrid.n points per axis on [-qgrid.extent, qgrid.extent]."""
        e = self.qgrid_extent
        return QGridSpec(-e, e, -e, e, self.qgrid_n, self.qgrid_n)

    def params_for(self, qg: float) -> PhysicalParams:
        """The model's Hamiltonian constants at gravity value qg."""
        return PhysicalParams(qg=qg, lam=self.lam, omega_rec=self.omega_rec, delta0=self.delta0)


def _text(key: str, text: str) -> str:
    return text


def _number(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number ({text!r})") from exc
    if not math.isfinite(val):
        raise ScenarioError(f"key {key!r}: not finite ({text!r})")
    return val


def _count(key: str, text: str) -> int:
    val = _number(key, text)
    if not val.is_integer():
        raise ScenarioError(f"key {key!r}: not an integer ({text!r})")
    return int(val)


def _complex(key: str, text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number ({text!r})") from exc


def _numbers(key: str, text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a list of numbers ({text!r})") from exc


def _names(key: str, text: str) -> tuple:
    """Comma-separated names, duplicates dropped in first-seen order."""
    return tuple(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))


def _write_complex(z: complex) -> str:
    return repr(z.real) if z.imag == 0 else repr(z).strip("()")


def _write_list(values: tuple) -> str:
    return ", ".join(map(str, values))


_PAPER = paper_defaults()

# Document key -> (Scenario field, default text, reader, canonical writer), in
# canonical order.  A reader takes (key, text) and raises ScenarioError; str
# writes a float as repr does, so the text reads back exactly.
KEYS = {
    "name": ("name", "custom", _text, str),
    "omega_rec": ("omega_rec", str(_PAPER.omega_rec), _number, str),
    "lam": ("lam", str(_PAPER.lam), _number, str),
    "delta0": ("delta0", str(_PAPER.delta0), _number, str),
    "sigma0": ("sigma0", "1.0", _number, str),
    "alpha": ("alpha", "5.0", _complex, _write_complex),
    "qg": ("qg_list", "0, 0.5e7, 1.5e7", _numbers, _write_list),
    "t_start": ("t_start", "0.0", _number, str),
    "t_end": ("t_end", "25.0", _number, str),
    "n_samples": ("n_samples", "2000", _count, str),
    "backend": ("backend", "ode", _text, str),
    "outputs": ("outputs", "inversion, entropy", _names, _write_list),
    "qgrid.extent": ("qgrid_extent", "9.0", _number, str),
    "qgrid.n": ("qgrid_n", "201", _count, str),
    "n_nodes": ("n_nodes", "32", _count, str),
}


def parse_scenario(text: str) -> Scenario:
    """Parse a flat key = value document into a validated Scenario.

    Unspecified keys take the reference-experiment defaults; every
    default-filled key lands in Scenario.provenance.  Unknown keys raise.
    """
    kv = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(
                f"line {line_no}: expected 'key = value', got {raw!r}"
            )
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEYS:
            raise ScenarioError(
                f"line {line_no}: unknown key {key!r} "
                f"(valid keys: {', '.join(sorted(KEYS))})"
            )
        if key in kv:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        if not val:
            raise ScenarioError(f"line {line_no}: empty value for {key!r}")
        kv[key] = val
    values = {attr: read(key, kv.get(key, default))
              for key, (attr, default, read, _) in KEYS.items()}
    return Scenario(**values, provenance=tuple(sorted(k for k in KEYS if k not in kv)))


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) reproduces sc exactly."""
    return "".join(f"{key} = {write(getattr(sc, attr))}\n"
                   for key, (attr, _, _, write) in KEYS.items())


# override documents of the canonical figure scenarios
BUILTINS = {
    "fig1": "name = fig1\noutputs = inversion\n",
    "fig2": "name = fig2\noutputs = entropy\n",
    "fig3": (
        "name = fig3\noutputs = qgrid, cat_report\n"
        f"t_start = {FIG3_LAMT!r}\nt_end = {FIG3_LAMT!r}\n"
        "n_samples = 1\n"
    ),
}


def builtin_scenario(name: str) -> Scenario:
    """Canonical figure scenario, parsed from its override document.

    fig1: inversion sweep, lam*t in [0, 25], 2000 samples, all three qg.
    fig2: same sweep, entropy output.
    fig3: single instant lam*t = 7 pi / 2, the figure's snapshot time, Q grid
    and cat report, all three qg.
    """
    if name not in BUILTINS:
        raise ScenarioError(
            f"unknown builtin {name!r}; valid names: {', '.join(sorted(BUILTINS))}"
        )
    return parse_scenario(BUILTINS[name])
