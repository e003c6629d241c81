"""Declarative experiment descriptions.

A Scenario bundles the physical parameters, the gravity values to scan, the
time sweep, the backend choice, and the requested outputs, decoupled from the
numerics.  The user-facing time unit is the scaled time lam*t everywhere (the
figures' horizontal axis); conversion to seconds happens exactly once, in
``times_seconds``.

The text format is flat ``key = value`` lines, UTF-8, with ``#`` comments.
Unknown keys are hard errors.  Keys left out take the canonical defaults of
the reference experiment; each default fill is echoed in the provenance log.
The builtin figures are override documents that go through the same parser.

Validation is complete here: every input rule is checked when a Scenario is
built, so a run that starts never fails on its input.  Rules whose bound
belongs to a numerical layer (the Q window, the coherent amplitudes' sum,
the cat ansatz's norm) call that layer's own check, so each bound is
written once.  The Fock cutoff is no input: ``adaptive_nmax`` derives it from alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import PhysicalParams, adaptive_nmax, coherent_amplitudes, paper_defaults
from .observables import cat_ansatz, check_q_window

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


def _layer_check(key: str, check, *args) -> None:
    """Run a numerical layer's own argument check as a scenario rule."""
    try:
        check(*args)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: {exc}") from exc


@dataclass(frozen=True)
class TimeSpec:
    """Sweep of the scaled time lam*t; a single instant is t_start == t_end."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.t_start < 0:
            raise ScenarioError("t_start must be >= 0")
        if self.t_end == self.t_start:
            if self.n_samples != 1:
                raise ScenarioError("a single-instant sweep needs n_samples = 1")
        elif self.t_end < self.t_start:
            raise ScenarioError("t_end must exceed t_start")
        elif self.n_samples < 2:
            raise ScenarioError("a time sweep needs n_samples >= 2")


@dataclass(frozen=True)
class Scenario:
    """Immutable run description; shared freely once built."""

    name: str
    params: PhysicalParams
    qg_list: tuple
    time_spec: TimeSpec
    backend: str
    outputs: tuple
    qgrid_extent: float
    qgrid_n: int
    n_nodes: int
    provenance: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name or self.name.startswith(".") or set("/\\") & set(self.name):
            raise ScenarioError(
                "name must be a plain file-name stem (no path separator, "
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
        bad = [o for o in self.outputs if o not in VALID_OUTPUTS]
        if bad:
            raise ScenarioError(f"unknown outputs {bad}; valid: {VALID_OUTPUTS}")
        if not self.outputs:
            raise ScenarioError("outputs must be non-empty")
        if self.qgrid_extent <= 0 or self.qgrid_n < 3:
            raise ScenarioError("qgrid needs positive extent and n >= 3")
        if set(SNAPSHOT_OUTPUTS) & set(self.outputs):
            if self.time_spec.n_samples != 1:
                raise ScenarioError(
                    "qgrid and cat_report outputs require a single-instant time spec"
                )
            _layer_check("qgrid.extent", check_q_window, self.qgrid_extent,
                         self.params.alpha)
        if self.n_nodes < 1:
            raise ScenarioError("n_nodes must be >= 1")
        alpha = self.params.alpha
        nmax = adaptive_nmax(alpha)
        _layer_check("alpha", coherent_amplitudes, alpha, nmax)
        if "cat_report" in self.outputs:
            _layer_check("alpha", cat_ansatz, alpha, nmax + 2)  # a state's Fock levels

    def times_scaled(self) -> np.ndarray:
        ts = self.time_spec
        if ts.n_samples == 1:
            return np.array([ts.t_start])
        return np.linspace(ts.t_start, ts.t_end, ts.n_samples)

    def times_seconds(self) -> np.ndarray:
        """The single lam*t -> seconds conversion point."""
        return self.times_scaled() / self.params.lam

    def params_for(self, qg: float) -> PhysicalParams:
        return replace(self.params, qg=qg)


_DEFAULTS = {
    "name": "custom",
    "omega_rec": "0.5e6",
    "lam": "1e6",
    "delta0": "8.5e7",
    "sigma0": "1.0",
    "alpha": "5.0",
    "qg": "0, 0.5e7, 1.5e7",
    "t_start": "0.0",
    "t_end": "25.0",
    "n_samples": "2000",
    "backend": "ode",
    "outputs": "inversion, entropy",
    "qgrid.extent": "9.0",
    "qgrid.n": "201",
    "n_nodes": "32",
}


def _number(kv: dict, key: str) -> float:
    try:
        val = float(kv[key])
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number ({kv[key]!r})") from exc
    if not math.isfinite(val):
        raise ScenarioError(f"key {key!r}: not finite ({kv[key]!r})")
    return val


def _count(kv: dict, key: str) -> int:
    val = _number(kv, key)
    if not val.is_integer():
        raise ScenarioError(f"key {key!r}: not an integer ({kv[key]!r})")
    return int(val)


def _build(kv: dict, filled_defaults: list) -> Scenario:
    """Convert the merged key -> text map into a validated Scenario."""
    try:
        qg_list = tuple(float(tok) for tok in kv["qg"].split(",") if tok.strip())
    except ValueError as exc:
        raise ScenarioError(f"key 'qg': not a list of numbers ({kv['qg']!r})") from exc
    try:
        alpha = complex(kv["alpha"].replace("i", "j"))
    except ValueError as exc:
        raise ScenarioError(f"key 'alpha': not a number ({kv['alpha']!r})") from exc
    rates = {k: _number(kv, k) for k in ("omega_rec", "lam", "delta0", "sigma0")}
    try:
        params = paper_defaults(qg=qg_list[0] if qg_list else 0.0, alpha=alpha, **rates)
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(str(exc)) from exc
    return Scenario(
        name=kv["name"],
        params=params,
        qg_list=qg_list,
        time_spec=TimeSpec(
            t_start=_number(kv, "t_start"),
            t_end=_number(kv, "t_end"),
            n_samples=_count(kv, "n_samples"),
        ),
        backend=kv["backend"],
        outputs=tuple(dict.fromkeys(
            tok.strip() for tok in kv["outputs"].split(",") if tok.strip()
        )),
        qgrid_extent=_number(kv, "qgrid.extent"),
        qgrid_n=_count(kv, "qgrid.n"),
        n_nodes=_count(kv, "n_nodes"),
        provenance=tuple(sorted(filled_defaults)),
    )


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
        if key not in _DEFAULTS:
            raise ScenarioError(
                f"line {line_no}: unknown key {key!r} "
                f"(valid keys: {', '.join(sorted(_DEFAULTS))})"
            )
        if key in kv:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        if not val:
            raise ScenarioError(f"line {line_no}: empty value for {key!r}")
        kv[key] = val
    filled = [k for k in _DEFAULTS if k not in kv]
    return _build({**_DEFAULTS, **kv}, filled)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) reproduces sc exactly."""
    alpha = sc.params.alpha
    alpha_txt = repr(alpha.real) if alpha.imag == 0 else repr(alpha).strip("()")
    lines = [
        f"name = {sc.name}",
        f"omega_rec = {sc.params.omega_rec!r}",
        f"lam = {sc.params.lam!r}",
        f"delta0 = {sc.params.delta0!r}",
        f"sigma0 = {sc.params.sigma0!r}",
        f"alpha = {alpha_txt}",
        "qg = " + ", ".join(repr(v) for v in sc.qg_list),
        f"t_start = {sc.time_spec.t_start!r}",
        f"t_end = {sc.time_spec.t_end!r}",
        f"n_samples = {sc.time_spec.n_samples}",
        f"backend = {sc.backend}",
        "outputs = " + ", ".join(sc.outputs),
        f"qgrid.extent = {sc.qgrid_extent!r}",
        f"qgrid.n = {sc.qgrid_n}",
        f"n_nodes = {sc.n_nodes}",
    ]
    return "\n".join(lines) + "\n"


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
