"""Command-line front end.

Three subcommands: ``run`` executes a scenario and writes CSV/grid files plus
a run_metadata document, ``crosscheck`` compares the two backends over a
scenario's sweeps and reports (never asserts) their deviation, and
``audit-branches`` ranks the sign/branch variants of the closed-form phase
integral against the quadrature.  ``run`` and ``crosscheck`` take their input
the same way: a scenario file or ``--builtin NAME``.

Standard output carries machine-readable summaries only; progress chatter
goes to standard error.  Floating-point values are serialized with 17
significant digits so a round trip through text is exact.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from importlib import metadata as _im
from pathlib import Path

import numpy as np

from .analytic import (
    BranchAuditError,
    audit_branch_variants,
    branch_states_analytic,
)
from .core import adaptive_nmax, build_momentum_grid, coherent_amplitudes
from .observables import (
    NORM_SLACK,
    OverlapTriple,
    QGridSpec,
    cat_fidelity,
    entropy,
    inversion,
    overlaps,
    q_function,
    q_peak_analysis,
)
from .ode import IntegrationError, branch_states_ode_sweep
from .scenario import (BUILTINS, SNAPSHOT_OUTPUTS, Scenario, ScenarioError, builtin_scenario,
                       parse_scenario, qg_token, serialize_scenario)

EXIT_OK = 0
EXIT_SCENARIO = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _version() -> str:
    try:
        return _im.version("gravjcm")
    except _im.PackageNotFoundError:
        return "unknown"


FMT = "%.17g"


def _fmt(v: float) -> str:
    return FMT % v


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _states_for(sc: Scenario, backend: str, qg: float):
    params = sc.params_for(qg)
    fld = coherent_amplitudes(params.alpha, adaptive_nmax(params.alpha))
    grid = build_momentum_grid(params.sigma0, sc.n_nodes)
    # looked up per call, so wrappers set on this module's names see every sweep
    sweep = branch_states_ode_sweep if backend == "ode" else branch_states_analytic
    return sweep(sc.times_seconds(), params, fld, grid)


def _write_scalar_csv(path: Path, lam_t: np.ndarray, values: np.ndarray) -> None:
    np.savetxt(path, np.column_stack([lam_t, values]), fmt=FMT, delimiter=",",
               header="lambda_t,value", comments="", encoding="utf-8")


def _write_qgrid(base: Path, qg) -> None:
    bx, by = np.meshgrid(qg.x, qg.y)  # rows y, columns x: y-major long form
    np.savetxt(base.with_suffix(".csv"),
               np.column_stack([bx.ravel(), by.ravel(), qg.values.ravel()]),
               fmt=FMT, delimiter=",", header="x,y,q", comments="", encoding="utf-8")
    header = ("rows: y ascending; columns: x ascending\n"
              "x " + " ".join(_fmt(v) for v in qg.x) + "\n"
              "y " + " ".join(_fmt(v) for v in qg.y))
    np.savetxt(base.with_suffix(".matrix.txt"), qg.values, fmt=FMT, header=header,
               encoding="utf-8")


def _write_kv(path: Path, pairs: list) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for k, v in pairs:
            fh.write(f"{k} = {v}\n")


def _write_outputs(sc: Scenario, qg: float, out: Path, prefix: str) -> list:
    """Write one qg sweep's files; its states die on return.

    Raises ValueError, before any write, if a state's norm is NaN or above 1 + NORM_SLACK.
    """
    states = _states_for(sc, sc.backend, qg)
    lam_t = sc.times_scaled()
    ovs = overlaps(states)
    norm = ovs.cc + ovs.dd
    bad = norm[~(norm <= 1.0 + NORM_SLACK)]
    if bad.size:
        raise ValueError(f"branch norm {bad[0]:.6g} exceeds 1 + {NORM_SLACK:g} at qg = {qg:g}")
    written = []
    if "inversion" in sc.outputs:
        path = out / f"{prefix}_inversion.csv"
        _write_scalar_csv(path, lam_t, inversion(ovs))
        written.append(path)
    if "entropy" in sc.outputs:
        path = out / f"{prefix}_entropy.csv"
        _write_scalar_csv(path, lam_t, entropy(ovs).s_f)
        written.append(path)
    if set(SNAPSHOT_OUTPUTS) & set(sc.outputs):
        st = states[-1]
        e = sc.qgrid_extent
        spec = QGridSpec(-e, e, -e, e, sc.qgrid_n, sc.qgrid_n)
        qg_data = q_function(st, spec, sc.params_for(qg))
        if "qgrid" in sc.outputs:
            base = out / f"{prefix}_qgrid"
            _write_qgrid(base, qg_data)
            written.append(base.with_suffix(".csv"))
            written.append(base.with_suffix(".matrix.txt"))
        if "cat_report" in sc.outputs:
            rep = q_peak_analysis(qg_data)
            fid = cat_fidelity(st, sc.params_for(qg))
            path = out / f"{prefix}_cat_report.txt"
            _write_kv(path, [
                ("peaks", rep.count),
                ("bimodal", str(rep.bimodal).lower()),
                ("separation", _fmt(rep.separation)),
                ("height_ratio", _fmt(rep.height_ratio)),
                ("locations", "; ".join(
                    f"{_fmt(z.real)}{z.imag:+.17g}j" for z in rep.locations)),
                ("ansatz_fidelity", _fmt(fid)),
            ])
            written.append(path)
    return written


def _load_scenario(args):
    """(scenario, EXIT_OK) from SCENARIO or --builtin, or (None, exit code)."""
    try:
        if args.builtin:
            return builtin_scenario(args.builtin), EXIT_OK
        return parse_scenario(Path(args.scenario).read_text(encoding="utf-8")), EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return None, EXIT_SCENARIO
    except OSError as exc:
        print(f"i/o error reading scenario: {exc}", file=sys.stderr)
        return None, EXIT_IO


def _cmd_run(args) -> int:
    sc, code = _load_scenario(args)
    if sc is None:
        return code

    out = Path(args.out)
    if not out.is_dir():
        print(f"i/o error: output directory {out} does not exist", file=sys.stderr)
        return EXIT_IO

    meta = [("scenario." + k, v) for k, v in
            (line.split(" = ", 1) for line in serialize_scenario(sc).splitlines())]
    meta += [
        ("version", _version()),
        ("defaults_filled", ", ".join(sc.provenance) or "none"),
    ]

    # every file is staged and moved into --out only once all of them exist and
    # none of their names is taken there, so a failed run leaves --out as it found it
    try:
        with tempfile.TemporaryDirectory(dir=out, ignore_cleanup_errors=True) as tmp:
            stage = Path(tmp)
            written = []
            for qg_val in sc.qg_list:
                _progress(f"running {sc.name}: backend={sc.backend} qg={qg_val:g}")
                written += _write_outputs(sc, qg_val, stage,
                                          f"{sc.name}_{qg_token(qg_val)}")
            meta_path = stage / f"{sc.name}_run_metadata.txt"
            _write_kv(meta_path, meta + [("files", ", ".join(p.name for p in written))])
            staged = written + [meta_path]
            taken = [p.name for p in staged if (out / p.name).exists()]
            if taken:
                print(f"i/o error: {out} already holds {', '.join(taken)}; "
                      "nothing was written", file=sys.stderr)
                return EXIT_IO
            for path in staged:
                path.replace(out / path.name)
    except (IntegrationError, ValueError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(written) + 1} files to {out}")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    sc, code = _load_scenario(args)
    if sc is None:
        return code
    for qg_val in sc.qg_list:
        _progress(f"crosscheck {sc.name}: qg={qg_val:g}")
        try:
            # only one sweep's states are alive at a time
            ovs_o = overlaps(_states_for(sc, "ode", qg_val))
            ovs_a = overlaps(_states_for(sc, "analytic", qg_val))
            # the closed form does not conserve the norm; entropy is compared on renormalized
            # overlaps, cd divided part by part (numpy's complex / real rounds 1 / ta first)
            ta = ovs_a.cc + ovs_a.dd
            oa_n = OverlapTriple(cc=ovs_a.cc / ta, dd=ovs_a.dd / ta,
                                 cd=ovs_a.cd.real / ta + 1j * (ovs_a.cd.imag / ta))
            dev_norm = np.max(np.abs(ta - 1.0))
            dev_w = np.max(np.abs(inversion(ovs_o) - inversion(ovs_a)))
            dev_s = np.max(np.abs(entropy(ovs_o).s_f - entropy(oa_n).s_f))
        except (IntegrationError, ValueError, OverflowError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(
            f"crosscheck qg={_fmt(qg_val)} tmax={_fmt(sc.time_spec.t_end)} "
            f"max_dW={_fmt(dev_w)} max_dS={_fmt(dev_s)} max_dnorm={_fmt(dev_norm)}"
        )
    return EXIT_OK


def _cmd_audit(args) -> int:
    try:
        audit = audit_branch_variants()
    except BranchAuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"winner_variant = {audit['winner']}")
    print(f"winner_residual = {_fmt(audit['winner_residual'])}")
    print(f"runner_up_residual = {_fmt(audit['runner_up_residual'])}")
    for i, r in enumerate(audit["residuals"]):
        print(f"variant_{i}_residual = {_fmt(r)}")
    print(f"matches_pinned = {str(audit['matches_selected']).lower()}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravjcm",
        description="Jaynes-Cummings dynamics of a falling atom: "
                    "inversion, field entropy, Husimi Q, cat diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("run", _cmd_run, "execute a scenario and write CSV outputs"),
        ("crosscheck", _cmd_crosscheck,
         "compare the analytic and time-ordered backends over a scenario's "
         "sweeps; one summary line per qg on stdout"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("scenario", nargs="?", help="path to a scenario file")
        src.add_argument("--builtin", choices=tuple(BUILTINS),
                         help="use a canonical figure scenario")
        if name == "run":
            p.add_argument("--out", required=True, help="existing output directory")
        p.set_defaults(func=func)

    p_audit = sub.add_parser("audit-branches",
                             help="rank closed-form branch variants against quadrature")
    p_audit.set_defaults(func=_cmd_audit)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_SCENARIO if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
