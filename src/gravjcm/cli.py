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
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    # looked up per call, so wrappers set on this module's names see every sweep
    sweep = branch_states_ode_sweep if backend == "ode" else branch_states_analytic
    return sweep(sc.times_seconds(), sc.params_for(qg), w, grid)


def _write_scalar_csv(path: Path, lam_t: np.ndarray, values: np.ndarray) -> None:
    np.savetxt(path, np.column_stack([lam_t, values]), fmt=FMT, delimiter=",",
               header="lambda_t,value", comments="", encoding="utf-8")


QGRID_SUFFIXES = (".csv", ".matrix.txt")  # long form, matrix form


def _write_qgrid(base: Path, grid) -> None:
    """Write a Q grid as BASE.csv (``x,y,q`` lines, y-major) and BASE.matrix.txt.

    Each distinct value is formatted once with FMT: the axis labels up front,
    each row's Q values by one ``%`` of a row format as that row is reached.
    The long form's lines come from one template with the x labels built in,
    filled per row with y and the row's Q strings.  Both files are streamed
    row by row; the text is what ``np.savetxt`` with FMT writes, byte for
    byte, without a whole-grid buffer.
    """
    xs = [_fmt(v) for v in grid.x.tolist()]
    ys = [_fmt(v) for v in grid.y.tolist()]
    row_fmt = " ".join([FMT] * len(xs))
    long_row = "".join(f"{x},%s,%s\n" for x in xs)  # each line's y, then its q
    fields = [None] * (2 * len(xs))
    long_path, matrix_path = (base.with_name(base.name + s) for s in QGRID_SUFFIXES)
    with long_path.open("w", encoding="utf-8") as long_fh, \
            matrix_path.open("w", encoding="utf-8") as matrix_fh:
        long_fh.write("x,y,q\n")
        matrix_fh.write("# rows: y ascending; columns: x ascending\n"
                        f"# x {' '.join(xs)}\n# y {' '.join(ys)}\n")
        for y, row in zip(ys, grid.values):
            qline = row_fmt % tuple(row.tolist())
            fields[0::2] = [y] * len(xs)
            fields[1::2] = qline.split(" ")
            long_fh.write(long_row % tuple(fields))
            matrix_fh.write(qline + "\n")


def _write_kv(path: Path, pairs: list) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for k, v in pairs:
            fh.write(f"{k} = {v}\n")


def _sweep_files(sc: Scenario, qg: float) -> dict:
    """Each of sc's outputs mapped to the names of the files one qg sweep writes for it.

    Outputs and names are in writing order: NAME_TAG_inversion.csv,
    NAME_TAG_entropy.csv, the Q grid's NAME_TAG_qgrid plus QGRID_SUFFIXES,
    NAME_TAG_cat_report.txt.
    """
    prefix = f"{sc.name}_{qg_token(qg)}_"
    files = {"inversion": ["inversion.csv"], "entropy": ["entropy.csv"],
             "qgrid": ["qgrid" + s for s in QGRID_SUFFIXES], "cat_report": ["cat_report.txt"]}
    return {o: [prefix + f for f in fs] for o, fs in files.items() if o in sc.outputs}


def _refuse_taken(out: Path, names: list) -> bool:
    """Report the names out already holds, if any; True if it holds one."""
    taken = [n for n in names if (out / n).exists()]
    if taken:
        print(f"i/o error: {out} already holds {', '.join(taken)}; "
              "nothing was written", file=sys.stderr)
    return bool(taken)


def _write_outputs(sc: Scenario, qg: float, out: Path) -> None:
    """Write one qg sweep's files (named by _sweep_files) into out.

    The sweep holds each sample's overlaps per momentum node and the amplitudes of its last
    instant, which Q and the cat report read.  Raises ValueError, before any write, if a
    sample's norm is NaN or above 1 + NORM_SLACK.
    """
    sweep = _states_for(sc, sc.backend, qg)
    lam_t = sc.times_scaled()
    cc, dd, cd = overlaps(sweep)
    norm = cc + dd
    bad = norm[~(norm <= 1.0 + NORM_SLACK)]
    if bad.size:
        raise ValueError(f"branch norm {bad[0]:.6g} exceeds 1 + {NORM_SLACK:g} at qg = {qg:g}")
    # each output's first file; the Q grid's two files share its stem
    files = {o: out / fs[0] for o, fs in _sweep_files(sc, qg).items()}
    if "inversion" in files:
        _write_scalar_csv(files["inversion"], lam_t, inversion(cc, dd))
    if "entropy" in files:
        _write_scalar_csv(files["entropy"], lam_t, entropy(cc, dd, cd).s_f)
    if set(SNAPSHOT_OUTPUTS) & set(files):
        st = sweep[-1]
        qg_data = q_function(st, sc.qgrid_spec(), sc.alpha)
        if "qgrid" in files:
            _write_qgrid(files["qgrid"].with_suffix(""), qg_data)
        if "cat_report" in files:
            rep = q_peak_analysis(qg_data)
            fid = cat_fidelity(st, sc.alpha)
            _write_kv(files["cat_report"], [
                ("peaks", rep.count),
                ("bimodal", str(rep.bimodal).lower()),
                ("separation", _fmt(rep.separation)),
                ("height_ratio", _fmt(rep.height_ratio)),
                ("locations", "; ".join(
                    f"{_fmt(z.real)}{z.imag:+.17g}j" for z in rep.locations)),
                ("ansatz_fidelity", _fmt(fid)),
            ])


def _load_scenario(args):
    """(scenario, EXIT_OK) from SCENARIO or --builtin, or (None, exit code)."""
    try:
        if args.builtin:
            return builtin_scenario(args.builtin), EXIT_OK
        return parse_scenario(Path(args.scenario).read_text(encoding="utf-8-sig")), EXIT_OK
    except (ScenarioError, UnicodeDecodeError) as exc:
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

    # a used --out is refused before any work; every file is staged and moved into
    # --out only once all of them exist, so a failed run leaves --out as it found it
    names = [f for qg in sc.qg_list for fs in _sweep_files(sc, qg).values() for f in fs]
    names.append(f"{sc.name}_run_metadata.txt")
    if _refuse_taken(out, names):
        return EXIT_IO
    try:
        with tempfile.TemporaryDirectory(dir=out, ignore_cleanup_errors=True) as tmp:
            stage = Path(tmp)
            for qg_val in sc.qg_list:
                _progress(f"running {sc.name}: backend={sc.backend} qg={qg_val:g}")
                _write_outputs(sc, qg_val, stage)
            _write_kv(stage / names[-1], meta + [("files", ", ".join(names[:-1]))])
            if _refuse_taken(out, names):  # a file that appeared during the run
                return EXIT_IO
            for name in names:
                (stage / name).replace(out / name)
    except (IntegrationError, ValueError, OverflowError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(names)} files to {out}")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    sc, code = _load_scenario(args)
    if sc is None:
        return code
    for qg_val in sc.qg_list:
        _progress(f"crosscheck {sc.name}: qg={qg_val:g}")
        try:
            cc_o, dd_o, cd_o = overlaps(_states_for(sc, "ode", qg_val))
            cc_a, dd_a, cd_a = overlaps(_states_for(sc, "analytic", qg_val))
            # the closed form does not conserve the norm; entropy is compared on renormalized
            # overlaps, cd divided part by part (numpy's complex / real rounds 1 / ta first)
            ta = cc_a + dd_a
            dev_norm = np.max(np.abs(ta - 1.0))
            dev_w = np.max(np.abs(inversion(cc_o, dd_o) - inversion(cc_a, dd_a)))
            s_a = entropy(cc_a / ta, dd_a / ta, cd_a.real / ta + 1j * (cd_a.imag / ta)).s_f
            dev_s = np.max(np.abs(entropy(cc_o, dd_o, cd_o).s_f - s_a))
        except (IntegrationError, ValueError, OverflowError, MemoryError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(
            f"crosscheck qg={_fmt(qg_val)} tmax={_fmt(sc.t_end)} "
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
