"""Command-line front end.

Three subcommands: ``run`` executes a scenario and writes CSV/grid files plus
a run_metadata document, ``crosscheck`` compares the two backends over a
scenario's sweeps and reports (never asserts) their deviation, and
``audit-branches`` ranks the sign/branch variants of the closed-form phase
integral against the quadrature.  ``run`` and ``crosscheck`` take their input
the same way: a scenario file or ``--builtin NAME``.

Standard output carries machine-readable summaries only; progress chatter
goes to standard error.  Floating-point values are serialized with 17
significant digits (``FMT``) so a round trip through text is exact.  The CSV
and Q-grid files format whole blocks of values with numpy (``_cells``), byte
for byte what one ``FMT % v`` per value writes; a non-finite value is refused.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    BranchAuditError,
    audit_branch_variants,
    branch_states_analytic,
)
from .core import BranchState, adaptive_nmax, build_momentum_grid, coherent_amplitudes
from .observables import (
    NORM_SLACK,
    QGrid,
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


FMT = "%.17g"


def _fmt(v: float) -> str:
    return FMT % v


# --- FMT for whole arrays ---------------------------------------------------
# '%.17g' % v costs ~1.5 us a value (CPython's dtoa takes its bignum path for 17
# digits), and a Q grid is 160 801 of them.  _cells writes the same bytes with a
# fixed number of numpy passes over a block of values.

# 10^k for k in _K_LO.._K_HI (every 16 - E of a finite double, +-1) as
# (hi + lo) 2^ex: hi in [1, 2) holds 53 bits, lo the next 53, truncated
_K_LO, _K_HI = -294, 342
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves


def _pow10_table():
    rows, exps = np.empty((_K_HI + 1 - _K_LO, 4)), np.empty(_K_HI + 1 - _K_LO, np.int32)
    for i, k in enumerate(range(_K_LO, _K_HI + 1)):
        p = 10 ** abs(k)
        ex = p.bit_length() - 1 if k >= 0 else -p.bit_length()
        # floor(10^k 2^(105 - ex)), 106 bits
        if k < 0:
            t = (1 << (105 - ex)) // p
        else:
            t = p << (105 - ex) if ex <= 105 else p >> (ex - 105)
        hi = (t >> 53) / (1 << 52)
        c = hi * _SPLIT
        hh = c - (c - hi)
        rows[i] = hi, hh, hi - hh, (t & ((1 << 53) - 1)) / (1 << 105)
        exps[i] = ex
    return rows, exps


_POW10, _POW10_EXP = _pow10_table()


def _scaled(m: np.ndarray, e2: np.ndarray, i: np.ndarray):
    """m 2^e2 10^(_K_LO + i) as a double-double (hi, lo), relative error < 2^-102.

    m * (hi + lo) by Dekker's two-product (numpy has no fused multiply-add) and
    a fast two-sum; the power of two is applied exactly by ldexp.
    """
    b, bh, bl, bo = np.take(_POW10, i, axis=0).T
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    p = m * b
    t = (((mh * bh - p) + mh * bl + ml * bh) + ml * bl) + m * bo
    s = p + t
    ex = e2 + np.take(_POW10_EXP, i)
    return np.ldexp(s, ex), np.ldexp(t - (s - p), ex)


def _digits17(v: np.ndarray):
    """(N, E) of finite float64 v: the digits and exponent '%.16e' % v prints.

    N is the int64 of the 17 correctly rounded significant digits, in
    [1e16, 1e17), and 0 for +-0 (whose E is 0).  |v| 10^(16 - E) is formed in
    double-double, within 2^-45 below 1e17, and rounded by its fraction; a
    fraction within 1e-9 of 1/2 (an exact tie, or too close to tell) takes its
    digits from '%.16e' % v.
    """
    a = np.abs(v)
    zero = a == 0
    a[zero] = 1.0  # any finite stand-in: N and E of a zero are set at the end
    m, e2 = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int32)
    sh, sl = _scaled(m, e2, (16 - _K_LO) - E)
    # log10 rounds: E can be one off near a power of ten
    off = (sh < 1e16) | ((sh == 1e16) & (sl < 0)) | (sh >= 1e17)
    if off.any():
        E[off] += np.where(sh[off] >= 1e17, 1, -1).astype(np.int32)
        sh[off], sl[off] = _scaled(m[off], e2[off], (16 - _K_LO) - E[off])
    fl = np.floor(sl)  # sh >= 1e16 > 2^53 is an integer
    frac = sl - fl
    N = sh.astype(np.int64) + fl.astype(np.int64) + (frac > 0.5)
    for i in np.flatnonzero(np.abs(frac - 0.5) < 1e-9):
        digits, _, exp = ("%.16e" % a[i]).partition("e")
        N[i], E[i] = int(digits.replace(".", "")), int(exp)
    up = N == 10 ** 17  # rounded up to the next power of ten
    N[up] = 10 ** 16
    E[up] += 1
    N[zero] = 0
    E[zero] = 0
    return N, E


# A cell is four uint64 words, read as 32 little-endian bytes (so a left shift by
# 8 moves each byte to the next address); a 0 byte is no character:
#   word 0: sign, then "0." and zeros for fixed notation below 1
#   words 1-3: the 17 digits with their '.' in bytes 0..17, then "e+dd" or
#   "e-ddd" in bytes 18..22, and the separator in byte 31
_CELL = 32


def _words(strings: list, at: int) -> np.ndarray:
    """uint64 words holding ASCII strings of <= 8 - at bytes from byte at, 0-padded."""
    return np.frombuffer(b"".join((b"\0" * at + s.encode()).ljust(8, b"\0") for s in strings),
                         "<u8").astype(np.uint64)


def _ascii4() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as the low 4 bytes of a word."""
    d = np.arange(100, dtype=np.uint32)
    two = (d // 10 + 48) | ((d % 10 + 48) << 8)
    return (two[:, None] | (two << 16)).ravel().astype(np.uint64)


_T4 = _ascii4()
# E + 324 -> the exponent at bytes 2.. of word 3; none where E is written in fixed notation
_EXP_WORDS = _words(["" if -4 <= e < 17 else f"e{e:+03d}" for e in range(-324, 309)], at=2)


def _layout_table() -> np.ndarray:
    """Row (clip(E, -5, 17) + 5) * 18 + last + 1 -> 10 words for a cell.

    last is the index of the last nonzero digit (-1 for 0).  The words are the
    head, then for words 1-3 the masks of the digits before the '.', of the
    digits after it (read shifted one byte up), and the '.' itself.  %g writes
    fixed notation for -4 <= E < 17, drops trailing zeros after the point and a
    bare point.
    """
    e, last = np.divmod(np.arange(23 * 18), 18)
    e, last = e - 5, last - 1
    below_one = (e >= -4) & (e < 0)
    point = np.where(below_one, 17, np.where((e >= 0) & (e < 17), e + 1, 1))  # digits before it
    keep = np.where(below_one, last + 1, np.where(last >= point, last + 2, point))
    j = np.arange(24)
    before = j < np.minimum(point, keep)[:, None]
    after = (j > point[:, None]) & (j < keep[:, None])
    dot = (j == point[:, None]) & (j < keep[:, None])
    heads = _words(["", "0.", "0.0", "0.00", "0.000"], at=1)[np.where(below_one, -e, 0)]
    masks = [(mask * fill).astype(np.uint8).view("<u8").astype(np.uint64)
             for mask, fill in ((before, 255), (after, 255), (dot, 46))]
    return np.column_stack([heads, *masks])


_LAYOUT = _layout_table()


def _cells(v, sep: str) -> np.ndarray:
    """(v.size, _CELL) uint8: each value of v as FMT writes it, 0-padded, then sep.

    Raises ValueError on a non-finite value.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if not np.isfinite(v).all():
        raise ValueError("only finite values are written")
    N, E = _digits17(v)
    hi8 = N // 10 ** 9  # digits 0..7
    lo9 = N - hi8 * 10 ** 9
    mid8 = lo9 // 10  # digits 8..15
    d16 = lo9 - mid8 * 10  # digit 16
    g0, g2 = hi8 // 10000, mid8 // 10000  # digits 0..3, 8..11
    # digits 0..7 and 8..15 as ASCII words, digit j in byte j % 8
    x0 = _T4.take(g0) | (_T4.take(hi8 - g0 * 10000) << 32)
    x1 = _T4.take(g2) | (_T4.take(mid8 - g2 * 10000) << 32)
    # last nonzero digit: the highest nonzero byte of x ^ '0...'; each byte is <= 9, so
    # rounding to float64 keeps the highest set bit in its byte
    e1 = np.frexp((x1 ^ 0x3030303030303030).astype(np.float64))[1]
    e0 = np.frexp((x0 ^ 0x3030303030303030).astype(np.float64))[1]
    last = np.maximum(np.maximum(17 * (d16 != 0) - 1, 8 * (e1 > 0) + ((e1 - 1) >> 3)),
                      (e0 - 1) >> 3)
    x2 = (d16 + 48).astype(np.uint64)
    row = (np.minimum(np.maximum(E, -5), 17) + 5) * 18 + last + 1
    head, *m = np.take(_LAYOUT, row, axis=0).T
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = head | np.signbit(v) * np.uint64(ord("-"))
    out[:, 1] = (x0 & m[0]) | ((x0 << 8) & m[3]) | m[6]
    out[:, 2] = (x1 & m[1]) | (((x1 << 8) | (x0 >> 56)) & m[4]) | m[7]
    out[:, 3] = ((x2 & m[2]) | (((x2 << 8) | (x1 >> 56)) & m[5]) | m[8]
                 | _EXP_WORDS.take(E + 324))
    cells = out.astype("<u8", copy=False).view(np.uint8)
    cells[:, -1] = ord(sep)
    return cells


def _text(cells: np.ndarray) -> bytes:
    return cells.tobytes().translate(None, b"\0")


def _rows(block, sep: str) -> np.ndarray:
    """(R, C, _CELL) cells of the 2-d block: sep between values, a newline ending each row."""
    cells = _cells(block, sep).reshape(*block.shape, _CELL)
    cells[:, -1, -1] = ord("\n")
    return cells


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _states_for(sc: Scenario, backend: str, qg: float, cross: bool = True):
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    # looked up per call, so wrappers set on this module's names see every sweep
    sweep = branch_states_ode_sweep if backend == "ode" else branch_states_analytic
    return sweep(sc.times_seconds(), sc.params_for(qg), w, grid, cross)


_BLOCK = 2048  # values per _cells pass: ~0.7 MiB of temporaries


def _write_scalar_csv(path: Path, lam_t: np.ndarray, values: np.ndarray) -> None:
    """Write ``lambda_t,value`` lines: what ``np.savetxt`` with FMT writes, byte for byte."""
    pairs = np.column_stack((lam_t, values))
    with path.open("wb") as fh:
        fh.write(b"lambda_t,value\n")
        for lo in range(0, len(pairs), _BLOCK // 2):
            fh.write(_text(_rows(pairs[lo:lo + _BLOCK // 2], ",")))


def _write_qgrid(long_path: Path, matrix_path: Path, grid) -> None:
    """Write a Q grid's ``x,y,q`` lines (y-major) to long_path and its matrix to matrix_path.

    The text is what ``np.savetxt`` with FMT writes, byte for byte.  Both files
    are streamed a block of grid rows at a time, from one ``_rows`` pass over
    the block's Q values; the long form puts the x and y cells, formatted once
    up front, before each Q cell, and ends its line there.
    """
    xs, ys = _cells(grid.x, ","), _cells(grid.y, ",")[:, None]
    rows = max(1, _BLOCK // grid.x.size)
    with long_path.open("wb") as long_fh, matrix_path.open("wb") as matrix_fh:
        long_fh.write(b"x,y,q\n")
        matrix_fh.write(b"# rows: y ascending; columns: x ascending\n"
                        + b"# x " + _text(_rows(grid.x[None], " "))
                        + b"# y " + _text(_rows(grid.y[None], " ")))
        for lo in range(0, grid.y.size, rows):
            q = _rows(grid.values[lo:lo + rows], " ")
            matrix_fh.write(_text(q))
            q[..., -1] = ord("\n")
            long_fh.write(_text(np.concatenate(np.broadcast_arrays(xs, ys[lo:lo + rows], q),
                                               axis=-1)))


def _write_kv(path: Path, pairs: list) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for k, v in pairs:
            fh.write(f"{k} = {v}\n")


def _sweep_files(sc: Scenario, qg: float) -> dict:
    """Each of sc's outputs mapped to the names of the files one qg sweep writes for it.

    Outputs and names are in writing order: NAME_TAG_inversion.csv,
    NAME_TAG_entropy.csv, the Q grid's long form NAME_TAG_qgrid.csv and matrix
    form NAME_TAG_qgrid.matrix.txt, NAME_TAG_cat_report.txt.
    """
    prefix = f"{sc.name}_{qg_token(qg)}_"
    files = {"inversion": ["inversion.csv"], "entropy": ["entropy.csv"],
             "qgrid": ["qgrid.csv", "qgrid.matrix.txt"], "cat_report": ["cat_report.txt"]}
    return {o: [prefix + f for f in fs] for o, fs in files.items() if o in sc.outputs}


def _refuse_taken(out: Path, names: list) -> bool:
    """Report the names out already holds, if any; True if it holds one."""
    taken = [n for n in names if (out / n).exists()]
    if taken:
        print(f"i/o error: {out} already holds {', '.join(taken)}; "
              "nothing was written", file=sys.stderr)
    return bool(taken)


def _write_outputs(sc: Scenario, out: Path) -> None:
    """Write every qg sweep's files (named by _sweep_files) into out.

    A sweep holds each sample's overlaps and the field state rows of its last
    instant; its inversion and entropy files are written as it ends.  The kept
    instants of all qg are then stacked into one state, whose Q grids come from
    one ``q_function`` call, one Fock ladder for all of them, and each qg's Q
    files and cat report are written from its slice.  Raises ValueError, before
    a sweep's writes, if one of its samples' norm is NaN or above 1 + NORM_SLACK.
    """
    lam_t = sc.times_scaled()
    kept = []
    for qg in sc.qg_list:
        _progress(f"running {sc.name}: backend={sc.backend} qg={qg:g}")
        sweep = _states_for(sc, sc.backend, qg, "entropy" in sc.outputs)
        cc, dd, cd = overlaps(sweep)
        norm = cc + dd
        bad = norm[~(norm <= 1.0 + NORM_SLACK)]
        if bad.size:
            raise ValueError(f"branch norm {bad[0]:.6g} exceeds 1 + {NORM_SLACK:g} at qg = {qg:g}")
        files = {o: [out / f for f in fs] for o, fs in _sweep_files(sc, qg).items()}
        if "inversion" in files:
            _write_scalar_csv(*files["inversion"], lam_t, inversion(cc, dd))
        if "entropy" in files:
            _write_scalar_csv(*files["entropy"], lam_t, entropy(cc, dd, cd).s_f)
        kept.append((files, sweep.last))
    if not set(SNAPSHOT_OUTPUTS) & set(sc.outputs):
        return
    stack = BranchState(t=kept[0][1].t, c=np.stack([st.c for _, st in kept]),
                        d=np.stack([st.d for _, st in kept]))
    grids = q_function(stack, sc.qgrid_spec(), sc.alpha)
    for (files, st), values in zip(kept, grids.values):
        qg_data = QGrid(x=grids.x, y=grids.y, values=values)
        if "qgrid" in files:
            _write_qgrid(*files["qgrid"], qg_data)
        if "cat_report" in files:
            rep = q_peak_analysis(qg_data)
            fid = cat_fidelity(st, sc.alpha)
            _write_kv(*files["cat_report"], [
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
        why = "is not a directory" if out.exists() else "does not exist"
        print(f"i/o error: output directory {out} {why}", file=sys.stderr)
        return EXIT_IO

    meta = [("scenario." + k, v) for k, v in
            (line.split(" = ", 1) for line in serialize_scenario(sc).splitlines())]
    meta += [
        ("version", __version__),
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
            _write_outputs(sc, stage)
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
            cc_o, dd_o, cd_o = overlaps(_states_for(sc, "ode", qg_val, True))
            cc_a, dd_a, cd_a = overlaps(_states_for(sc, "analytic", qg_val, True))
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
    except ImportError as exc:
        print(f"audit failure: scipy.special cannot be imported ({exc})", file=sys.stderr)
        return EXIT_SCENARIO
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
