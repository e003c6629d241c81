"""Layered benchmark for gravjcm.

    python3 perfbench/run.py --workload ode-sweep --seed 1 --seconds 30 --trace 0

Drives the real ``gravjcm.cli.main(["run", SCENARIO, "--out", DIR])`` path as
one closed-loop client: samples run one after another, each in a fresh child
interpreter with BLAS/OpenMP pinned to one thread, until the next sample
would end after ``--seconds`` (at least one sample).  Before them, a warm-up
child fills the bytecode and file caches and records the environment, and
SETUP_PROBES children time ``import gravjcm.cli`` plus building the scenario,
as every sample child also does before its run.

``--trace 0`` reports the end-to-end metrics: the median duration of the
``main`` call (``wall_s``), the median peak RSS of the sample children
(``peak_rss_mb``) and the median set-up time over the probes and samples
(``setup_s``).  ``--trace 1``
adds one traced sample after the untraced ones and reports the per-layer
metrics of ``tracing.py`` plus the tracing overhead (traced ``wall_s`` minus
the untraced median).  Every sample's outputs pass through ``gate.py``; a
nonzero exit or a failed check counts in ``failed``, and
``error_rate = failed / attempted`` is printed with the other metrics.

A sample takes 13-30 s here, so a run holds one to three of them: too few for
a tail percentile with ten samples beyond it.  ``wall_s`` is their median and
the sample count is printed (and is ``attempted`` without tracing).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
``--size tiny`` shrinks the problem for the harness's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import tracing
from workloads import SIZES, WORKLOADS, draw_qg, problem_size, scenario_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0   # the whole benchmark must end within 180 s
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot measure at all (program missing or unimportable)."""


@dataclass
class Sample:
    wall_s: float | None = None
    maxrss_mb: float | None = None
    bytes_written: int = 0
    problems: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    trace: dict | None = None


def _machine() -> dict:
    """Read-only facts about the host, for the environment record."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}{'d' if level == '1' else ''}"] = size
    return info


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Bench:
    def __init__(self, workload: str, seed: int, size: str, work: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.work = work
        self.qgs = draw_qg(self.workload, seed)
        self.scenario = work / "scenario.txt"
        self.scenario.write_text(scenario_text(self.workload, self.qgs, size),
                                 encoding="utf-8")
        s = SIZES[size]
        self.n_samples = 1 if self.workload.single_instant else s["n_samples"]
        self.qgrid_n = s["qgrid_n"]
        self.lam_t = np.linspace(0.0, s["t_end"], s["n_samples"])
        self.reference = gate.load_reference(size, workload)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        **PINNED_THREADS)
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def child(self, mode: str, out_dir: Path | None = None,
              trace: tuple | None = None) -> dict:
        """Run child.py once; raise BenchError with its stderr if it fails."""
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.scenario),
               str(out_dir or self.work), str(result_path)]
        if trace:
            cmd += [str(trace[0]), trace[1]]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the time limit") from exc
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            raise BenchError(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def sample(self, index: int, traced: bool) -> Sample:
        out = self.work / f"out{index}"
        out.mkdir()
        trace_path = self.work / f"trace{index}.json"
        run_id = f"{self.workload.name}/{self.seed}/{index}"
        s = Sample()
        try:
            s.result = self.child("run", out, (trace_path, run_id) if traced else None)
            s.wall_s = s.result["wall_s"]
            s.maxrss_mb = s.result["maxrss_mb"]
            s.bytes_written = sum(p.stat().st_size for p in out.iterdir())
            if s.result["exit_code"] != 0:
                s.problems.append(f"gravjcm run exited {s.result['exit_code']}")
            else:
                s.problems += gate.check_outputs(out, self.workload, self.qgs,
                                                 self.n_samples, self.qgrid_n,
                                                 self.lam_t, self.reference)
            if traced:
                s.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except BenchError as exc:
            s.problems.append(str(exc))
        finally:
            shutil.rmtree(out, ignore_errors=True)
            trace_path.unlink(missing_ok=True)
        return s

    def run(self, seconds: float, traced: bool) -> dict:
        env = self.child("env")["env"]
        env.update(_machine(), git_commit=_git_commit(),
                   problem_size=problem_size(self.workload, self.qgs, self.size))
        print("env " + json.dumps(env, sort_keys=True))
        setups = [self.child("setup") for _ in range(SETUP_PROBES)]

        samples = []
        start = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            samples.append(self.sample(len(samples), traced=False))
            longest = max(longest, time.monotonic() - t0)
            if samples[-1].wall_s is None or time.monotonic() - start + longest > seconds:
                break
        traced_sample = self.sample(len(samples), traced=True) if traced else None

        every = samples + ([traced_sample] if traced_sample else [])
        failed = sum(1 for s in every if s.problems)
        for i, s in enumerate(every):
            for problem in s.problems:
                print(f"gate FAIL sample {i}: {problem}")
        walls = [s.wall_s for s in samples if s.wall_s is not None]
        if not walls:
            raise BenchError("no sample produced a timing")
        wall_median = statistics.median(walls)

        if traced:
            if traced_sample.trace is None:
                raise BenchError("the traced sample produced no trace")
            metrics = tracing.layer_metrics(traced_sample.trace)
            traced_wall = traced_sample.wall_s
            metrics.update({
                "import_s": (traced_sample.result["import_s"], "s"),
                "scenario.build_s": (traced_sample.result["build_s"], "s"),
                "cli.bytes_written": (traced_sample.bytes_written, "bytes"),
                "trace.wall_s": (traced_wall, "s"),
                "trace.overhead_s": (traced_wall - wall_median, "s"),
            })
            shares = {k: metrics[k][0] / traced_wall for k in
                      ("ode.sweep_s", "analytic.states_s", "observables.q_function_s",
                       "cli.write_s")}
            print("layer shares of traced wall_s " + json.dumps(shares, sort_keys=True))
        else:
            metrics = {
                "wall_s": (wall_median, "s"),
                "peak_rss_mb": (statistics.median(
                    s.maxrss_mb for s in samples if s.maxrss_mb is not None), "MB"),
                "setup_s": (statistics.median(
                    [r["setup_s"] for r in setups]
                    + [s.result["setup_s"] for s in samples if s.result]), "s"),
            }
        # CPU time of the main call beside its wall time: when the two move
        # together, a slow sample ran slower rather than waited.
        print(f"{'wall_s samples':<44} {len(walls)}  " + " ".join(f"{w:.4f}" for w in walls))
        print(f"{'cpu_s of the same samples':<44} "
              + " ".join(f"{s.result['cpu_s']:.4f}" for s in samples if s.result))
        print(f"{'error_rate':<44} {failed / len(every):.4f} 1  ({failed}/{len(every)})")
        for name, (value, unit) in metrics.items():
            print(f"{name:<44} {value:.6g} {unit}")
        return {
            "correct": failed == 0,
            "attempted": len(every),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gravjcm" / "cli.py").is_file():
        print("perfbench: src/gravjcm not found next to perfbench/", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = Bench(args.workload, args.seed, args.size, work).run(
            args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
