"""One benchmark sample in a fresh interpreter.

Usage: python3 child.py MODE SCENARIO OUT_DIR RESULT_JSON [TRACE_JSON RUN_ID]

MODE is ``env`` (import, build the scenario and record the environment),
``setup`` (import and build only) or ``run`` (then call
``gravjcm.cli.main(["run", SCENARIO, "--out", OUT_DIR])``).  Timings go to
RESULT_JSON; with TRACE_JSON the run is traced and its spans written there.
The parent pins BLAS/OpenMP threads and puts the source tree on PYTHONPATH.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list) -> None:
    mode, scenario, out_dir, result_path = argv[:4]
    t0 = time.perf_counter()
    import gravjcm.cli as cli
    t1 = time.perf_counter()
    cli.parse_scenario(Path(scenario).read_text(encoding="utf-8"))
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}
    if mode == "env":
        result["env"] = environment()
    elif mode == "run":
        run_argv = ["run", scenario, "--out", out_dir]
        cpu0 = _cpu_s()
        tracer = None
        if len(argv) > 4:
            import tracing

            tracer = tracing.Tracer(run_id=argv[5])
            tracer.install()
            t3 = time.perf_counter()
            code = tracer.call(tracing.ROOT, cli.main, run_argv)
        else:
            t3 = time.perf_counter()
            code = cli.main(run_argv)
        result["wall_s"] = time.perf_counter() - t3
        result["cpu_s"] = _cpu_s() - cpu0
        result["exit_code"] = code
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(Path(argv[4]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
