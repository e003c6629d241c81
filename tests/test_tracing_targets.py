"""The benchmark tracer wraps program functions by (module, attribute) name.

A rename or move under src/ that drops one of those names would only show
up as a failing ``perfbench/run.py --trace 1``; this test catches it here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, _ in tracing.SPANS + tracing.LEAVES:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
