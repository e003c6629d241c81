"""The files ``gravjcm run --builtin fig1|fig2|fig3`` writes: their digests and sampled values.

``record(out)`` runs the three builtins into the directory ``out`` and returns,
for every file they write, its SHA-256 and a sample of its values: every 50th
data row of each CSV, every 10th row and column of each Q matrix, and every
line of each ``key = value`` file (the cat reports and the run metadata).
``tests/data/builtin_outputs.json`` holds the record that ``test_builtin_outputs``
checks.  A change that moves an output regenerates it with

    PYTHONPATH=src python tests/builtin_outputs.py

and states the deviations the test printed before.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from gravjcm.cli import main

BUILTINS = ("fig1", "fig2", "fig3")
DATA = Path(__file__).parent / "data" / "builtin_outputs.json"
CSV_STRIDE = 50
MATRIX_STRIDE = 10


def sample(path: Path):
    """The values of one output file that the record keeps."""
    lines = path.read_text().splitlines()
    if path.name.endswith(".matrix.txt"):
        rows = [line.split() for line in lines if not line.startswith("#")]
        return [[float(v) for v in row[::MATRIX_STRIDE]] for row in rows[::MATRIX_STRIDE]]
    if path.suffix == ".csv":
        return [[float(v) for v in line.split(",")] for line in lines[1::CSV_STRIDE]]
    return dict(line.split(" = ", 1) for line in lines)


def record(out: Path) -> dict:
    """Run the builtins into ``out``; file name -> {"sha256", "values"} of each file written."""
    for name in BUILTINS:
        assert main(["run", "--builtin", name, "--out", str(out)]) == 0
    return {path.name: {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "values": sample(path)}
            for path in sorted(out.iterdir())}


def deviation(expected, got) -> float:
    """Largest absolute difference of two samples of one file; inf where they do not pair up."""
    if isinstance(expected, dict):
        if expected.keys() != got.keys():
            return math.inf
        return max((_difference(expected[k], got[k]) for k in expected), default=0.0)
    if len(expected) != len(got) or any(len(a) != len(b) for a, b in zip(expected, got)):
        return math.inf
    return max((abs(a - b) for ra, rb in zip(expected, got) for a, b in zip(ra, rb)), default=0.0)


def _difference(expected: str, got: str) -> float:
    """|expected - got| for two numbers, real or complex; 0 or inf for any other text."""
    try:
        return abs(complex(expected) - complex(got))
    except ValueError:
        return 0.0 if expected == got else math.inf


def write(rec: dict) -> None:
    """Store ``rec`` as the data file, one file's record per line."""
    DATA.parent.mkdir(exist_ok=True)
    entries = ",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in rec.items())
    DATA.write_text("{\n" + entries + "\n}\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write(record(Path(tmp)))
    print(f"wrote {DATA}", file=sys.stderr)
