"""The builtin figures' output files, pinned byte for byte.

Every file is compared by its SHA-256, the Q grids included: Q goes through
BLAS (the SVD of the kept instant and a matrix product per chunk of grid rows),
and fig3's Q files had the same bytes on one and on two OpenBLAS 0.3.31
threads on a 2-vCPU host.  If another BLAS rounds them differently, this test
fails on the Q files alone and prints deviations of order 1e-16 there.
"""

import json

from builtin_outputs import DATA, deviation, record


def test_builtin_outputs(tmp_path):
    # a file whose bytes moved is reported with the largest deviation on its sampled
    # values; regenerate the data file with tests/builtin_outputs.py if the move is meant
    expected = json.loads(DATA.read_text())
    got = record(tmp_path)
    assert sorted(got) == sorted(expected)
    moved = {name: deviation(expected[name]["values"], got[name]["values"])
             for name in expected if got[name]["sha256"] != expected[name]["sha256"]}
    for name, dev in moved.items():
        print(f"{name}: bytes differ, largest sampled deviation {dev:.3g}")
    assert not moved, f"{len(moved)} builtin output files moved: {moved}"
