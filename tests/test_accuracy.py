"""The first 20 seeds of the committed detection-accuracy table.

``tests/accuracy.py`` writes ``ACCURACY_36.json`` over 200 seeds and also
stores the counts of its first 20; this reruns those 20 seeds, with one
BLAS thread as the table was made, and requires the same counts.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_first_20_seeds_match_the_committed_table():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "accuracy.py"), "--seeds", "20",
         "--check", str(ROOT / "ACCURACY_36.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
