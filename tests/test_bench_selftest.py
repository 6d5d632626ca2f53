"""The benchmark's own self-test passes against this source tree.

`bench/selftest.py` checks the workload generators, the recorded answers and
the tracing seams the benchmark relies on: the `compute_U`/`apply_disjunct`
spans and the names bound in `engine` and `oracle` for patching.  Running it
here makes a change to `src` that breaks those seams fail the test suite.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
