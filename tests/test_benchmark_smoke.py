"""The benchmark under perfbench/ binds names of the library; its smoke check
runs every workload at its smallest size, so a refactor that drops or renames
one of those names fails here and not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
