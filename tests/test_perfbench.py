"""The benchmark's own selftest: every workload's jobs run on this source
and check correct, so a change that breaks a benchmark job fails here."""

from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # about 2 s on a 2-core Xeon; writes only the git-ignored perfbench/out/
    done = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
