"""Smoke tests: demos that exercise the public API run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spectral_gaps_demo_runs(tmp_path):
    # the demo calls assemble, lowest_eigenvalue, op.constraints,
    # hardy_poincare_gap and gamma_sweep from outside the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_spectral_gaps.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "constrained minimum: 4.000000" in proc.stdout
