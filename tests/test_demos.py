"""Smoke test of the demo scripts: each runs to completion.

Demos 01-04 run as subprocesses in a fresh working directory and must
exit 0.  Demo 05 is left out: it runs a full waveguide study of about
11 s and writes ./study_out into its working directory; the same study
is covered by the acceptance suite (GUIDE_J0_CONFIG).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibrelab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_profiles_and_metrics.py",
    "02_flat_torus_exactness.py",
    "03_warped_torus_nodal_circles.py",
    "04_bent_waveguide.py",
])
def test_demo_runs(tmp_path, name):
    src = str(Path(fibrelab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout
