"""The quick demo scripts run to completion.

Demos 04, 05 and 08 train models or sample many trajectories and take 7 to
18 s each, so they are run by hand rather than here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_special_functions.py", "02_nystrom_oracle.py", "03_fd_oracle.py",
         "06_heat_equation.py", "07_wave_and_schrodinger.py", "09_petal_domain.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d[:2])
def test_demo_runs(demo, tmp_path):
    # demo 01 writes its figure into the working directory
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
