import subprocess
import sys
from pathlib import Path

from helpers import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_protocol_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_protocol.py")],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "final image 40x40" in proc.stdout, proc.stdout


def test_selectivity_study_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "selectivity_study.py"), "--steps", "0.1,0.32"],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "true combination" in proc.stdout, proc.stdout
