"""The benchmark's traced run wraps gibbswalk names by lookup; all must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_install_finds_every_wrapped_name():
    code = "import tracing; tracing.install(tracing.Tracer())"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
