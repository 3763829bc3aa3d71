import os
import subprocess
import sys
from pathlib import Path

import pytest

import floodgate


def _rss_growth_mb(script):
    """Runs script in a fresh interpreter; it prints its RSS growth in MB."""
    src = str(Path(floodgate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


@pytest.fixture
def rss_growth_mb():
    """The peak-RSS growth, in MB, that a script run in a fresh
    interpreter prints as its last line."""
    return _rss_growth_mb
