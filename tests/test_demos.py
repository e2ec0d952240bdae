import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# The SHA-256 of each demo's stdout: every number and label it prints.
STDOUT_SHA256 = {
    "01_centralization_metrics.py": "e15aea793a432f3284f2fb799ee331c695658aac80ec33f96e0203c16094d4dc",
    "02_throughput_bounds.py": "1edc0cb3dcdec389dd1f03df36fc0cc32a793a111b6aa743d7269a6f587afe75",
    "03_scaling_models.py": "c5482e99af1d7d66301906a6f697c484bb629139bc2dbe3e90e482936e5b5439",
    "04_mining_simulation.py": "f3cb6f2009740a29f39791f12c9b84d37908f2401905f9af7089cac803877b29",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name], proc.stdout
