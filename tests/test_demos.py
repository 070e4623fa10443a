"""Smoke test: the narrative demos run to completion, with `src/` and
`tests/` on the path, as README says to run them: demos 01 to 04 use
reference code from `tests/oracles.py`, and 02 to 04 the paper's
construction from `tests/construction.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_simplicial_collapse",
        "02_polytope_model",
        "03_moves_and_states",
        "04_links_and_critical_points",
        "05_full_certification",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
