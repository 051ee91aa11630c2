"""Smoke test: every experiment script runs end to end on a 16-cell grid.

The scripts import the package's public names, so a name dropped from
``dnsflow`` fails here rather than in a user's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ARGS = {
    "convergence_ladder.py": ["--cells", "16", "--T", "0.1",
                              "--hs", "0.05", "0.025"],
    "dirichlet_box_demo.py": ["--cells", "16", "--h", "0.05", "--T", "0.1"],
    "taylor_green_demo.py": ["--cells", "16", "--h", "0.05", "--T", "0.1",
                             "--out", "{tmp}"],
}


def test_every_script_has_smoke_arguments():
    assert sorted(s.name for s in SCRIPTS) == sorted(ARGS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    args = [a.replace("{tmp}", str(tmp_path)) for a in ARGS[script.name]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
