"""The narrated demos run to completion against the package under test.

Demo 05 is left out: its throughput section alone takes over ten seconds.
The CI workflow runs it as a step of its own.
"""

import os
import subprocess
import sys

import pytest

import kinnav

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["01_worlds_and_distance_fields.py",
                                  "02_backends_kinematic_vs_dynlite.py",
                                  "03_actuation_noise.py",
                                  "04_episodes_and_evaluation.py"])
def test_demo_runs(name, tmp_path):
    # a fresh interpreter that finds kinnav where this one did
    src = os.path.dirname(os.path.dirname(kinnav.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout
    if name.startswith("04"):
        written = {p.name for p in (tmp_path / "demo_out").iterdir()}
        assert {"maze.map", "episodes.jsonl", "routes.svg", "run_kinematic", "traj"} <= written
