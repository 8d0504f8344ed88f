"""Smoke test: the demos run to the end."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["initial_value_evolution.py", "wave_velocities.py",
                                  "three_routes.py", "radial_profiles.py",
                                  "moments_and_mass.py"])
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # radial_profiles.py writes CSVs here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
