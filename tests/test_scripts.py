"""Smoke runs of the scripts under scripts/ at tiny sizes, so an API change
that breaks one of them fails here instead of at its next manual run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("ablate_ranker.py", ["--n-train", "40", "--n-heldout", "20", "--epochs", "1"]),
        (
            "run_synth_experiment.py",
            ["--workdir", "run", "--n-train", "40", "--n-heldout", "20", "--epochs", "1"],
        ),
    ],
)
def test_script_exits_zero(tmp_path, name, args):
    done = _run_script(name, args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout
