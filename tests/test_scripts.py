"""Smoke tests of the experiment scripts: each runs as a program and prints
the table it documents."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_self_normalizing_experiment_prints_the_exact_table():
    out = run_script("self_normalizing_experiment.py", "--max-index", "6")
    head, *rows = out.splitlines()
    assert head.split() == ["index", "P(aut", "trivial)", "float", "secs"]
    masses = {2: Fraction(11, 16), 3: Fraction(57, 64), 4: Fraction(113, 128),
              5: Fraction(1005, 1024), 6: Fraction(3881, 4096)}
    # the timing column varies from run to run and is not checked
    assert [row.split()[:3] for row in rows] == [
        [str(n), str(mass), f"{float(mass):.6f}"] for n, mass in masses.items()]
