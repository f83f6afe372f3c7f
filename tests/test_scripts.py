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


def test_invariance_experiment_flags_only_the_negative_control():
    out = run_script("invariance_experiment.py", "--samples", "300")
    heads = [l for l in out.splitlines() if l.startswith("== ")]
    assert [h.split(" (")[0] for h in heads] == [
        "== normalizer over trivial", "== poulsen over normalizer",
        "== NEGATIVE CONTROL: biased root slot"]
    max_z = [float(h.rsplit("max z = ", 1)[1]) for h in heads]
    assert max_z[2] > max(max_z[:2])


def test_convergence_experiment_prints_one_table_per_base():
    out = run_script("convergence_experiment.py", "--samples", "200")
    heads = [l.split(":")[0] for l in out.splitlines() if l.startswith("base ")]
    assert heads == ["base trivial", "base index-2", "base index-4",
                     "base index-6"]
    rows = [r for r in map(str.split, out.splitlines()) if r and "/" in r[0]]
    assert len(rows) == 16
    # each estimate lies within the deviation limit printed next to it
    assert all(float(dev) <= float(bound) for *_, dev, bound in rows)
