#!/usr/bin/env python3
"""Exact probability that the tripling perturbation yields a trivial
automorphism group (a self-normalizing subgroup), as the base index grows.

The base of index n is the cyclic Schreier graph on Z/n with s1 = s2 = +1.
It has n automorphisms (every rotation), so the table shows how the
perturbation destroys them. Enumeration is exponential in the base size:
index 12 has 531 441 mark assignments. A count of vertices and loops
shows 341 820 of them rigid class by class, unvisited; the other 189 621
fall into 15 883 orbits of the rotations, one tripled graph tested per
orbit. Both letters of a cyclic base are one cycle, so the cycle-type
test of `aut_trivial_mass`, which settles most of these on bases with a
letter of several cycles, never applies here and this table gains nothing
from it. Index 12 takes about 0.18 s, the whole table about 0.2 s (Python
3.11, one core of a 2-core AMD EPYC); pass --max-index 8 for a quick
look.
"""

import argparse
import time
from fractions import Fraction

from irslab import FiniteOracle, aut_trivial_mass


def cyclic_base(n: int) -> FiniteOracle:
    step = tuple((v + 1) % n for v in range(n))
    return FiniteOracle.from_perms([step, step])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--max-index", type=int, default=12)
    args = ap.parse_args()

    print(f"{'index':>6} {'P(aut trivial)':>20} {'float':>10} {'secs':>8}")
    for n in range(2, args.max_index + 1):
        base = cyclic_base(n)
        t0 = time.time()
        mass = aut_trivial_mass(base, args.p)
        dt = time.time() - t0
        print(f"{n:>6} {str(mass):>20} {float(mass):>10.6f} {dt:>8.1f}")


if __name__ == "__main__":
    main()
