"""Telling bundles apart by their densities, and when you cannot.

Two flat twists with the same k-th power have identical k-th densities,
so the density can only ever determine the bundle up to k-th roots of
unity on each basis loop.  compare_bundles finds a witness point when
the densities genuinely differ, and otherwise compares the k-th power
holonomies of the basis loops, which are exact in the lattice data:
the powers agree when k times the phase difference is an integer on
every loop.  The pushforward fit below reads the same holonomy back off
the density profile alone.
"""

import math

import numpy as np

import toruskernel as tk

TWO_PI = 2 * math.pi


def main():
    sq1 = tk.standard_torus(1j, 1)
    chi0 = tk.Semicharacter.trivial(1)
    half = tk.Semicharacter((0.5, 0.0))

    print("trivial twist vs half twist on the first basis loop")
    c1 = tk.compare_bundles(sq1, chi0, half, 1)
    w = ", ".join(f"{c:.4f}" for c in c1.witness.coords)
    print(f"  k = 1: {c1.verdict}; densities differ by {TWO_PI * c1.max_diff:.4f}"
          f" (x 2 pi) at ({w})")

    c2 = tk.compare_bundles(sq1, chi0, half, 2)
    print(f"  k = 2: {c2.verdict}; max density difference {c2.max_diff:.2e}")
    print("  the half twist squares to the trivial character, so the k = 2")
    print("  spaces are genuinely isomorphic and no witness can exist")

    print()
    print("recovering holonomy from the density alone")
    chi = tk.Semicharacter((0.3, 0.0))
    fit = tk.pushforward_fit(sq1, chi, 1, (1, 0))
    print(f"  averaging the k = 1 density over the fibers of the (1,0)-loop's")
    print(f"  circle map leaves one cosine: amplitude {fit.amplitude:.6f},")
    print(f"  phase {fit.phase:.6f} turns (fit residual {fit.residual:.1e})")
    hol = tk.hol_closed(sq1, chi, 1, tk.TorusPoint.zero(sq1), (1, 0))
    print(f"  holonomy angle from the closed form: {hol.alpha % 1.0:.6f} turns")
    amp = 2 * math.sqrt(TWO_PI) * math.exp(-math.pi / 2)
    print(f"  predicted amplitude 2 sqrt(2 pi) exp(-pi/2) = {amp:.6f}")


if __name__ == "__main__":
    main()
