"""Holonomy of closed geodesics: closed form against brute transport.

hol_closed evaluates the unit number by which parallel transport around
a lattice loop multiplies the fiber, using the character and the
symplectic pairing.  hol_ode integrates the connection along the loop
with a fixed-step RK4 and knows nothing about the formula.  The script
cross-checks them and then walks through the structural laws the closed
form obeys.
"""

import cmath
import math

import numpy as np

import toruskernel as tk


def main():
    torus = tk.standard_torus(0.3 + 1.2j, 1)
    chi = tk.Semicharacter((0.15, 0.85))
    rng = np.random.default_rng(5)

    print("closed form vs RK4 transport, random loops on the skew torus")
    worst = 0.0
    for _ in range(8):
        k = int(rng.integers(1, 4))
        p = tk.TorusPoint.from_coords(torus, rng.random(2))
        v = rng.integers(-3, 4, size=2)
        if not v.any():
            v = np.array([1, 0])
        closed = tk.hol_closed(torus, chi, k, p, v)
        ode = tk.hol_ode(torus, chi, k, p, v)
        worst = max(worst, abs(closed.value - ode.value))
    print(f"  worst disagreement over 8 loops: {worst:.3e}")

    print()
    print("power law: the m-fold loop is the m-th power of the loop")
    p = tk.TorusPoint.from_coords(torus, np.array([0.37, 0.61]))
    base = tk.hol_closed(torus, chi, 1, p, [1, -1]).value
    for m in (2, 3, 4):
        val = tk.hol_closed(torus, chi, 1, p, [m, -m]).value
        print(f"  m = {m}: |Hol(mv) - Hol(v)^m| = {abs(val - base ** m):.3e}")

    print()
    print("displacement law: moving the base point twists the holonomy")
    print("by exp(2 pi i k s E(v, w)), linear in the displacement w")
    s = tk.lattice.HOL_SIGN
    sq1 = tk.standard_torus(1j, 1)
    v = np.array([0, 1])
    a = tk.hol_closed(sq1, chi, 1, tk.TorusPoint.zero(sq1), v).value
    for frac in (0.25, 0.5, 0.75):
        w = np.array([frac, 0.0])
        b = tk.hol_closed(sq1, chi, 1, tk.TorusPoint.from_coords(sq1, w), v).value
        twist = cmath.exp(2j * math.pi * s * float(v @ sq1.E @ w))
        print(f"  w = ({frac:4.2f}, 0): residual {abs(b - a * twist):.3e}")

    print()
    print("the on-demand check: which exponent sign matches transport")
    rep = tk.calibration_report()
    print(f"  sign +1 mismatch {rep.mismatch_plus:.2e}, sign -1 mismatch "
          f"{rep.mismatch_minus:.2e}, transport picks {rep.sign:+d}, HOL_SIGN = {s:+d}")


if __name__ == "__main__":
    main()
