"""Closed-form asymptotics, cross-checked three ways.

The asymptotic covariance of the stacked scores has explicit entries in the
tail exponent; the modified score's 2x2 covariance follows by a block
formula.  This script prints the tables and verifies the closed forms
against adaptive quadrature and a Monte Carlo covariance estimate.

Run:  python demos/covariance_tables.py
"""

import numpy as np

from apdgof import (
    fisher_information,
    mc_fisher_check,
    quadrature_fisher,
    score_covariance,
)

print("Nonzero covariance entries by tail exponent")
print("-" * 98)
header = ("lam", "J[t1,t1]", "J[t2,t2]", "J[t1,mu]", "J[t2,sig]",
          "J[mu,mu]", "J[sig,sig]", "Sigma11", "Sigma22")
print(("{:>6} " + "{:>11} " * 8).format(*header))
for lam in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
    j = fisher_information(lam)
    s = score_covariance(lam)
    row = (
        j[0, 0], j[1, 1], j[0, 2], j[1, 3], j[2, 2], j[3, 3],
        s[0, 0], s[1, 1],
    )
    print(f"{lam:>6.2f} " + " ".join(f"{v:>11.6f}" for v in row))

print()
print("Cross-check 1: adaptive quadrature of E[score_a * score_b]")
print("-" * 70)
for lam in (1.0, 1.5, 2.0, 3.0):
    gap = np.max(np.abs(quadrature_fisher(lam) - fisher_information(lam)))
    print(f"  lam = {lam:4.2f}   max |quadrature - closed form| = {gap:.3e}")

print()
print("Cross-check 2: Monte Carlo covariance of the stacked scores")
print("-" * 70)
for lam in (1.0, 2.0):
    mc = mc_fisher_check(lam, n_draws=10**6, seed=424242)
    z = np.abs(mc.estimate - fisher_information(lam)) / mc.std_error
    print(f"  lam = {lam:4.2f}   worst |z-score| over 16 entries = {np.max(z):.2f}")

print()
print("The block identity behind the modified score covariance:")
j = fisher_information(2.0)
derived = j[:2, :2] - j[:2, 2:] @ np.linalg.inv(j[2:, 2:]) @ j[2:, :2]
print("  shape block minus correction =")
print(np.array2string(derived, precision=10))
print("  closed-form covariance       =")
print(np.array2string(score_covariance(2.0), precision=10))
