#!/usr/bin/env python3
"""Threshold basics: the critical level and the single-release exposure.

A reservoir decaying at rate rho feeds a growth pressure
g(A) = (beta - mu) + (delta - beta) A.  The pressure is negative while the
reservoir sits below the critical level delta_c = (mu - beta)/(delta - beta)
and positive above it.  A single release of size q therefore generates
exposure only if q exceeds delta_c, and the exposure has an exact zero
buffer, a quadratic onset, and an asymptotically linear tail.

The quadrature cross-checks are the test suite's oracles in tests/util.py,
which need scipy (the [test] extra); the package itself does not.

Run: python demos/01_threshold_and_exposure.py
"""
import sys
from pathlib import Path

import numpy as np

from leakystage import (
    ModelParams,
    derive,
    exposure_closed_form,
    exposure_derivative,
    exposure_near_threshold,
    growth_pressure,
    normalized_factor,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from util import exposure_quadrature, exposure_spectral_form  # noqa: E402

params = ModelParams(beta=0.6, mu=1.0, delta=1.8, rho=0.5)
d = derive(params)

print("Model rates:", params)
print(f"alpha = {d.alpha:.4f}, gamma = {d.gamma:.4f}, critical level delta_c = {d.delta_c:.4f}")
print()

print("Growth pressure and normalised growth factor around the threshold:")
print(f"{'A':>8} {'g(A)':>10} {'R(A)':>8}")
for a in (0.0, 0.2, d.delta_c, 0.5, 1.0):
    print(f"{a:8.4f} {growth_pressure(a, params):10.4f} {normalized_factor(a, params):8.4f}")
print("g changes sign exactly where R crosses 1.")
print()

print("Single-release exposure E(q): zero buffer, then convex growth")
print(f"{'q':>8} {'E(q)':>12} {'dE/dq':>10} {'active time':>12}")
for q in np.array([0.0, 0.2, d.delta_c, 0.4, 2 / 3, 1.0, 2.0]):
    value = exposure_closed_form(float(q), params)
    deriv = exposure_derivative(float(q), params)
    print(f"{q:8.4f} {value.value:12.6f} {deriv:10.6f} {value.active_duration:12.6f}")
print()

q = 1.0
closed = exposure_closed_form(q, params).value
quad = exposure_quadrature(q, params, tol=1e-12)
spectral = exposure_spectral_form(q, params, tol=1e-12)
print(f"Cross-checks at q = {q}:")
print(f"  closed form        {closed:.12f}")
print(f"  direct quadrature  {quad:.12f}   (|diff| = {abs(closed - quad):.2e})")
print(f"  via R(A) excess    {spectral:.12f}   (|diff| = {abs(closed - spectral):.2e})")
print()

print("Quadratic onset just above the threshold:")
for eps in (1e-1, 1e-2, 1e-3):
    exact = exposure_closed_form(d.delta_c * (1 + eps), params).value
    leading = exposure_near_threshold(eps, params)
    print(f"  eps = {eps:7.0e}: exact {exact:.3e}, leading term {leading:.3e}, "
          f"ratio {exact / leading:.4f}")
print("The ratio tends to 1: splitting pays off quadratically near the threshold.")
