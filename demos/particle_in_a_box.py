"""
A first-order pencil for the particle in a box
===============================================

Quantizing the factored system gives a coupled first-order problem: an
energy-linear Hermitian pencil G(E) acting on the state together with an
auxiliary momentum image.  Eliminating the auxiliary block recovers the
familiar three-point Schroedinger operator, and det G(E) is exactly its
characteristic polynomial — so eigenvalues are determinant roots, and a
normalized root-distance signal separates them cleanly from every other
energy.
"""

import math

import numpy as np

from hamfactor import (
    PENCIL_SINGULARITY_GUARD,
    Grid1D,
    auxiliary_component,
    coupled_pencil,
    eliminate_pencil,
    pencil_root_distance,
    tridiagonal_eigen,
)

# Unit-width box: V = 0 inside, hard walls outside.
n = 64
grid = Grid1D(0.0, 1.0, n)
pencil = coupled_pencil(grid, np.zeros(n), mass=1.0)
print(f"grid: {n} interior points, spacing h = {grid.h:.4f}")
print(f"pencil size: {pencil.size} (state block {pencil.n} + momentum block {pencil.size - pencil.n})")

# Eliminate the momentum block: M^H M + V is tridiagonal, kept as its two
# bands.  The five lowest levels are enough below.
diagonal, offdiagonal = eliminate_pencil(pencil)
spectrum, vectors = tridiagonal_eigen(diagonal, offdiagonal, 5)

# The continuum levels are (k pi)^2 / 2; the discrete ones approach them
# from below at O(h^2).
print("\n  k   discrete        continuum       rel err")
for k in range(1, 6):
    exact = (k * math.pi) ** 2 / 2.0
    print(f"  {k}   {spectrum[k - 1]:<14.8f} {exact:<14.8f} {abs(spectrum[k - 1] - exact) / exact:.2e}")

# Each eigenvalue drives det G(E) to zero.  The root distance is the
# Newton step |det G / det G'| from E, taken from the same banded
# factorization as the determinant and divided by the norm of M^H M + V,
# so it reads directly as "how far is E from the nearest root, relative to
# the operator"; it needs no other eigenvalue.
print(f"\nsingularity guard: {PENCIL_SINGULARITY_GUARD:.0e}")
for k in (0, 1, 2):
    at_eig = pencil_root_distance(pencil, float(spectrum[k]))
    midpoint = 0.5 * (spectrum[k] + spectrum[k + 1])
    between = pencil_root_distance(pencil, float(midpoint))
    print(f"  level {k}: distance {at_eig:.1e} at the eigenvalue, {between:.1e} at the midpoint above")

# Stacking the state with its momentum image nulls the full pencil.  The
# pencil's two row blocks apply M = -i D and M^H = i D^T by the bands of D:
# (D psi)_k = a_k psi_k + b_(k-1) psi_(k-1) and (D^T phi)_k = a_k phi_k + b_k phi_(k+1).
energy = float(spectrum[0])
a, b = pencil.diagonal, pencil.subdiagonal
psi1 = vectors[:, 0]
psi2 = auxiliary_component(pencil, psi1)
state_rows = (energy - pencil.potential) * psi1 + 1j * (a * psi2[:-1] + b * psi2[1:])
momentum_rows = -1j * (np.append(a * psi1, 0.0) + np.insert(b * psi1, 0, 0.0)) + psi2
residual = np.linalg.norm(np.concatenate([state_rows, momentum_rows]))
print(f"\n|G(E_1) (psi, -M psi)| = {residual:.2e}")
