"""
The Pauli identity as an identity of differential operators
===========================================================

A normal-ordered differential operator, a polynomial in the coordinates
x, y, z with every derivative d_x, d_y, d_z to its right, multiplies
exactly: ``weyl_product`` moves derivatives past coordinates with the
Leibniz rule.  Operator identities then become finite coefficient
comparisons that hold for every wave function at once.  The key one is
the minimal-coupling square

    (sigma . (p - qA/c))^2 = (p - qA/c)^2 - (hbar q / c) sigma . B,

whose right-hand side is where the magnetic-moment term of the Pauli
equation comes from.
"""

import numpy as np

from hamfactor import (
    FieldConfig,
    ParticleSpec,
    Polynomial,
    hamiltonian_equivalence_residual,
    kinetic_square_residual,
    weyl_product,
)

NAMES = ("x", "y", "z", "d_x", "d_y", "d_z")


def show(operator: Polynomial) -> str:
    """Terms of an operator over (x, y, z, d_x, d_y, d_z), largest first."""
    terms = []
    for exps, value in sorted(operator.coeffs.items(), key=lambda item: -abs(item[1])):
        factors = [name + (f"^{e}" if e > 1 else "") for name, e in zip(NAMES, exps) if e]
        terms.append(f"({value:+.3g}) {' '.join(factors) or '1'}")
    return "  ".join(terms)


# pi = (hbar/i) d - (q/c) A for an electron (q = -1) in B = (0, 0, b),
# symmetric gauge A = (-b y / 2, b x / 2, 0), with hbar = 1 and c = 1.
b, q = 2.0, -1.0
x, y, z, d_x, d_y, d_z = (Polynomial.variable(6, k) for k in range(6))
pi_x = d_x * -1j - y * (-q * b / 2.0)
pi_y = d_y * -1j - x * (q * b / 2.0)
pi_z = d_z * -1j

# sigma . pi as a 2x2 table of operators, and its square.
table = [[pi_z, pi_x - pi_y * 1j], [pi_x + pi_y * 1j, -pi_z]]
square = [
    [weyl_product(table[i][0], table[0][j]) + weyl_product(table[i][1], table[1][j]) for j in range(2)]
    for i in range(2)
]
print("(sigma . pi)^2 [0, 0]:", show(square[0][0]))
print("(sigma . pi)^2 [1, 1]:", show(square[1][1]))
print("(sigma . pi)^2 [0, 1]:", show(square[0][1]) or "0")
constant = (0,) * 6
print(
    f"constants {square[0][0].coeffs[constant].real:+g} and {square[1][1].coeffs[constant].real:+g}"
    f" are -(hbar q / c) b sigma_z = {-q * b:+g} sigma_z; the rest is pi^2 on the diagonal"
)

# The library check compares both sides coefficient by coefficient,
# each gap relative to the terms that produce it.
electron = ParticleSpec(mass=1.0, charge=-1.0)
field = FieldConfig((0.0, 0.0, 1.0))
print(f"\nkinetic square residual (symmetric gauge): {kinetic_square_residual(field, electron):.2e}")

# Any gauge with the right curl works; here A = (-B y, 0, 0).
landau = FieldConfig((0.0, 0.0, 1.0), np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
print(f"kinetic square residual (Landau gauge):    {kinetic_square_residual(landau, electron):.2e}")

# Full equivalence for two particles: the squared-block Hamiltonian
# expands into kinetic + potential + spin-field coupling terms.
particles = [ParticleSpec(1.0, -1.0), ParticleSpec(1836.15267, 1.0)]
fields = [FieldConfig((0.0, 0.0, 0.5)), FieldConfig((0.0, 0.0, 0.5))]
confinement = Polynomial(6, {(2, 0, 0, 0, 0, 0): 0.5, (0, 0, 0, 0, 2, 0): 0.5})
residual = hamiltonian_equivalence_residual(particles, fields, confinement)
print(f"two-particle Hamiltonian equivalence residual: {residual:.2e}")
