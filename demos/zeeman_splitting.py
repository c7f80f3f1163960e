"""
Two-particle Zeeman splitting and the modified Larmor frequency
================================================================

When both particles of a bound pair carry charge, the orbital Zeeman
coupling is set not by the reduced mass but by the "Larmor mass"
1/m_L = 1/m1 - 1/m2.  Equal masses make m_L infinite and the linear
splitting vanishes — positronium is the textbook case — while a heavy
partner recovers the familiar one-particle result.
"""

from hamfactor import (
    ATOMIC,
    Grid1D,
    ZeemanSystem,
    bohr_energy,
    center_of_mass_residual,
    decompose_masses,
    lamb_g_factor,
    larmor_frequency,
    radial_eigenvalues,
    splitting_table,
)

for name, m2 in (("hydrogen", 1836.15267), ("positronium", 1.0)):
    system = ZeemanSystem(m1=1.0, m2=m2, b=1.0)
    masses = decompose_masses(system)
    print(f"{name}: m2/m1 = {m2}")
    print(f"  reduced mass    {masses.reduced:.10f}")
    print(f"  Larmor mass     {masses.larmor_mass}")
    print(f"  omega_L         {larmor_frequency(system)}")
    print(f"  orbital g-value {lamb_g_factor(system)}")
    # The same omega_L, read off the operator sum_k pi_k^2 / 2 m_k after the
    # change to relative and center-of-mass variables.
    print(f"  center-of-mass split residual {center_of_mass_residual(system):.1e}")
    print()

# Each (n, l, m) level splits into two branches, shifted by
# hbar omega_L (m + 1) and hbar omega_L (m - 1).
hydrogen = ZeemanSystem(m1=1.0, m2=1836.15267, b=1.0)
print("hydrogen n = 2 splitting (field B = 1):")
print("  n l  m branch   energy          shift")
for row in splitting_table(hydrogen, 2):
    if row.n == 2:
        print(f"  {row.n} {row.l} {row.m:+d}   {row.branch}    {row.energy:+.10f}  {row.shift:+.6f}")

# The unperturbed levels carry the reduced mass; a finite-difference
# radial solve reproduces them without using the closed form.
masses = decompose_masses(hydrogen)
grid = Grid1D(0.0, 40.0, 2000)
numeric = radial_eigenvalues(0, masses.reduced, 1.0, grid, 2)
print("\nradial check (l = 0):")
for n in (1, 2):
    closed = bohr_energy(n, masses.reduced, 1.0, ATOMIC)
    rel = abs(numeric[n - 1] - closed) / abs(closed)
    print(f"  n = {n}: grid {numeric[n - 1]:+.8f} closed form {closed:+.8f} rel err {rel:.1e}")
