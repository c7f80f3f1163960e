"""Two-particle weak-field Zeeman analysis in center-of-mass coordinates.

The system is a bound pair of opposite unit charges, -e on particle 1 and
+e on particle 2, in a uniform field B along z with the symmetric gauge;
the nuclear charge z enters only the Coulomb term.  The orbital coupling
is governed by a modified Larmor frequency proportional to 1/m1 - 1/m2,
which ``center_of_mass_residual`` derives from the two-body operator: it
vanishes identically for equal masses and reduces to the classic
single-particle result when one mass dominates.  Each unperturbed level
splits into two branches shifted by hbar * omega_L * (m + 1) and
hbar * omega_L * (m - 1).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import relative_residual, tridiagonal_eigen
from .polynomials import Polynomial, weyl_product
from .quantize import FieldConfig, Grid1D, _kinetic_momenta, _magnitude, coupled_pencil, eliminate_pencil
from .units import ATOMIC, Units


@dataclass(frozen=True)
class ZeemanSystem:
    """Masses, field strength and nuclear charge for the bound pair.

    By convention particle 1 is the lighter, negative charge; passing
    swapped masses simply evaluates the same formulas with the charge
    assignment held fixed, which flips the sign of the Larmor frequency.
    The model keeps the unit charges -e and +e in the orbital coupling:
    ``z`` scales only the Coulomb attraction -z e^2 / r.
    """

    m1: float
    m2: float
    b: float
    z: float = 1.0
    units: Units = ATOMIC

    def __post_init__(self):
        for name in ("m1", "m2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.b):
            raise ValueError(f"field strength must be finite, got {self.b}")
        if not (math.isfinite(self.z) and self.z > 0):
            raise ValueError(f"nuclear charge must be positive and finite, got {self.z}")


@dataclass(frozen=True)
class MassDecomposition:
    """Derived two-body mass parameters.

    ``larmor_mass`` is m1 m2 / (m2 - m1), the mass whose inverse sets the
    modified Larmor frequency; it is infinite exactly when the masses are
    equal and the orbital Zeeman coupling cancels.
    """

    total: float
    reduced: float
    mu1: float
    mu2: float
    larmor_mass: float

    @property
    def equal_masses(self) -> bool:
        return math.isinf(self.larmor_mass)


def decompose_masses(system: ZeemanSystem) -> MassDecomposition:
    """Total, reduced, mass fractions and the Larmor mass of the pair."""
    m1, m2 = system.m1, system.m2
    total = m1 + m2
    larmor = math.inf if m1 == m2 else m1 * m2 / (m2 - m1)
    return MassDecomposition(
        total=total,
        reduced=m1 * m2 / total,
        mu1=m1 / total,
        mu2=m2 / total,
        larmor_mass=larmor,
    )


def larmor_frequency(system: ZeemanSystem) -> float:
    """Modified Larmor frequency (e B / 2 c) (1/m1 - 1/m2).

    Exactly zero for equal masses; approaches the single-particle value
    e B / (2 m1 c) as m2 grows.
    """
    u = system.units
    return u.charge * system.b / (2.0 * u.light_speed) * (1.0 / system.m1 - 1.0 / system.m2)


def lamb_g_factor(system: ZeemanSystem) -> float:
    """Orbital g-factor correction 1/m1 - 1/m2 (inverse Larmor mass)."""
    return 1.0 / system.m1 - 1.0 / system.m2


def bohr_energy(n: int, mu: float, z: float, units: Units = ATOMIC) -> float:
    """Bound-state energy -mu z^2 e^4 / (2 hbar^2 n^2) of the reduced problem; a side that overflows is a ValueError."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"principal quantum number must be a positive integer, got {n}")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"reduced mass must be positive and finite, got {mu}")
    try:
        numerator, denominator = mu * z**2 * units.charge**4, 2.0 * units.hbar**2 * n**2
    except OverflowError:
        numerator = denominator = math.inf
    if denominator == 0.0:
        raise ValueError(f"2 hbar^2 n^2 underflows to 0 at hbar = {units.hbar!r}, n = {n}")
    if math.isinf(numerator) or math.isinf(denominator):
        raise ValueError(f"mu z^2 e^4 or 2 hbar^2 n^2 overflows at mu = {mu!r}, z = {z!r}, n = {n} in {units}")
    return -numerator / denominator


@dataclass(frozen=True)
class LevelRow:
    n: int
    l: int
    m: int
    branch: int
    energy: float
    shift: float


def splitting_terms(system: ZeemanSystem, n_max: int) -> dict[tuple[int, int], tuple[float, float]]:
    """(energy, shift) of every distinct level of the table, keyed by (n, step).

    Each level is separable: the Bohr energy E_n plus the shift
    hbar omega_L step, where step is m + 1 on branch 1 and m - 1 on
    branch 2, so |step| <= n.  The reduced mass and hbar omega_L are
    computed once per table, E_n once per n and each shift once per
    step.  The n_max (n_max + 2) pairs with |step| <= n cover the
    n_max (n_max + 1) (2 n_max + 1) / 3 rows of ``level_labels``; all but
    (1, 0) occur in them.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mu = decompose_masses(system).reduced
    quantum = system.units.hbar * larmor_frequency(system)
    # + 0.0 turns IEEE negative zero into plain zero when the frequency vanishes.
    shifts = {step: quantum * step + 0.0 for step in range(-n_max, n_max + 1)}
    terms = {}
    for n in range(1, n_max + 1):
        bohr = bohr_energy(n, mu, system.z, system.units)
        for step in range(-n, n + 1):
            terms[n, step] = (bohr + shifts[step], shifts[step])
    return terms


def level_labels(n_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(n, l, m, branch, step) of every row up to ``n_max``, ordered by (n, l, m, branch).

    Each unperturbed level (n, l, m) gives branch 1 with step m + 1 and
    branch 2 with step m - 1; ``splitting_terms`` holds their energies.
    """
    for n in range(1, n_max + 1):
        for l in range(n):
            for m in range(-l, l + 1):
                yield n, l, m, 1, m + 1
                yield n, l, m, 2, m - 1


def splitting_table(system: ZeemanSystem, n_max: int) -> list[LevelRow]:
    """All split levels up to principal quantum number ``n_max``.

    Each row is E_n plus the branch shift hbar omega_L (m + 1) for branch
    1 or hbar omega_L (m - 1) for branch 2, taken from
    ``splitting_terms``.  Rows are ordered by (n, l, m, branch); each
    unperturbed level contributes two rows, so there are
    n_max (n_max + 1) (2 n_max + 1) / 3 in total.
    """
    terms = splitting_terms(system, n_max)
    return [LevelRow(n, l, m, branch, *terms[n, step]) for n, l, m, branch, step in level_labels(n_max)]


def radial_eigenvalues(
    l: int,
    mu: float,
    z: float,
    grid: Grid1D,
    count: int,
    units: Units = ATOMIC,
) -> np.ndarray:
    """The lowest ``count`` eigenvalues of the reduced radial problem on a uniform grid, ascending.

    Three-point discretization of
    -(hbar^2 / 2 mu) u'' + [l (l+1) hbar^2 / (2 mu r^2) - z e^2 / r] u = E u
    on (0, r_max] with Dirichlet conditions at both ends: the eliminated
    1-D pencil M^H M + diag(V).  The lowest eigenvalues approximate the
    bound-state energies for the given angular momentum at O(h^2)
    accuracy.
    """
    if l < 0:
        raise ValueError(f"angular momentum must be >= 0, got {l}")
    if grid.n < 50:
        raise ValueError(f"grid too coarse for the radial solver: n = {grid.n} < 50")
    if grid.x_min != 0.0:
        raise ValueError(f"radial grid must start at r = 0, got x_min = {grid.x_min}")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"reduced mass must be positive and finite, got {mu}")
    r = grid.points
    v = l * (l + 1) * units.hbar**2 / (2.0 * mu * r**2) - z * units.charge**2 / r
    return tridiagonal_eigen(*eliminate_pencil(coupled_pencil(grid, v, mu, units.hbar)), count)[0]


def _lab_to_rel(mu1: float, mu2: float) -> np.ndarray:
    """F: rows express r1 = R + mu2 r and r2 = R - mu1 r over the relative variables."""
    return np.kron([[mu2, 1.0], [-mu1, 1.0]], np.eye(3))


def _rel_to_lab(mu1: float, mu2: float) -> np.ndarray:
    """F^-1: rows express r = r1 - r2 and R = mu1 r1 + mu2 r2 over the lab variables."""
    return np.kron([[1.0, -1.0], [mu1, mu2]], np.eye(3))


def _center_of_mass_operator(system: ZeemanSystem, moduli: bool) -> Polynomial:
    """sum_k pi_k^2 / 2 m_k, charges -e and +e, over (x, y, z, X, Y, Z) and their derivatives.

    r = r1 - r2 and R = mu1 r1 + mu2 r2.  Each pi_k is squared with
    ``weyl_product`` over the lab variables; one ``substitute_linear``
    moves the coordinates by F and the derivatives by F^-T, which keeps
    normal order.  ``moduli`` replaces every operand and form by its
    modulus, so each coefficient becomes the sum of the moduli of its terms.
    """
    masses = decompose_masses(system)
    forms = np.zeros((12, 12))
    forms[:6, :6] = _lab_to_rel(masses.mu1, masses.mu2)
    forms[6:, 6:] = _rel_to_lab(masses.mu1, masses.mu2).T
    field, e = FieldConfig((0.0, 0.0, system.b)), system.units.charge
    operator = Polynomial(12)
    for particle, mass, charge in ((1, system.m1, -e), (2, system.m2, e)):
        for pi in _kinetic_momenta(field, charge, particle, 2, system.units):
            pi = _magnitude(pi) if moduli else pi
            operator = operator + weyl_product(pi, pi) * (1.0 / (2.0 * mass))
    return operator.substitute_linear(np.abs(forms) if moduli else forms)


def center_of_mass_residual(system: ZeemanSystem) -> float:
    """Relative gap between the derived two-body operator and its center-of-mass closed forms.

    The operator must carry -hbar^2/2mu on each d_r^2, -hbar^2/2M on each
    d_R^2 and no mixed second derivative; -i hbar omega_L on x d_y and
    +i hbar omega_L on y d_x, that is ``larmor_frequency`` times the
    relative L_z; and no center-of-mass L_z.  Each gap is divided by the
    moduli of the terms that produce it, so the residual is a relative
    rounding error in any unit system, and NaN if a coefficient overflows.
    """
    operator, moduli = (_center_of_mass_operator(system, flag) for flag in (False, True))
    masses, hbar = decompose_masses(system), system.units.hbar
    rotation = 1j * hbar * larmor_frequency(system)
    # Coefficients by the variable slots of their monomial: x, y = 0, 1; X, Y = 3, 4; d_v = 6 + v.
    slots = {(0, 7): -rotation, (1, 6): rotation, (3, 10): 0.0, (4, 9): 0.0}
    slots |= {(6 + a, 6 + a): -hbar * hbar / (2.0 * masses.reduced) for a in range(3)}
    slots |= {(9 + a, 9 + a): -hbar * hbar / (2.0 * masses.total) for a in range(3)}
    expected = {exps: 0.0 for exps in moduli.coeffs if not any(exps[:6]) and sum(exps) == 2}
    expected |= {tuple(pair.count(i) for i in range(12)): value for pair, value in slots.items()}
    return relative_residual(
        [operator.coeffs.get(exps, 0.0) - value for exps, value in expected.items()],
        [moduli.coeffs.get(exps, 0.0).real for exps in expected],
    )
