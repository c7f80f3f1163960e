"""Discrete momentum pencils and exact operator-identity checks.

Two complementary tools.  The grid half discretizes the coupled
first-order system for one particle on a line: an energy-linear
Hermitian pencil whose auxiliary block can be eliminated exactly,
recovering the standard three-point Schroedinger operator as the two
bands of a real symmetric tridiagonal matrix.  The
operator half writes minimal-coupling operators as elements of the Weyl
algebra, normal-ordered polynomials in the 3N coordinates and their 3N
derivatives multiplied by ``weyl_product``, so an operator identity
becomes a finite coefficient comparison that holds for every wave
function at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import relative_residual, tridiagonal_norm
from .polynomials import Polynomial, weyl_product
from .spin import embed_spin, spin_dot
from .units import ATOMIC, Units

#: An energy whose relative root distance (pencil_root_distance) falls
#: below this guard is an eigenvalue of the pencil.  Measured distances
#: read at most 1.3e-15 at the levels and at least 1.1e-4 at the midpoints
#: between separated levels, on the box at n = 30, the harmonic well at
#: n = 80 (every level, exact double pairs included) and n = 660, and the
#: double well 0.05 (x^2 - 25)^2 at n = 400 (the lowest 13 levels).
PENCIL_SINGULARITY_GUARD = 1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n interior points between Dirichlet endpoints."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 interior points, got {self.n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True, eq=False)
class Pencil1D:
    """Energy-linear Hermitian pencil coupling a state to its momentum image.

    The leading n rows read (E - V) psi1 + M^H psi2 = 0 and the trailing
    n + 1 rows read M psi1 + psi2 = 0, with M = -i D the (n + 1) x n lower
    bidiagonal momentum, so eliminating psi2 yields the second-order
    operator D^T D + diag(V).  D is real and stored as its two bands:
    ``diagonal[k] = D[k, k]`` and ``subdiagonal[k] = D[k + 1, k]``.  The
    -i of p -> -i hbar d/dx is the only phase the pencil needs: any other
    phase of a bidiagonal momentum is a gauge, which a diagonal unitary
    change of basis removes.  That change of basis leaves det G(E) and the
    spectrum of M^H M + V as they are, so the real bands lose nothing.
    """

    diagonal: np.ndarray
    subdiagonal: np.ndarray
    potential: np.ndarray

    def __post_init__(self):
        if any(np.iscomplexobj(part) for part in (self.diagonal, self.subdiagonal, self.potential)):
            raise ValueError("pencil data must be real: store the momentum M = -i D by its real bands D")
        diagonal = np.asarray(self.diagonal, dtype=float)
        subdiagonal = np.asarray(self.subdiagonal, dtype=float)
        potential = np.asarray(self.potential, dtype=float)
        if potential.ndim != 1 or not diagonal.shape == subdiagonal.shape == potential.shape:
            raise ValueError(
                f"momentum bands {diagonal.shape} and {subdiagonal.shape} "
                f"must match potential shape {potential.shape}"
            )
        if not all(np.isfinite(part).all() for part in (diagonal, subdiagonal, potential)):
            raise ValueError("pencil data must be finite")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "subdiagonal", subdiagonal)
        object.__setattr__(self, "potential", potential)

    @property
    def n(self) -> int:
        return self.potential.shape[0]

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    @cached_property
    def _moduli(self) -> tuple[list[float], list[float]]:
        """``|a_k|`` and ``|b_k|`` of the momentum bands, as Python floats."""
        return np.abs(self.diagonal).tolist(), np.abs(self.subdiagonal).tolist()

    def log_abs_det(self, energy: float) -> tuple[float, float]:
        """``(log|det G(E)|, d log|det G(E)| / dE)`` from one O(n) pivoted elimination.

        Ordering rows and columns as psi2_0, psi1_0, psi2_1, psi1_1, ...,
        psi2_n makes G(E) tridiagonal with diagonal 1, E - V_0, 1, ..., 1
        and off-diagonal M_00, M_10, M_11, M_21, ...; a diagonal unitary
        similarity then turns the off-diagonal into its moduli.  Neither
        step changes the determinant.  The elimination runs on that real
        matrix, two rows at a time, and pivots like LAPACK ?gttrf: at each
        step the row with the larger entry in the pivot column leads, so a
        row swap gives U a second superdiagonal.  Only the two live entries
        of the leading row are kept, with their derivatives along E by the
        product and quotient rules; only the E - V_k entries move with E.
        The slope is the sum of pivot' / pivot.  An exactly singular pencil
        returns ``(-inf, inf)``.
        """
        shifted = energy - self.potential
        if not np.isfinite(shifted).all():
            raise ValueError(f"E - V must be finite, got energy {energy!r}")
        moduli_a, moduli_b = self._moduli
        pivots = []
        slope = 0.0
        # The leading row is (lead, upper) in columns i, i + 1; the row below
        # it is (modulus, diagonal, next modulus) in columns i .. i + 2.  The
        # moduli do not move with E, so a swapped-in pivot has derivative 0.
        # ``lead >= m or lead <= -m`` is ``abs(lead) >= m`` for the modulus m,
        # NaN included.  A diagonal 1 drops its product (exact); a rate 0
        # drops its term, which changes no pivot and no bit of the slope.
        lead, upper = 1.0, moduli_a[0] if moduli_a else 0.0
        lead_rate = upper_rate = 0.0
        for shift, a, b, a_next in zip(shifted.tolist(), moduli_a, moduli_b, moduli_a[1:] + [0.0]):
            # Row psi1_k: (a, E - V_k, b), with rate 1 on the diagonal.
            if lead >= a or lead <= -a:
                if lead == 0.0:
                    return -math.inf, math.inf
                pivots.append(lead)
                share = lead_rate / lead
                slope += share
                factor = a / lead
                lead, lead_rate = shift - factor * upper, 1.0 - factor * (upper_rate - upper * share)
                upper, upper_rate = b, 0.0
            else:
                pivots.append(a)
                factor, factor_rate = lead / a, lead_rate / a
                lead, lead_rate = upper - factor * shift, upper_rate - factor_rate * shift - factor
                upper, upper_rate = -factor * b, -factor_rate * b
            # Row psi2_(k+1): (b, 1, a_(k+1)), with rate 0 on the diagonal.
            if lead >= b or lead <= -b:
                if lead == 0.0:
                    return -math.inf, math.inf
                pivots.append(lead)
                share = lead_rate / lead
                slope += share
                factor = b / lead
                lead, lead_rate = 1.0 - factor * upper, -factor * (upper_rate - upper * share)
                upper, upper_rate = a_next, 0.0
            else:
                pivots.append(b)
                factor, factor_rate = lead / b, lead_rate / b
                lead, lead_rate = upper - factor, upper_rate - factor_rate
                upper, upper_rate = -factor * a_next, -factor_rate * a_next
        if lead == 0.0:
            return -math.inf, math.inf
        pivots.append(lead)
        slope += lead_rate / lead
        return float(np.log(np.abs(np.array(pivots))).sum()), slope


def coupled_pencil(grid: Grid1D, potential, mass: float, hbar: float = 1.0) -> Pencil1D:
    """First-order pencil for a scalar potential on the grid.

    The momentum differences the n interior values onto the n + 1 cell
    edges, with both boundary values pinned to zero: M = -i D with
    D[k, k] = c/h and D[k + 1, k] = -c/h for c = hbar / sqrt(2m), so D^T D
    is (hbar^2/2m) times the exact three-point Dirichlet Laplacian.  Its eigenvalues
    reach the kinetic scale 4 hbar^2 / (2m h^2), which must be finite and
    at least 2 / (PENCIL_SINGULARITY_GUARD * max float), about 1.1e-300.
    The floor makes ``root_distance`` sound: every interior row of
    T = D^T D + V holds two off-diagonal entries of modulus
    hbar^2 / (2m h^2), so |T|_1 >= 2 hbar^2 / (2m h^2), at least
    1 / (PENCIL_SINGULARITY_GUARD * max float).  A slope that overflows,
    which ``root_distance`` reads as 0, is a Newton step below
    1 / max float, so it can only happen within the guard of a root.  Every
    band square, a quarter of the scale, is a normal float as well.  A
    setting outside these bounds is rejected before any array is built.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    settings = (
        f"mass = {mass!r}, hbar = {hbar!r} and the grid span [{grid.x_min!r}, {grid.x_max!r}] "
        f"with n = {grid.n} (h = {grid.h!r})"
    )
    denominator = 2.0 * mass * grid.h * grid.h
    kinetic = 4.0 * hbar * hbar / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(kinetic):
        raise ValueError(f"hbar^2 / (2 mass h^2) is not finite for {settings}")
    floor = 2.0 / (PENCIL_SINGULARITY_GUARD * sys.float_info.max)
    if kinetic < floor:
        raise ValueError(f"4 hbar^2 / (2 mass h^2) = {kinetic!r} underflows below {floor!r} for {settings}")
    v = np.asarray(potential, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"potential must have {grid.n} samples, got shape {v.shape}")
    modulus = hbar / math.sqrt(2.0 * mass) * (1.0 / grid.h)
    return Pencil1D(np.full(grid.n, modulus), np.full(grid.n, -modulus), v)


def eliminate_pencil(pencil: Pencil1D) -> tuple[np.ndarray, np.ndarray]:
    """Exact Schur complement onto the state block, M^H M + diag(V) = D^T D + diag(V), as its two bands.

    With D's diagonal a and subdiagonal b the product is real symmetric
    tridiagonal: the diagonal a_j^2 + b_j^2 + V_j and the off-diagonal
    b_j a_(j+1) beside it.  Returns ``(diagonal, offdiagonal)`` as float64,
    the input of ``linalg.tridiagonal_eigen``; no matrix is formed.
    """
    a, b = pencil.diagonal, pencil.subdiagonal
    return a * a + b * b + pencil.potential, b[:-1] * a[1:]


def auxiliary_component(pencil: Pencil1D, psi1) -> np.ndarray:
    """Eliminated component psi2 = -M psi1 = i D psi1; stacking (psi1, psi2) nulls the pencil at an eigenvalue."""
    psi1 = np.asarray(psi1)
    if psi1.shape != (pencil.n,):
        raise ValueError(f"state must have length {pencil.n}, got shape {psi1.shape}")
    image = np.append(pencil.diagonal * psi1, 0.0)
    image[1:] += pencil.subdiagonal * psi1
    return 1j * image


def root_distance(slope: float, norm: float) -> float:
    """Newton step from an energy to the nearest root of det G, relative to ``norm``.

    ``slope`` is d log|det G(E)| / dE at the energy and ``norm`` the 1-norm
    of the eliminated operator.  det G(E) is the characteristic polynomial
    of that operator, so the slope is the sum of 1 / (E - lambda_k) over
    its eigenvalues, and 1 / |slope| is the Newton step |det G / det G'|.
    Near a simple root it is the distance to that root; at an exact double
    root it reads half of it, so the nearest eigenvalue needs no other
    eigenvalue.  An exactly singular pencil (infinite slope) reads 0, and
    so does a slope that overflowed to NaN: that takes a pivot below the
    floating-point range of its derivative.  Reading such a slope as 0 is
    sound wherever ``norm`` is at least 1 / (PENCIL_SINGULARITY_GUARD * max
    float), as ``coupled_pencil`` requires: a slope beyond the float range
    is then a relative step below the guard anyway.  A zero operator
    (``norm`` 0) is measured in absolute units.
    """
    if not math.isfinite(slope):
        return 0.0
    if slope == 0.0:
        return math.inf
    return 1.0 / abs(slope) / (norm or 1.0)


def pencil_root_distance(pencil: Pencil1D, energy: float) -> float:
    """``root_distance`` at ``energy``, with the slope and the norm taken from the pencil."""
    return root_distance(pencil.log_abs_det(energy)[1], tridiagonal_norm(*eliminate_pencil(pencil)))


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """Uniform magnetic field with a linear vector potential.

    ``coeffs[a, b]`` multiplies coordinate b in component a of the
    potential; the default is the symmetric gauge (B x r)/2.  The curl of
    the stored coefficients must reproduce the field exactly.
    """

    b: tuple[float, float, float]
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        b = tuple(float(x) for x in self.b)
        if len(b) != 3 or not all(math.isfinite(x) for x in b):
            raise ValueError(f"field must be a finite 3-vector, got {self.b}")
        object.__setattr__(self, "b", b)
        if self.coeffs is None:
            bx, by, bz = b
            coeffs = 0.5 * np.array(
                [[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]]
            )
        else:
            coeffs = np.asarray(self.coeffs, dtype=float)
            if coeffs.shape != (3, 3) or not np.isfinite(coeffs).all():
                raise ValueError("gauge coefficients must form a finite 3x3 matrix")
        curl = (
            coeffs[2, 1] - coeffs[1, 2],
            coeffs[0, 2] - coeffs[2, 0],
            coeffs[1, 0] - coeffs[0, 1],
        )
        if curl != b:
            raise ValueError(f"gauge curl {curl} does not reproduce the field {b}")
        object.__setattr__(self, "coeffs", coeffs)

    def potential_polynomial(self, axis: int, particle: int, nparticles: int) -> Polynomial:
        """Component ``axis`` (0..2) of the potential at one particle's coordinates."""
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        if not 1 <= particle <= nparticles:
            raise ValueError(f"particle must be in 1..{nparticles}, got {particle}")
        nvars = 3 * nparticles
        base = 3 * (particle - 1)
        data = {}
        for b_axis in range(3):
            value = self.coeffs[axis, b_axis]
            if value != 0:
                exps = [0] * nvars
                exps[base + b_axis] = 1
                data[tuple(exps)] = value
        return Polynomial(nvars, data)


def _kinetic_momenta(field: FieldConfig, charge: float, particle: int, nparticles: int, units: Units):
    """[pi_0, pi_1, pi_2], pi_a = (hbar/i) d_a - (q/c) A_a(x), of one particle over the 6N operator variables.

    The coordinates are the first 3N of the 6N variables, the slots of
    particles 1..N among 2N, so ``potential_polynomial`` over 2N particles
    places A on them.
    """
    return [
        Polynomial.variable(6 * nparticles, 3 * (nparticles + particle - 1) + axis) * (units.hbar / 1j)
        - field.potential_polynomial(axis, particle, 2 * nparticles) * (charge / units.light_speed)
        for axis in range(3)
    ]


def _particle_terms(field: FieldConfig, spec, particle: int, nparticles: int, units: Units, weight: float):
    """Operands of one particle's Pauli identity over the 6N operator variables.

    Returns (weight, [pi_0, pi_1, pi_2], [sigma_1, sigma_2, sigma_3], S)
    with the ``_kinetic_momenta`` pi_a and S = -(hbar q / c) sigma . B.
    """
    sigmas = [embed_spin(axis, particle, nparticles) for axis in (1, 2, 3)]
    spin = spin_dot(field.b, particle, nparticles) * (-units.hbar * (spec.charge / units.light_speed))
    return weight, _kinetic_momenta(field, spec.charge, particle, nparticles, units), sigmas, spin


def _pauli_sides(terms, potential: Polynomial | None, nparticles: int):
    """Both sides of sum_k w_k (sigma_k . pi_k)^2 + U = sum_k w_k (pi_k^2 + S_k) + U.

    Each side is a sparse {(i, j): operator} table over the 2^N spin
    indices.  sigma_k . pi_k has one entry wherever an embedded Pauli
    matrix does.
    """
    nvars = 6 * nparticles
    lhs: dict[tuple[int, int], Polynomial] = {}
    rhs: dict[tuple[int, int], Polynomial] = {}

    def add(table, key, operator):
        table[key] = table[key] + operator if key in table else operator

    for weight, momenta, sigmas, spin in terms:
        rows: list[dict[int, Polynomial]] = [{} for _ in range(2**nparticles)]
        for pi, sigma in zip(momenta, sigmas):
            for i, j in zip(*np.nonzero(sigma)):
                add(rows[i], j, pi * sigma[i, j])
        square = sum((weyl_product(pi, pi) for pi in momenta), Polynomial(nvars)) * weight
        for i, row in enumerate(rows):
            for middle, left in row.items():
                for j, right in rows[middle].items():
                    add(lhs, (i, j), weyl_product(left, right) * weight)
            add(rhs, (i, i), square)
        for i, j in zip(*np.nonzero(spin)):
            add(rhs, (i, j), Polynomial.constant(nvars, spin[i, j] * weight))
    if potential is not None:
        for i in range(2**nparticles):
            add(lhs, (i, i), potential)
            add(rhs, (i, i), potential)
    return lhs, rhs


def _magnitude(poly: Polynomial) -> Polynomial:
    return Polynomial(poly.nvars, {exps: abs(value) for exps, value in poly.coeffs.items()})


def _pauli_residual(terms, potential: Polynomial | None, nparticles: int) -> float:
    """Largest coefficient gap between the two sides of ``_pauli_sides``, relative to its terms.

    Rerunning the same products on the moduli of every operand gives, per
    coefficient, the sum of the moduli of the terms that produce it on
    either side; each gap is divided by that sum, so the residual is a
    relative rounding error in any unit system.
    """
    lhs, rhs = _pauli_sides(terms, potential, nparticles)
    moduli = [
        (weight, [_magnitude(pi) for pi in momenta], [np.abs(sigma) for sigma in sigmas], np.abs(spin))
        for weight, momenta, sigmas, spin in terms
    ]
    lhs_size, rhs_size = _pauli_sides(
        moduli, None if potential is None else _magnitude(potential), nparticles
    )
    zero = Polynomial(6 * nparticles)
    gaps, scales = [], []
    for key in lhs_size.keys() | rhs_size.keys():
        gap = lhs.get(key, zero) - rhs.get(key, zero)
        scale = lhs_size.get(key, zero) + rhs_size.get(key, zero)
        gaps += [gap.coeffs.get(exps, 0.0) for exps in scale.coeffs]
        scales += [size.real for size in scale.coeffs.values()]
    return relative_residual(gaps, scales)


def kinetic_square_residual(
    field: FieldConfig,
    particle_spec,
    particle: int = 1,
    nparticles: int = 1,
    units: Units = ATOMIC,
) -> float:
    """Relative residual of (sigma . pi)^2 = pi^2 - (hbar q / c) sigma . B at one site.

    pi = p - (q/c) A for the given particle among ``nparticles``; both
    sides are compared as operators, coefficient by coefficient.
    """
    terms = [_particle_terms(field, particle_spec, particle, nparticles, units, 1.0)]
    return _pauli_residual(terms, None, nparticles)


def hamiltonian_equivalence_residual(
    particles,
    fields,
    potential: Polynomial | None,
    units: Units = ATOMIC,
) -> float:
    """Relative coefficient gap between the squared-block Hamiltonian and its expansion.

    Squared-block side: sum_k (sigma_k . (p_k - (q_k/c) A_k))^2 / 2 m_k + U.
    Expanded side: sum_k (p_k - (q_k/c) A_k)^2 / 2 m_k + U
    minus sum_k (q_k hbar / 2 m_k c) sigma_k . B_k.
    ``potential`` is U over the 3N coordinates, a multiplication operator.
    """
    particles = tuple(particles)
    fields = tuple(fields)
    n = len(particles)
    if len(fields) != n:
        raise ValueError("need one particle spec and one field per particle")
    terms = [
        _particle_terms(field, spec, k, n, units, 1.0 / (2.0 * spec.mass))
        for k, (spec, field) in enumerate(zip(particles, fields), start=1)
    ]
    if potential is not None:
        potential = potential.substitute_linear(np.eye(3 * n, 6 * n))
    return _pauli_residual(terms, potential, n)
