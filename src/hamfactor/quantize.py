"""Discrete momentum pencils and exact operator-identity checks.

Two complementary tools.  The grid half discretizes the coupled
first-order system for one particle on a line: an energy-linear
Hermitian pencil whose auxiliary block can be eliminated exactly,
recovering the standard three-point Schroedinger operator.  The
polynomial half applies momentum and minimal-coupling operators to
polynomial spinors with exact coefficient arithmetic, which turns
operator identities into finite coefficient comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import logabsdet_tridiagonal
from .polynomials import DEFAULT_MAX_DEGREE, Polynomial, PolySpinor, random_polynomial
from .spin import embed_spin
from .units import ATOMIC, Units

#: An energy whose relative root distance (pencil_root_distance) falls
#: below this guard is an eigenvalue of the pencil.  Measured distances
#: sit below 1e-12 at eigenvalues and above 1e-4 between them.
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


def momentum_matrix(grid: Grid1D, mass: float, hbar: float = 1.0) -> np.ndarray:
    """Dense (n + 1) x n staggered momentum of ``coupled_pencil``, scaled by 1/sqrt(2m)."""
    return coupled_pencil(grid, np.zeros(grid.n), mass, hbar).momentum


@dataclass(frozen=True, eq=False)
class Pencil1D:
    """Energy-linear Hermitian pencil coupling a state to its momentum image.

    The leading n rows read (E - V) psi1 + M^H psi2 = 0 and the trailing
    n + 1 rows read M psi1 + psi2 = 0, with M the (n + 1) x n lower
    bidiagonal momentum matrix, so eliminating psi2 yields the
    second-order operator M^H M + diag(V).  M is stored as its two
    bands: ``diagonal[k] = M[k, k]`` and ``subdiagonal[k] = M[k + 1, k]``.
    """

    diagonal: np.ndarray
    subdiagonal: np.ndarray
    potential: np.ndarray

    def __post_init__(self):
        diagonal = np.asarray(self.diagonal, dtype=np.complex128)
        subdiagonal = np.asarray(self.subdiagonal, dtype=np.complex128)
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

    @property
    def momentum(self) -> np.ndarray:
        """The dense (n + 1) x n momentum M, assembled from its bands."""
        n = self.n
        columns = np.arange(n)
        m = np.zeros((n + 1, n), dtype=np.complex128)
        m[columns, columns] = self.diagonal
        m[columns + 1, columns] = self.subdiagonal
        return m

    def matrix(self, energy: float) -> np.ndarray:
        """Assembled Hermitian pencil at the given energy."""
        n = self.n
        momentum = self.momentum
        g = np.zeros((self.size, self.size), dtype=np.complex128)
        g[:n, :n] = np.diag(energy - self.potential)
        g[:n, n:] = momentum.conj().T
        g[n:, :n] = momentum
        g[n:, n:] = np.eye(n + 1)
        return g

    def log_abs_det(self, energy: float) -> float:
        """log|det G(E)| from one O(n) banded factorization.

        Ordering rows and columns as psi2_0, psi1_0, psi2_1, psi1_1, ...,
        psi2_n makes G(E) tridiagonal with diagonal 1, E - V_0, 1, ..., 1
        and off-diagonal M_00, M_10, M_11, M_21, ...; a diagonal unitary
        similarity then turns the off-diagonal into its moduli.  Neither
        step changes the determinant.
        """
        diagonal = np.ones(self.size)
        diagonal[1::2] = energy - self.potential
        offdiagonal = np.empty(2 * self.n)
        offdiagonal[0::2] = np.abs(self.diagonal)
        offdiagonal[1::2] = np.abs(self.subdiagonal)
        return logabsdet_tridiagonal(diagonal, offdiagonal)[0]


def coupled_pencil(grid: Grid1D, potential, mass: float, hbar: float = 1.0) -> Pencil1D:
    """First-order pencil for a scalar potential on the grid.

    The momentum differences the n interior values onto the n + 1 cell
    edges, with both boundary values pinned to zero: M = (-i hbar /
    sqrt(2m)) D with D[k, k] = 1/h and D[k + 1, k] = -1/h, so M^H M is
    (hbar^2/2m) times the exact three-point Dirichlet Laplacian.
    """
    v = np.asarray(potential, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"potential must have {grid.n} samples, got shape {v.shape}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    step = 1.0 / grid.h
    scale = (-1j) * (hbar / math.sqrt(2.0 * mass))
    diagonal = scale * np.full(grid.n, step, dtype=np.complex128)
    subdiagonal = scale * np.full(grid.n, -step, dtype=np.complex128)
    return Pencil1D(diagonal, subdiagonal, v)


def eliminate_pencil(pencil: Pencil1D) -> np.ndarray:
    """Exact Schur complement onto the state block: M^H M + diag(V).

    With diagonal a and subdiagonal b the product is tridiagonal,
    |a_j|^2 + |b_j|^2 on the diagonal and conj(b_j) a_(j+1) above it,
    and is written straight into the one n x n result.
    """
    a, b = pencil.diagonal, pencil.subdiagonal
    n = pencil.n
    out = np.zeros((n, n), dtype=np.complex128)
    flat = out.reshape(-1)
    flat[:: n + 1] = (a.conj() * a + b.conj() * b) + pencil.potential
    flat[1 :: n + 1] = b[:-1].conj() * a[1:]
    flat[n :: n + 1] = a[1:].conj() * b[:-1]
    return out


def auxiliary_component(pencil: Pencil1D, psi1) -> np.ndarray:
    """Eliminated component -M psi1; stacking (psi1, psi2) nulls the pencil at an eigenvalue."""
    psi1 = np.asarray(psi1, dtype=np.complex128)
    if psi1.shape != (pencil.n,):
        raise ValueError(f"state must have length {pencil.n}, got shape {psi1.shape}")
    psi2 = np.zeros(pencil.n + 1, dtype=np.complex128)
    psi2[:-1] = pencil.diagonal * psi1
    psi2[1:] += pencil.subdiagonal * psi1
    return -psi2


#: Eigenvalues within this relative band of the nearest one are treated as
#: a single root cluster by root_distance.  Symmetric potentials
#: produce numerically exact double eigenvalues (wall-localized parity
#: pairs), and dividing by a zero gap would wreck the estimate.
CLUSTER_RESOLUTION = 1e-9


def root_distance(log_abs_det: float, energy: float, spectrum) -> float:
    """Distance from ``energy`` to the nearest determinant root, relative to the spectral radius.

    ``log_abs_det`` is log|det G(energy)| and ``spectrum`` holds every
    eigenvalue of the eliminated operator.  The pencil determinant equals
    the characteristic polynomial of that operator, so |det G(E)| divided
    by the product of gaps to the remote eigenvalues estimates the
    distance to the nearest root.  Roots closer than
    ``CLUSTER_RESOLUTION`` times the spectral radius count as one cluster
    of multiplicity m, and the estimate is the geometric mean distance
    (m-th root of the remaining product), which keeps exactly degenerate
    pairs finite.  Everything runs in log space, so the astronomical raw
    determinant never overflows.  At a true eigenvalue the relative
    distance sits at rounding level (below 1e-12); between eigenvalues it
    reports the gap to the closer one.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise ValueError(f"spectrum must be a nonempty vector of eigenvalues, got shape {spectrum.shape}")
    if math.isinf(log_abs_det):
        return 0.0
    gaps = np.sort(np.abs(energy - spectrum))
    scale = float(np.abs(spectrum).max())
    if scale == 0.0:
        scale = 1.0
    # The nearest root is always the quantity being estimated; anything
    # within the resolution band belongs to the same cluster.
    multiplicity = max(1, int(np.count_nonzero(gaps <= CLUSTER_RESOLUTION * scale)))
    log_den = float(np.sum(np.log(gaps[multiplicity:])))
    exponent = (log_abs_det - log_den) / multiplicity
    if exponent > 700.0:  # exp would overflow; the point is nowhere near a root
        return math.inf
    return math.exp(exponent) / scale


def pencil_root_distance(pencil: Pencil1D, energy: float, spectrum) -> float:
    """``root_distance`` with log|det G(energy)| taken from the pencil."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.ndim != 1 or spectrum.size != pencil.n:
        raise ValueError(
            f"spectrum must hold all {pencil.n} eigenvalues, got shape {spectrum.shape}"
        )
    return root_distance(pencil.log_abs_det(energy), energy, spectrum)


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


def apply_matrix(spinor: PolySpinor, matrix) -> PolySpinor:
    """Mix spinor components with a constant 2^N x 2^N matrix."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    dim = 2**spinor.nparticles
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim}, got {matrix.shape}")
    nvars = 3 * spinor.nparticles
    comps = []
    for i in range(dim):
        total = Polynomial(nvars)
        for j in range(dim):
            value = matrix[i, j]
            if value != 0:
                total = total + spinor.components[j] * value
        comps.append(total)
    return PolySpinor(spinor.nparticles, comps, spinor.max_degree)


def apply_scalar(spinor: PolySpinor, poly: Polynomial) -> PolySpinor:
    """Multiply every component by a scalar polynomial."""
    return spinor.map(lambda c: poly * c)


def apply_momentum(spinor: PolySpinor, particle: int, axis: int, hbar: float = 1.0) -> PolySpinor:
    """(hbar/i) d/dx for one particle coordinate, applied componentwise."""
    if not 1 <= particle <= spinor.nparticles:
        raise ValueError(f"particle must be in 1..{spinor.nparticles}, got {particle}")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    var = 3 * (particle - 1) + axis
    factor = hbar / 1j
    return spinor.map(lambda c: c.diff(var) * factor)


def covariant_momentum(
    spinor: PolySpinor,
    particle: int,
    axis: int,
    field: FieldConfig,
    charge: float,
    units: Units = ATOMIC,
) -> PolySpinor:
    """One component of p - (q/c) A applied to the spinor."""
    momentum = apply_momentum(spinor, particle, axis, units.hbar)
    gauge = field.potential_polynomial(axis, particle, spinor.nparticles)
    if gauge.is_zero:
        return momentum
    coupling = charge / units.light_speed
    return momentum - apply_scalar(spinor, gauge) * coupling


def sigma_covariant(
    spinor: PolySpinor,
    particle: int,
    field: FieldConfig,
    charge: float,
    units: Units = ATOMIC,
) -> PolySpinor:
    """sigma_particle . (p - (q/c) A) applied to the spinor."""
    total = None
    for axis in range(3):
        component = covariant_momentum(spinor, particle, axis, field, charge, units)
        mixed = apply_matrix(component, embed_spin(axis + 1, particle, spinor.nparticles))
        total = mixed if total is None else total + mixed
    return total


def _covariant_square(
    spinor: PolySpinor,
    particle: int,
    field: FieldConfig,
    charge: float,
    units: Units,
) -> PolySpinor:
    """(p - (q/c) A) . (p - (q/c) A) applied componentwise (no spin mixing)."""
    total = None
    for axis in range(3):
        once = covariant_momentum(spinor, particle, axis, field, charge, units)
        twice = covariant_momentum(once, particle, axis, field, charge, units)
        total = twice if total is None else total + twice
    return total


def spin_field_matrix(field: FieldConfig, particle: int, nparticles: int) -> np.ndarray:
    """sigma_particle . B as a constant product-space matrix."""
    dim = 2**nparticles
    out = np.zeros((dim, dim), dtype=np.complex128)
    for axis in range(3):
        if field.b[axis] != 0:
            out += field.b[axis] * embed_spin(axis + 1, particle, nparticles)
    return out


def total_spin_coupling_matrix(particles, fields, nparticles: int, units: Units = ATOMIC) -> np.ndarray:
    """sum_k (q_k hbar / 2 m_k c) sigma_k . B_k as one matrix."""
    particles = tuple(particles)
    fields = tuple(fields)
    if len(particles) != nparticles or len(fields) != nparticles:
        raise ValueError("need one particle spec and one field per particle")
    dim = 2**nparticles
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k, (spec, field) in enumerate(zip(particles, fields), start=1):
        coupling = spec.charge * units.hbar / (2.0 * spec.mass * units.light_speed)
        out += coupling * spin_field_matrix(field, k, nparticles)
    return out


def kinetic_square_residual(
    field: FieldConfig,
    particle_spec,
    spinor: PolySpinor,
    particle: int = 1,
    units: Units = ATOMIC,
) -> float:
    """Residual of the minimal-coupling square identity at one site.

    Applies (sigma . (p - (q/c) A))^2 on one side and
    (p - (q/c) A)^2 - (hbar q / c) sigma . B on the other, to the same
    polynomial spinor, and returns the largest coefficient difference.
    """
    q = particle_spec.charge
    once = sigma_covariant(spinor, particle, field, q, units)
    lhs = sigma_covariant(once, particle, field, q, units)
    quad = _covariant_square(spinor, particle, field, q, units)
    coupling = units.hbar * q / units.light_speed
    spin_term = apply_matrix(spinor, spin_field_matrix(field, particle, spinor.nparticles))
    rhs = quad - spin_term * coupling
    return lhs.max_coeff_diff(rhs)


def hamiltonian_equivalence_residual(
    particles,
    fields,
    potential: Polynomial | None,
    spinor: PolySpinor,
    units: Units = ATOMIC,
) -> float:
    """Coefficient gap between the squared-block Hamiltonian and its expansion.

    Squared-block side: sum_k (sigma_k . (p_k - (q_k/c) A_k))^2 / 2 m_k + U.
    Expanded side: sum_k (p_k - (q_k/c) A_k)^2 / 2 m_k + U
    minus sum_k (q_k hbar / 2 m_k c) sigma_k . B_k.
    """
    n = spinor.nparticles
    particles = tuple(particles)
    fields = tuple(fields)
    if len(particles) != n or len(fields) != n:
        raise ValueError("need one particle spec and one field per particle")

    if potential is not None:
        lhs = apply_scalar(spinor, potential)
        rhs = apply_scalar(spinor, potential)
    else:
        zero = PolySpinor.constant(n, [0.0] * 2**n, spinor.max_degree)
        lhs, rhs = zero, zero

    for k, (spec, field) in enumerate(zip(particles, fields), start=1):
        weight = 1.0 / (2.0 * spec.mass)
        once = sigma_covariant(spinor, k, field, spec.charge, units)
        lhs = lhs + sigma_covariant(once, k, field, spec.charge, units) * weight
        rhs = rhs + _covariant_square(spinor, k, field, spec.charge, units) * weight
    rhs = rhs - apply_matrix(spinor, total_spin_coupling_matrix(particles, fields, n, units))
    return lhs.max_coeff_diff(rhs)


def random_spinor(
    rng: np.random.Generator,
    nparticles: int,
    degree: int = 3,
    max_terms: int = 8,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> PolySpinor:
    """Random polynomial spinor with components of total degree <= ``degree``."""
    nvars = 3 * nparticles
    comps = [random_polynomial(rng, nvars, degree, max_terms) for _ in range(2**nparticles)]
    return PolySpinor(nparticles, comps, max_degree)
