"""Energy defects of phase-space samples and their matrix factorizations.

A classical configuration is on shell when its energy matches the
Hamiltonian; the energy defect (energy minus Hamiltonian) measures the
violation.  The bordered Hermitian matrices built here are linear in the
energy and in every momentum component, and their determinants equal the
defect raised to a power fixed by the construction: 1 for the scalar 2x2
form, 2^N for the N-particle spinor form.  On shell the matrices turn
singular and their null vectors carry the spin state, which is what
makes the construction useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .spin import MAX_SITES, spin_dot
from .units import SPEED_OF_LIGHT

DEFAULT_SHELL_TOL = 1e-9
MAX_PARTICLES = MAX_SITES
REL_ERR_FLOOR = 1e-6


class OffShellError(ValueError):
    """Sample violates the energy shell beyond the allowed tolerance."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class ParticleSpec:
    """Mass and charge of one particle."""

    mass: float
    charge: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        _require_finite("charge", self.charge)


@dataclass(frozen=True)
class Sample1D:
    """One-dimensional sample: mass, momentum, local potential value, energy."""

    mass: float
    momentum: float
    potential: float
    energy: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        for name in ("momentum", "potential", "energy"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class SystemSample:
    """Phase-space sample for N charged spin-1/2 particles.

    ``momenta`` and ``potentials`` are (N, 3) arrays holding one linear
    momentum and one vector-potential value per particle; the coupling
    enters through p - (q/c) A.
    """

    particles: tuple[ParticleSpec, ...]
    momenta: np.ndarray
    potentials: np.ndarray
    scalar_potential: float
    energy: float
    light_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        particles = tuple(self.particles)
        if not particles:
            raise ValueError("need at least one particle")
        object.__setattr__(self, "particles", particles)
        n = len(particles)
        momenta = np.asarray(self.momenta, dtype=float)
        potentials = np.asarray(self.potentials, dtype=float)
        for name, arr in (("momenta", momenta), ("potentials", potentials)):
            if arr.shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} entries must be finite")
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "potentials", potentials)
        _require_finite("scalar_potential", self.scalar_potential)
        _require_finite("energy", self.energy)
        if not (math.isfinite(self.light_speed) and self.light_speed > 0):
            raise ValueError("light_speed must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.particles)

    def kinetic_momentum(self, j: int) -> np.ndarray:
        """p_j - (q_j / c) A_j for particle j (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"particle index must be in 1..{self.n}, got {j}")
        spec = self.particles[j - 1]
        return self.momenta[j - 1] - (spec.charge / self.light_speed) * self.potentials[j - 1]


def energy_defect_1d(s: Sample1D) -> float:
    """E - V - p^2/2m; zero exactly on shell."""
    return s.energy - s.potential - s.momentum**2 / (2.0 * s.mass)


def factor_matrix_1d(s: Sample1D, coeffs: tuple[float, float] | None = None) -> np.ndarray:
    """2x2 linear factorization of the 1-D energy defect.

    The default symmetric form carries p/sqrt(2m) on both off-diagonal
    slots.  ``coeffs=(a, b)`` selects the variant [[E - V, b p], [a p, 1]],
    whose determinant still equals the defect whenever a b = 1/(2m).
    """
    if coeffs is None:
        w = s.momentum / math.sqrt(2.0 * s.mass)
        lower, upper = w, w
    else:
        a, b = coeffs
        want = 1.0 / (2.0 * s.mass)
        if not (math.isfinite(a) and math.isfinite(b)) or abs(a * b - want) > 1e-12 * want:
            raise ValueError(f"off-diagonal coefficients must satisfy a*b = 1/(2m) = {want}")
        lower, upper = a * s.momentum, b * s.momentum
    return np.array(
        [[s.energy - s.potential, upper], [lower, 1.0]], dtype=np.complex128
    )


def null_vector_1d(s: Sample1D, coeff: complex = 1.0, tol: float = DEFAULT_SHELL_TOL) -> np.ndarray:
    """Null vector (c, -p c / sqrt(2m)) of the on-shell 2x2 factorization."""
    defect = energy_defect_1d(s)
    if abs(defect) > tol:
        raise OffShellError(
            f"sample is off shell: |energy defect| = {abs(defect):.3e} exceeds {tol:.1e}"
        )
    coeff = complex(coeff)
    return np.array([coeff, -(s.momentum / math.sqrt(2.0 * s.mass)) * coeff])


def energy_defect(s: SystemSample) -> float:
    """E - U - sum_j (p_j - (q_j/c) A_j)^2 / 2 m_j."""
    kinetic = sum(
        float(np.dot(s.kinetic_momentum(j), s.kinetic_momentum(j)))
        / (2.0 * s.particles[j - 1].mass)
        for j in range(1, s.n + 1)
    )
    return s.energy - s.scalar_potential - kinetic


def kinetic_block(j: int, s: SystemSample) -> np.ndarray:
    """Hermitian block sigma_j . (p_j - (q_j/c) A_j) / sqrt(2 m_j).

    Its square is the particle's kinetic energy times the identity.
    """
    vec = s.kinetic_momentum(j)
    return spin_dot(vec, j, s.n) / math.sqrt(2.0 * s.particles[j - 1].mass)


def factor_matrix(s: SystemSample) -> np.ndarray:
    """Bordered Hermitian factorization matrix of size 2^N (N+1).

    Layout: leading diagonal block (E - U) I, trailing diagonal identity
    blocks, and the kinetic blocks along the first block row and column.
    Linear in E and in every momentum component; its determinant is the
    energy defect raised to the spinor dimension 2^N.
    """
    n = s.n
    if n > MAX_PARTICLES:
        raise ValueError(f"particle count {n} exceeds configured maximum {MAX_PARTICLES}")
    d = 2**n
    size = d * (n + 1)
    g = np.zeros((size, size), dtype=np.complex128)
    g[:d, :d] = (s.energy - s.scalar_potential) * np.eye(d)
    for j in range(1, n + 1):
        block = kinetic_block(j, s)
        g[:d, j * d : (j + 1) * d] = block
        g[j * d : (j + 1) * d, :d] = block
        g[j * d : (j + 1) * d, j * d : (j + 1) * d] = np.eye(d)
    return g


def _rel_err(value: complex, target: complex) -> float:
    return abs(value - target) / max(abs(target), REL_ERR_FLOOR)


@dataclass(frozen=True)
class FactorizationReport:
    """Two determinant routes compared against the energy-defect power."""

    det_direct: complex
    det_schur: complex
    defect_power: float
    exponent: int
    max_rel_err: float

    def to_dict(self) -> dict:
        return {
            "det_direct": [self.det_direct.real, self.det_direct.imag],
            "det_schur": [self.det_schur.real, self.det_schur.imag],
            "defect_power": self.defect_power,
            "exponent": self.exponent,
            "max_rel_err": self.max_rel_err,
        }


def determinant_report(s: SystemSample) -> FactorizationReport:
    """Evaluate the N-particle determinant identity along two routes.

    The direct route runs pivoted LU on the full matrix; the block route
    eliminates the trailing identity blocks first.  Both must equal the
    energy defect raised to 2^N, the exponent this construction records.
    """
    g = factor_matrix(s)
    d = 2**s.n
    det_direct = linalg.det_lu(g)
    det_schur = linalg.block_det_schur(g, d)
    target = energy_defect(s) ** d
    err = linalg.worse(_rel_err(det_direct, target), _rel_err(det_schur, target))
    return FactorizationReport(det_direct, det_schur, target, d, err)


def determinant_report_1d(
    s: Sample1D, coeffs: tuple[float, float] | None = None
) -> FactorizationReport:
    """1-D specialization of the determinant identity: exponent 1."""
    g = factor_matrix_1d(s, coeffs)
    det_direct = linalg.det_lu(g)
    det_schur = linalg.block_det_schur(g, 1)
    target = energy_defect_1d(s)
    err = linalg.worse(_rel_err(det_direct, target), _rel_err(det_schur, target))
    return FactorizationReport(det_direct, det_schur, target, 1, err)


def null_basis(s: SystemSample, tol: float = DEFAULT_SHELL_TOL) -> list[np.ndarray]:
    """2^N stacked null vectors of the on-shell factorization matrix.

    Each vector seeds the leading spinor block with a unit vector and
    propagates it through the kinetic blocks with a sign flip; the top
    block row then evaluates to the energy defect times the seed, so on
    shell every vector is annihilated.
    """
    defect = energy_defect(s)
    if abs(defect) > tol:
        raise OffShellError(
            f"sample is off shell: |energy defect| = {abs(defect):.3e} exceeds {tol:.1e}"
        )
    d = 2**s.n
    blocks = [kinetic_block(j, s) for j in range(1, s.n + 1)]
    basis = []
    for i in range(d):
        seed = np.zeros(d, dtype=np.complex128)
        seed[i] = 1.0
        parts = [seed] + [-(block @ seed) for block in blocks]
        basis.append(np.concatenate(parts))
    return basis


def random_sample(
    rng: np.random.Generator,
    n_particles: int,
    on_shell: bool = False,
    light_speed: float = SPEED_OF_LIGHT,
) -> SystemSample:
    """Finite random sample; ``on_shell`` pins the energy to the Hamiltonian."""
    masses = rng.uniform(0.4, 2.5, n_particles)
    charges = rng.uniform(-1.5, 1.5, n_particles)
    particles = tuple(ParticleSpec(float(m), float(q)) for m, q in zip(masses, charges))
    momenta = rng.normal(size=(n_particles, 3))
    potentials = rng.normal(size=(n_particles, 3))
    scalar = float(rng.normal())
    kinetic = sum(
        float(np.dot(p - q / light_speed * a, p - q / light_speed * a)) / (2.0 * m)
        for p, a, m, q in zip(momenta, potentials, masses, charges)
    )
    energy = scalar + kinetic if on_shell else float(rng.normal())
    return SystemSample(particles, momenta, potentials, scalar, energy, light_speed)


def random_sample_1d(rng: np.random.Generator, on_shell: bool = False) -> Sample1D:
    """Finite random 1-D sample; ``on_shell`` pins the energy."""
    mass = float(rng.uniform(0.4, 2.5))
    momentum = float(rng.normal())
    potential = float(rng.normal())
    energy = potential + momentum**2 / (2.0 * mass) if on_shell else float(rng.normal())
    return Sample1D(mass, momentum, potential, energy)
