"""Verification toolkit for linear factorizations of extended Hamiltonians.

The package constructs the factorization matrices for single-particle and
N-particle systems, proves their determinant and null-space properties
numerically, derives the spin-coupled Hamiltonian as an exact identity of
differential operators, discretizes the one-dimensional problem as a
first-order matrix pencil, and evaluates the weak-field Zeeman structure of
a bound pair of opposite charges.
"""

from .extham import (
    FactorizationReport,
    OffShellError,
    ParticleSpec,
    Sample1D,
    SystemSample,
    determinant_report,
    determinant_report_1d,
    energy_defect,
    energy_defect_1d,
    factor_matrix,
    factor_matrix_1d,
    kinetic_block,
    null_basis,
    null_vector_1d,
    random_sample,
    random_sample_1d,
)
from .linalg import (
    SingularBlockError,
    block_det_schur,
    det_lu,
    schur_factor_check,
    tridiagonal_eigen,
)
from .polynomials import Polynomial, weyl_product
from .quantize import (
    PENCIL_SINGULARITY_GUARD,
    FieldConfig,
    Grid1D,
    Pencil1D,
    auxiliary_component,
    coupled_pencil,
    eliminate_pencil,
    hamiltonian_equivalence_residual,
    kinetic_square_residual,
    pencil_root_distance,
    root_distance,
)
from .spin import (
    CommutatorEntry,
    CommutatorReport,
    commutator_table,
    embed_spin,
    pauli,
    product_identity_residual,
    spin_dot,
)
from .units import ATOMIC, SPEED_OF_LIGHT, Units
from .zeeman import (
    LevelRow,
    MassDecomposition,
    ZeemanSystem,
    bohr_energy,
    center_of_mass_residual,
    decompose_masses,
    lamb_g_factor,
    larmor_frequency,
    level_labels,
    radial_eigenvalues,
    splitting_table,
    splitting_terms,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC",
    "PENCIL_SINGULARITY_GUARD",
    "SPEED_OF_LIGHT",
    "CommutatorEntry",
    "CommutatorReport",
    "FactorizationReport",
    "FieldConfig",
    "Grid1D",
    "LevelRow",
    "MassDecomposition",
    "OffShellError",
    "ParticleSpec",
    "Pencil1D",
    "Polynomial",
    "Sample1D",
    "SingularBlockError",
    "SystemSample",
    "Units",
    "ZeemanSystem",
    "auxiliary_component",
    "block_det_schur",
    "bohr_energy",
    "center_of_mass_residual",
    "commutator_table",
    "coupled_pencil",
    "decompose_masses",
    "det_lu",
    "determinant_report",
    "determinant_report_1d",
    "eliminate_pencil",
    "embed_spin",
    "energy_defect",
    "energy_defect_1d",
    "factor_matrix",
    "factor_matrix_1d",
    "hamiltonian_equivalence_residual",
    "kinetic_block",
    "kinetic_square_residual",
    "lamb_g_factor",
    "larmor_frequency",
    "level_labels",
    "null_basis",
    "null_vector_1d",
    "pauli",
    "pencil_root_distance",
    "product_identity_residual",
    "radial_eigenvalues",
    "random_sample",
    "random_sample_1d",
    "root_distance",
    "schur_factor_check",
    "spin_dot",
    "splitting_table",
    "splitting_terms",
    "tridiagonal_eigen",
    "weyl_product",
]
