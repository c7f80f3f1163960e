"""Acceptance gate: ten go/no-go criteria for the toolkit.

Each test prints one ``ACCEPTANCE <k>: PASS|FAIL`` line (run pytest with
``-s`` or ``-rA`` to see them) and then asserts, so the suite doubles as
a machine-checkable gate and a human-readable checklist.  Tolerances are
pinned here on purpose; loosening them is a release decision, not a test
edit.
"""

import json
import math
import time

import numpy as np

from hamfactor import (
    ATOMIC,
    PENCIL_SINGULARITY_GUARD,
    FieldConfig,
    Grid1D,
    ParticleSpec,
    Units,
    ZeemanSystem,
    block_det_schur,
    center_of_mass_residual,
    commutator_table,
    coupled_pencil,
    decompose_masses,
    determinant_report,
    determinant_report_1d,
    eliminate_pencil,
    embed_spin,
    factor_matrix,
    factor_matrix_1d,
    hamiltonian_equivalence_residual,
    kinetic_square_residual,
    lamb_g_factor,
    larmor_frequency,
    null_basis,
    null_vector_1d,
    pencil_root_distance,
    product_identity_residual,
    radial_eigenvalues,
    random_sample,
    random_sample_1d,
    schur_factor_check,
    splitting_table,
    tridiagonal_eigen,
)
from hamfactor.cli import main as cli_main
from hamfactor.linalg import det_lu, worse
from reference import random_polynomial


def verdict(criterion: int, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    return passed


def test_criterion_01_determinant_identity():
    """N-particle determinant identity along both routes, off shell."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for nparticles in (1, 2, 3):
        for _ in range(100):
            sample = random_sample(rng, nparticles)
            report = determinant_report(sample)
            assert report.exponent == 2**nparticles
            worst = worse(worst, report.max_rel_err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert verdict(
        1, ok, f"det identity worst rel err {worst:.3e} (<=1e-9), {elapsed:.2f}s (<=10s)"
    )


def test_criterion_02_one_dimensional_factorization():
    """1-D determinant equals the energy defect; on-shell null vector."""
    rng = np.random.default_rng(102)
    worst_det = 0.0
    for trial in range(100):
        sample = random_sample_1d(rng)
        coeffs = None
        if trial % 2 == 1:
            a = float(rng.uniform(0.3, 1.8))
            coeffs = (a, 1.0 / (2.0 * sample.mass * a))
        worst_det = worse(worst_det, determinant_report_1d(sample, coeffs).max_rel_err)
    worst_null = 0.0
    for _ in range(100):
        sample = random_sample_1d(rng, on_shell=True)
        matrix = factor_matrix_1d(sample)
        vector = null_vector_1d(sample)
        scale = max(float(np.abs(matrix).max() * np.abs(vector).max()), 1.0)
        worst_null = worse(worst_null, float(np.abs(matrix @ vector).max()) / scale)
    ok = worst_det <= 1e-13 and worst_null <= 1e-12
    assert verdict(
        2, ok, f"det rel err {worst_det:.3e} (<=1e-13), null residual {worst_null:.3e} (<=1e-12)"
    )


def test_criterion_03_null_space_dimension():
    """On-shell nullity is exactly 2^N and constructed spinors are annihilated."""
    rng = np.random.default_rng(103)
    nullity_ok = True
    worst = 0.0
    for nparticles in (1, 2, 3):
        for _ in range(10):
            sample = random_sample(rng, nparticles, on_shell=True)
            matrix = factor_matrix(sample)
            singular_values = np.linalg.svd(matrix, compute_uv=False)
            nullity = int(np.sum(singular_values <= 1e-10 * singular_values[0]))
            nullity_ok = nullity_ok and nullity == 2**nparticles
            scale = float(np.linalg.norm(matrix))
            for theta in null_basis(sample):
                residual = float(np.linalg.norm(matrix @ theta))
                worst = worse(worst, residual / (scale * float(np.linalg.norm(theta))))
    ok = nullity_ok and worst <= 1e-10
    assert verdict(
        3, ok, f"nullity == 2^N: {nullity_ok}, worst |G theta| ratio {worst:.3e} (<=1e-10)"
    )


def test_criterion_04_block_determinant_lemma():
    """Three-factor reconstruction and block determinant on random matrices."""
    rng = np.random.default_rng(104)
    worst_recon = 0.0
    worst_det = 0.0
    for trial in range(100):
        size = 4 + trial % 9
        matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        split = 1 + trial % (size - 1)
        worst_recon = worse(worst_recon, schur_factor_check(matrix, split))
        direct = det_lu(matrix)
        blocked = block_det_schur(matrix, split)
        worst_det = worse(worst_det, abs(blocked - direct) / max(abs(direct), 1e-6))
    ok = worst_recon <= 1e-11 and worst_det <= 1e-10
    assert verdict(
        4,
        ok,
        f"reconstruction {worst_recon:.3e} (<=1e-11 of |U||S||L|), det gap {worst_det:.3e} (<=1e-10)",
    )


def test_criterion_05_spin_algebra():
    """Exact involution/tracelessness, product identity, commutator table."""
    exact_ok = True
    for nsites in (1, 2, 3, 4):
        identity = np.eye(2**nsites, dtype=np.complex128)
        for axis in (1, 2, 3):
            for site in range(1, nsites + 1):
                matrix = embed_spin(axis, site, nsites)
                exact_ok = exact_ok and np.array_equal(matrix @ matrix, identity)
                exact_ok = exact_ok and complex(np.trace(matrix)) == 0j

    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(100):
        nsites = trial % 4 + 1
        site = int(rng.integers(1, nsites + 1))
        alpha = rng.normal(size=3)
        beta = alpha if trial % 5 == 0 else rng.normal(size=3)
        worst = worse(worst, product_identity_residual(alpha, beta, site, nsites))

    cross_ok = True
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            left = embed_spin(a, 1, 2)
            right = embed_spin(b, 2, 2)
            cross_ok = cross_ok and bool(np.all(left @ right - right @ left == 0))

    table = commutator_table(2)
    factor_ok = abs(table.same_site_factor - 2.0) <= 1e-14 and "2i" in table.note

    ok = exact_ok and worst <= 1e-12 and cross_ok and factor_ok
    assert verdict(
        5,
        ok,
        "exact algebra: "
        f"{exact_ok}, product residual {worst:.3e} (<=1e-12), cross-site zero: {cross_ok}, "
        f"same-site factor {table.same_site_factor} (2i convention documented)",
    )


def test_criterion_06_quantization_elimination():
    """Pencil determinant roots match the eliminated spectrum; O(h^2) solver."""
    guard_ok = True
    for x_min, x_max, n, potential in (
        (0.0, 1.0, 32, lambda x: np.zeros_like(x)),
        (-10.0, 10.0, 80, lambda x: 0.5 * x**2),
    ):
        grid = Grid1D(x_min, x_max, n)
        pencil = coupled_pencil(grid, potential(grid.points), 1.0)
        spectrum, _ = tridiagonal_eigen(*eliminate_pencil(pencil), n)
        for value in spectrum:
            distance = pencil_root_distance(pencil, float(value))
            guard_ok = guard_ok and distance < PENCIL_SINGULARITY_GUARD
        scale = float(np.abs(spectrum).max())
        for left, right in zip(spectrum[:-1], spectrum[1:]):
            if right - left > 1e-6 * scale:
                mid = 0.5 * (left + right)
                distance = pencil_root_distance(pencil, mid)
                guard_ok = guard_ok and distance > PENCIL_SINGULARITY_GUARD

    exact = math.pi**2 / 2.0

    def box_ground(n):
        grid = Grid1D(0.0, 1.0, n)
        pencil = coupled_pencil(grid, np.zeros(n), 1.0)
        values, _ = tridiagonal_eigen(*eliminate_pencil(pencil), 1)
        return float(values[0])

    rel_err = abs(box_ground(2000) - exact) / exact
    ratio = abs(box_ground(200) - exact) / abs(box_ground(401) - exact)
    ok = guard_ok and rel_err <= 1e-5 and 3.5 <= ratio <= 4.5
    assert verdict(
        6,
        ok,
        f"roots vs guard: {guard_ok}, box n=2000 rel err {rel_err:.3e} (<=1e-5), "
        f"convergence ratio {ratio:.3f} (in [3.5, 4.5])",
    )


def test_criterion_07_pauli_operator_identities():
    """Kinetic square identity and full Hamiltonian equivalence, as operator identities."""
    rng = np.random.default_rng(107)
    start = time.monotonic()
    worst_kinetic = 0.0
    worst_full = 0.0
    for trial in range(50):
        # N = 1, 1, 2, 2, ...: both counts meet the potential on even trials.
        nparticles = 1 + (trial // 2) % 2
        particles = [
            ParticleSpec(float(rng.uniform(0.4, 2.5)), float(rng.uniform(-1.5, 1.5)))
            for _ in range(nparticles)
        ]
        fields = [FieldConfig(tuple(rng.normal(size=3))) for _ in range(nparticles)]
        for site in range(1, nparticles + 1):
            worst_kinetic = worse(
                worst_kinetic,
                kinetic_square_residual(fields[site - 1], particles[site - 1], site, nparticles),
            )
        potential = None
        if trial % 2 == 0:
            potential = random_polynomial(rng, 3 * nparticles, 2, 4)
        worst_full = worse(worst_full, hamiltonian_equivalence_residual(particles, fields, potential))
    elapsed = time.monotonic() - start
    ok = worst_kinetic <= 1e-12 and worst_full <= 1e-12 and elapsed <= 30.0
    assert verdict(
        7,
        ok,
        f"kinetic residual {worst_kinetic:.3e}, equivalence residual {worst_full:.3e} "
        f"(both <=1e-12), {elapsed:.2f}s (<=30s)",
    )


def test_criterion_08_zeeman_analysis():
    """Larmor mass, g-factor, limits, split table, and radial Bohr levels."""
    positronium = ZeemanSystem(m1=1.0, m2=1.0, b=1.0)
    positronium_ok = larmor_frequency(positronium) == 0.0

    m1, m2 = 1.0, 1836.15267
    hydrogen = ZeemanSystem(m1=m1, m2=m2, b=1.0)
    masses = decompose_masses(hydrogen)
    larmor_mass_err = abs(masses.larmor_mass - m1 * m2 / (m2 - m1)) / (m1 * m2 / (m2 - m1))
    g_err = abs(lamb_g_factor(hydrogen) - 1.0 / masses.larmor_mass)

    heavy = ZeemanSystem(m1=1.0, m2=1e12, b=1.0)
    single = ATOMIC.charge * heavy.b / (2.0 * heavy.m1 * ATOMIC.light_speed)
    limit_err = abs(larmor_frequency(heavy) - single) / single

    omega = larmor_frequency(hydrogen)
    table_ok = True
    for row in splitting_table(hydrogen, 3):
        step = row.m + 1 if row.branch == 1 else row.m - 1
        table_ok = table_ok and row.shift == ATOMIC.hbar * omega * step + 0.0

    grid = Grid1D(0.0, 40.0, 2000)
    radial = radial_eigenvalues(0, masses.reduced, 1.0, grid, 2)
    bohr = [-masses.reduced / 2.0, -masses.reduced / 8.0]
    radial_err = worse(
        abs(float(radial[0]) - bohr[0]) / abs(bohr[0]),
        abs(float(radial[1]) - bohr[1]) / abs(bohr[1]),
    )

    ok = (
        positronium_ok
        and larmor_mass_err <= 1e-14
        and g_err <= 1e-14
        and limit_err <= 1e-11
        and table_ok
        and radial_err <= 5e-4
    )
    assert verdict(
        8,
        ok,
        f"positronium zero: {positronium_ok}, m_L err {larmor_mass_err:.1e} (<=1e-14), "
        f"g_L err {g_err:.1e} (<=1e-14), heavy limit err {limit_err:.1e} (<=1e-11), "
        f"shift table exact: {table_ok}, radial Bohr err {radial_err:.2e} (<=5e-4)",
    )


def test_criterion_09_center_of_mass_identities():
    """The two-body operator splits into center-of-mass and relative parts over random masses."""
    rng = np.random.default_rng(109)
    systems = [
        ZeemanSystem(m1=1.0, m2=1836.15267, b=1.0),
        ZeemanSystem(m1=1.0, m2=3670.48296, b=1.0),
        ZeemanSystem(m1=5.0, m2=1.0, b=-0.7, z=2.0, units=Units(hbar=2.5, charge=0.3, light_speed=10.0)),
    ]
    for _ in range(30):
        m1 = float(rng.uniform(0.4, 2000.0))
        m2 = float(rng.uniform(0.4, 2000.0))
        systems.append(ZeemanSystem(m1=m1, m2=m2, b=float(rng.uniform(-5.0, 5.0))))
    worst = 0.0
    for system in systems:
        worst = worse(worst, center_of_mass_residual(system))
    ok = worst <= 1e-12
    assert verdict(
        9, ok, f"worst center-of-mass residual {worst:.3e} (<=1e-12) over 3 named systems and 30 mass pairs"
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical reports under a fixed seed; exit-code contract."""
    first = tmp_path / "verify_a.json"
    second = tmp_path / "verify_b.json"
    default_ok = cli_main(["verify", "--output", str(first)]) == 0
    repeat_ok = cli_main(["verify", "--output", str(second)]) == 0
    verify_identical = first.read_bytes() == second.read_bytes()

    box_a = tmp_path / "box_a.csv"
    box_b = tmp_path / "box_b.csv"
    solve_ok = (
        cli_main(["solve1d", "--preset", "harmonic", "--n", "120", "--output", str(box_a)]) == 0
        and cli_main(["solve1d", "--preset", "harmonic", "--n", "120", "--output", str(box_b)]) == 0
        and box_a.read_bytes() == box_b.read_bytes()
    )

    zee_a = tmp_path / "zeeman_a.csv"
    zee_b = tmp_path / "zeeman_b.csv"
    zeeman_ok = (
        cli_main(["zeeman", "--preset", "hydrogen", "--output", str(zee_a)]) == 0
        and cli_main(["zeeman", "--preset", "hydrogen", "--output", str(zee_b)]) == 0
        and zee_a.read_bytes() == zee_b.read_bytes()
    )

    spin_out = tmp_path / "spin.json"
    spin_ok = cli_main(["spin-report", "--output", str(spin_out)]) == 0

    # Zero every tolerance: the report must still be written and exit 1.
    zero_config = tmp_path / "zero.json"
    report = json.loads(first.read_text(encoding="utf-8"))
    zero_config.write_text(
        json.dumps({"tolerances": {check["name"]: 0.0 for check in report["checks"]}}),
        encoding="utf-8",
    )
    flagged = tmp_path / "flagged.json"
    exit_one_ok = (
        cli_main(
            ["verify", "--trials", "2", "--config", str(zero_config), "--output", str(flagged)]
        )
        == 1
        and flagged.exists()
    )

    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"seeed": 1}', encoding="utf-8")
    exit_two_ok = (
        cli_main(["verify", "--config", str(bad_config)]) == 2
        and cli_main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
        and cli_main(["zeeman", "--preset", "unobtainium"]) == 2
    )

    ok = (
        default_ok
        and repeat_ok
        and verify_identical
        and solve_ok
        and zeeman_ok
        and spin_ok
        and exit_one_ok
        and exit_two_ok
    )
    assert verdict(
        10,
        ok,
        f"byte-identical verify/solve1d/zeeman: {verify_identical and solve_ok and zeeman_ok}, "
        f"exit codes 0/1/2: {default_ok and exit_one_ok and exit_two_ok}",
    )
