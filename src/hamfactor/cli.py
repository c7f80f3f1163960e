"""Command-line driver: verification suites and machine-readable reports.

Four subcommands:

``verify``
    Runs the randomized verification suites (factorization determinants,
    null vectors and spinors, Schur-complement checks, spin-algebra and
    minimal-coupling identities) and writes a JSON summary with per-check
    maximum errors.

``solve1d``
    Discretizes a one-dimensional potential, reports the low eigenvalues
    of the eliminated operator M^H M + diag(V) as CSV, and cross-checks
    each one against the determinant of the first-order pencil.

``zeeman``
    Writes the weak-field splitting table for a bound pair of opposite
    charges, annotated with the modified Larmor frequency, Larmor mass
    and orbital g-factor.

``spin-report``
    Writes the measured commutator table of the embedded spin matrices
    as JSON.

Exit codes: 0 on success, 1 when a check exceeds its tolerance (the
report is still written), 2 for configuration errors.  Runs are
deterministic: identical configuration and seed produce byte-identical
output.  Each suite draws from its own stream split off the root seed,
so suites can be reordered or skipped without disturbing the draws of
the others.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .extham import (
    determinant_report,
    determinant_report_1d,
    factor_matrix,
    factor_matrix_1d,
    null_basis,
    null_vector_1d,
    random_sample,
    random_sample_1d,
)
from .linalg import (
    SingularBlockError,
    block_det_schur,
    det_lu,
    hermitian_eigen,
    schur_factor_check,
    worse,
)
from .quantize import (
    PENCIL_SINGULARITY_GUARD,
    FieldConfig,
    Grid1D,
    coupled_pencil,
    eliminate_pencil,
    kinetic_square_residual,
    random_spinor,
    root_distance,
)
from .spin import MAX_SITES, commutator_table, embed_spin, product_identity_residual
from .units import ATOMIC, Units
from .zeeman import ZeemanSystem, decompose_masses, lamb_g_factor, larmor_frequency, splitting_table


class ConfigError(ValueError):
    """Invalid configuration: bad file, unknown key, or out-of-range value."""


#: Default per-check tolerances for the ``verify`` suites.  Keys double as
#: check names in the JSON report; unknown names in a config are rejected.
DEFAULT_TOLERANCES: dict[str, float] = {
    "factorization_1d": 1e-13,
    "null_vector_1d": 1e-12,
    "determinant_identity": 1e-9,
    "schur_determinant": 1e-10,
    "schur_reconstruction": 1e-11,
    "null_spinor_residual": 1e-10,
    "spin_square": 1e-12,
    "spin_product": 1e-12,
    "kinetic_square": 1e-12,
}

#: Mass of the heavy particle (in units of the light one) for each preset.
ZEEMAN_PRESETS: dict[str, float] = {
    "hydrogen": 1836.15267,
    "positronium": 1.0,
    "deuterium-like": 3670.48296,
}

SOLVE1D_PRESETS = ("box", "harmonic")

#: Largest working set a report may need, in bytes (see ``solve1d_bytes``
#: and ``zeeman_bytes``); a larger request is a configuration error,
#: reported before any allocation.  2 GiB admits solve1d n up to 4729 and
#: zeeman n_max up to 146.
MAX_WORKING_BYTES = 2 * 1024**3

#: Grids below this interior point count are flagged "coarse" in metadata.
COARSE_GRID_LIMIT = 50


# ---------------------------------------------------------------------------
# Configuration plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must contain a JSON object at the top level")
    return data


def _reject_unknown_keys(mapping: dict, allowed: Iterable[str], context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ConfigError(f"unknown {context} key(s): {names}")


def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _units_from_config(block) -> Units:
    if block is None:
        return ATOMIC
    if not isinstance(block, dict):
        raise ConfigError(f"'units' must be an object, got {block!r}")
    _reject_unknown_keys(block, ("hbar", "charge", "electron_mass", "light_speed"), "units")
    values = {key: _require_real(val, f"units.{key}") for key, val in block.items()}
    try:
        return Units(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tolerances_from_config(block) -> dict[str, float]:
    merged = dict(DEFAULT_TOLERANCES)
    if block is None:
        return merged
    if not isinstance(block, dict):
        raise ConfigError(f"'tolerances' must be an object, got {block!r}")
    _reject_unknown_keys(block, DEFAULT_TOLERANCES, "tolerance")
    for name, value in block.items():
        tol = _require_real(value, f"tolerances.{name}")
        if tol < 0:
            raise ConfigError(f"tolerances.{name} must be >= 0, got {tol}")
        merged[name] = tol
    return merged


def _units_metadata(units: Units) -> dict[str, float]:
    return {
        "hbar": units.hbar,
        "charge": units.charge,
        "electron_mass": units.electron_mass,
        "light_speed": units.light_speed,
    }


def _write_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        # newline="" preserves the CRLF row terminators in CSV output.
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _render_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _csv_text(metadata: dict, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a table with '#'-prefixed metadata lines above RFC-4180 rows."""
    buffer = io.StringIO(newline="")
    for key, value in metadata.items():
        buffer.write(f"# {key}: {value}\r\n")
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _units_line(units: Units) -> str:
    pairs = _units_metadata(units)
    return " ".join(f"{key}={value}" for key, value in sorted(pairs.items()))


# ---------------------------------------------------------------------------
# verify suites

# Each suite owns a frozen stream id: the per-suite generator is split off
# the root seed with that id, so adding, removing, or reordering suites
# never changes the draws of the others.

SuiteRunner = Callable[[np.random.Generator, int, Units], float]


def _suite_factorization_1d(rng: np.random.Generator, trials: int, units: Units) -> float:
    # Off-shell samples keep the defect away from zero, so the relative
    # error measures the identity rather than cancellation noise; the
    # on-shell case is covered by the null-vector suite.
    worst = 0.0
    for trial in range(trials):
        sample = random_sample_1d(rng)
        coeffs = None
        if trial % 2 == 1:
            a = float(rng.uniform(0.3, 1.8))
            coeffs = (a, 1.0 / (2.0 * sample.mass * a))
        worst = worse(worst, determinant_report_1d(sample, coeffs).max_rel_err)
    return worst


def _suite_null_vector_1d(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for _ in range(trials):
        sample = random_sample_1d(rng, on_shell=True)
        matrix = factor_matrix_1d(sample)
        vector = null_vector_1d(sample)
        scale = max(np.abs(matrix).max() * np.abs(vector).max(), 1.0)
        worst = worse(worst, float(np.abs(matrix @ vector).max()) / scale)
    return worst


def _suite_determinant_identity(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for trial in range(trials):
        sample = random_sample(rng, trial % 3 + 1, light_speed=units.light_speed)
        report = determinant_report(sample)
        worst = worse(worst, report.max_rel_err)
    return worst


def _random_square(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))


def _suite_schur_determinant(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for trial in range(trials):
        size = 4 + trial % 9
        matrix = _random_square(rng, size)
        split = 1 + trial % (size - 1)
        try:
            via_schur = block_det_schur(matrix, split)
        except SingularBlockError:
            continue  # random matrices are almost never singular; skip if so
        direct = det_lu(matrix)
        worst = worse(worst, abs(via_schur - direct) / max(abs(direct), 1e-6))
    return worst


def _suite_schur_reconstruction(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for trial in range(trials):
        size = 4 + trial % 9
        matrix = _random_square(rng, size)
        split = 1 + trial % (size - 1)
        try:
            residual = schur_factor_check(matrix, split)
        except SingularBlockError:
            continue
        worst = worse(worst, residual / np.abs(matrix).max())
    return worst


def _suite_null_spinor_residual(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for trial in range(trials):
        sample = random_sample(rng, trial % 3 + 1, on_shell=True, light_speed=units.light_speed)
        matrix = factor_matrix(sample)
        scale = np.linalg.norm(matrix)
        for vector in null_basis(sample):
            residual = np.linalg.norm(matrix @ vector) / (scale * np.linalg.norm(vector))
            worst = worse(worst, float(residual))
    return worst


def _suite_spin_square(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for nsites in (1, 2, 3, 4):
        dim = 2**nsites
        identity = np.eye(dim)
        for axis in (1, 2, 3):
            for site in range(1, nsites + 1):
                matrix = embed_spin(axis, site, nsites)
                worst = worse(worst, float(np.abs(matrix @ matrix - identity).max()))
                worst = worse(worst, abs(np.trace(matrix)))
                worst = worse(worst, float(np.abs(matrix - matrix.conj().T).max()))
    return worst


def _suite_spin_product(rng: np.random.Generator, trials: int, units: Units) -> float:
    worst = 0.0
    for trial in range(trials):
        nsites = trial % 4 + 1
        site = int(rng.integers(1, nsites + 1))
        alpha = rng.normal(size=3)
        beta = alpha if trial % 5 == 0 else rng.normal(size=3)
        worst = worse(worst, product_identity_residual(alpha, beta, site, nsites))
    return worst


def _suite_kinetic_square(rng: np.random.Generator, trials: int, units: Units) -> float:
    from .extham import ParticleSpec

    worst = 0.0
    for _ in range(trials):
        field = FieldConfig(tuple(rng.normal(size=3)))
        particle = ParticleSpec(float(rng.uniform(0.4, 2.5)), float(rng.uniform(-1.5, 1.5)))
        spinor = random_spinor(rng, 1, degree=3, max_terms=6)
        worst = worse(worst, kinetic_square_residual(field, particle, spinor, units=units))
    return worst


VERIFY_SUITES: tuple[tuple[str, int, SuiteRunner], ...] = (
    ("factorization_1d", 0, _suite_factorization_1d),
    ("null_vector_1d", 1, _suite_null_vector_1d),
    ("determinant_identity", 2, _suite_determinant_identity),
    ("schur_determinant", 3, _suite_schur_determinant),
    ("schur_reconstruction", 4, _suite_schur_reconstruction),
    ("null_spinor_residual", 5, _suite_null_spinor_residual),
    ("spin_square", 6, _suite_spin_square),
    ("spin_product", 7, _suite_spin_product),
    ("kinetic_square", 8, _suite_kinetic_square),
)


def run_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    _reject_unknown_keys(config, ("seed", "trials", "tolerances", "units"), "verify config")
    seed = args.seed if args.seed is not None else config.get("seed", 42)
    seed = _require_int(seed, "seed", 0)
    trials = args.trials if args.trials is not None else config.get("trials", 100)
    trials = _require_int(trials, "trials", 1)
    tolerances = _tolerances_from_config(config.get("tolerances"))
    units = _units_from_config(config.get("units"))

    checks = []
    all_passed = True
    for name, stream_id, runner in VERIFY_SUITES:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
        max_error = float(runner(rng, trials, units))
        tolerance = tolerances[name]
        # Strictly below: a zero tolerance is unsatisfiable by design and
        # flags every check, even ones whose measured error is exactly 0.
        passed = bool(max_error < tolerance)
        all_passed = all_passed and passed
        checks.append(
            {
                "name": name,
                "trials": trials,
                "max_error": max_error,
                "tolerance": tolerance,
                "passed": passed,
            }
        )

    report = {
        "metadata": {
            "tool": "hamfactor",
            "version": __version__,
            "command": "verify",
            "seed": seed,
            "trials": trials,
            "units": _units_metadata(units),
        },
        "checks": checks,
        "passed": all_passed,
    }
    _write_text(_render_json(report), args.output)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# solve1d


def _potential_samples(potential, grid: Grid1D) -> np.ndarray:
    if potential == "box":
        return np.zeros(grid.n)
    if potential == "harmonic":
        return 0.5 * grid.points**2
    if isinstance(potential, str):
        raise ConfigError(
            f"unknown potential preset {potential!r}; expected one of {', '.join(SOLVE1D_PRESETS)} or a sample table"
        )
    if not isinstance(potential, list):
        raise ConfigError(f"potential must be a preset name or a list of samples, got {potential!r}")
    values = [_require_real(value, "potential sample") for value in potential]
    if len(values) != grid.n:
        raise ConfigError(f"potential table must have n = {grid.n} samples, got {len(values)}")
    return np.asarray(values)


def solve1d_bytes(n: int) -> int:
    """Upper estimate of solve1d's peak working set for n interior points.

    The n x n operator, its eigenvectors and the eigensolver's temporaries
    make the peak; six complex n x n arrays bound it (measured: 56 bytes
    per n^2 of traced allocations and 285 MB peak RSS at n = 2000).
    """
    return 6 * 16 * (n + 1) * n


def run_solve1d(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    allowed = ("potential", "n", "x_min", "x_max", "mass", "count", "units")
    _reject_unknown_keys(config, allowed, "solve1d config")
    potential = args.preset if args.preset is not None else config.get("potential", "box")
    n = _require_int(args.n if args.n is not None else config.get("n", 200), "n", 3)
    if solve1d_bytes(n) > MAX_WORKING_BYTES:
        raise ConfigError(
            f"n = {n} needs about {solve1d_bytes(n):,} bytes, "
            f"above the solve1d limit of {MAX_WORKING_BYTES:,} bytes"
        )
    default_span = (0.0, 1.0) if potential == "box" else (-12.0, 12.0)
    x_min = _require_real(config.get("x_min", default_span[0]), "x_min")
    x_max = _require_real(config.get("x_max", default_span[1]), "x_max")
    mass = _require_real(config.get("mass", 1.0), "mass")
    if mass <= 0:
        raise ConfigError(f"mass must be positive, got {mass}")
    count = _require_int(config.get("count", min(12, n)), "count", 1)
    count = min(count, n)
    units = _units_from_config(config.get("units"))

    try:
        grid = Grid1D(x_min, x_max, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    samples = _potential_samples(potential, grid)
    pencil = coupled_pencil(grid, samples, mass, hbar=units.hbar)
    hamiltonian = eliminate_pencil(pencil)
    values, vectors = hermitian_eigen(hamiltonian)

    all_values = np.real(values)
    rows = []
    for index in range(count):
        energy = float(values[index])
        state = vectors[:, index]
        hamiltonian_residual = float(np.abs(hamiltonian @ state - energy * state).max())
        log_magnitude = pencil.log_abs_det(energy)
        log10_det = log_magnitude / math.log(10.0)
        det_cell = "-inf" if math.isinf(log10_det) else repr(log10_det)
        distance = root_distance(log_magnitude, energy, all_values)
        distance_cell = "-inf" if distance == 0.0 else repr(math.log10(distance))
        rows.append((index, repr(energy), repr(hamiltonian_residual), det_cell, distance_cell))

    potential_name = potential if isinstance(potential, str) else "table"
    metadata = {
        "tool": f"hamfactor {__version__}",
        "command": "solve1d",
        "units": _units_line(units),
        "potential": potential_name,
        "n": n,
        "x_min": repr(x_min),
        "x_max": repr(x_max),
        "mass": repr(mass),
        "count": count,
        "coarse": "true" if n < COARSE_GRID_LIMIT else "false",
        "singularity_guard_log10": repr(math.log10(PENCIL_SINGULARITY_GUARD)),
    }
    header = ("index", "energy", "residual", "log10_abs_det_pencil", "log10_root_distance")
    _write_text(_csv_text(metadata, header, rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# zeeman


def zeeman_bytes(n_max: int) -> int:
    """Upper estimate of zeeman's peak working set for levels up to n_max.

    The table has n_max (n_max + 1) (2 n_max + 1) / 3 rows, and each row
    is held as a ``LevelRow``, a tuple of rendered cells and its CSV text;
    1 KiB per row bounds the peak (measured: 490-575 bytes per row of
    traced allocations and 725 bytes per row of peak RSS at n_max 40-80).
    """
    return 1024 * n_max * (n_max + 1) * (2 * n_max + 1) // 3


def run_zeeman(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    allowed = ("preset", "m1", "m2", "b", "z", "n_max", "units")
    _reject_unknown_keys(config, allowed, "zeeman config")
    preset = args.preset if args.preset is not None else config.get("preset")
    if preset is not None and preset not in ZEEMAN_PRESETS:
        raise ConfigError(f"unknown zeeman preset {preset!r}; expected one of {', '.join(sorted(ZEEMAN_PRESETS))}")
    if preset is not None and ("m1" in config or "m2" in config):
        raise ConfigError("give either a preset or explicit masses m1/m2, not both")
    if preset is not None:
        m1, m2 = 1.0, ZEEMAN_PRESETS[preset]
    else:
        m1 = _require_real(config.get("m1", 1.0), "m1")
        m2 = _require_real(config.get("m2", ZEEMAN_PRESETS["hydrogen"]), "m2")
    b = _require_real(args.b if args.b is not None else config.get("b", 1.0), "b")
    z = _require_real(config.get("z", 1.0), "z")
    n_max = _require_int(
        args.n_max if args.n_max is not None else config.get("n_max", 3), "n_max", 1
    )
    if zeeman_bytes(n_max) > MAX_WORKING_BYTES:
        raise ConfigError(
            f"n_max = {n_max} needs about {zeeman_bytes(n_max):,} bytes, "
            f"above the zeeman limit of {MAX_WORKING_BYTES:,} bytes"
        )
    units = _units_from_config(config.get("units"))

    try:
        system = ZeemanSystem(m1=m1, m2=m2, b=b, z=z, units=units)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    masses = decompose_masses(system)
    constants = (repr(larmor_frequency(system)), repr(masses.larmor_mass), repr(lamb_g_factor(system)))
    table_rows = [
        (row.n, row.l, row.m, row.branch, repr(row.energy), repr(row.shift), *constants)
        for row in splitting_table(system, n_max)
    ]
    metadata = {
        "tool": f"hamfactor {__version__}",
        "command": "zeeman",
        "units": _units_line(units),
        "preset": preset if preset is not None else "none",
        "m1": repr(m1),
        "m2": repr(m2),
        "b": repr(b),
        "z": repr(z),
        "n_max": n_max,
        "reduced_mass": repr(masses.reduced),
        "total_mass": repr(masses.total),
    }
    header = ("n", "l", "m", "branch", "energy", "shift", "omega_L", "m_L", "g_L")
    _write_text(_csv_text(metadata, header, table_rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# spin-report


def run_spin_report(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    _reject_unknown_keys(config, ("particles",), "spin-report config")
    particles = args.particles if args.particles is not None else config.get("particles", 2)
    particles = _require_int(particles, "particles", 1)
    if particles > MAX_SITES:
        raise ConfigError(f"particles must be <= {MAX_SITES}, got {particles}")

    table = commutator_table(particles)
    passed = table.max_residual < DEFAULT_TOLERANCES["spin_square"]
    report = {
        "metadata": {
            "tool": "hamfactor",
            "version": __version__,
            "command": "spin-report",
            "particles": particles,
            "units": _units_metadata(ATOMIC),
        },
        "commutators": table.to_dict(),
        "tolerance": DEFAULT_TOLERANCES["spin_square"],
        "passed": passed,
    }
    _write_text(_render_json(report), args.output)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamfactor",
        description="Verification suites and reports for extended-Hamiltonian factorizations.",
    )
    parser.add_argument("--version", action="version", version=f"hamfactor {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run the randomized verification suites")
    verify.add_argument("--config", help="JSON config file")
    verify.add_argument("--seed", type=int, help="root seed for the suite generators (default 42)")
    verify.add_argument("--trials", type=int, help="trials per suite (default 100)")
    verify.add_argument("--output", help="write the JSON report here instead of stdout")
    verify.set_defaults(handler=run_verify)

    solve1d = commands.add_parser("solve1d", help="discretize a 1-D potential and report its spectrum")
    solve1d.add_argument("--config", help="JSON config file")
    solve1d.add_argument("--preset", help="potential preset: box or harmonic")
    solve1d.add_argument("--n", type=int, help="number of interior grid points (default 200)")
    solve1d.add_argument("--output", help="write the CSV table here instead of stdout")
    solve1d.set_defaults(handler=run_solve1d)

    zeeman = commands.add_parser("zeeman", help="write the weak-field splitting table")
    zeeman.add_argument("--config", help="JSON config file")
    zeeman.add_argument("--preset", help="mass preset: hydrogen, positronium, or deuterium-like")
    zeeman.add_argument("--b", type=float, help="magnetic field strength (default 1.0)")
    zeeman.add_argument("--n-max", dest="n_max", type=int, help="largest principal quantum number (default 3)")
    zeeman.add_argument("--output", help="write the CSV table here instead of stdout")
    zeeman.set_defaults(handler=run_zeeman)

    spin = commands.add_parser("spin-report", help="write the measured spin commutator table")
    spin.add_argument("--config", help="JSON config file")
    spin.add_argument("--particles", type=int, help="number of spin sites (default 2, max 4)")
    spin.add_argument("--output", help="write the JSON report here instead of stdout")
    spin.set_defaults(handler=run_spin_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or version text.
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
