"""Seeded inputs and output oracles for the benchmark workloads.

A workload is a pool of decks.  A deck is a short list of CLI calls whose
sizes walk a fixed ladder, so every deck carries the same mix of work; the
seed only chooses the physics (potential, masses, field, verify seed) and
the order of calls inside the deck.  The timed loop runs whole decks, which
keeps medians and tails comparable across seeds.

Each call carries an oracle that reads the report and returns a list of
problems (empty when the report is right).  The oracles recompute what the
report claims from closed forms or independently assembled operators; none
compares against a stored byte snapshot, so rounding-level changes to the
printed digits do not count as failures.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "solve1d", "solve1d_large", "tables")

#: Decks generated per run; the timed loop cycles through them.
POOL_DECKS = 8

VERIFY_TRIALS = 20
VERIFY_DECK = 8
VERIFY_CHECKS = 9

#: Interior point counts.  solve1d stays inside the pencil-determinant
#: cap (pencil dimension 2n + 1 <= 801); solve1d_large stays above it.
#: Each deck has an odd number of size classes, so the median call sits
#: inside the middle class rather than on the gap between two classes.
SOLVE1D_LADDER = (48, 56, 64, 72, 80, 88, 96, 104, 112)
#: Levels per solve1d call; each costs two dense LUs of the 2n + 1 pencil.
SOLVE1D_LEVELS = 4
SOLVE1D_LARGE_LADDER = (420, 540, 660, 780, 900)
POTENTIALS = ("box", "harmonic", "table")

ZEEMAN_LADDER = (10, 12, 14, 16, 18, 21, 24)
ZEEMAN_PRESETS = ("hydrogen", "positronium", "deuterium-like")
SPIN_PARTICLES = (1, 2, 3, 4)

#: Host-speed kernel weights per workload (see hostspeed.py).  Each is the
#: mix that best flattened the times of repeated identical calls of that
#: workload over 90 s on the reference host: interpreter and tiny-array
#: kernels for verify and tables, the dense kernel for both solve1d loads.
HOST_MIX = {
    "verify": {"interpreter": 0.5, "small_arrays": 0.5},
    "solve1d": {"dense": 1.0},
    "solve1d_large": {"dense": 1.0},
    "tables": {"interpreter": 0.5, "small_arrays": 0.5},
}
#: Set-up is imports and file writes: interpreter work.
SETUP_MIX = {"interpreter": 1.0}

#: log10 of the relative root distance below which a solve1d level counts
#: as a pencil root (hamfactor.quantize.PENCIL_SINGULARITY_GUARD = 1e-8).
ROOT_GUARD_LOG10 = -8.0
#: Energies agree with the reference to this share of the spectral radius.
ENERGY_TOL = 1e-10
#: Zeeman shifts and energies agree with the formula to this relative gap.
ZEEMAN_TOL = 1e-12

Oracle = Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the oracle for its report."""

    argv: tuple[str, ...]
    oracle: Oracle
    rank: int  # position in the deck before shuffling; rank 0 is the smallest call
    levels: int = 0  # solve1d table rows the report must hold


def make_pool(workload: str, seed: int, workdir: Path) -> list[list[Call]]:
    """Shuffled decks for ``workload``; config files are written under ``workdir``."""
    make_deck = {
        "verify": _verify_deck,
        "solve1d": partial(_solve1d_deck, ladder=SOLVE1D_LADDER, levels=SOLVE1D_LEVELS),
        "solve1d_large": partial(_solve1d_deck, ladder=SOLVE1D_LARGE_LADDER, levels=None),
        "tables": _tables_deck,
    }[workload]
    stream = WORKLOADS.index(workload)
    pool = []
    for deck in range(POOL_DECKS):
        rng = np.random.default_rng([seed, stream, deck])
        calls = make_deck(rng, workdir / f"{workload}-{deck}", deck)
        pool.append([calls[i] for i in rng.permutation(len(calls))])
    return pool


def _write_config(path: Path, config: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# verify


def _verify_deck(rng: np.random.Generator, prefix: Path, deck: int) -> list[Call]:
    calls = []
    for _ in range(VERIFY_DECK):
        seed = int(rng.integers(0, 2**31))
        argv = ("verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS))
        calls.append(Call(argv, partial(check_verify, seed=seed, trials=VERIFY_TRIALS), 0))
    return calls


def check_verify(rc: int, text: str, seed: int, trials: int) -> list[str]:
    if rc != 0:
        return [f"verify exited {rc}"]
    report = json.loads(text)
    problems = []
    checks = report["checks"]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS}")
    for check in checks:
        if check["passed"] is not True:
            problems.append(f"check {check['name']} failed: {check['max_error']} >= {check['tolerance']}")
        if check["trials"] != trials:
            problems.append(f"check {check['name']} ran {check['trials']} trials, expected {trials}")
    if report["passed"] is not True:
        problems.append("report not passed")
    if report["metadata"]["seed"] != seed or report["metadata"]["trials"] != trials:
        problems.append("metadata seed/trials differ from the request")
    return problems


# ---------------------------------------------------------------------------
# solve1d and solve1d_large


@dataclass(frozen=True)
class Solve1dSpec:
    potential: str
    n: int
    x_min: float
    x_max: float
    mass: float
    count: int
    table: tuple[float, ...] | None = None


def _solve1d_spec(rng: np.random.Generator, kind: str, n: int, levels: int | None) -> Solve1dSpec:
    mass = float(rng.uniform(0.5, 2.0))
    count = min(12, n) if levels is None else levels
    if kind == "box":
        x_min = float(rng.uniform(-1.0, 0.0))
        return Solve1dSpec("box", n, x_min, x_min + float(rng.uniform(0.5, 2.0)), mass, count)
    half = float(rng.uniform(8.0, 12.0))
    if kind == "harmonic":
        return Solve1dSpec("harmonic", n, -half, half, mass, count)
    # A confining well with a few seeded ripples: smooth, bounded below,
    # and free of the near-degenerate pairs a noise table would produce.
    x = -half + (2.0 * half / (n + 1)) * np.arange(1, n + 1)
    omega = rng.uniform(0.5, 1.5)
    v = 0.5 * omega**2 * x**2
    for _ in range(3):
        v = v + rng.uniform(0.0, 1.0) * np.cos(rng.uniform(0.5, 3.0) * x + rng.uniform(0.0, 2 * np.pi))
    return Solve1dSpec("table", n, -half, half, mass, count, tuple(float(t) for t in v))


def _solve1d_deck(rng: np.random.Generator, prefix: Path, deck: int, ladder, levels: int | None) -> list[Call]:
    calls = []
    for i, n in enumerate(ladder):
        # Rotating by deck gives every rung each potential equally often
        # (eigensolver cost depends on the spectrum, not only on n).
        spec = _solve1d_spec(rng, POTENTIALS[(i + deck) % len(POTENTIALS)], n, levels)
        config = {"n": n, "x_min": spec.x_min, "x_max": spec.x_max, "mass": spec.mass}
        config["potential"] = list(spec.table) if spec.table is not None else spec.potential
        if levels is not None:
            config["count"] = levels
        path = _write_config(prefix.with_name(f"{prefix.name}-{i}.json"), config)
        calls.append(Call(("solve1d", "--config", path), partial(check_solve1d, spec=spec), i, spec.count))
    return calls


def _parse_csv(text: str) -> tuple[dict[str, str], Iterator[dict[str, str]]]:
    """'#'-prefixed metadata and a lazy row reader, so large tables are never held as dicts."""
    lines = iter(text.splitlines())
    metadata = {}
    header = ""
    for line in lines:
        if not line.startswith("# "):
            header = line
            break
        key, _, value = line[2:].partition(": ")
        metadata[key] = value
    return metadata, csv.DictReader(itertools.chain([header], lines))


@lru_cache(maxsize=None)
def reference_levels(spec: Solve1dSpec) -> tuple[np.ndarray, float]:
    """Lowest ``count`` energies and the spectral-radius bound of the three-point operator.

    Atomic units (hbar = 1), as the benchmark's configs leave units unset.
    """
    h = (spec.x_max - spec.x_min) / (spec.n + 1)
    kinetic = 1.0 / (2.0 * spec.mass * h * h)
    if spec.potential == "box":
        k = np.arange(1, spec.count + 1)
        levels = kinetic * 4.0 * np.sin(k * np.pi / (2.0 * (spec.n + 1))) ** 2
        return levels, 4.0 * kinetic
    if spec.potential == "harmonic":
        v = 0.5 * (spec.x_min + h * np.arange(1, spec.n + 1)) ** 2
    else:
        v = np.asarray(spec.table)
    operator = np.diag(2.0 * kinetic + v) - kinetic * (np.eye(spec.n, k=1) + np.eye(spec.n, k=-1))
    levels = np.linalg.eigvalsh(operator)[: spec.count]
    return levels, 4.0 * kinetic + float(np.abs(v).max())


def check_solve1d(rc: int, text: str, spec: Solve1dSpec) -> list[str]:
    if rc != 0:
        return [f"solve1d exited {rc}"]
    metadata, rows = _parse_csv(text)
    rows = list(rows)
    if len(rows) != spec.count:
        return [f"{len(rows)} levels, expected {spec.count}"]
    problems = []
    levels, scale = reference_levels(spec)
    skipped = metadata.get("pencil_determinant", "").startswith("skipped")
    for row, expected in zip(rows, levels):
        energy = float(row["energy"])
        if not abs(energy - expected) <= ENERGY_TOL * scale:
            problems.append(f"level {row['index']}: energy {energy!r}, reference {expected!r}")
        if not math.isfinite(float(row["residual"])):
            problems.append(f"level {row['index']}: residual {row['residual']} not finite")
        distance = row["log10_root_distance"]
        if distance == "":
            if not skipped:
                problems.append(f"level {row['index']}: root distance missing, metadata does not say skipped")
        elif not float(distance) < ROOT_GUARD_LOG10:
            problems.append(f"level {row['index']}: log10 root distance {distance} not below {ROOT_GUARD_LOG10}")
    return problems


# ---------------------------------------------------------------------------
# tables: zeeman and spin-report


def _tables_deck(rng: np.random.Generator, prefix: Path, deck: int) -> list[Call]:
    calls = []
    for i, n_max in enumerate(ZEEMAN_LADDER):
        config = {"b": float(rng.uniform(0.1, 5.0)), "n_max": n_max}
        if i % 2 == 0:
            config["preset"] = ZEEMAN_PRESETS[int(rng.integers(len(ZEEMAN_PRESETS)))]
        else:
            config["m1"] = float(rng.uniform(0.5, 2.0))
            config["m2"] = float(rng.uniform(1.0, 4000.0))
        path = _write_config(prefix.with_name(f"{prefix.name}-{i}.json"), config)
        calls.append(Call(("zeeman", "--config", path), partial(check_zeeman, n_max=n_max), i))
    for particles in SPIN_PARTICLES:
        argv = ("spin-report", "--particles", str(particles))
        calls.append(Call(argv, partial(check_spin_report, particles=particles), len(calls)))
    return calls


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= ZEEMAN_TOL * max(abs(expected), 1e-300)


def check_zeeman(rc: int, text: str, n_max: int) -> list[str]:
    if rc != 0:
        return [f"zeeman exited {rc}"]
    metadata, rows = _parse_csv(text)
    units = dict(pair.split("=") for pair in metadata["units"].split())
    hbar, charge, c = float(units["hbar"]), float(units["charge"]), float(units["light_speed"])
    m1, m2, b, z = (float(metadata[key]) for key in ("m1", "m2", "b", "z"))
    omega = charge * b / (2.0 * c) * (1.0 / m1 - 1.0 / m2)
    mu = m1 * m2 / (m1 + m2)
    problems = []
    count = 0
    for row in rows:
        count += 1
        n, m = int(row["n"]), int(row["m"])
        shift = hbar * omega * (m + 1 if row["branch"] == "1" else m - 1)
        energy = -mu * z**2 * charge**4 / (2.0 * hbar**2 * n**2) + shift
        if not (_close(float(row["shift"]), shift) and _close(float(row["energy"]), energy)):
            problems.append(f"row n={n} l={row['l']} m={m} branch={row['branch']}: shift/energy off the formula")
        if not _close(float(row["omega_L"]), omega):
            problems.append(f"row n={n}: omega_L {row['omega_L']} != {omega!r}")
    expected_rows = n_max * (n_max + 1) * (2 * n_max + 1) // 3
    if count != expected_rows:
        problems.append(f"{count} rows, expected {expected_rows}")
    return problems[:5]


def check_spin_report(rc: int, text: str, particles: int) -> list[str]:
    if rc != 0:
        return [f"spin-report exited {rc}"]
    report = json.loads(text)
    problems = []
    table = report["commutators"]
    if report["passed"] is not True:
        problems.append("report not passed")
    if table["same_site_factor"] != 2.0:
        problems.append(f"same_site_factor {table['same_site_factor']}, expected 2")
    if len(table["entries"]) != 9 * particles**2:
        problems.append(f"{len(table['entries'])} entries, expected {9 * particles**2}")
    return problems
