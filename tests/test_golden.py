"""Byte-for-byte contract of the pure-Python reports.

The ``zeeman`` table and the ``spin-report`` JSON use no LAPACK call and
the spin matrices are exact, so their bytes do not depend on the machine.
Each case below is compared with a golden file in ``tests/data/``.  A
change to these reports must be intended; regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and log the change.
"""

import json
import sys
from pathlib import Path

import pytest

from hamfactor.cli import main

DATA = Path(__file__).parent / "data"

CUSTOM_UNITS = {
    "m1": 5.0,
    "m2": 1.0,
    "b": -0.7,
    "z": 2.0,
    "n_max": 3,
    "units": {"hbar": 2.5, "charge": 0.3, "light_speed": 10.0},
}

# golden file name -> (argv, config written to a file and passed as --config, or None)
CASES = {
    "zeeman_hydrogen_n6.csv": (["zeeman", "--preset", "hydrogen", "--n-max", "6"], None),
    "zeeman_positronium_b2.5.csv": (["zeeman", "--preset", "positronium", "--b", "2.5"], None),
    "zeeman_custom_units.csv": (["zeeman"], CUSTOM_UNITS),
    "zeeman_zero_field.csv": (["zeeman", "--preset", "hydrogen", "--b", "0", "--n-max", "3"], None),
    **{
        f"spin_report_{n}.json": (["spin-report", "--particles", str(n)], None)
        for n in (1, 2, 3, 4)
    },
}


def render(name: str, workdir: Path) -> bytes:
    argv, config = CASES[name]
    argv = list(argv)
    if config is not None:
        path = workdir / f"{name}.config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    out = workdir / name
    assert main(argv + ["--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path):
    assert render(name, tmp_path) == (DATA / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            (DATA / case).write_bytes(render(case, Path(scratch)))
            print(f"wrote {DATA / case}", file=sys.stderr)
