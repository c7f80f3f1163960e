"""Byte-for-byte contract of the pure-Python reports.

The ``zeeman`` table and the ``spin-report`` JSON use no LAPACK call and
the spin matrices are exact, so their bytes do not depend on the machine.
Each case in ``CASES`` is compared with a golden file in ``tests/data/``;
the large tables in ``HASHED`` (about 1 MB each) with the SHA-256 of their
bytes.  A change to these reports must be intended; regenerate the files
and print the hashes with

    PYTHONPATH=src python tests/test_golden.py

and log the change.
"""

import csv
import hashlib
import io
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


# The largest zeeman rungs of the tables benchmark: name -> (argv, config or None, SHA-256 of the report).
HASHED = {
    "zeeman_hydrogen_n24": (
        ["zeeman", "--preset", "hydrogen", "--n-max", "24"],
        None,
        "0a739be624a5603c55679e3cdba336537399f2f0810282cf00d6650a4d1e44df",
    ),
    "zeeman_negative_field_n21": (
        ["zeeman"],
        {"m1": 1.7, "m2": 2.9, "b": -3.1, "n_max": 21},
        "43aef93e05f017cb4be97614acf85575958d1e92be85ecafed20a6a916ba0c31",
    ),
}


def render(name: str, workdir: Path) -> bytes:
    argv, config = CASES[name] if name in CASES else HASHED[name][:2]
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


@pytest.mark.parametrize("name", sorted(HASHED))
def test_report_matches_golden_hash(name, tmp_path):
    assert hashlib.sha256(render(name, tmp_path)).hexdigest() == HASHED[name][2]


def test_csv_rows_need_no_quoting(tmp_path):
    # Each row split at its commas and re-written by csv.writer keeps its
    # bytes and its header's width: no cell holds a comma, quote or line break.
    solve1d = tmp_path / "solve1d.csv"
    assert main(["solve1d", "--preset", "harmonic", "--n", "80", "--output", str(solve1d)]) == 0
    for path in [*(DATA / name for name in sorted(CASES) if name.endswith(".csv")), solve1d]:
        text = path.read_bytes().decode("utf-8")
        table = [line for line in text.split("\r\n") if line and not line.startswith("# ")]
        width = table[0].count(",") + 1
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        for line in table:
            cells = line.split(",")
            assert len(cells) == width, (path.name, line)
            writer.writerow(cells)
        assert buffer.getvalue() == "".join(f"{line}\r\n" for line in table), path.name


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            (DATA / case).write_bytes(render(case, Path(scratch)))
            print(f"wrote {DATA / case}", file=sys.stderr)
        for case in sorted(HASHED):
            print(f"{case}: {hashlib.sha256(render(case, Path(scratch))).hexdigest()}", file=sys.stderr)
