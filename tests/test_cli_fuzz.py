"""The command line contract, fuzzed: exit 0, 2 or 3, never a traceback.

Hypothesis draws whole ``solve`` and ``sweep`` configs, hostile ones
included: magnitudes from 1e-300 to 1e300, near-equal radii, harmonics up to
15, both methods, grids of at most 16x16 and at most 30 iterations.  Each
runs through ``cli.main`` in process.  A run that exits 0 or 2 leaves an
output that parses with finite numbers; one that exits 3 prints one stderr
line, ``config error: ...``.  ``diagnose`` gets mutated copies of a valid
``fields.csv`` and must exit 3 on each with one stderr line.

A plain process prints numpy's RuntimeWarnings and goes on, so the runs
record them instead of letting the suite's ``error::RuntimeWarning`` filter
turn them into exceptions.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_flux import build_grid, couette, write_velocity_csv
from annulus_flux.cli import main

# sign * mantissa * 10^e over the whole float range
hostile = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300))
HOSTILE_ODDS = 8  # a field draws its hostile value about once in this many draws


@st.composite
def field(draw, plain, other=hostile):
    """A draw from ``plain``, or about once in HOSTILE_ODDS from ``other``."""
    return draw(other) if draw(st.integers(1, HOSTILE_ODDS)) == 1 else draw(plain)


number = field(st.floats(-10.0, 10.0))
# a plain positive value, or a hostile one of either sign, 0 included
positive = field(st.floats(0.01, 2.0), st.one_of(hostile.map(abs), hostile,
                                                  st.sampled_from([0.0, 1e-300, 1e300])))
coefficient = st.one_of(number, st.lists(number, min_size=2, max_size=2))
table = st.dictionaries(field(st.integers(0, 4), st.integers(5, 15)).map(str), coefficient,
                        max_size=3)


@st.composite
def boundaries(draw, nu):
    preset = draw(st.sampled_from(["pure_flux", "couette", "spiral", "fourier"]))
    if preset == "pure_flux":
        return {"preset": preset, "flux": draw(number)}
    if preset == "couette":
        return {"preset": preset, "omega1": draw(number), "omega2": draw(number)}
    if preset == "spiral":
        return {"preset": preset, "flux": draw(number), "amplitude": draw(number),
                "nu": draw(field(st.just(nu), positive))}
    return {"preset": preset, **{side: draw(table) for side in (
        "normal_outer", "angular_outer", "normal_inner", "angular_inner")}}


@st.composite
def configs(draw):
    """(command, config): a whole run configuration, hostile in a few fields, never large."""
    r_inner = draw(field(st.just(1.0), positive))
    gap = draw(field(st.just(1.0), st.one_of(st.sampled_from([1e-12, 1e-6]), positive)))
    nu = draw(positive)
    config = {
        "grid": {"n_r": draw(field(st.integers(8, 16), st.integers(2, 16))),
                 "n_theta": draw(field(st.sampled_from([2, 4, 8, 16]), st.integers(1, 16))),
                 "r_inner": r_inner, "r_outer": r_inner * (1.0 + gap)},
        "nu": nu,
        "boundary": draw(boundaries(nu)),
        "solver": {"method": draw(st.sampled_from(["newton", "picard"])),
                   "lambda": draw(field(st.one_of(st.just(1.0), st.floats(0.0, 1.0)), number)),
                   "tol": draw(field(st.just(1e-10), positive)),
                   "max_iter": draw(st.integers(1, 30))},
    }
    command = draw(st.sampled_from(["solve", "sweep"]))
    if command == "sweep":
        parameter = draw(st.sampled_from(["lambda", "flux"]))
        values = draw(st.lists(field(st.floats(0.0, 1.0) if parameter == "lambda" else number),
                               min_size=1, max_size=4))
        if draw(field(st.just(True), st.just(False))):  # else as drawn: often not monotone
            values = sorted(set(values), reverse=draw(st.booleans()))
        config["sweep"] = {"parameter": parameter, "values": values}
    return command, config


def run_quietly(argv):
    """(exit code, stderr) of ``main(argv)``, its RuntimeWarnings recorded."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(run=configs())
def test_solve_and_sweep_exit_0_2_or_3(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code, err = run_quietly([command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3)
        if code == 3:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error:")
        elif command == "solve":
            json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        else:
            with open(out / "trace.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(math.isfinite(float(row["J"])) for row in rows)


@pytest.fixture(scope="module")
def fields_rows():
    """The lines of a valid 8x8 Couette ``fields.csv``: the header, then the nodes."""
    grid = build_grid(8, 8, 1.0, 2.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.csv"
        write_velocity_csv(path, couette(grid, 1.0, 0.0)[0])
        return path.read_text().splitlines()


MUTATIONS = ["swap", "nan", "inf", "1e200", "ragged", "extra_column", "text"]


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(MUTATIONS), row=st.integers(1, 64), other=st.integers(1, 63),
       column=st.integers(0, 3))
def test_diagnose_rejects_mutated_fields(fields_rows, kind, row, column, other):
    lines = list(fields_rows)
    cells = lines[row].split(",")
    if kind == "swap":  # two distinct nodes
        other += other >= row
        lines[row], lines[other] = lines[other], lines[row]
    elif kind == "ragged":
        lines[row] = ",".join(cells[:-1])
    elif kind == "extra_column":
        lines[row] = ",".join(cells + ["0.0"])
    else:
        cells[column] = {"nan": "nan", "inf": "inf", "1e200": "1e200", "text": "velocity"}[kind]
        lines[row] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.csv"
        path.write_text("\n".join(lines) + "\n")
        code, err = run_quietly(["diagnose", str(path), "--lambda", "1", "--nu", "1",
                                 "--out", str(Path(tmp) / "out"), "--quiet"])
    assert code == 3
    assert len(err.splitlines()) == 1
