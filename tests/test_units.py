"""Every written value scales with its declared unit.

With hbar fixed, scaling every length by L and every mass by M scales
time by M L^2 and energy by 1/(M L^2).  L and M are powers of 4, so a
product with a power of them is exact and sqrt(4) = 2: a formula whose
units agree gives, at the scaled inputs, the base outputs scaled bit for
bit, each by the unit its column header (`name:unit`) declares, or that
_META_UNITS gives a caption value.  hydrogen-figure also holds e'^2 (J m)
fixed, so its L is 1/M.  A formula that hard-codes a dimensional
constant, such as the electron mass, breaks the relation, although every
check at the default inputs passes.  This is a metamorphic test (T. Y.
Chen, S. C. Cheung and S. M. Yiu, HKUST-CS98-01, 1998) whose relation is
dimensional analysis (E. Buckingham, Phys. Rev. 4 (1914) 345-376).
"""

from __future__ import annotations

import ast
import contextlib
import csv
import functools
import io
import math
import tempfile
from pathlib import Path

import pytest

from pfield import cli
from pfield.core import BOHR_RADIUS, ELECTRON_MASS

# Exponents of length, mass and time of each base unit a header uses.
_BASE_UNITS = {"1": (0, 0, 0), "rad": (0, 0, 0), "m": (1, 0, 0), "kg": (0, 1, 0),
               "s": (0, 0, 1), "J": (2, 1, -2)}


def _exponents(unit: str) -> tuple[int, int, int]:
    """(length, mass, time) exponents of a unit: a product of base units
    joined by *, over an optional denominator, one unit or a product in
    parentheses."""
    numerator, slash, denominator = unit.partition("/")

    def product(text: str) -> tuple[int, int, int]:
        factors = [_BASE_UNITS[factor] for factor in text.split("*")]
        return tuple(map(sum, zip(*factors)))

    up = product(numerator)
    if not slash:
        return up
    if denominator.startswith("("):
        assert denominator.endswith(")"), unit
        denominator = denominator[1:-1]
    return tuple(u - d for u, d in zip(up, product(denominator)))


def test_exponents_of_the_units_in_use():
    assert _exponents("1") == _exponents("rad") == (0, 0, 0)
    assert _exponents("1/m") == (-1, 0, 0)
    assert _exponents("J") == (2, 1, -2)
    assert _exponents("1/(m*s)") == (-1, 0, -1)
    assert _exponents("kg*kg*m*m/(s*s)") == (2, 2, -2)


def _factor(unit: str, length: float, mass: float) -> float:
    """What a value of unit is multiplied by when lengths scale by length
    and masses by mass with hbar fixed, so that time scales by
    mass * length^2."""
    l_exp, m_exp, t_exp = _exponents(unit)
    return length ** l_exp * mass ** m_exp * (mass * length * length) ** t_exp


# Each case: the subcommand with its fixed flags, its dimensional options
# as {option: (base value, unit)}, and (L, M).  osc-trajectory passes its
# amplitude: amplitude_estimate's tabulated window in alpha does not scale.
_CASES = {
    "box-figure": (("box-figure",), {"a": (2e-9, "m"), "mass": (ELECTRON_MASS, "kg")},
                   (4.0, 4.0)),
    "osc-trajectory n=0": (("osc-trajectory", "--n", "0"),
                           {"alpha": (1e20, "1/(m*m)"), "mu": (ELECTRON_MASS, "kg"),
                            "amplitude": (1e-9, "m")}, (4.0, 4.0)),
    "osc-trajectory n=1": (("osc-trajectory", "--n", "1"),
                           {"alpha": (1e20, "1/(m*m)"), "mu": (ELECTRON_MASS, "kg"),
                            "amplitude": (1e-10, "m")}, (4.0, 4.0)),
    "hydrogen-figure": (("hydrogen-figure",), {"mu": (ELECTRON_MASS, "kg"),
                                               "r": (BOHR_RADIUS, "m")}, (0.25, 4.0)),
    "spectrum": (("spectrum",), {"a": (2e-9, "m"), "mass": (ELECTRON_MASS, "kg"),
                                 "eps": (1e35, "1/(m*m*m*m)")}, (4.0, 4.0)),
    "flux-check": (("flux-check",), {"a": (2e-9, "m"), "mass": (ELECTRON_MASS, "kg")},
                   (4.0, 4.0)),
}

# The unit of each caption key of each subcommand, until the files carry
# them.  A list value is a list of that unit.
_BOX_META = {"a": "m", "mass": "kg", "n": "1", "ratio": "1", "b_sq": "1", "g": "1",
             "a_n": "m", "inflection_points_m": "m"}
_OSC_META = {"alpha": "1/(m*m)", "mu": "kg", "omega0": "1/s", "n": "1", "amplitude": "m",
             "cap_l": "m"}
_META_UNITS = {
    "box-figure": _BOX_META,
    "osc-trajectory n=0": _OSC_META,
    "osc-trajectory n=1": _OSC_META,
    "hydrogen-figure": {"z": "1", "mu": "kg", "r": "m", "a_ha": "1",
                        **{f"{which}_{plane}_diameter": "1"
                           for which in ("p0", "pPlusMinus1")
                           for plane in ("polar", "equatorial")}},
    "spectrum": {"a": "m", "mass": "kg", "eps": "1/(m*m*m*m)", "ratio": "1", "levels": "1"},
    "flux-check": {"a": "m", "mass": "kg", "t": "s", "h_x": "m", "h_t": "s",
                   "max_abs_residual": "1/(m*s)", "p_mean": "kg*m/s",
                   "p_sq_mean": "kg*kg*m*m/(s*s)", "norm": "1"},
}

# Columns that may be an ulp off: psi_density squares with `** 2`, which
# libm's pow rounds.
_ULP_COLUMNS = {"psi_density"}


@functools.cache
def _tables(case: str, scaled: bool) -> dict[str, tuple[dict[str, object], list[str],
                                                         list[list[float]]]]:
    """{file name: (meta, headers, rows)} of a case at grid 2049, at its
    base or scaled inputs."""
    args, options, (length, mass) = _CASES[case]
    flags = [f"--{key}={value * (_factor(unit, length, mass) if scaled else 1.0)!r}"
             for key, (value, unit) in options.items()]
    if args[0] != "spectrum":
        flags.append("--grid=2049")
    tables = {}
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*args, *flags, "--out", out]) == 0
        for path in sorted(Path(out).iterdir()):
            meta = {}
            with path.open(encoding="utf-8") as fh:
                records = csv.reader(fh)
                for record in records:
                    if not record[0].startswith("# "):
                        headers = record
                        break
                    key, _, value = ",".join(record)[2:].partition("=")
                    meta[key] = ast.literal_eval(value)
                rows = [[float(cell) for cell in record] for record in records]
            tables[path.name] = meta, headers, rows
    return tables


def _ulps(scaled: float, expected: float) -> float:
    return abs(scaled - expected) / math.ulp(expected)


_ITEM_8 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: the n = 1 field chi = a r e^(-alpha r^2/2) is "
                        "m^2 for an amplitude in m, and its header says m")


@pytest.mark.parametrize("case", [pytest.param(case, marks=_ITEM_8)
                                  if case == "osc-trajectory n=1" else case
                                  for case in _CASES])
def test_every_cell_scales_with_its_column_unit(case):
    length, mass = _CASES[case][2]
    base, scaled = _tables(case, False), _tables(case, True)
    assert list(scaled) == list(base)
    moved = []
    for name, (_, headers, rows) in base.items():
        _, scaled_headers, scaled_rows = scaled[name]
        assert scaled_headers == headers and len(scaled_rows) == len(rows)
        for j, header in enumerate(headers):
            column, unit = header.split(":")
            factor = _factor(unit, length, mass)
            limit = 1 if column in _ULP_COLUMNS else 0
            for i, (row, scaled_row) in enumerate(zip(rows, scaled_rows)):
                if _ulps(scaled_row[j], row[j] * factor) > limit:
                    moved.append((name, column, i, scaled_row[j], row[j] * factor))
    assert not moved, f"{len(moved)} cells off, the first {moved[:3]}"


_META_KEYS = [(case, key) for case, units in _META_UNITS.items() for key in units]


@pytest.mark.parametrize("case,key", _META_KEYS, ids=[f"{c}-{k}" for c, k in _META_KEYS])
def test_every_meta_value_scales_with_its_unit(case, key):
    length, mass = _CASES[case][2]
    factor = _factor(_META_UNITS[case][key], length, mass)
    base, scaled = _tables(case, False), _tables(case, True)
    for name, (meta, _, _) in base.items():
        assert set(meta) == set(_META_UNITS[case])
        value, scaled_value = meta[key], scaled[name][0][key]
        assert type(scaled_value) is type(value)
        if isinstance(value, list):
            assert scaled_value == [v * factor for v in value]
        else:
            assert scaled_value == value * factor
