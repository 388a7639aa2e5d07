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
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# The unit of each dimensional option.
_OPTION_UNITS = {"a": "m", "mass": "kg", "mu": "kg", "alpha": "1/(m*m)", "amplitude": "m",
                 "r": "m", "eps": "1/(m*m*m*m)"}

# Each case: the subcommand with its fixed flags, its dimensional options
# at their base values, and (L, M).  osc-trajectory passes its amplitude:
# amplitude_estimate's tabulated window in alpha does not scale.
_CASES = {
    "box-figure": (("box-figure",), {"a": 2e-9, "mass": ELECTRON_MASS}, (4.0, 4.0)),
    "osc-trajectory n=0": (("osc-trajectory", "--n", "0"),
                           {"alpha": 1e20, "mu": ELECTRON_MASS, "amplitude": 1e-9},
                           (4.0, 4.0)),
    "osc-trajectory n=1": (("osc-trajectory", "--n", "1"),
                           {"alpha": 1e20, "mu": ELECTRON_MASS, "amplitude": 1e-10},
                           (4.0, 4.0)),
    "hydrogen-figure": (("hydrogen-figure",), {"mu": ELECTRON_MASS, "r": BOHR_RADIUS},
                        (0.25, 4.0)),
    "spectrum": (("spectrum",), {"a": 2e-9, "mass": ELECTRON_MASS, "eps": 1e35}, (4.0, 4.0)),
    "flux-check": (("flux-check",), {"a": 2e-9, "mass": ELECTRON_MASS}, (4.0, 4.0)),
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


def _written(args: Sequence[str], options: Mapping[str, float], length: float,
             mass: float, grid: int) -> dict[str, tuple[dict[str, object], list[str],
                                                       list[list[float]]]]:
    """{file name: (meta, headers, rows)} of a run with each dimensional
    option scaled by its unit at (length, mass), at grid points."""
    flags = [f"--{key}={value * _factor(_OPTION_UNITS[key], length, mass)!r}"
             for key, value in options.items()]
    if args[0] != "spectrum":
        flags.append(f"--grid={grid}")
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


@functools.cache
def _tables(case: str, scaled: bool) -> dict[str, tuple[dict[str, object], list[str],
                                                         list[list[float]]]]:
    """_written of a case at grid 2049, at its base or scaled inputs."""
    args, options, (length, mass) = _CASES[case]
    return _written(args, options, *((length, mass) if scaled else (1.0, 1.0)), 2049)


def _ulps(scaled: float, expected: float) -> float:
    return abs(scaled - expected) / math.ulp(expected)


def _cells_off(base, scaled, length: float, mass: float, ulps: int = 0,
               skip: frozenset[str] = frozenset()) -> list[tuple[str, str, int, float, float]]:
    """(file, column, row, scaled cell, base cell times its unit's factor)
    of each scaled cell off by more than ulps, or 1 in _ULP_COLUMNS,
    outside the columns named in skip."""
    assert list(scaled) == list(base)
    off = []
    for name, (_, headers, rows) in base.items():
        _, scaled_headers, scaled_rows = scaled[name]
        assert scaled_headers == headers and len(scaled_rows) == len(rows)
        for j, header in enumerate(headers):
            column, unit = header.split(":")
            if column in skip:
                continue
            factor = _factor(unit, length, mass)
            limit = max(ulps, 1 if column in _ULP_COLUMNS else 0)
            for i, (row, scaled_row) in enumerate(zip(rows, scaled_rows)):
                if _ulps(scaled_row[j], row[j] * factor) > limit:
                    off.append((name, column, i, scaled_row[j], row[j] * factor))
    return off


_ITEM_8 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: the n = 1 field chi = a r e^(-alpha r^2/2) is "
                        "m^2 for an amplitude in m, and its header says m")


@pytest.mark.parametrize("case", [pytest.param(case, marks=_ITEM_8)
                                  if case == "osc-trajectory n=1" else case
                                  for case in _CASES])
def test_every_cell_scales_with_its_column_unit(case):
    length, mass = _CASES[case][2]
    off = _cells_off(_tables(case, False), _tables(case, True), length, mass)
    assert not off, f"{len(off)} cells off, the first {off[:3]}"


_META_KEYS = [(case, key) for case, units in _META_UNITS.items() for key in units]


def _meta_off(base, scaled, key: str, unit: str, length: float, mass: float,
              ulps: int = 0) -> list[tuple[str, object, object]]:
    """(file, scaled value, base value) of each file whose caption value
    of key is off the scaled base value by more than ulps, or of another
    type."""
    factor = _factor(unit, length, mass)
    off = []
    for name, (meta, _, _) in base.items():
        value, scaled_value = meta[key], scaled[name][0][key]
        values, scaled_values = ((value, scaled_value) if isinstance(value, list)
                                 else ([value], [scaled_value]))
        if (type(scaled_value) is not type(value) or len(scaled_values) != len(values)
                or any(_ulps(v, base_v * factor) > ulps if isinstance(base_v, float)
                       else v != base_v for v, base_v in zip(scaled_values, values))):
            off.append((name, scaled_value, value))
    return off


@pytest.mark.parametrize("case,key", _META_KEYS, ids=[f"{c}-{k}" for c, k in _META_KEYS])
def test_every_meta_value_scales_with_its_unit(case, key):
    length, mass = _CASES[case][2]
    base, scaled = _tables(case, False), _tables(case, True)
    assert all(set(meta) == set(_META_UNITS[case]) for meta, _, _ in base.values())
    assert not _meta_off(base, scaled, key, _META_UNITS[case][key], length, mass)


_ITEMS_2_13 = pytest.mark.xfail(
    strict=True, reason="ROADMAP items 2 and 13: the oracle's absolute tolerance "
                        "(QuadratureSpec.abs_tol = 1e-14) is in metres, so scaled "
                        "lengths bisect the running integral's steps differently")


@_ITEMS_2_13
def test_q_oracle_scales_with_lengths_of_sixteen():
    args, options, _ = _CASES["osc-trajectory n=0"]
    base = _written(args, options, 1.0, 1.0, 65)
    off = _cells_off(base, _written(args, options, 16.0, 4.0, 65), 16.0, 4.0)
    assert not off, f"{len(off)} cells off, the first {off[:3]}"


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 17: d rho/dt squares |Psi| with ** 2, libm pow, "
                        "which at this base rounds one scaled square an ulp apart, and "
                        "the difference over 2 h_t makes that 1e-5 of the cell; y * y "
                        "scales exactly")
def test_continuity_residual_scales_where_pow_rounds_a_square_apart():
    options = {"a": 1e-10, "mass": 1e-31}
    base = _written(("flux-check",), options, 1.0, 1.0, 17)
    scaled = _written(("flux-check",), options, 64.0, 1.0 / 64.0, 17)
    off = _cells_off(base, scaled, 64.0, 1.0 / 64.0, ulps=2)
    assert not off, f"{len(off)} cells off, the first {off[:3]}"


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 10: shift:J subtracts two nearly equal level energies, "
                        "so an ulp that pow rounds apart in either is magnified: at this "
                        "draw of the property the level-5 shift is 1.5e-10 of itself off")
def test_spectrum_shift_scales_where_its_subtraction_cancels():
    args = ("spectrum", "--ratio", "1.3610546552925324", "--levels", "5")
    options = {"a": 1.2606729815525507e-08, "mass": 3.3633622823011994e-31,
               "eps": 6.830933102454951e+30}
    base = _written(args, options, 1.0, 1.0, 2)
    off = _cells_off(base, _written(args, options, 0.25, 64.0, 2), 0.25, 64.0, ulps=2)
    assert not off, f"{len(off)} cells off, the first {off[:3]}"


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_POWERS_OF_4 = st.integers(-3, 3).map(lambda k: 4.0 ** k)
_RATIO = st.floats(1.0, 2.0, exclude_max=True)
_MASS = _log_uniform(1e-31, 1e-27)


@st.composite
def _scaled_runs(draw):
    """(case, fixed flags, dimensional options, L, M, grid) of a table
    subcommand, each base parameter drawn from its valid range."""
    case = draw(st.sampled_from(["box-figure", "osc-trajectory n=0", "hydrogen-figure",
                                 "spectrum", "flux-check"]))
    length, mass = draw(_POWERS_OF_4), draw(_POWERS_OF_4)
    args = _CASES[case][0]
    if case == "box-figure":
        ratios = draw(st.lists(_RATIO, min_size=1, max_size=3))
        args += ("--ratios", ",".join(map(repr, ratios)))
        options = {"a": draw(_log_uniform(1e-10, 1e-7)), "mass": draw(_MASS)}
    elif case == "osc-trajectory n=0":
        options = {"alpha": draw(_log_uniform(1e18, 1e22)), "mu": draw(_MASS),
                   "amplitude": draw(_log_uniform(1e-11, 1e-8))}
    elif case == "hydrogen-figure":
        # e'^2 (J m) is held fixed: L is 1/M.
        length = 1.0 / mass
        args += ("--z", repr(draw(st.floats(1.0, 4.0))),
                 "--a-ha", repr(draw(st.floats(0.01, 1.0))))
        options = {"mu": draw(_MASS), "r": draw(_log_uniform(1e-11, 1e-9))}
    elif case == "spectrum":
        a = draw(_log_uniform(1e-10, 1e-7))
        # A ratio whose square root rounds to 1 leaves the level bare, with
        # no field for the quartic term, and spectrum exits 3.
        args += ("--ratio", repr(draw(_RATIO.filter(lambda ratio: math.sqrt(ratio) > 1.0))),
                 "--levels", str(draw(st.integers(1, 5))))
        options = {"a": a, "mass": draw(_MASS), "eps": draw(st.floats(0.0, 1.0)) / a ** 4}
    else:
        options = {"a": draw(_log_uniform(1e-10, 1e-7)), "mass": draw(_MASS)}
    return case, args, options, length, mass, draw(st.integers(2, 33))


# Left out of the property, each held by a strict xfail above: q_oracle,
# whose bisection depends on the lengths themselves (at L = 4 for some
# bases, as at L = 16 for the default one), the continuity residual
# with its largest value, where pow's slip is magnified, and spectrum's
# shift, which cancels.
_PROPERTY_SKIPS = frozenset({"q_oracle", "continuity_residual", "max_abs_residual", "shift"})


@settings(max_examples=60, deadline=None)
@given(_scaled_runs())
def test_every_value_scales_at_any_base_and_scale(run):
    """Within 2 ulps: libm pow rounds a scaled square an ulp apart from the
    scaled square in about 1 of 1000 draws, and one more rounding can
    double that, while a unit defect moves a value by a power of 4."""
    case, args, options, length, mass, grid = run
    base = _written(args, options, 1.0, 1.0, grid)
    scaled = _written(args, options, length, mass, grid)
    off = _cells_off(base, scaled, length, mass, ulps=2, skip=_PROPERTY_SKIPS)
    assert not off, f"{len(off)} cells off, the first {off[:3]}"
    for key, unit in _META_UNITS[case].items():
        if key not in _PROPERTY_SKIPS:
            assert not _meta_off(base, scaled, key, unit, length, mass, ulps=2), key
