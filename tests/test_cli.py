"""Command-line interface: table outputs, config merging, exit codes."""

from __future__ import annotations

import ast
import contextlib
import csv
import errno
import hashlib
import inspect
import io
import json
import math
import mmap
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import (boxmode, cli, core, hydrogen, nonlinear, oracle, oscillator, timedep,
                    verification)
from pfield.core import HBAR


def _read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[float]]]:
    meta: dict[str, str] = {}
    rows: list[list[float]] = []
    header: list[str] = []
    with path.open(encoding="utf-8") as fh:
        for record in csv.reader(fh):
            if record and record[0].startswith("#"):
                key, _, value = record[0][1:].strip().partition("=")
                meta[key] = value
                continue
            if not header:
                header = record
                continue
            rows.append([float(v) for v in record])
    return meta, header, rows


def test_box_figure_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        out.mkdir()
        assert cli.main(["box-figure", "--out", str(out), "--grid", "64"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["box_figure_n1.csv", "box_figure_n2.csv", "box_figure_n3.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_box_figure_table_content(tmp_path, capsys):
    assert cli.main(["box-figure", "--out", str(tmp_path), "--grid", "64"]) == 0
    meta, header, rows = _read_table(tmp_path / "box_figure_n1.csv")
    assert header == ["x:m", "q:m", "q_over_x:1", "chi:m", "psi_density:1/m",
                      "x_ref:m"]
    assert meta["n"] == "1"
    a = float(meta["a"])
    b_sq = float(meta["b_sq"])
    assert len(rows) == 64
    # x = 0 row: the ratio limit is finite, 1 + b^2/(b^2 + 4)
    assert rows[0][0] == 0.0
    assert rows[0][2] == pytest.approx(1.0 + b_sq / (b_sq + 4.0), rel=1e-12)
    # wall row pins q to the box width
    assert rows[-1][0] == pytest.approx(a, rel=1e-12)
    assert rows[-1][1] == pytest.approx(a, rel=1e-9)
    # inflection points sit at multiples of a/2n
    points = json.loads(meta["inflection_points_m"])
    assert points == pytest.approx([a / 2.0], rel=1e-12)


def test_box_figure_accepts_the_bare_limit_at_every_width(tmp_path, capsys):
    # make_mode's p_n rounds an ulp below HBAR*3*pi/a at this width
    assert cli.main(["box-figure", "--ratios", "1.0,1.0,1.0",
                     "--a", "2.8041268172117018e-09", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 3


def test_box_figure_accepts_a_ratio_just_below_two(tmp_path, capsys):
    # (p_n/p_particle)**2 rounds back up to 2.0 here unless p_particle is nudged
    assert cli.main(["box-figure", "--ratios", "1.9999999999999996,1.5,1.5",
                     "--a", "2.2633223641900492e-09", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 3


_RATIO_LISTS = ("1.5,abc", "1.5,nan", "", ",")
# (argv, the text of a config file or None, exit code, a fragment of
# stderr) of each bad command line, keyed by how a user writes it.  The
# run gets --out {tmp}/out after the subcommand and --config with the
# file at the end; {tmp} is a directory that holds one empty file,
# `file`, and {config} is the config file's path.
_BAD_INPUT = {
    # The bad third ratio stops the run before the first two files.
    "box-figure --ratios 1.5,1.4,2.5": (("box-figure", "--ratios", "1.5,1.4,2.5"), None, 3,
                                        "ratio for n=3"),
    "spectrum --ratio 1.0": (("spectrum", "--ratio", "1.0"), None, 3, "--ratio"),
    # Inside (1, 2), yet sqrt rounds it to 1 and level_at_ratio builds a_n = 0.
    "spectrum --ratio 1.0000000000000002": (("spectrum", "--ratio", "1.0000000000000002"),
                                            None, 3, "--ratio"),
    **{f"hydrogen-figure --a-ha {a_ha}": (("hydrogen-figure", "--a-ha", a_ha), None, 3,
                                          "a_ha must be finite and positive")
       for a_ha in ("-0.1", "0")},
    # The message names the subcommand and each option off its default.
    "flux-check --a 0": (("flux-check", "--a", "0"), None, 3,
                         "error: flux-check a=0.0: a must be finite and positive"),
    "osc-trajectory --alpha=1e300": (("osc-trajectory", "--alpha=1e300"), None, 3,
                                     "error: osc-trajectory alpha=1e+300: "),
    "box-figure --grid 16 --a=1e300": (("box-figure", "--grid", "16", "--a=1e300"), None, 3,
                                       "error: box-figure grid=16 a=1e+300: "),
    **{f"{command} {flag}={value}": ((command, f"{flag}={value}"), None, 2, "finite")
       for command, flag in (("spectrum", "--a"), ("hydrogen-figure", "--a-ha"),
                             ("osc-trajectory", "--alpha"))
       for value in ("nan", "inf", "-inf")},
    "hydrogen-figure config a_ha=nan": (("hydrogen-figure",), "a_ha=nan\n", 2,
                                        "config key a_ha: must be finite"),
    **{f"box-figure --ratios {ratios or repr(ratios)}": (("box-figure", "--ratios", ratios),
                                                         None, 2, "argument --ratios")
       for ratios in _RATIO_LISTS},
    **{f"box-figure config ratios={ratios}": (("box-figure",), f"ratios={ratios}\n", 2,
                                              "config key ratios")
       for ratios in _RATIO_LISTS},
    "spectrum --levels 0": (("spectrum", "--levels", "0"), None, 2, "argument --levels"),
    "spectrum config levels=0": (("spectrum",), "levels=0\n", 2,
                                 "config key levels: must be at least 1"),
    "box-figure --grid 1": (("box-figure", "--grid", "1"), None, 2, "argument --grid"),
    # A flag is read by its exact name, never by a prefix of another.
    **{" ".join(argv): (argv, None, 2, f"unrecognized arguments: {' '.join(argv[1:])}")
       for argv in (("verify", "--grid", "3"), ("verify", "--format", "json"),
                    ("spectrum", "--grid", "8"), ("hydrogen-figure", "--a", "0.15"),
                    ("spectrum", "--lev", "2"))},
    **{f"{command} config {key}={value}": ((command,), f"{key}={value}\n", 2,
                                           f"unknown config keys: {key}")
       for command, key, value in (("verify", "grid", "3"), ("verify", "format", "json"),
                                   ("spectrum", "grid", "8"),
                                   ("box-figure", "unknown_key", "1"))},
    "box-figure config grid twice": (("box-figure",),
                                     "grid=10\n# the same key again\n grid = 20\n", 2,
                                     "{config}:3: key grid given twice"),
    "spectrum config =5": (("spectrum",), "levels=3\n=5\n", 2,
                           "{config}:2: expected key=value, got '=5'"),
    # An empty name reads no file: a usage error, not the defaults.
    **{f"spectrum {key}": (("spectrum", *argv), None, 2, "spectrum: error: argument --config: ")
       for key, argv in (("--config=", ("--config=",)), ("--config ''", ("--config", "")))},
    **{f"verify config inject_error={value}": (("verify",), f"inject_error={value}\n", 2,
                                               "config key inject_error")
       for value in ("ture", "", "y")},
    "--nonsense": (("--nonsense",), None, 2, "expected a command"),
    **{f"{command} --out file/x": ((command, "--out", "{tmp}/file/x"), None, 2,
                                   "{tmp}/file/x")
       for command in ("spectrum", "verify")},
}


@pytest.mark.parametrize("row", _BAD_INPUT)
def test_bad_input_exit_code(tmp_path, capsys, row):
    """A usage error raises SystemExit and prints the usage line first; any
    other error returns its code and prints `error: ` first.  No escaped
    exception, and no file or directory made."""
    argv, config, code, fragment = _BAD_INPUT[row]
    (tmp_path / "file").touch()
    cfg = tmp_path / "run.conf"
    if config is not None:
        cfg.write_text(config, encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    argv = [*argv[:1], "--out", str(tmp_path / "out"), *argv[1:],
            *(("--config", str(cfg)) if config is not None else ())]
    try:
        rc, usage = cli.main(argv), False
    except SystemExit as exc:
        rc, usage = exc.code, True
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("usage: pfield" if usage else "error: ")
    assert fragment.format(tmp=tmp_path, config=cfg) in err
    assert sorted(tmp_path.rglob("*")) == before


# Widths whose last grid point used to land past the box wall (exit 3): the
# mode's own n pi / k_n falls short of a, or the grid rounding overshoots a;
# and a grid whose rounding ends 4.1e-25 m short of a.
@pytest.mark.parametrize("a,grid", [pytest.param("2.917e-09", 1000, id="2.917e-09"),
                                    pytest.param("3.6400000000000003e-09", 1000,
                                                 id="3.6400000000000003e-09"),
                                    pytest.param("2e-09", 536, id="2e-09-536")])
def test_box_figure_last_row_sits_on_the_wall(tmp_path, capsys, a, grid):
    assert cli.main(["box-figure", "--a", a, "--grid", str(grid),
                     "--out", str(tmp_path)]) == 0
    for n in (1, 2, 3):
        meta, _, rows = _read_table(tmp_path / f"box_figure_n{n}.csv")
        assert len(rows) == grid
        assert rows[0][:2] == [0.0, 0.0]
        assert rows[-1][0] == float(a) == float(meta["a"])
        assert rows[-1][1] == pytest.approx(float(a), rel=1e-12)
        assert all(x[0] < y[0] for x, y in zip(rows, rows[1:]))


def test_flux_check_grid_stays_h_x_inside(tmp_path, capsys):
    """At the first width the grid rounding overshoots a - h_x; at 2 nm its
    2066 points end short of it."""
    for a, grid in (("1.8550000000000001e-09", 1000), ("2e-09", 2066)):
        out = tmp_path / str(grid)
        assert cli.main(["flux-check", "--a", a, "--grid", str(grid),
                         "--out", str(out)]) == 0
        meta, _, rows = _read_table(out / "flux_check.csv")
        h_x = float(meta["h_x"])
        assert len(rows) == grid
        assert rows[0][0] == h_x
        assert rows[-1][0] == float(a) - h_x
        assert all(x[0] < y[0] for x, y in zip(rows, rows[1:]))


class _FullDisk:
    """An open file that takes ten bytes, then fails with ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:10])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self._fh.name)


def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    path_open = Path.open

    def open_a_full_disk(path, *args, **kwargs):
        return _FullDisk(path_open(path, *args, **kwargs))

    monkeypatch.setattr(Path, "open", open_a_full_disk)
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "verify"])
def test_table_command_prints_each_written_path_in_write_order(tmp_path, capsys,
                                                               monkeypatch, command):
    grid = ("--grid", "16") if "grid" in cli._options(cli._COMMANDS[command]) else ()
    written = []
    path_open = Path.open

    def recording_open(path, *args, **kwargs):
        written.append(path.parent / path.name[1:-len(".tmp")])
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    assert cli.main([command, *grid, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(path) for path in written]
    assert len(written) == (3 if command == "box-figure" else 1)
    assert sorted(tmp_path.iterdir()) == sorted(written)


def test_verify_failed_write_prints_its_verdicts_and_no_path(tmp_path, capsys,
                                                             monkeypatch):
    path_open = Path.open
    monkeypatch.setattr(Path, "open",
                        lambda path, *a, **k: _FullDisk(path_open(path, *a, **k)))
    assert cli.main(["verify", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    # The verdicts are printed before the report is written.
    lines = captured.out.splitlines()
    assert len(lines) == len(verification._CRITERIA)
    assert all(ln.startswith("PASS ") for ln in lines)
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_box_figure_failed_write_leaves_no_file_of_the_set(tmp_path, capsys,
                                                           monkeypatch, no_child_left):
    # The first file is written in two shares, one of them a child's.
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    path_open = Path.open
    written = []

    def fail_on_second_file(path, *args, **kwargs):
        written.append(path.name)
        if len(written) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", fail_on_second_file)
    assert cli.main(["box-figure", "--grid", str(2 * core.BLOCK_ROWS + 1),
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert written == [".box_figure_n1.csv.tmp", ".box_figure_n2.csv.tmp"]
    assert list(tmp_path.iterdir()) == []


def _flux_grid(grid):
    """The x grid of flux-check at its default options."""
    _, _, h_x, _ = timedep.equal_weight_beat(core.ELECTRON_MASS, 2e-9)
    return cli._box_grid(h_x, 2e-9 - h_x, grid)


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                    fmt, bad):
    flux_columns = timedep.flux_columns
    first = _flux_grid(core.BLOCK_ROWS + 2)[core.BLOCK_ROWS]

    def one_bad_cell(s, xs, *args):
        flux, residual = flux_columns(s, xs, *args)
        # The first block is written before the second, which holds the cell.
        if xs[0] == first:
            flux[0] = bad
        return flux, residual

    monkeypatch.setattr(timedep, "flux_columns", one_bad_cell)
    assert cli.main(["flux-check", "--grid", str(core.BLOCK_ROWS + 2),
                     "--format", fmt, "--out", str(tmp_path)]) == 3
    assert "non-finite cell" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_non_finite_cell_in_the_last_share_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch, no_child_left, fmt, cpus):
    flux_columns = timedep.flux_columns
    last = _flux_grid(2 * core.BLOCK_ROWS + 1)[-1]

    def last_cell_bad(s, xs, *args):
        flux, residual = flux_columns(s, xs, *args)
        if xs[-1] == last:
            flux[-1] = math.nan
        return flux, residual

    monkeypatch.setattr(timedep, "flux_columns", last_cell_bad)
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    # Three blocks: the bad cell is alone in the third, a child's share.
    assert cli.main(["flux-check", "--grid", str(2 * core.BLOCK_ROWS + 1),
                     "--format", fmt, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.endswith(
        f"flux_check.{fmt}: non-finite cell in the rows from {2 * core.BLOCK_ROWS + 1}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", [0, -1])
def test_non_finite_residual_is_a_cell_not_a_meta_value(tmp_path, capsys, monkeypatch,
                                                        place, bad):
    # max_abs_residual skips a nan residual wherever it sits, even first,
    # and the caption is made after the rows, so the table refuses any
    # non-finite residual as a cell first.
    flux_columns = timedep.flux_columns

    def bad_residual(*args):
        flux, residual = flux_columns(*args)
        residual[place] = bad
        return flux, residual

    monkeypatch.setattr(timedep, "flux_columns", bad_residual)
    assert cli.main(["flux-check", "--grid", "16", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "flux_check.csv: non-finite cell in the rows from 1" in err
    assert "meta" not in err
    assert list(tmp_path.iterdir()) == []


def _flux_columns():
    beat, t0, h_x, h_t = timedep.equal_weight_beat(core.ELECTRON_MASS, 2e-9)
    return timedep.flux_columns(beat, [1e-9], t0, h_x, h_t)


_BOX_MODE = (core.ELECTRON_MASS, 2e-9, 1, 1.5)
# Each function that makes a table column, with small arguments, as a
# list of the columns it returns; a grid's column is a row span's slice.
_COLUMN_MAKERS = {
    "cli._grid": lambda: [cli._grid(0.0, 1.0, 5)[1:5]],
    "cli._box_grid": lambda: [cli._box_grid(0.0, 1.0, 5)[0:3]],
    "boxmode.figure_columns": lambda: boxmode.figure_columns(
        boxmode.level_at_ratio(*_BOX_MODE), [0.0, 1e-9]),
    "boxmode.eighth_order_path": lambda: [boxmode.eighth_order_path(
        boxmode.level_at_ratio(*_BOX_MODE), [0.0, 1e-9])],
    "oscillator.figure_columns": lambda: oscillator.figure_columns(oscillator.make_mode(
        oscillator.system_at_alpha(1e20, core.ELECTRON_MASS), 1), [0.0, 1e-10]),
    "hydrogen.figure_columns": lambda: hydrogen.figure_columns(
        hydrogen.HydrogenSystem(z=1.0, mu=core.ELECTRON_MASS), 0.1, 5e-11, [0.0, 1.0]),
    "timedep.flux_columns": _flux_columns,
    "nonlinear.duffing_columns": lambda: nonlinear.duffing_columns(
        nonlinear.NonlinearParams(eps=0.0, a_tilde=1e-10), 1e9, [0.0, 1e-9]),
    "oracle.cumulative_integrate": lambda: [oracle.cumulative_integrate(math.cos, [1.0])],
}
# The running integral is summed where the forked shares stored its steps,
# in core.shared_doubles; every other column is an array('d').
_COLUMN_TYPES = {"oracle.cumulative_integrate": memoryview}


@pytest.mark.parametrize("maker", _COLUMN_MAKERS)
def test_columns_are_double_arrays(maker):
    columns = _COLUMN_MAKERS[maker]()
    assert columns
    for column in columns:
        assert isinstance(column, _COLUMN_TYPES.get(maker, array))
        assert memoryview(column).format == "d"


def _bits(values):
    return array("d", values).tobytes()


# (lo, hi, n) of grids: box-figure's at a = 2 nm, whose last point
# overshoots the wall at n = 138 and 1097 and ends short of it at 536 and
# 2063, flux-check's (h_x = 2e-13), overshooting at 136 and short at 2066,
# osc-trajectory's and hydrogen-figure's, and grids of one, two and three
# row spans.
_GRIDS = [
    (0.0, 1.0, 2), (0.0, 1.0, 50), (0.0, 2.0 * math.pi, 257),
    (0.0, 2e-9, 138), (0.0, 2e-9, 536), (0.0, 2e-9, 1097), (0.0, 2e-9, 2063),
    (2e-13, 2e-9 - 2e-13, 136), (2e-13, 2e-9 - 2e-13, 2066),
    (-5e-10, 5e-10, core.BLOCK_ROWS), (-5e-10, 5e-10, 1032),
    (-5e-10, 5e-10, 2 * core.BLOCK_ROWS + 1),
]


def test_grid_cases_end_past_and_short_of_hi():
    ends = [ref.grid(lo, hi, n)[-1] - hi for lo, hi, n in _GRIDS]
    assert min(ends) < 0.0 < max(ends)


@pytest.mark.parametrize("make,reference", [(cli._grid, ref.grid),
                                            (cli._box_grid, ref.box_grid)],
                         ids=["grid", "box_grid"])
@pytest.mark.parametrize("lo,hi,n", _GRIDS)
def test_grid_equals_the_whole_grid_bit_for_bit(make, reference, lo, hi, n):
    xs, expected = make(lo, hi, n), reference(lo, hi, n)
    whole = _bits(expected)
    assert len(xs) == n
    assert _bits(xs) == whole
    assert _bits([xs[i] for i in range(n)]) == whole
    assert _bits([xs[i] for i in range(-n, 0)]) == whole
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            xs[past]
    span_edges = range(core.BLOCK_ROWS, n, core.BLOCK_ROWS)
    edges = sorted({0, 1, n - 1, n, *(edge + d for edge in span_edges for d in (-1, 0, 1))})
    for start in edges:
        for stop in edges:
            span = xs[start:stop]
            assert isinstance(span, array) and span.typecode == "d"
            assert span.tobytes() == _bits(expected[start:stop])
    for cut in (slice(-3, None), slice(None, -1), slice(None, None, -1)):
        assert xs[cut].tobytes() == _bits(expected[cut])


# Traced bytes per grid point a subcommand may hold at its peak on one
# share: nothing per point, and no subcommand a whole grid.  tracemalloc
# does not see an mmap, so osc-trajectory's running integral, 8 bytes a
# point in core.shared_doubles, is pinned by the test after this one.
_BYTES_PER_POINT = {
    ("osc-trajectory", "--n", "1"): 1,
    ("flux-check",): 1,
    ("box-figure",): 1,
    ("hydrogen-figure",): 1,
}


@pytest.mark.parametrize("args", list(_BYTES_PER_POINT), ids=" ".join)
def test_traced_memory_per_grid_point(tmp_path, capsys, monkeypatch, args):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    # A first run loads the subcommand's modules, so neither size pays that.
    assert cli.main([*args, "--grid", "2", "--out", str(tmp_path / "first")]) == 0
    sizes = (10 * core.BLOCK_ROWS, 30 * core.BLOCK_ROWS)
    peaks = []
    tracemalloc.start()
    try:
        for grid in sizes:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert cli.main([*args, "--grid", str(grid), "--out", str(tmp_path / str(grid))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < _BYTES_PER_POINT[args]


def test_running_integral_is_a_double_per_point_in_a_shared_map():
    xs = cli._grid(-1.0, 1.0, 2 * core.BLOCK_ROWS + 1)
    running = oracle.cumulative_integrate(math.cos, xs)
    assert running.format == "d" and running.nbytes == 8 * len(xs)
    assert isinstance(running.obj, mmap.mmap)


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("short", [0, 1])
def test_ragged_table_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                 fmt, short):
    # One kernel column a row short, its last row alone in the third block:
    # zip alone would drop that row from every column.
    figure_columns = hydrogen.figure_columns

    def one_row_short(sys, a_ha, r, thetas):
        columns = list(figure_columns(sys, a_ha, r, thetas))
        if len(thetas) == 1:
            columns[short] = columns[short][:-1]
        return tuple(columns)

    monkeypatch.setattr(hydrogen, "figure_columns", one_row_short)
    assert cli.main(["hydrogen-figure", "--grid", str(2 * core.BLOCK_ROWS + 1),
                     "--format", fmt, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"hydrogen_figure.{fmt}: columns of unequal lengths" in err
    assert list(tmp_path.iterdir()) == []


# Every float option of every subcommand, except the coupling eps, whose
# zero is the linear limit and whose sign is free.
_POSITIVE_FLOATS = [
    (command, key) for command, runner in cli._COMMANDS.items()
    for key, (conv, _) in cli._options(runner).items()
    if conv in (cli.finite_float, cli.ratio_list) and key != "eps"]


@pytest.mark.parametrize("command,key", _POSITIVE_FLOATS,
                         ids=[f"{c} {k}" for c, k in _POSITIVE_FLOATS])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_float_option_exits_cleanly(tmp_path, capsys, command, key,
                                                 value):
    grid = ("--grid", "16") if "grid" in cli._options(cli._COMMANDS[command]) else ()
    flag = "--" + key.replace("_", "-")
    rc = cli.main([command, f"{flag}={value}", *grid, "--out", str(tmp_path)])
    assert rc in (2, 3)
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,key", _POSITIVE_FLOATS,
                         ids=[f"{c} {k}" for c, k in _POSITIVE_FLOATS])
@pytest.mark.parametrize("value", ["1e-300", "1e300"])
def test_extreme_float_option_exits_cleanly(tmp_path, capsys, command, key, value):
    # Overflow and division by zero are numeric errors (3), not tracebacks.
    grid = ("--grid", "16") if "grid" in cli._options(cli._COMMANDS[command]) else ()
    flag = "--" + key.replace("_", "-")
    rc = cli.main([command, f"{flag}={value}", *grid, "--out", str(tmp_path)])
    assert rc in (0, 3)
    if rc == 3:
        # The message names the subcommand and the option that caused it.
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command} ")
        assert f" {key}=" in err
        assert list(tmp_path.iterdir()) == []


# A float option: 0, the smallest subnormal or the largest float (about
# 1.8e308), or a log-uniform magnitude, each with a random sign.
_EXTREME_FLOAT = st.builds(
    lambda negative, magnitude: -magnitude if negative else magnitude,
    st.booleans(),
    st.one_of(st.sampled_from([0.0, 5e-324, sys.float_info.max]),
              st.floats(-323.0, 308.0).map(lambda exponent: 10.0 ** exponent)))
_RATIO = st.one_of(st.floats(1.0, 2.0, exclude_max=True), _EXTREME_FLOAT)
_OPTION_VALUES = {
    "grid": st.integers(2, 40).map(str),
    "format": st.sampled_from(cli._FORMATS),
    "n": st.integers(-1, 2).map(str),
    "levels": st.integers(1, 8).map(str),
    "ratios": st.lists(_RATIO.map(repr), min_size=1, max_size=4).map(",".join),
}
_TABLE_COMMANDS = [command for command in cli._COMMANDS if command != "verify"]


@st.composite
def _table_argv(draw):
    """A table subcommand with each of its options left out or drawn."""
    command = draw(st.sampled_from(_TABLE_COMMANDS))
    argv = [command]
    for key in cli._options(cli._COMMANDS[command]):
        value = draw(st.one_of(st.none(), _OPTION_VALUES.get(key, _EXTREME_FLOAT.map(repr))))
        if value is not None:
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_table_argv())
def test_random_extreme_options_keep_the_exit_contract(argv):
    """Every run exits 0, 2 or 3 without an exception escaping, and a run
    that fails leaves no file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3)
        if code:
            assert not out.exists() or not any(out.iterdir())


# The negative numbers argparse reads as a value written apart from its
# flag; any other token that starts with - it reads as a flag.
_ARGPARSE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


@st.composite
def _any_argv(draw):
    """A subcommand and its flags, each key drawn any number of times in
    any order, each value written --k=v or apart, or a flag cut short."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    keys = ["out", *cli._options(cli._COMMANDS[command])]
    for key in draw(st.lists(st.sampled_from(keys), max_size=8)):
        flag = "--" + key.replace("_", "-")
        if draw(st.integers(0, 9)) == 0:
            flag = flag[:draw(st.integers(3, len(flag)))]
        if key == "inject_error":
            argv.append(flag)
            continue
        if draw(st.integers(0, 4)) == 0:
            value = draw(st.sampled_from(["0", "1", "-1", "nan", "x", ""]))
        else:
            value = draw(_OPTION_VALUES.get(key, _EXTREME_FLOAT.map(repr)))
        apart = value[:1] != "-" or _ARGPARSE_NUMBER.fullmatch(value)
        if apart and draw(st.booleans()):
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    return argv


_REFERENCE_PARSER = ref.cli_parser()


def _resolved(parse, argv):
    """The options that parse and cli._merge_options resolve, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            command, given = parse(argv)
            table = {"out": (str, "."), **cli._options(cli._COMMANDS[command])}
            return command, cli._merge_options(command, given, table)
        except SystemExit as exc:
            return exc.code


def _reference_parse(argv):
    args = vars(_REFERENCE_PARSER.parse_args(argv))
    command = args.pop("command")
    return command, {key: value for key, value in args.items() if value is not None}


@settings(max_examples=300, deadline=None)
@given(argv=_any_argv())
def test_parser_resolves_what_argparse_resolves(argv):
    """Wherever argparse, with abbreviated flags turned off, reads a value
    as a value, _parse reads the same options, or both exit 2."""
    assert _resolved(cli._parse, argv) == _resolved(_reference_parse, argv)


# Of each argv run in a fresh `python -I -S`: its exit code (None for the
# import alone), the pfield modules it loads beyond cli and core, which
# `import pfield.cli` alone loads, and whether it loads json, which only
# JSON output and verify use.  Each runner imports its own physics.
_FOOTPRINTS = {
    (): (None, set(), False),
    ("box-figure", "--grid", "4"): (0, {"boxmode"}, False),
    ("box-figure", "--grid", "4", "--format", "json"): (0, {"boxmode"}, True),
    ("osc-trajectory", "--grid", "4"): (0, {"oracle", "oscillator"}, False),
    ("hydrogen-figure", "--grid", "4"): (0, {"hydrogen", "oracle"}, False),
    ("spectrum",): (0, {"boxmode", "nonlinear"}, False),
    ("flux-check", "--grid", "4"): (0, {"timedep", "boxmode", "oracle"}, False),
    ("verify",): (0, {"boxmode", "hydrogen", "nonlinear", "oracle", "oscillator", "timedep",
                      "verification"}, True),
    ("box-figure", "--help"): (0, set(), False),
    ("spectrum", "--levels", "0"): (2, set(), False),
}
# No run loads these: _parse reads the command line without argparse and
# the gettext it imports, and the records and option tables are built
# without the dataclasses and inspect machinery.
_NEVER_LOADED = {"argparse", "gettext", "dataclasses", "inspect"}
# Loaded on first use by forked shares, a spooled table, a column or
# JSON output, so `import pfield.cli` alone loads none of them.
_LOADED_ON_USE = {"shutil", "tempfile", "signal", "threading", "array", "json"}
_FOOTPRINT = """\
import io, sys
sys.path.insert(0, sys.argv[1])
import pfield.cli
code = None
if sys.argv[2:]:
    sys.stdout = sys.stderr = io.StringIO()
    try:
        code = pfield.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(repr((code, sorted(sys.modules))))
"""


@pytest.fixture(scope="module")
def footprint(tmp_path_factory):
    """The exit code and loaded modules of each argv of _FOOTPRINTS, run
    once per module in a fresh `python -I -S` however many tests read it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = {}

    def run(argv):
        if argv not in runs:
            out = str(tmp_path_factory.mktemp("footprint"))
            args = [argv[0], "--out", out, *argv[1:]] if argv else []
            r = subprocess.run([sys.executable, "-I", "-S", "-c", _FOOTPRINT, src, *args],
                               capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            rc, modules = ast.literal_eval(r.stdout)
            assert rc == _FOOTPRINTS[argv][0]
            runs[argv] = set(modules)
        return runs[argv]
    return run


def _footprint_id(argv):
    return " ".join(argv) or "import-only"


@pytest.mark.parametrize("argv", _FOOTPRINTS, ids=_footprint_id)
def test_cli_loads_no_argparse_or_gettext(footprint, argv):
    """`import pfield.cli`, a run of each subcommand, --help and a usage
    error exit as they should and load none of _NEVER_LOADED."""
    assert not _NEVER_LOADED & footprint(argv)


def test_import_leaves_out_dataclasses_and_inspect(footprint):
    """Every run pays for `import pfield.cli`; it loads none of
    _NEVER_LOADED and none of the modules loaded on first use."""
    assert not (_NEVER_LOADED | _LOADED_ON_USE) & footprint(())


@pytest.mark.parametrize("command", sorted({argv[:1] for argv in _FOOTPRINTS}),
                         ids=lambda command: _footprint_id(command[:1]))
def test_each_subcommand_imports_only_the_physics_it_runs(footprint, command):
    """`import pfield.cli` loads cli and core of the package and no physics
    or oracle module; each run of a subcommand imports its own."""
    for argv, (_, physics, _) in _FOOTPRINTS.items():
        if argv[:1] == command:
            modules = footprint(argv)
            assert {m[len("pfield."):] for m in modules if m.startswith("pfield.")} \
                == {"cli", "core", *physics}, argv


@pytest.mark.parametrize("argv", [argv for argv in _FOOTPRINTS if argv], ids=_footprint_id)
def test_only_json_output_and_verify_load_json(footprint, argv):
    assert ("json" in footprint(argv)) == _FOOTPRINTS[argv][2]


@pytest.mark.parametrize("command", ref.CLI_OPTIONS)
def test_options_match_the_frozen_tables(command):
    """Flags, config keys, converters, defaults and their order (which
    --help and the exit-3 message follow) are those of the frozen tables."""
    assert list(cli._COMMANDS) == list(ref.CLI_OPTIONS)
    runner = cli._COMMANDS[command]
    params = inspect.signature(runner).parameters.values()
    assert all(param.kind is param.KEYWORD_ONLY for param in params)
    assert [(key, conv.__name__, default)
            for key, (conv, default) in cli._options(runner).items()] \
        == list(ref.CLI_OPTIONS[command])


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_option_is_read_by_its_runner(command):
    """No flag does nothing: the runner's body reads each keyword parameter."""
    runner = cli._COMMANDS[command]
    (func,) = ast.parse(inspect.getsource(runner)).body
    read = {node.id for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert set(cli._options(runner)) <= read


@pytest.mark.parametrize("command", [None, *cli._COMMANDS], ids=lambda c: c or "pfield")
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_subcommand_or_flag(tmp_path, capsys, monkeypatch, command, flag):
    """Top-level help lists every subcommand; a subcommand's help lists
    each of its flags with its help text."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main([flag] if command is None else [command, flag])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    if command is None:
        assert all(any(line.split()[:1] == [name] for line in lines) for name in cli._COMMANDS)
    else:
        for name, (_, _, text) in cli._flags(command).items():
            assert any(line.split()[:1] == [name] and line.endswith(text) for line in lines), name
    assert list(tmp_path.iterdir()) == []


def test_cached_parser_keeps_no_option_between_calls(tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli.main(["hydrogen-figure", "--grid", "16", "--a-ha", "0.2",
                     "--out", str(one)]) == 0
    assert cli.main(["hydrogen-figure", "--grid", "17", "--out", str(two)]) == 0
    meta, _, rows = _read_table(two / "hydrogen_figure.csv")
    assert len(rows) == 17
    assert meta["a_ha"] == "0.1"


def test_valid_call_after_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--levels", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["spectrum.csv"]


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("grid=16\nformat=json\n# comment line\n", encoding="utf-8")
    assert cli.main(["hydrogen-figure", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "hydrogen_figure.json").read_text(encoding="utf-8"))
    assert data["columns"] == ["theta:rad", "q_over_r_p0:1", "q_over_r_pm1:1"]
    assert len(data["rows"]) == 16
    assert data["meta"]["p0_polar_diameter"] == pytest.approx(
        1.0002927491576217, rel=1e-10)
    assert data["meta"]["p0_polar_diameter"] > data["meta"]["p0_equatorial_diameter"]
    assert data["meta"]["pPlusMinus1_polar_diameter"] < \
        data["meta"]["pPlusMinus1_equatorial_diameter"]
    # a flag still beats the config file
    assert cli.main(["hydrogen-figure", "--config", str(cfg), "--format", "csv",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "hydrogen_figure.csv").exists()


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    assert cli.main(["spectrum"]) == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_zero_coupling_has_zero_shifts(tmp_path, capsys):
    assert cli.main(["spectrum", "--eps", "0", "--out", str(tmp_path)]) == 0
    meta, header, rows = _read_table(tmp_path / "spectrum.csv")
    assert header == ["n:1", "e_linear:J", "e_nonlinear:J", "shift:J"]
    assert rows
    for row in rows:
        assert row[3] == 0.0


def test_negative_exponent_option_apart_or_joined_writes_the_same_bytes(tmp_path,
                                                                        capsys):
    """The token after a flag is its value, as written, so `--eps -1e35`
    is `--eps=-1e35`."""
    assert cli.main(["spectrum", "--eps=-1e35", "--levels", "3",
                     "--out", str(tmp_path / "joined")]) == 0
    meta, _, rows = _read_table(tmp_path / "joined" / "spectrum.csv")
    assert meta["eps"] == "-1e+35"
    assert len(rows) == 3
    assert cli.main(["spectrum", "--eps", "-1e35", "--levels", "3",
                     "--out", str(tmp_path / "apart")]) == 0
    assert (tmp_path / "apart" / "spectrum.csv").read_bytes() \
        == (tmp_path / "joined" / "spectrum.csv").read_bytes()


def test_quadrature_failure_in_a_forked_share_exits_3(tmp_path, capsys, monkeypatch,
                                                      no_child_left):
    """An integrand that turns nan past r = r_max / 2 fails a step of the
    second share, in a child; the share is redone here and raises the
    oracle's ArithmeticError, which main reports as a numeric error."""
    path_integrand = oscillator.path_integrand

    def nan_past_half(mode):
        f = path_integrand(mode)
        r_half = 2.5 / math.sqrt(mode.sys.alpha)
        return lambda r: math.nan if r > r_half else f(r)

    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oscillator, "path_integrand", nan_past_half)
    assert cli.main(["osc-trajectory", "--grid", "2049", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: osc-trajectory grid=2049: quadrature failed to converge on [")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_flux_check_reports_conservation(tmp_path, capsys):
    assert cli.main(["flux-check", "--grid", "32", "--out", str(tmp_path)]) == 0
    meta, header, rows = _read_table(tmp_path / "flux_check.csv")
    assert header == ["x:m", "flux:1/s", "continuity_residual:1/(m*s)"]
    assert len(rows) == 32
    assert float(meta["norm"]) == pytest.approx(1.0, rel=1e-9)
    assert math.isfinite(float(meta["max_abs_residual"]))
    # snapshot sits a tenth of a beat in: <p> = (8/3a) hbar sin(0.2 pi)
    a = float(meta["a"])
    expected_p = 8.0 * HBAR / (3.0 * a) * math.sin(0.2 * math.pi)
    assert float(meta["p_mean"]) == pytest.approx(expected_p, rel=1e-6)
    assert float(meta["p_sq_mean"]) > 0.0


def test_osc_trajectory_runs(tmp_path, capsys):
    assert cli.main(["osc-trajectory", "--grid", "32", "--out", str(tmp_path)]) == 0
    meta, header, rows = _read_table(tmp_path / "osc_trajectory.csv")
    assert header == ["r_bar:m", "q_two:m", "q_three:m", "q_oracle:m", "chi:m"]
    assert len(rows) == 32
    # the oracle column brackets the truncations
    mid = rows[len(rows) // 2]
    assert math.isfinite(mid[3])


def test_verify_passes_and_writes_report(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    # one verdict per criterion, then the path of the report
    n = len(verification._CRITERIA)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n + 1
    assert all(ln.startswith("PASS ") for ln in lines[:n])
    assert lines[n] == str(tmp_path / "verify_report.json")
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert len(report["criteria"]) == n


@pytest.mark.parametrize("inject", [False, True])
def test_verify_report_is_the_suite_report(tmp_path, capsys, inject):
    args = ["--inject-error"] if inject else []
    assert cli.main(["verify", *args, "--out", str(tmp_path)]) == int(inject)
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"))
    assert report == verification.run_acceptance_suite(inject_error=inject)


def test_verify_without_docstrings_describes_each_criterion_by_its_ident(tmp_path):
    """python -OO strips the docstrings the descriptions come from."""
    r = subprocess.run([sys.executable, "-OO", "-m", "pfield.cli", "verify",
                        "--out", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()[:-1]
    assert lines == [f"PASS {ident}: {ident}" for ident, _ in verification._CRITERIA]


class _RecordingJson:
    """A json module with dumps alone, which records each payload."""

    def __init__(self):
        self.payloads = []

    def dumps(self, payload, **kwargs):
        self.payloads.append(payload)
        return json.dumps(payload, **kwargs)


def test_every_json_text_goes_through_the_module_name_json(tmp_path, capsys, monkeypatch):
    """A tracer may replace cli.json: every json.dumps call, a JSON table's
    head and the verify report, goes through that name, and a CSV run
    makes none."""
    recorder = _RecordingJson()
    monkeypatch.setattr(cli, "json", recorder)
    assert cli.main(["box-figure", "--grid", "4", "--out", str(tmp_path / "csv")]) == 0
    assert recorder.payloads == []
    assert cli.main(["box-figure", "--grid", "4", "--format", "json",
                     "--out", str(tmp_path / "json")]) == 0
    assert [payload["rows"] for payload in recorder.payloads] == [[], [], []]
    assert [payload["meta"]["n"] for payload in recorder.payloads] == [1, 2, 3]
    assert cli.main(["verify", "--out", str(tmp_path / "verify")]) == 0
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text(encoding="utf-8"))
    assert len(recorder.payloads) == 4 and recorder.payloads[3] == report


def test_verify_inject_error_fails(tmp_path, capsys):
    assert cli.main(["verify", "--inject-error", "--out", str(tmp_path)]) == 1
    assert any(ln.startswith("FAIL ") for ln in capsys.readouterr().out.splitlines())
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert any(not c["passed"] for c in report["criteria"])



@pytest.mark.parametrize("value,passed", [("no", True), ("No", True), ("0", True),
                                          ("yes", False), ("TRUE", False)])
def test_inject_error_config_value(tmp_path, capsys, value, passed):
    cfg = tmp_path / "verify.conf"
    cfg.write_text(f"inject_error={value}\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == (0 if passed else 1)
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    assert report["perturb"] == (0.0 if passed else 0.01)


def test_check_record_fields_are_the_report_keys(tmp_path, capsys):
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"))
    keys = {frozenset(check) for criterion in report["criteria"]
            for check in criterion["checks"]}
    fields = list(verification.ComparisonReport._fields)
    assert fields == ["label", "value", "reference", "abs_dev", "rel_dev",
                      "tolerance", "passed"]
    assert keys == {frozenset(fields)}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("args,code", [((), 0), (("--inject-error",), 1)],
                         ids=["verify", "inject-error"])
def test_verify_report_is_strict_json(tmp_path, capsys, args, code):
    assert cli.main(["verify", *args, "--out", str(tmp_path)]) == code
    report = json.loads((tmp_path / "verify_report.json").read_text(encoding="utf-8"),
                        parse_constant=_no_constant)
    checks = [check for criterion in report["criteria"] for check in criterion["checks"]]
    assert any(check["rel_dev"] is None for check in checks)
    for check in checks:
        assert (check["rel_dev"] is None) == (check["reference"] == 0.0)

# sin, cos, exp and x ** 2, each at two arguments where glibc's FMA and
# generic code paths round apart: 13 to 18 of 20,000 draws in [-10, 10]
# differ per function.  The digest of the eight results names the libm
# path that a process runs on, and _GENERIC_LIBM puts one process on the
# generic path.
_LIBM_PROBE = """\
import hashlib, math
values = [math.sin(x) for x in (0.7227612016480904, 0.3250563735646317)]
values += [math.cos(x) for x in (7.993565392695622, -4.319051085328816)]
values += [math.exp(x) for x in (6.751559513251458, 9.067374694029194)]
values += [x ** 2 for x in (7.2249061795510094, -0.5765017620658792)]
probe = hashlib.sha256(repr(values).encode()).hexdigest()[:12]
"""
_GENERIC_LIBM = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}
# SHA-256 of every file each golden run writes: one set per libm probe,
# each with the name of its path.  A case is the run's argv less --out:
# the subcommand and its args, then --grid where it takes one, then
# --format where it takes one.  The files must stay byte-identical.
_GOLDENS = json.loads(Path(__file__).with_name("goldens.json").read_text(encoding="utf-8"))


def _libm_probe(env: dict[str, str] | None = None) -> str:
    """The probe of this process, or of a fresh interpreter with env added
    to this one's environment less GLIBC_TUNABLES, so that {} is the
    default path even in a process that runs on another."""
    if env is None:
        namespace = {}
        exec(_LIBM_PROBE, namespace)
        return namespace["probe"]
    base = {key: value for key, value in os.environ.items() if key != "GLIBC_TUNABLES"}
    r = subprocess.run([sys.executable, "-c", _LIBM_PROBE + "print(probe)"],
                       capture_output=True, text=True, check=True, env={**base, **env})
    return r.stdout.strip()


def _libm_note(*probes: str) -> str:
    """What a failed golden check prints: the libm probes it ran under and
    the ones with a recorded set."""
    def named(probe):
        return f"{probe} ({_GOLDENS.get(probe, {}).get('path', 'no recorded set')})"
    return (f"libm probe {', '.join(map(named, probes))}; "
            f"sets are recorded for {', '.join(map(named, _GOLDENS))}")


def _golden_case(args: tuple[str, ...], fmt: str = "csv", grid: int = 257) -> str:
    """The goldens.json case of a run of args at grid points in format fmt."""
    options = cli._options(cli._COMMANDS[args[0]])
    return " ".join([*args, *(("--grid", str(grid)) if "grid" in options else ()),
                     *(("--format", fmt) if "format" in options else ())])


def _assert_golden(out_dir: Path, case: str) -> None:
    """The files in out_dir are those recorded for case on this process's
    libm path, byte for byte; a path with no recorded set fails."""
    running = _libm_probe()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    recorded = _GOLDENS.get(running, {"cases": {}})["cases"]
    assert digests == recorded.get(case), f"{case}: {_libm_note(running)}"


def test_libm_probe_tells_the_glibc_paths_apart():
    """The default and the generic path read two probes, each with a
    recorded set.  On a host without FMA they read one, and on another
    libm neither is recorded; either way this fails and names them."""
    default, generic = _libm_probe({}), _libm_probe(_GENERIC_LIBM)
    assert default != generic and {default, generic} <= _GOLDENS.keys(), \
        _libm_note(default, generic)


# The table runs that fork shares at 2049 points, each with its args.
_SHARED = [("box-figure",), ("osc-trajectory", "--n", "0"), ("osc-trajectory", "--n", "1"),
           ("flux-check",), ("hydrogen-figure",)]


def test_injected_verify_report_matches_golden_digest(tmp_path, capsys):
    """The report pins the deviations and verdicts of failing checks,
    which the golden run never has."""
    assert cli.main(["verify", "--inject-error", "--out", str(tmp_path)]) == 1
    _assert_golden(tmp_path, "verify --inject-error")


@pytest.mark.parametrize("args", [*_SHARED, ("spectrum",), ("verify",)], ids=" ".join)
def test_outputs_match_golden_digests(tmp_path, capsys, args):
    grid = () if args[0] in ("spectrum", "verify") else ("--grid", "257")
    assert cli.main([*args, *grid, "--out", str(tmp_path)]) == 0
    _assert_golden(tmp_path, _golden_case(args))


@pytest.mark.parametrize("args", [*_SHARED, ("spectrum",)], ids=" ".join)
def test_json_outputs_match_golden_digests(tmp_path, capsys, args):
    """A kernel or writer that reorders or reformats rows must not pass
    because only the CSV files are pinned, and spectrum pins an int column."""
    grid = () if args[0] == "spectrum" else ("--grid", "257")
    assert cli.main([*args, *grid, "--format", "json",
                     "--out", str(tmp_path)]) == 0
    _assert_golden(tmp_path, _golden_case(args, "json"))


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("args", _SHARED, ids=" ".join)
def test_outputs_across_block_edges_match_golden_digests(tmp_path, capsys, args, fmt):
    """2049 rows fill two blocks of BLOCK_ROWS rows and put one row in a
    third, so rendering columns block by block must keep every row whole
    across a block edge."""
    assert 2 * core.BLOCK_ROWS + 1 == 2049
    assert cli.main([*args, "--grid", "2049", "--format", fmt,
                     "--out", str(tmp_path)]) == 0
    _assert_golden(tmp_path, _golden_case(args, fmt, 2049))


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("grid", [2 * core.BLOCK_ROWS + 1, 5 * core.BLOCK_ROWS + 3])
@pytest.mark.parametrize("args", _SHARED, ids=" ".join)
def test_bytes_do_not_depend_on_the_share_count(tmp_path, capsys, monkeypatch, no_child_left,
                                                args, grid, fmt):
    digests = {}
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(core, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / str(cpus)
        assert cli.main([*args, "--grid", str(grid), "--format", fmt,
                         "--out", str(out)]) == 0
        digests[cpus] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in out.iterdir()}
    assert digests[2] == digests[3] == digests[5] == digests[1]
    if grid == 2049:
        _assert_golden(tmp_path / "1", _golden_case(args, fmt, 2049))


# The run_shares calls of each subcommand at 2049 points: one per file,
# and osc-trajectory's running integral.
_RUN_SHARES_CALLS = {"box-figure": 3, "osc-trajectory": 2, "flux-check": 1}


def _children_die(monkeypatch, dies_at=lambda start: True):
    """Make every forked share exit 1 at its first span whose start
    dies_at accepts, before that span's work, so that this process redoes
    the share.  Returns, for each run_shares call, the span starts worked
    here."""
    parent = os.getpid()
    run_shares = core.run_shares
    calls = []

    def children_that_die(work, items, out):
        starts = []
        calls.append(starts)

        def work_or_die(start, stop):
            if os.getpid() != parent:
                if dies_at(start):
                    os._exit(1)
            else:
                starts.append(start)
            return work(start, stop)
        run_shares(work_or_die, items, out)

    for module in (cli, core, oracle):
        monkeypatch.setattr(module, "run_shares", children_that_die)
    return calls


def _check_redone_golden_bytes(tmp_path, args, calls):
    assert cli.main([*args, "--grid", "2049", "--out", str(tmp_path)]) == 0
    # Every share that forked was redone here, after its child died.
    assert len(calls) == _RUN_SHARES_CALLS[args[0]]
    assert all(max(starts) >= core.BLOCK_ROWS for starts in calls)
    _assert_golden(tmp_path, _golden_case(args, "csv", 2049))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("args", [*_SHARED[:2], ("flux-check",)], ids=" ".join)
def test_a_child_that_dies_before_writing_leaves_the_golden_bytes(tmp_path, capsys,
                                                                  monkeypatch, no_child_left,
                                                                  args, cpus):
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    _check_redone_golden_bytes(tmp_path, args, _children_die(monkeypatch))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("args", [*_SHARED[:2], ("flux-check",)], ids=" ".join)
def test_a_child_that_dies_after_its_first_span_leaves_the_golden_bytes(
        tmp_path, capsys, monkeypatch, no_child_left, args, cpus):
    """On 2 shares the child has stored its first span's floats in the
    shared memory when it dies, and the redone share overwrites them."""
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    calls = _children_die(monkeypatch, lambda start: start % (2 * core.BLOCK_ROWS) == 0)
    _check_redone_golden_bytes(tmp_path, args, calls)


@pytest.mark.parametrize("cpus,dies", [(1, False), (2, False), (3, False),
                                       (2, True), (3, True)])
def test_max_abs_residual_is_the_largest_written_residual(tmp_path, capsys, monkeypatch,
                                                          no_child_left, cpus, dies):
    # At 2049 points the largest |residual| is in the second of three row
    # spans, which a child renders on 2 or 3 shares, or this process when
    # that child dies; the first span's largest is smaller.
    grid = 2 * core.BLOCK_ROWS + 1
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    if dies:
        _children_die(monkeypatch)
    assert cli.main(["flux-check", "--grid", str(grid), "--out", str(tmp_path)]) == 0
    meta, _, rows = _read_table(tmp_path / "flux_check.csv")
    residuals = [abs(row[2]) for row in rows]
    largest = max(residuals)
    assert core.BLOCK_ROWS <= residuals.index(largest) < 2 * core.BLOCK_ROWS
    assert max(residuals[:core.BLOCK_ROWS]) < largest
    assert meta["max_abs_residual"] == repr(largest)


# The module of each table kernel, its name, and the number of points of
# each call: one call per row span at 2 * BLOCK_ROWS + 1 points.
_SPANS = [core.BLOCK_ROWS, core.BLOCK_ROWS, 1]
_SPAN_KERNELS = {
    "box-figure": (boxmode, "figure_columns", 3 * _SPANS),
    "osc-trajectory": (oscillator, "figure_columns", _SPANS),
    # The two angles of the cross sections in the caption come first.
    "hydrogen-figure": (hydrogen, "figure_columns", [2, *_SPANS]),
    "flux-check": (timedep, "flux_columns", _SPANS),
}


@pytest.mark.parametrize("command", _SPAN_KERNELS)
def test_table_kernels_run_once_per_row_span(tmp_path, capsys, monkeypatch, command):
    module, name, points = _SPAN_KERNELS[command]
    kernel, calls = getattr(module, name), []

    def recording_kernel(*args):
        columns = kernel(*args)
        calls.append(len(columns[0]))
        return columns

    # One share, so every call is made in this process.
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(module, name, recording_kernel)
    assert cli.main([command, "--grid", str(2 * core.BLOCK_ROWS + 1),
                     "--out", str(tmp_path)]) == 0
    assert calls == points
