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


def _run(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    merged_env = None
    if env is not None:
        merged_env = dict(os.environ)
        merged_env.update(env)
    return subprocess.run([sys.executable, "-m", "pfield.cli", *args],
                          capture_output=True, text=True, env=merged_env)


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


def test_box_figure_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        out.mkdir()
        r = _run("box-figure", "--out", str(out), "--grid", "64")
        assert r.returncode == 0, r.stderr
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["box_figure_n1.csv", "box_figure_n2.csv", "box_figure_n3.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_box_figure_table_content(tmp_path):
    r = _run("box-figure", "--out", str(tmp_path), "--grid", "64")
    assert r.returncode == 0, r.stderr
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


def test_box_figure_rejects_bad_ratio(tmp_path):
    # the bad third ratio must stop the run before the first two files
    r = _run("box-figure", "--ratios", "1.5,1.4,2.5", "--out", str(tmp_path))
    assert r.returncode == 3
    assert "ratio for n=3" in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_box_figure_accepts_the_bare_limit_at_every_width(tmp_path):
    # make_mode's p_n rounds an ulp below HBAR*3*pi/a at this width
    r = _run("box-figure", "--ratios", "1.0,1.0,1.0",
             "--a", "2.8041268172117018e-09", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert len(list(tmp_path.iterdir())) == 3


def test_box_figure_accepts_a_ratio_just_below_two(tmp_path):
    # (p_n/p_particle)**2 rounds back up to 2.0 here unless p_particle is nudged
    r = _run("box-figure", "--ratios", "1.9999999999999996,1.5,1.5",
             "--a", "2.2633223641900492e-09", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert len(list(tmp_path.iterdir())) == 3


def test_spectrum_rejects_the_bare_ratio(tmp_path):
    r = _run("spectrum", "--ratio", "1.0", "--out", str(tmp_path))
    assert r.returncode == 3
    assert "--ratio" in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag", [("spectrum", "--a"),
                                          ("hydrogen-figure", "--a-ha"),
                                          ("osc-trajectory", "--alpha")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_exits_2(tmp_path, command, flag, value):
    r = _run(command, f"{flag}={value}", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "finite" in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ratios", ["1.5,abc", "1.5,nan", "", ","])
def test_malformed_ratios_exit_2(tmp_path, ratios):
    out = tmp_path / "out"
    r = _run("box-figure", "--ratios", ratios, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "--ratios" in r.stderr
    cfg = tmp_path / "ratios.conf"
    cfg.write_text(f"ratios={ratios}\n", encoding="utf-8")
    r = _run("box-figure", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "config key ratios" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,config", [
    (("verify", "--grid", "3"), None),
    (("verify", "--format", "json"), None),
    (("spectrum", "--grid", "8"), None),
    (("verify",), "grid=3\n"),
    (("verify",), "format=json\n"),
    (("spectrum",), "grid=8\n"),
])
def test_unread_options_exit_2(tmp_path, args, config):
    out = tmp_path / "out"
    extra = ()
    if config is not None:
        cfg = tmp_path / "run.conf"
        cfg.write_text(config, encoding="utf-8")
        extra = ("--config", str(cfg))
    r = _run(*args, *extra, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "unrecognized arguments" in r.stderr or "unknown config keys" in r.stderr
    assert not out.exists()


def test_zero_levels_exit_2(tmp_path):
    out = tmp_path / "out"
    r = _run("spectrum", "--levels", "0", "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "argument --levels" in r.stderr
    cfg = tmp_path / "levels.conf"
    cfg.write_text("levels=0\n", encoding="utf-8")
    r = _run("spectrum", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "config key levels" in r.stderr and "at least 1" in r.stderr
    assert not out.exists()


# Widths whose last grid point used to land past the box wall (exit 3): the
# mode's own n pi / k_n falls short of a, or the grid rounding overshoots a.
@pytest.mark.parametrize("a", ["2.917e-09", "3.6400000000000003e-09"])
def test_box_figure_last_row_sits_on_the_wall(tmp_path, capsys, a):
    assert cli.main(["box-figure", "--a", a, "--grid", "1000",
                     "--out", str(tmp_path)]) == 0
    for n in (1, 2, 3):
        meta, _, rows = _read_table(tmp_path / f"box_figure_n{n}.csv")
        assert len(rows) == 1000
        assert rows[0][:2] == [0.0, 0.0]
        assert rows[-1][0] == float(a) == float(meta["a"])
        assert rows[-1][1] == pytest.approx(float(a), rel=1e-12)
        assert all(x[0] < y[0] for x, y in zip(rows, rows[1:]))


def test_flux_check_grid_stays_h_x_inside(tmp_path, capsys):
    a = "1.8550000000000001e-09"
    assert cli.main(["flux-check", "--a", a, "--grid", "1000",
                     "--out", str(tmp_path)]) == 0
    meta, _, rows = _read_table(tmp_path / "flux_check.csv")
    h_x = float(meta["h_x"])
    assert len(rows) == 1000
    assert rows[0][0] == h_x
    assert rows[-1][0] == float(a) - h_x
    assert all(x[0] < y[0] for x, y in zip(rows, rows[1:]))


def test_non_finite_config_key_exits_2(tmp_path):
    cfg = tmp_path / "nan.conf"
    cfg.write_text("a_ha=nan\n", encoding="utf-8")
    out = tmp_path / "out"
    r = _run("hydrogen-figure", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2
    assert "config key a_ha" in r.stderr and "finite" in r.stderr
    assert not out.exists()



@pytest.mark.parametrize("a_ha", ["-0.1", "0"])
def test_hydrogen_figure_rejects_non_positive_amplitude(tmp_path, capsys, a_ha):
    assert cli.main(["hydrogen-figure", "--a-ha", a_ha,
                     "--out", str(tmp_path)]) == 3
    assert "a_ha must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


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


def test_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for command in ("spectrum", "verify"):
        r = _run(command, "--out", str(blocker / "x"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr


def test_usage_errors_exit_2(tmp_path):
    assert _run("--nonsense").returncode == 2
    assert _run("box-figure", "--grid", "1", "--out", str(tmp_path)).returncode == 2
    cfg = tmp_path / "bad.conf"
    cfg.write_text("unknown_key=1\n", encoding="utf-8")
    r = _run("box-figure", "--config", str(cfg), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "unknown config keys" in r.stderr


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("grid=16\nformat=json\n# comment line\n", encoding="utf-8")
    r = _run("hydrogen-figure", "--config", str(cfg), "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "hydrogen_figure.json").read_text(encoding="utf-8"))
    assert data["columns"] == ["theta:rad", "q_over_r_p0:1", "q_over_r_pm1:1"]
    assert len(data["rows"]) == 16
    assert data["meta"]["p0_polar_diameter"] == pytest.approx(
        1.0002927491576217, rel=1e-10)
    assert data["meta"]["p0_polar_diameter"] > data["meta"]["p0_equatorial_diameter"]
    assert data["meta"]["pPlusMinus1_polar_diameter"] < \
        data["meta"]["pPlusMinus1_equatorial_diameter"]
    # a flag still beats the config file
    r = _run("hydrogen-figure", "--config", str(cfg), "--format", "csv",
             "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "hydrogen_figure.csv").exists()


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("grid=10\n# the same key again\n grid = 20\n", encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["box-figure", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{cfg}:3: key grid given twice" in capsys.readouterr().err
    assert not out.exists()


def test_empty_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("levels=3\n=5\n", encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{cfg}:2: expected key=value, got '=5'" in capsys.readouterr().err
    assert not out.exists()


def test_output_dir_from_environment(tmp_path):
    r = _run("spectrum", env={"OUTPUT_DIR": str(tmp_path)})
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_zero_coupling_has_zero_shifts(tmp_path):
    r = _run("spectrum", "--eps", "0", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    meta, header, rows = _read_table(tmp_path / "spectrum.csv")
    assert header == ["n:1", "e_linear:J", "e_nonlinear:J", "shift:J"]
    assert rows
    for row in rows:
        assert row[3] == 0.0


def test_negative_exponent_option_is_joined_to_its_flag(tmp_path, capsys):
    """argparse reads a separate `-1e35` as a flag, since its negative-number
    pattern has no exponent; joined with `=`, the value is taken."""
    assert cli.main(["spectrum", "--eps=-1e35", "--levels", "3",
                     "--out", str(tmp_path / "joined")]) == 0
    meta, _, rows = _read_table(tmp_path / "joined" / "spectrum.csv")
    assert meta["eps"] == "-1e+35"
    assert len(rows) == 3
    r = _run("spectrum", "--eps", "-1e35", "--out", str(tmp_path / "apart"))
    assert r.returncode == 2
    assert "argument --eps: expected one argument" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "apart").exists()


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


def test_flux_check_reports_conservation(tmp_path):
    r = _run("flux-check", "--grid", "32", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
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


def test_osc_trajectory_runs(tmp_path):
    r = _run("osc-trajectory", "--grid", "32", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    meta, header, rows = _read_table(tmp_path / "osc_trajectory.csv")
    assert header == ["r_bar:m", "q_two:m", "q_three:m", "q_oracle:m", "chi:m"]
    assert len(rows) == 32
    # the oracle column brackets the truncations
    mid = rows[len(rows) // 2]
    assert math.isfinite(mid[3])


def test_verify_passes_and_writes_report(tmp_path):
    r = _run("verify", "--out", str(tmp_path))
    assert r.returncode == 0, r.stdout + r.stderr
    # one verdict per criterion, then the path of the report
    n = len(verification._CRITERIA)
    lines = r.stdout.splitlines()
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


def test_import_leaves_out_dataclasses_and_inspect():
    """Every run pays for `import pfield.cli`; the records and the option
    tables are built without the dataclasses and inspect machinery, and
    the modules that only forked shares or the running integral use are
    loaded on first use."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import pfield.cli; "
            "print(sorted({'dataclasses', 'inspect', 'shutil', 'tempfile', 'signal', "
            "'threading', 'array'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# The pfield modules each subcommand imports beyond cli and core, which
# `import pfield.cli` alone loads.
_PHYSICS = {
    "box-figure": {"boxmode"},
    "osc-trajectory": {"oracle", "oscillator"},
    "hydrogen-figure": {"hydrogen", "oracle"},
    "spectrum": {"boxmode", "nonlinear"},
    "flux-check": {"timedep", "boxmode", "oracle"},
    "verify": {"boxmode", "hydrogen", "nonlinear", "oracle", "oscillator", "timedep",
               "verification"},
}


@pytest.mark.parametrize("command", [None, *_PHYSICS], ids=lambda c: c or "import-only")
def test_each_subcommand_imports_only_the_physics_it_runs(tmp_path, command):
    """`import pfield.cli` loads core of the package and no physics or
    oracle module; each runner imports its own."""
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [] if command is None else [command, "--out", str(tmp_path)]
    if command not in (None, "spectrum", "verify"):
        argv += ["--grid", "4"]
    code = (f"import contextlib, io, sys; sys.path.insert(0, {src!r}); import pfield.cli\n"
            f"if {argv!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert pfield.cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('pfield.'))))")
    r = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == sorted({"cli", "core", *_PHYSICS.get(command, ())})


def test_verify_inject_error_fails(tmp_path):
    r = _run("verify", "--inject-error", "--out", str(tmp_path))
    assert r.returncode == 1
    assert any(ln.startswith("FAIL ") for ln in r.stdout.splitlines())
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


@pytest.mark.parametrize("value", ["ture", "", "y"])
def test_malformed_inject_error_config_value_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "verify.conf"
    cfg.write_text(f"inject_error={value}\n", encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "config key inject_error" in capsys.readouterr().err
    assert not out.exists()


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

# SHA-256 of every file written at grid 257 (spectrum and verify take no
# grid), each recorded before the code that writes it was last rewritten;
# the files must stay byte-identical.  verify_report.json was re-recorded
# when criterion 09 began to compare q/r - 1 to a relative tolerance, and
# when a check against a zero reference began to record rel_dev as null.
_GOLDEN = {
    ("osc-trajectory", "--n", "0"): {
        "osc_trajectory.csv":
            "5a59217de34c1391814c93bc8f61620c8eb45fd0f96fa53f40f8eb86750b2419"},
    ("osc-trajectory", "--n", "1"): {
        "osc_trajectory.csv":
            "a23594304264b96f9e074c632303fe4228e81f2455b9102401dde471970772a9"},
    ("box-figure",): {
        "box_figure_n1.csv":
            "69ea4c1952bc9abe3bd842c96fcca36f52b550e179e3819f38fe497809bc8bef",
        "box_figure_n2.csv":
            "d0ec901c8cbce3ee15c5ae4a5dba191eac2742fa6be4d9c8147d52c4ffa42094",
        "box_figure_n3.csv":
            "20d7f1ca24b693f03e3cf21c6f2b99b1e55d1f38493e806e91aa083ae0832034"},
    ("flux-check",): {
        "flux_check.csv":
            "c8a1a6421e42c4855987453b1ab0d3c03f7bf3d39da9a5dabe9ef4626a281ff9"},
    ("hydrogen-figure",): {
        "hydrogen_figure.csv":
            "a72fb31ad251b33c119135ce2ca002c65467c90f3f380647cc46614e752dbe2b"},
    ("spectrum",): {
        "spectrum.csv":
            "3741278e1a8cca21649bc30a41236f141a003bffa95933adaad092fc1db02664"},
    ("verify",): {
        "verify_report.json":
            "cc02be976042ca9c36089b1dd11c295792bb5af6c9ab53ecbb103e4ab79a6dc9"},
}


# SHA-256 of verify_report.json under --inject-error, recorded before the
# check record was shared by the criteria and the report and re-recorded
# with criterion 09's relative q/r - 1 check and with the null rel_dev of a
# zero reference: it pins the deviations and verdicts of failing checks,
# which the golden run never has.
_GOLDEN_INJECTED = "9047346378c486b3ac24e11d5eac80611ff1ea4e51c05cc610cf225bf5401afc"


def test_injected_verify_report_matches_golden_digest(tmp_path, capsys):
    assert cli.main(["verify", "--inject-error", "--out", str(tmp_path)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["verify_report.json"]
    digest = hashlib.sha256((tmp_path / "verify_report.json").read_bytes())
    assert digest.hexdigest() == _GOLDEN_INJECTED


@pytest.mark.parametrize("args", list(_GOLDEN), ids=" ".join)
def test_outputs_match_golden_digests(tmp_path, capsys, args):
    grid = () if args[0] in ("spectrum", "verify") else ("--grid", "257")
    assert cli.main([*args, *grid, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == _GOLDEN[args]


# SHA-256 of the JSON tables at grid 257 (spectrum takes no grid), recorded
# before their rows were built by one kernel per table (box-figure and
# spectrum before tables were written in row blocks): a kernel or writer
# that reorders or reformats rows must not pass because only the CSV files
# are pinned, and spectrum pins an int column.
_GOLDEN_JSON = {
    ("box-figure",): {
        "box_figure_n1.json":
            "9a60a8dd019d8e4fa3ad2d1dc4e8dc4316ae7828210e5b545bfd7151a220d6f2",
        "box_figure_n2.json":
            "ab1c899888ce3859c7b76e04659af9a5ff9e1e12f5ed39d969cee9725505e5c2",
        "box_figure_n3.json":
            "9be5ffe03634cd675aea1d18356404a23cd215961457c1175554a0f14bdcf1da"},
    ("spectrum",): {
        "spectrum.json":
            "beda12fdfdee3c40494e495651bbbcfffafd7cbe6d2e4328b4d39e3e91135716"},
    ("flux-check",): {
        "flux_check.json":
            "0b42f3845ae78212c66bac2ef1f5cba788f6a4a132a0b19cc02caea371adf0cf"},
    ("hydrogen-figure",): {
        "hydrogen_figure.json":
            "f497ff05283f6af31a078add295a0ababedb4bfae3509dfc97bd626099175c61"},
    ("osc-trajectory", "--n", "0"): {
        "osc_trajectory.json":
            "8049109bedc746d6c070a1fbbb1585da8c1e5e78f12990e2992ee145e7d60ad0"},
    ("osc-trajectory", "--n", "1"): {
        "osc_trajectory.json":
            "caac9c58507280ac89a7e60f92f5cee82c598f2c553b34548b5c844aeda0b717"},
}


@pytest.mark.parametrize("args", list(_GOLDEN_JSON), ids=" ".join)
def test_json_outputs_match_golden_digests(tmp_path, capsys, args):
    grid = () if args[0] == "spectrum" else ("--grid", "257")
    assert cli.main([*args, *grid, "--format", "json",
                     "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == _GOLDEN_JSON[args]


# SHA-256 of each table at grid 2049, which fills two blocks of BLOCK_ROWS
# rows and puts one row in a third, in both formats; recorded before the
# kernels returned columns, so rendering columns block by block must keep
# every row whole across a block edge.
_GOLDEN_2049 = {
    ("box-figure",): {
        "box_figure_n1.csv":
            "59a2758eed653942f962bea64434306a8914083c2b73744593c5e749af961853",
        "box_figure_n2.csv":
            "9d9e5ebc559f824f81fa64189b24d0c5da5eaddb65b3557ffcb4b312bd402a73",
        "box_figure_n3.csv":
            "03afbd180e1b95e9d686a4966ab2532435ae538be2970c2375c0fba2a257a543",
        "box_figure_n1.json":
            "f9eeff4f50a7a840d5f83b7e69f5a30b9a67bb92eee85b8b2d3ff907b75f57a4",
        "box_figure_n2.json":
            "baf5623b6fc827b84b08a9c76c8044b661ca54f136585139bdb1ac517cfbdd18",
        "box_figure_n3.json":
            "747a0ca698aa4792fee608bd73a1317044dfde108c2cd9c8df2c19b7b1483eff"},
    ("osc-trajectory", "--n", "0"): {
        "osc_trajectory.csv":
            "b4cb208614b1b2a47c0e5e16f201d24077ffc1f3da4c7bf95b36fdd0f1d44ae7",
        "osc_trajectory.json":
            "6ac21c89e2075a0b9611c4af49b3d080b2def68cdafbf0c6cc08ce19bcbeab50"},
    ("osc-trajectory", "--n", "1"): {
        "osc_trajectory.csv":
            "abe457d313899071cf7e0224b5afa5cd73d2601ff8e908887655e6dfb587a21b",
        "osc_trajectory.json":
            "9ab06e751649bb304283fb98c8d4397dd28bf1aae56dedd3ff353e46b2708afc"},
    ("hydrogen-figure",): {
        "hydrogen_figure.csv":
            "a7dcefa12f246301fccbc788ccd2d349e436c0bfa03483ba7be0bfe95fad8b18",
        "hydrogen_figure.json":
            "f50d2774f6c523ca53fdf466a820337c844418115b6a6a1cea66c8612242a304"},
    ("flux-check",): {
        "flux_check.csv":
            "9e82ccf658b86b58ffb9750bf81a9b9bc74edc3dab9d91ce9e347ebf0db6b77a",
        "flux_check.json":
            "1fb6dd85af70e5e1d56124be9838d44c41420dcba326f80d3d233a6c20a718f8"},
}


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("args", list(_GOLDEN_2049), ids=" ".join)
def test_outputs_across_block_edges_match_golden_digests(tmp_path, capsys, args, fmt):
    assert 2 * core.BLOCK_ROWS + 1 == 2049
    assert cli.main([*args, "--grid", "2049", "--format", fmt,
                     "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == {name: digest for name, digest in _GOLDEN_2049[args].items()
                       if name.endswith(f".{fmt}")}


_SHARED = [("box-figure",), ("osc-trajectory", "--n", "0"), ("osc-trajectory", "--n", "1"),
           ("flux-check",), ("hydrogen-figure",)]


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
        assert digests[1] == {name: digest for name, digest in _GOLDEN_2049[args].items()
                              if name.endswith(f".{fmt}")}


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
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == {name: digest for name, digest in _GOLDEN_2049[args].items()
                       if name.endswith(".csv")}


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
