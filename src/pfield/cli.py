"""Command line front end.

Subcommands generate the figure data sets and run the verification
suite.  All outputs are deterministic: a rerun with the same inputs
produces byte-identical files.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error (a malformed or non-finite
option value, an option the subcommand does not take, or an output
location that cannot be written), 3 domain or numeric error raised by
the physics layer, whose parameter checks reject nan and inf too, and
overflow or division by zero at an extreme finite option.
A box-figure ratio outside [1, 2) is caught before any of its files is
written.  Spectrum needs a ratio in (1, 2): the bare level at ratio 1
has no field for the quartic term to act on.  A subcommand's files are
written as one set, whole or not at all.  The box-figure grid ends on
the wall a and the flux-check grid on a - h_x, so no sample falls
outside the box.  Each subcommand returns its files; main
writes them as one set and prints the path of each.  The message of an
exit 3 names the subcommand and each option that differs from its
default.

A subcommand's options are its runner's keyword parameters, with their
defaults: the table subcommands take --format, and the four sampled ones
(all but spectrum) --grid.  _CONVERTERS names the converter of each
option that is not a finite float.  Every subcommand also takes --out
and --config.  A flag is read by its exact name only, with its value
joined by = or as the next token, which may start with -; the boolean
option's flag takes no value.  Output location: --out flag, else the
OUTPUT_DIR environment variable, else the working directory.  CSV files carry
`# key=value` caption lines followed by a single `name:unit` header row;
JSON files carry the same content as {"meta": ..., "columns": ...,
"rows": ...}.  Each subcommand declares its table once, as its `name:unit`
headers and a function of a row span that returns that span's columns.
Every kernel column is an array('d') (core.column), 8 bytes a value, and
a grid is its formula (_Grid), whose row span slices are made on demand,
so no runner holds a whole grid; only spectrum's few short columns stay a
range and lists.  Both
formats stream a table to the file in the row spans that core.run_shares
hands out, in one process per usable CPU, each cell its repr, and differ
only in their separators; the bytes do not depend on the process count
(`taskset -c 0` gives one).  The kernels run per span, inside the share
that renders it.  flux-check's max_abs_residual caption precedes the
rows it reads, so each of its spans puts its largest |residual| in a slot
of core.shared_doubles, which the shares write and this process reads,
and its rows are spooled until its head is made from them.
Unequal columns, a non-finite cell or meta value are a numeric error (3)
and leave no file.  `import pfield.cli` loads only core of the package,
no argparse and no json: _parse reads the command line, and only JSON
output and verify load json, on first use.  Each subcommand imports
only the physics and oracle modules it runs, on its first call.
"""

from __future__ import annotations

import math
import os
import sys as _sys
from itertools import chain
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import BLOCK_ROWS, ELECTRON_MASS, column, run_shares, shared_doubles

if TYPE_CHECKING:
    from typing import Callable, Iterable, Mapping, NoReturn

    _Table = Mapping[str, tuple[Callable[[str], object], object]]
    # (name, head, block, rows, tail) of a file: its text is head, then
    # block(start, stop) for each span run_shares cuts from range(rows), then
    # tail.  A head that is a function is called once the blocks are made,
    # for a caption that reads them, and its text goes before them.
    _File = tuple[str, str | Callable[[], str], Callable[[int, int], bytes] | None, int, str]
    _Files = Iterable[_File]
    # columns(start, stop) of a table: that row span's columns, in header order.
    _Columns = Callable[[int, int], Sequence[Sequence[object]]]
    _Runner = Callable[..., tuple[_Files, int]]

_FORMATS = ("csv", "json")


class _Json:
    """Stands in for the json module, which only JSON output and verify
    use: the first attribute looked up imports it.  Bound as `json`, so
    a caller may replace the name and _json calls whatever is there."""

    __slots__ = ()

    def __getattr__(self, name: str) -> object:
        import json
        return getattr(json, name)


json = _Json()


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines, each key non-empty and once; # comments, blanks ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:  # Path("") would read the directory "."
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not (key and equals):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key} given twice")
        values[key] = value
    return values


def _merge_options(command: str, given: Mapping[str, object],
                   table: _Table) -> dict[str, object]:
    """Resolve each option: flag beats config file beats default."""
    config: dict[str, str] = {}
    if "config" in given:
        try:
            config = _parse_config_file(given["config"])
        except (OSError, ValueError) as exc:
            _usage_error(command, f"argument --config: {exc}")
    unknown = sorted(set(config) - set(table))
    if unknown:
        _usage_error(command, f"unknown config keys: {', '.join(unknown)}")
    merged: dict[str, object] = {}
    for key, (conv, default) in table.items():
        if key in given:
            merged[key] = given[key]
        elif key in config:
            try:
                merged[key] = conv(config[key])
            except ValueError as exc:
                _usage_error(command, f"config key {key}: {exc}")
        else:
            merged[key] = default
    return merged


def finite_float(text: str) -> float:
    """float option converter that rejects nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def ratio_list(text: str) -> tuple[float, ...]:
    """Comma-separated finite floats; every token must parse."""
    return tuple(finite_float(tok) for tok in text.split(","))


def grid_points(text: str) -> int:
    """Number of sample points, at least 2."""
    value = int(text)
    if value < 2:
        raise ValueError(f"must be at least 2, got {value}")
    return value


def level_count(text: str) -> int:
    """Number of spectrum levels, at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def boolean(text: str) -> bool:
    """1, true or yes for True and 0, false or no for False, in any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"must be one of 1, true, yes, 0, false, no, got {text!r}")


def output_format(text: str) -> str:
    """One of _FORMATS."""
    if text not in _FORMATS:
        raise ValueError(f"must be one of {', '.join(_FORMATS)}, got {text!r}")
    return text


def _write(out: str, files: _Files) -> list[Path]:
    """Write each file to out/name as one set.

    Every file goes to a temporary name first, through one open handle,
    and all are renamed once the last is written, so a failed write leaves
    none of them.  A file's blocks go to its handle one at a time, so no
    file's text need be held whole; those of a file whose head is made
    after them go to a temporary spool, copied in after the head.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name, head, block, rows, tail in files:
            tmp = out_dir / f".{name}.tmp"
            staged.append((tmp, out_dir / name))
            with tmp.open("wb") as fh:
                if callable(head):
                    # Imported here: only a head made after the rows spools.
                    import shutil
                    import tempfile
                    with tempfile.TemporaryFile() as spool:
                        run_shares(block, rows, spool)
                        fh.write(head().encode())
                        spool.seek(0)
                        shutil.copyfileobj(spool, fh)
                else:
                    fh.write(head.encode())
                    run_shares(block, rows, fh)
                fh.write(tail.encode())
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    return [path for _, path in staged]


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# (row open, cell separator, row close, row separator, tail) of each format.
# A CSV row is its bare cells and a JSON row the indented list that
# json.dumps(indent=2) writes; a cell is its repr in both, which is what
# str and json.dumps write for a finite float or an int.
_ROW_SYNTAX = {
    "csv": ("", ",", "", "\n", "\n"),
    "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n", "\n  ]\n}\n"),
}


def _table(fmt: str, stem: str,
           meta: Mapping[str, object] | Callable[[], Mapping[str, object]],
           headers: Sequence[str], rows: int, columns: _Columns) -> _File:
    """A table of rows rows as a file in the chosen format.

    meta is the caption, or a function that returns it once the rows are
    made, for a caption that reads what the columns left behind.

    headers are the `name:unit` column headers, and columns(start, stop)
    returns the columns of that row span in their order, floats and ints
    only, so the kernels behind them run in the share that renders the
    span.  A non-finite meta value raises ValueError as the head is made:
    here for a caption given whole, after the rows for a function; a span
    whose columns are not all stop - start long, or that holds a non-finite
    cell, raises as its block is made: repr would spell nan or inf,
    json.dumps NaN or Infinity.  A column that appears twice in a span, as
    one object, is rendered once.  block(start, stop) is the rows of that
    span with the separator that leads them, and depends on nothing but
    the span.
    """
    name = f"{stem}.{fmt}"

    def head() -> str:
        caption = meta() if callable(meta) else meta
        bad = [key for key, value in caption.items()
               if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            raise ValueError(f"{name}: non-finite meta value {', '.join(bad)}")
        if fmt == "csv":
            return "\n".join([*(f"# {key}={value}" for key, value in caption.items()),
                              ",".join(headers)])
        # rows is the last key in sorted order: cut the "]\n}\n" that
        # closes its empty list, and the rows follow the "[".
        return _json({"meta": dict(caption), "columns": list(headers), "rows": []})[:-4]

    row_open, cell_sep, row_close, row_sep, tail = _ROW_SYNTAX[fmt]
    between = row_close + row_sep + row_open

    def block(start: int, stop: int) -> bytes:
        span = columns(start, stop)
        lengths = {stop - start, *map(len, span)}
        if len(lengths) != 1:
            raise ValueError(f"{name}: columns of unequal lengths {sorted(lengths)}")
        distinct = {id(column): column for column in span}
        cells = {key: list(map(repr, column)) for key, column in distinct.items()}
        text = between.join([cell_sep.join(row)
                             for row in zip(*[cells[id(column)] for column in span])])
        # A letter n marks a non-finite cell, which repr spells nan or
        # inf: no digit, exponent or separator holds one.
        if "n" in text:
            raise ValueError(f"{name}: non-finite cell in the rows from {start + 1}")
        return ((row_sep if start else "\n") + row_open + text + row_close).encode()

    return name, head if callable(meta) else head(), block, rows, tail


def _spans(*whole: Sequence[object]) -> _Columns:
    """columns(start, stop) of a table whose columns are made whole first."""
    return lambda start, stop: [column[start:stop] for column in whole]


class _Grid(Sequence[float]):
    """n points, lo + step * i below n - 1 and then last, made on demand: an
    int index is one point and a slice an array('d') of its points, so a
    runner that reads a grid a row span at a time never holds it whole."""

    __slots__ = ("lo", "step", "n", "last")

    def __init__(self, lo: float, step: float, n: int, last: float) -> None:
        self.lo, self.step, self.n, self.last = lo, step, n, last

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int | slice) -> float | Sequence[float]:
        points = range(self.n)[index]
        if isinstance(points, int):
            return self.last if points == self.n - 1 else self.lo + self.step * points
        xs = column(self.lo + self.step * i for i in points)
        if self.n - 1 in points:
            xs[points.index(self.n - 1)] = self.last
        return xs


def _grid(lo: float, hi: float, n: int) -> _Grid:
    step = (hi - lo) / (n - 1)
    return _Grid(lo, step, n, lo + step * (n - 1))


def _box_grid(lo: float, hi: float, n: int) -> _Grid:
    """_grid ending on hi itself, which lo + step * (n - 1) can round past
    or short of."""
    xs = _grid(lo, hi, n)
    xs.last = hi
    return xs


# ---------------------------------------------------------------- box-figure

def _cmd_box_figure(*, grid: int = 1000, format: str = "csv", a: float = 2e-9,
                    mass: float = ELECTRON_MASS,
                    ratios: tuple[float, ...] = (1.5, 1.45, 1.40)) -> tuple[_Files, int]:
    from . import boxmode

    # Every ratio is checked and every mode built before the first file.
    levels = [(n, ratio, boxmode.level_at_ratio(mass, a, n, ratio))
              for n, ratio in enumerate(ratios, start=1)]
    xs = _box_grid(0.0, a, grid)

    def table(n: int, ratio: float, mode: boxmode.BoxMode) -> _File:
        meta = {"a": a, "mass": mass, "n": n, "ratio": ratio, "b_sq": mode.b_sq,
                "g": mode.g_npf, "a_n": mode.a_n,
                "inflection_points_m": repr([j * a / (2 * n) for j in range(1, 2 * n)])}

        def columns(start: int, stop: int) -> Sequence[Sequence[float]]:
            x = xs[start:stop]
            return (x, *boxmode.figure_columns(mode, x), x)

        return _table(format, f"box_figure_n{n}", meta,
                      ("x:m", "q:m", "q_over_x:1", "chi:m", "psi_density:1/m", "x_ref:m"),
                      grid, columns)

    return [table(*level) for level in levels], 0


# ------------------------------------------------------------ osc-trajectory

def _cmd_osc_trajectory(*, grid: int = 1000, format: str = "csv", alpha: float = 1e20,
                        n: int = 1, mu: float = ELECTRON_MASS,
                        amplitude: float | None = None) -> tuple[_Files, int]:
    from . import oracle, oscillator

    sys = oscillator.system_at_alpha(alpha, mu)
    mode = oscillator.make_mode(sys, n, amplitude=amplitude)
    r_max = 5.0 / math.sqrt(alpha)
    xs = _grid(-r_max, r_max, grid)

    q_oracle = oracle.cumulative_integrate(oscillator.path_integrand(mode), xs)

    def columns(start: int, stop: int) -> Sequence[Sequence[float]]:
        r_bar = xs[start:stop]
        dq_two, dq_three, chi = oscillator.figure_columns(mode, r_bar)
        return (r_bar, column(map(add, r_bar, dq_two)), column(map(add, r_bar, dq_three)),
                q_oracle[start:stop], chi)

    meta = {"alpha": alpha, "mu": mu, "omega0": sys.omega0, "n": n,
            "amplitude": mode.a_osc, "cap_l": sys.cap_l}
    return [_table(format, "osc_trajectory", meta,
                   ("r_bar:m", "q_two:m", "q_three:m", "q_oracle:m", "chi:m"),
                   grid, columns)], 0


# ----------------------------------------------------------- hydrogen-figure

def _cmd_hydrogen_figure(*, grid: int = 1000, format: str = "csv", z: float = 1.0,
                         mu: float = ELECTRON_MASS, a_ha: float = 0.1,
                         r: float | None = None) -> tuple[_Files, int]:
    from . import hydrogen

    sys = hydrogen.HydrogenSystem(z=z, mu=mu)
    r = sys.a0 if r is None else r
    thetas = _grid(0.0, 2.0 * math.pi, grid)

    def columns(start: int, stop: int) -> Sequence[Sequence[float]]:
        theta = thetas[start:stop]
        return (theta, *hydrogen.figure_columns(sys, a_ha, r, theta))

    meta = {"z": z, "mu": mu, "r": r, "a_ha": a_ha}
    for (which, plane), q_over_r in hydrogen.cross_sections_2p(sys, a_ha, r).items():
        meta[f"{which}_{plane}_diameter"] = q_over_r
    return [_table(format, "hydrogen_figure", meta,
                   ("theta:rad", "q_over_r_p0:1", "q_over_r_pm1:1"), grid, columns)], 0


# ------------------------------------------------------------------ spectrum

def _cmd_spectrum(*, format: str = "csv", a: float = 2e-9, mass: float = ELECTRON_MASS,
                  eps: float = 0.0, ratio: float = 1.5,
                  levels: int = 5) -> tuple[_Files, int]:
    from . import boxmode, nonlinear

    if not 1.0 < ratio < 2.0:
        raise ValueError(
            f"spectrum needs --ratio in (1, 2), got {ratio!r}: at ratio 1 the "
            "level is bare and has no field for the quartic term to act on")
    ns = range(1, levels + 1)
    e_linear, e_nonlinear = [], []
    for n in ns:
        mode = boxmode.level_at_ratio(mass, a, n, ratio)
        if mode.a_n == 0.0:
            raise ValueError(f"--ratio {ratio!r} gives the bare level n={n}: its "
                             "square root rounds to 1, leaving no field amplitude")
        params = nonlinear.NonlinearParams(eps=eps, a_tilde=mode.a_n)
        e_linear.append(mode.e_n)
        e_nonlinear.append(nonlinear.energy_levels(params, mode))
    meta = {"a": a, "mass": mass, "eps": eps, "ratio": ratio, "levels": levels}
    shift = [e_nl - e_n for e_nl, e_n in zip(e_nonlinear, e_linear)]
    return [_table(format, "spectrum", meta, ("n:1", "e_linear:J", "e_nonlinear:J", "shift:J"),
                   levels, _spans(ns, e_linear, e_nonlinear, shift))], 0


# ---------------------------------------------------------------- flux-check

def _cmd_flux_check(*, grid: int = 1000, format: str = "csv", a: float = 2e-9,
                    mass: float = ELECTRON_MASS) -> tuple[_Files, int]:
    from . import timedep

    beat, t0, h_x, h_t = timedep.equal_weight_beat(mass, a)
    xs = _box_grid(h_x, a - h_x, grid)
    # The largest |residual| of each row span, in a slot of its own; a
    # redone span rewrites its slot.
    peaks = shared_doubles(-(-grid // BLOCK_ROWS))

    def columns(start: int, stop: int) -> Sequence[Sequence[float]]:
        x = xs[start:stop]
        flux, residual = timedep.flux_columns(beat, x, t0, h_x, h_t)
        # A nan residual is skipped here and caught as a cell.
        peaks[start // BLOCK_ROWS] = max(chain((0.0,), map(abs, residual)))
        return x, flux, residual

    def meta() -> Mapping[str, object]:
        return {
            "a": a, "mass": mass, "t": t0, "h_x": h_x, "h_t": h_t,
            "max_abs_residual": max(peaks),
            "p_mean": timedep.expectation_p(beat, t0),
            "p_sq_mean": timedep.expectation_p2(beat, t0),
            "norm": timedep.norm(beat, t0),
        }

    return [_table(format, "flux_check", meta,
                   ("x:m", "flux:1/s", "continuity_residual:1/(m*s)"),
                   grid, columns)], 0


# -------------------------------------------------------------------- verify

def _cmd_verify(*, inject_error: bool = False) -> tuple[_Files, int]:
    from . import verification

    report = verification.run_acceptance_suite(inject_error)
    for criterion in report["criteria"]:
        tag = "PASS" if criterion["passed"] else "FAIL"
        print(f"{tag} {criterion['ident']}: {criterion['description']}")
    return [("verify_report.json", _json(report), None, 0, "")], 0 if report["passed"] else 1


_COMMANDS: dict[str, _Runner] = {
    "box-figure": _cmd_box_figure,
    "osc-trajectory": _cmd_osc_trajectory,
    "hydrogen-figure": _cmd_hydrogen_figure,
    "spectrum": _cmd_spectrum,
    "flux-check": _cmd_flux_check,
    "verify": _cmd_verify,
}

# Converter of each option that is not a finite float.  An option has the
# same converter in every subcommand that takes it.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "ratios": ratio_list, "grid": grid_points, "format": output_format,
    "n": int, "levels": level_count, "inject_error": boolean}


def _options(runner: _Runner) -> _Table:
    """{key: (converter, default)} of a runner's keyword parameters, in order."""
    return {key: (_CONVERTERS.get(key, finite_float), default)
            for key, default in runner.__kwdefaults__.items()}


# A flag's --help text, where it is not "key (default value)".
_HELP_TEXTS = {
    "config": "flat key=value option file",
    "out": "output directory (default: $OUTPUT_DIR or the working directory)",
    "inject_error": "scale outputs by 1% as a negative control; the run must then fail"}


def _flags(command: str) -> dict[str, tuple[str, Callable[[str], object], str]]:
    """{flag: (key, converter, help)} of a subcommand, in --help order:
    --config, --out and its options, each key with - for _."""
    table = {"config": (str, None), "out": (str, None), **_options(_COMMANDS[command])}
    return {"--" + key.replace("_", "-"):
            (key, conv, _HELP_TEXTS.get(key, f"{key} (default {default})"))
            for key, (conv, default) in table.items()}


def _specs(command: str) -> list[tuple[str, str]]:
    """(flag with its value's name, help) of each flag of a subcommand."""
    return [(flag if conv is boolean else f"{flag} {key.upper()}", text)
            for flag, (key, conv, text) in _flags(command).items()]


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: pfield [-h] {{{','.join(_COMMANDS)}}} ..."
    return " ".join([f"usage: pfield {command} [-h]",
                     *(f"[{spec}]" for spec, _ in _specs(command))])


def _usage_error(command: str | None, message: str) -> NoReturn:
    """Print the usage line and the message to stderr and exit 2."""
    prog = "pfield" if command is None else f"pfield {command}"
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=_sys.stderr)
    raise SystemExit(2)


def _help(command: str | None) -> NoReturn:
    """Print the subcommands, or a subcommand's flags with their defaults, and exit 0."""
    if command is None:
        lines = ["Particle-field composite data sets and verification.", "", "commands:",
                 *(f"  {name:<18}run the {name} command" for name in _COMMANDS)]
    else:
        rows = [("-h, --help", "show this help message and exit"), *_specs(command)]
        lines = ["options:", *(f"  {spec:<18}{text}" for spec, text in rows)]
    print(_usage(command), "", *lines, sep="\n")
    raise SystemExit(0)


def _parse(argv: Sequence[str]) -> tuple[str, dict[str, object]]:
    """(command, {key: converted value}) of a command line.

    A flag is read by its exact name only, its value given as --flag=value
    or as the token after it, whatever that token holds; a boolean option's
    flag takes no value and gives True.  A flag given twice keeps its last
    value.  -h or --help prints help and exits 0.
    """
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _usage_error(None, f"expected a command, one of {', '.join(_COMMANDS)}; "
                           f"got {command!r}")
    flags = _flags(command)
    given: dict[str, object] = {}
    unknown: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, equals, text = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        key, conv, _ = flags[flag]
        if conv is boolean:
            if equals:
                _usage_error(command, f"argument {flag}: ignored explicit argument {text!r}")
            given[key] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                _usage_error(command, f"argument {flag}: expected one argument")
        try:
            given[key] = conv(text)
        except ValueError:
            _usage_error(command, f"argument {flag}: invalid {conv.__name__} value: {text!r}")
    if unknown:
        _usage_error(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, given


def main(argv: Sequence[str] | None = None) -> int:
    command, given = _parse(_sys.argv[1:] if argv is None else argv)
    runner = _COMMANDS[command]
    table = _options(runner)
    options = _merge_options(command, given,
                             {"out": (str, os.environ.get("OUTPUT_DIR", ".")), **table})
    out = options.pop("out")
    try:
        files, code = runner(**options)
        for path in _write(out, files):
            print(path)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        changed = "".join(f" {key}={value}" for key, value in options.items()
                          if value != table[key][1])
        print(f"error: {command}{changed}: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
