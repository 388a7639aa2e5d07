"""Output checks, run outside the timed region.

Each check returns a list of problems (empty means the output is correct)
plus the number of table rows the invocation wrote and the data-section
digest of each file.  The data section is the CSV header and rows, or the
JSON `columns` and `rows`; `# key=value` lines and `meta` are left out, so
provenance changes do not trip the digest but any change to a number does.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

from workloads import Op

WALL_PIN_TOL = 1e-12
CRITERIA = 13


def _read_table(path: Path, with_data: bool) -> tuple[int, list[float], int, str]:
    """Column count, flat row-major values, row count and (if asked) data-section text."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        payload = json.loads(text)
        columns, rows = payload["columns"], payload["rows"]
        if any(len(row) != len(columns) for row in rows):
            raise ValueError("ragged rows")
        values = list(itertools.chain.from_iterable(rows))
        data = json.dumps([columns, rows], separators=(",", ":")) if with_data else ""
        return len(columns), values, len(rows), data
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    body = lines[1:]
    values = list(map(float, ",".join(body).split(","))) if body else []
    return len(lines[0].split(",")), values, len(body), "\n".join(lines) if with_data else ""


def digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _flag(op: Op, name: str) -> str:
    return op.argv[op.argv.index(name) + 1]


def check_op(op: Op, out_dir: Path,
             with_digests: bool = False) -> tuple[list[str], int, dict[str, str]]:
    """Check one successful invocation's files: (problems, rows, digests if asked)."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    files = sorted(p for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if op.command == "verify":
        names = [p.name for p in files]
        if names != ["verify_report.json"]:
            return [f"verify wrote {names}"], 0, digests
        try:
            report = json.loads(files[0].read_text(encoding="utf-8"))
        except ValueError as exc:
            return [f"verify_report.json unreadable ({exc})"], 0, digests
        criteria = report.get("criteria", [])
        if report.get("passed") is not True or len(criteria) != CRITERIA \
                or not all(c.get("passed") is True for c in criteria):
            problems.append("verify_report.json does not pass all 13 criteria")
        return problems, 0, digests
    if len(files) != op.tables:
        return [f"{op.command} wrote {len(files)} files, expected {op.tables}"], 0, digests
    rows_total = 0
    for path in files:
        try:
            columns, values, rows, data = _read_table(path, with_digests)
            finite = all(map(math.isfinite, values))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{path.name}: unreadable table ({exc})")
            continue
        if with_digests:
            digests[path.name] = digest(data)
        rows_total += rows
        if rows != op.expected_rows:
            problems.append(f"{path.name}: {rows} rows, expected {op.expected_rows}")
        if len(values) != rows * columns:
            problems.append(f"{path.name}: ragged rows")
        elif not finite:
            problems.append(f"{path.name}: non-finite value")
        elif op.command == "box-figure" and rows:
            a = float(_flag(op, "--a"))
            q0, q_end = values[1], values[(rows - 1) * columns + 1]
            if abs(q0) > WALL_PIN_TOL * a or abs(q_end - a) > WALL_PIN_TOL * a:
                problems.append(f"{path.name}: wall pins q(0)={q0!r}, q(a)={q_end!r}, a={a!r}")
    return problems, rows_total, digests
