"""The block table writer against the whole-text builder it replaced.

The writer takes a table as columns and the builder took it as rows, so
each test's rows are transposed for the writer.  A table's text is its
head, the blocks of the row spans core.run_shares hands out, in order, and
its tail."""

from __future__ import annotations

import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import cli, core

_COLUMNS = ("x:m", "n:1", "y:1/s")
_META = {"a": 2e-09, "n": 3, "ratio": 1.5, "label": "[0.5, 1.0]"}
_C = core.BLOCK_ROWS


def _table(fmt, meta, columns, rows):
    """cli._table of the rows, transposed into one column per header."""
    return cli._table(fmt, "table", meta, columns, len(rows),
                      cli._spans(*map(list, zip(*rows))))


def _text(fmt, meta, columns, rows):
    name, head, block, count, tail = _table(fmt, meta, columns, rows)
    assert name == f"table.{fmt}" and count == len(rows)
    out = io.BytesIO()
    core.run_shares(block, count, out)
    return head + out.getvalue().decode() + tail


def _rows(count):
    return [(i * 1.1e-12, i, -math.sin(i) / 3.0) for i in range(count)]


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("count", [1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_chunks_join_to_the_whole_text_at_every_block_edge(fmt, count):
    rows = _rows(count)
    assert _text(fmt, _META, _COLUMNS, rows) == ref.table_text(fmt, _META, _COLUMNS, rows)


@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_chunks_cover_at_most_one_block_of_rows_each(fmt):
    _, _, block, count, _ = _table(fmt, _META, _COLUMNS, _rows(2 * _C + 1))
    spans = [(0, _C), (_C, 2 * _C), (2 * _C, count)]
    # Each row starts on a new line: bare in CSV, at its "[" in JSON.
    opener = "\n" if fmt == "csv" else "\n    ["
    assert [block(*span).decode().count(opener) for span in spans] == [_C, _C, 1]
    # A block depends on nothing but its span, not on the blocks made before.
    assert [block(*span) for span in reversed(spans)] == \
        [block(*span) for span in spans][::-1]


_EDGE_CELLS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22,
               1.7976931348623157e308, 0, 10**20]


@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_edge_cells_are_written_as_before(fmt):
    rows = [tuple(_EDGE_CELLS), tuple(reversed(_EDGE_CELLS))]
    columns = tuple(f"c{i}:1" for i in range(len(_EDGE_CELLS)))
    assert _text(fmt, _META, columns, rows) == ref.table_text(fmt, _META, columns, rows)


@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_meta_strings_with_quotes_and_non_ascii_text(fmt):
    meta = {"note": 'a "quoted" \\ path', "name": "Schrödinger ψ — 1 µm",
            "tab": "a\tb", "ratio": 1.25}
    rows = _rows(3)
    assert _text(fmt, meta, _COLUMNS, rows) == ref.table_text(fmt, meta, _COLUMNS, rows)


@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_non_finite_meta_value_raises(fmt):
    with pytest.raises(ValueError, match="non-finite meta value ratio"):
        _table(fmt, {**_META, "ratio": math.nan}, _COLUMNS, _rows(2))


_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(min_value=-(10**30), max_value=10**30))


@settings(max_examples=200, deadline=None)
@given(fmt=st.sampled_from(cli._FORMATS), chunk_rows=st.integers(1, 4),
       rows=st.integers(1, 4).flatmap(
           lambda width: st.lists(st.tuples(*[_CELL] * width), min_size=1, max_size=12)))
def test_random_finite_rows_are_written_as_before(fmt, chunk_rows, rows):
    columns = tuple(f"c{i}:1" for i in range(len(rows[0])))
    with mock.patch.object(core, "BLOCK_ROWS", chunk_rows):
        assert _text(fmt, _META, columns, rows) == ref.table_text(fmt, _META, columns, rows)
