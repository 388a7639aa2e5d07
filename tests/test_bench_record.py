"""tools/bench_record.py: run.py's stderr is read back, pairs are
summarized in the direction BENCHMARK.json gives each metric, and a tree
that no revision names is refused."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_parse_stderr_keeps_metrics_with_units_and_the_other_lines():
    text = ("# 0 of 15 operations failed; the generator predicted 1 grid-edge failures\n"
            "# tables-csv seed=1 trace=0 {'nproc': 2}\n"
            "setup_s                                  0.0114 s\n"
            "peak_rss_mb                              27.5 MB\n"
            "check failed: box_figure_n1.csv differs\n")
    metrics, notes = bench_record.parse_stderr(text)
    assert metrics == {"setup_s": {"value": 0.0114, "unit": "s"},
                       "peak_rss_mb": {"value": 27.5, "unit": "MB"}}
    assert notes == [line for line in text.splitlines()
                     if not line.startswith(("setup_s", "peak_rss_mb"))]


def _run(pair, side, rss, rows):
    metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"},
               "rows_per_s": {"value": rows, "unit": "1/s"}}
    return {"pair": pair, "workload": "w", "side": side,
            "result": {"correct": True, "metrics": metrics}}


def test_summarize_counts_pairs_the_change_wins_in_each_metric_direction():
    runs = [_run(0, "parent", 40.0, 100.0), _run(0, "change", 30.0, 90.0),
            _run(1, "change", 31.0, 100.0), _run(1, "parent", 41.0, 100.0),
            _run(2, "parent", 42.0, 100.0), _run(2, "change", 42.0, 110.0),
            # A pair with one failed run is left out.
            _run(3, "parent", 40.0, 100.0), {**_run(3, "change", 1.0, 1.0), "result": None}]
    end_to_end = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
                  {"name": "rows_per_s", "unit": "1/s", "better": "higher"}]
    summary = bench_record.summarize(runs, ["w"], end_to_end)["w"]
    assert (summary["runs"], summary["correct_runs"]) == (8, 7)
    rss, rows = summary["metrics"]["peak_rss_mb"], summary["metrics"]["rows_per_s"]
    assert (rss["change_better_pairs"], rss["pairs"]) == (2, 3)
    assert rss["parent"]["median"] == 41.0 and rss["change"]["median"] == 31.0
    assert (rows["change_better_pairs"], rows["pairs"]) == (1, 3)


def test_describe_refuses_a_tree_with_an_untracked_module(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("")
    git("add", ".")
    git("commit", "-q", "-m", "a")
    described = bench_record.describe(tmp_path)
    assert set(described) == {"revision", "src_tree"}
    (tmp_path / "src" / "b.py").write_text("")
    with pytest.raises(SystemExit, match="uncommitted"):
        bench_record.describe(tmp_path)
