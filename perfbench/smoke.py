"""Smoke check of the benchmark itself: every workload at a tiny grid.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload, untraced and traced,
asserts that the run is correct, that every metric BENCHMARK.json declares
and every stderr-only metric is emitted, that the layer self times
account for the traced pass time, and that the traced `oracle.panels` on
oracle-paths equals an independent count of Gauss-Kronrod panel
evaluations (calls of `oracle._gk15`).  Exits 1 on the first failure.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, make_pass

SMOKE_SECONDS = 0.0
ACCOUNTED_MIN = 0.95
# Metrics every run prints on stderr besides the ones BENCHMARK.json declares.
STDERR_METRICS = ["box_figure_s", "flux_check_s", "hydrogen_figure_s", "osc_trajectory_s",
                  "spectrum_s", "verify_s", "op_p90_s", "failed_ops_share"]
UNTRACED_STDERR_METRICS = ["setup_wall_s", "rows_per_wall_s", "host_probe_s"]


def gk15_panels(ops) -> int:
    """Panels of one untraced pass, counted by wrapping the GK15 panel routine."""
    from pfield import cli, oracle

    panels = 0
    original = oracle._gk15

    def counting(*args):
        nonlocal panels
        panels += 1
        return original(*args)

    oracle._gk15 = counting
    try:
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=run.HERE) as tmp:
            run.run_pass(cli.main, ops, Path(tmp) / "gk15")
    finally:
        oracle._gk15 = original
    return panels


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in WORKLOADS:
        for trace in (False, True):
            line, metrics = run.run(workload, run.DEFAULT_SEED, SMOKE_SECONDS, trace, smoke=True)
            expected = run.declared_metrics(trace) + STDERR_METRICS
            if not trace:
                expected += UNTRACED_STDERR_METRICS
            missing = [n for n in expected if n not in metrics]
            label = f"{workload} trace={int(trace)}"
            if not line["correct"] or missing:
                print(f"FAIL {label}: correct={line['correct']} missing={missing}")
                return 1
            if trace:
                accounted = metrics["trace.accounted_share"][0]
                if not ACCOUNTED_MIN <= accounted <= 1.0:
                    print(f"FAIL {label}: layer self times cover {accounted:.3f} of the pass")
                    return 1
                if workload == "oracle-paths":
                    expected = gk15_panels(make_pass(workload, run.DEFAULT_SEED, 0, smoke=True))
                    if metrics["oracle.panels"][0] != expected:
                        print(f"FAIL {label}: oracle.panels {metrics['oracle.panels'][0]} "
                              f"!= {expected} GK15 panels")
                        return 1
            print(f"ok   {label}: attempted={line['attempted']} failed={line['failed']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
