"""Seeded workload generator: turns (workload, seed, pass index) into CLI argument vectors.

A pass is a fixed recipe of `pfield` invocations whose parameters are drawn
from `random.Random(f"{stream}:{seed}:{index}")`, so the same seed always
gives the same list.  The program sees only ordinary flags; every output
directory is appended by the runner.

Each `Op` also carries `expect_fail`: whether the generator's own replay of
the CLI grid arithmetic says the last sample point lands outside the domain
the physics layer accepts (the grid-edge rounding defect).  Those draws are
kept on purpose, so the defect shows in the failed-operation count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("tables-csv", "tables-json", "oracle-paths", "batch-1e3")

FULL_GRID = {"tables": 100_000, "oracle": 100_000, "batch": 1_000}
SMOKE_GRID = {"tables": 40, "oracle": 40, "batch": 20}

# Wall seconds of one untraced pass on the reference machine (2 vCPU Xeon,
# Python 3.11.7).  A run's work is fixed by its seed and `--seconds` alone,
# so the operations it attempts and the predicted failures among them do not
# depend on how fast the host happens to be.
NOMINAL_PASS_S = {"tables-csv": 6.5, "tables-json": 9.5, "oracle-paths": 7.8,
                  "batch-1e3": 1.3}

VERIFY_PER_PASS = 10
ROUNDS_PER_BATCH_PASS = 10
NANOMETRE = 1e-9
VALIDITY_LIMIT = 0.1  # nonlinear.VALIDITY_LIMIT: |eps| a_tilde^2 / k^2 bound


@dataclass(frozen=True)
class Op:
    """One `pfield` invocation: its argument vector without `--out`."""

    command: str
    argv: tuple[str, ...]
    expected_rows: int      # rows per table; 0 for verify
    tables: int             # table files written on success
    expect_fail: bool = False


def _grid_last(lo: float, hi: float, n: int) -> float:
    """Last point of the CLI's uniform grid, with the same arithmetic."""
    return lo + (hi - lo) / (n - 1) * (n - 1)


def _box_width_fails(a: float, modes: int, grid: int) -> bool:
    last = _grid_last(0.0, a, grid)
    for n in range(1, modes + 1):
        k_n = n * math.pi / a
        if last > n * math.pi / k_n:
            return True
    return False


def _flux_edge_fails(a: float, grid: int) -> bool:
    h_x = a / 1e4
    hi = a - h_x
    last = _grid_last(h_x, hi, grid)
    return last > hi or last + h_x > a


def _box_figure(rng: random.Random, a: float, grid: int, fmt: str) -> Op:
    ratios = [rng.uniform(1.05, 1.95) for _ in range(3)]
    argv = ("box-figure", "--a", repr(a), "--ratios", ",".join(repr(r) for r in ratios),
            "--grid", str(grid), "--format", fmt)
    return Op("box-figure", argv, grid, len(ratios), _box_width_fails(a, len(ratios), grid))


def _flux_check(a: float, grid: int, fmt: str) -> Op:
    argv = ("flux-check", "--a", repr(a), "--grid", str(grid), "--format", fmt)
    return Op("flux-check", argv, grid, 1, _flux_edge_fails(a, grid))


def _hydrogen_figure(rng: random.Random, grid: int, fmt: str) -> Op:
    argv = ("hydrogen-figure", "--a-ha", repr(rng.uniform(0.05, 0.2)),
            "--grid", str(grid), "--format", fmt)
    return Op("hydrogen-figure", argv, grid, 1)


def _alpha(u: float) -> float:
    """alpha = 10^(19.6 + 0.8 u): u in [0, 1) spans the tabulated-amplitude decade."""
    return 10.0 ** (19.6 + 0.8 * u)


def _osc_trajectory(alpha: float, n: int, grid: int, fmt: str) -> Op:
    argv = ("osc-trajectory", "--alpha", repr(alpha), "--n", str(n),
            "--grid", str(grid), "--format", fmt)
    return Op("osc-trajectory", argv, grid, 1)


def _spectrum(rng: random.Random, a: float, fmt: str) -> Op:
    # Level 1 binds the validity limit: a_tilde = sqrt(ratio - 1)/k_1 at the
    # default ratio 1.5, and the quantized k only grows with eps > 0.
    k_1 = math.pi / a
    eps = rng.uniform(0.05, 0.9) * VALIDITY_LIMIT * k_1**4 / (1.5 - 1.0)
    levels = rng.randint(3, 12)
    argv = ("spectrum", "--a", repr(a), "--eps", repr(eps), "--levels", str(levels),
            "--format", fmt)
    return Op("spectrum", argv, levels, 1)


def passes_for(workload: str, seconds: float, minimum: int) -> int:
    """Passes that fill about `seconds` at the nominal pass time, and at least `minimum`."""
    return max(minimum, round(seconds / NOMINAL_PASS_S[workload]))


def make_pass(workload: str, seed: int, index: int, smoke: bool = False) -> list[Op]:
    """Argument vectors of pass `index` of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    grids = SMOKE_GRID if smoke else FULL_GRID
    # Both tables workloads draw from one stream: same vectors, different format.
    stream = "tables" if workload.startswith("tables-") else workload
    rng = random.Random(f"{stream}:{seed}:{index}")
    if workload.startswith("tables-"):
        fmt = workload.split("-", 1)[1]
        grid = grids["tables"]
        a = rng.uniform(1.0, 4.0) * NANOMETRE
        return [_box_figure(rng, a, grid, fmt), _flux_check(a, grid, fmt),
                _hydrogen_figure(rng, grid, fmt)]
    if workload == "oracle-paths":
        # At 1e5 points n=1 costs up to 1.5x n=0 and 1.4x more at the top of the
        # alpha range than at the bottom.  So every pass runs both levels, and
        # pass 2k+1 mirrors pass 2k's alpha draws (antithetic pairs): the cost of
        # a run then hardly depends on the seed.
        pair = random.Random(f"{stream}:{seed}:pair{index // 2}")
        ops = []
        for n in (0, 1):
            u = pair.random()
            ops.append(_osc_trajectory(_alpha(1.0 - u if index % 2 else u), n,
                                       grids["oracle"], "csv"))
        return ops + [Op("verify", ("verify",), 0, 0)] * VERIFY_PER_PASS
    grid = grids["batch"]
    ops: list[Op] = []
    for round_index in range(ROUNDS_PER_BATCH_PASS):
        # Five invocations a round, so alternating per invocation flips each round.
        f0, f1 = ("csv", "json") if round_index % 2 == 0 else ("json", "csv")
        a = rng.uniform(1.0, 4.0) * NANOMETRE
        ops += [_box_figure(rng, a, grid, f0),
                _osc_trajectory(_alpha(rng.random()), rng.choice((0, 1)), grid, f1),
                _flux_check(a, grid, f0), _hydrogen_figure(rng, grid, f1),
                _spectrum(rng, a, f0)]
    return ops
