"""Independent numerical routes backing the closed-form results.

The oracle only integrates: an adaptive quadrature, its running sum and a
central finite difference, applied by their callers to the exact
integrands the physics modules supply.  Judging a value against its
reference belongs to verification.  Everything here is deliberately
independent of the series expansions it verifies: the module imports
only core, and no special-function identities are used anywhere in it.

The quadrature is an adaptive Gauss-Kronrod (G7, K15) bisection scheme with
an embedded error estimate; identical inputs always traverse the same
interval tree, so results are bit-reproducible.  A running integral longer
than one block of BLOCK_ROWS steps takes its steps in one process per
usable CPU (core.run_shares) and sums them here, left to right, so its
values do not depend on that split; `taskset -c 0` gives one process.
"""

from __future__ import annotations

import collections
import math
import types
from typing import Callable, Sequence

from .core import BLOCK_ROWS, require_finite, require_finite_positive, run_shares

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (positive half).
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss-7 weights attach to the even-index Kronrod nodes.
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


class QuadratureSpec(collections.namedtuple("QuadratureSpec", "rel_tol abs_tol max_depth")):
    """Tolerances and recursion limit for the adaptive integrator."""

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-10, abs_tol: float = 1e-14,
                max_depth: int = 50) -> QuadratureSpec:
        require_finite_positive(rel_tol=rel_tol, abs_tol=abs_tol)
        if max_depth < 10:
            raise ValueError("max_depth must be at least 10")
        return super().__new__(cls, rel_tol, abs_tol, max_depth)


DEFAULT_QUADRATURE = QuadratureSpec()


class QuadratureError(RuntimeError):
    """Raised when the interval tree bottoms out; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (K15 value, |K15 - G7| estimate).

    Straight-line form: node pairs are summed in the order of _XK and both
    rules accumulate left to right, centre term first.
    """
    x0, x1, x2, x3, x4, x5, x6, _ = _XK
    wk0, wk1, wk2, wk3, wk4, wk5, wk6, wk7 = _WK
    wg0, wg1, wg2, wg3 = _WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    s0 = f(c - h * x0) + f(c + h * x0)
    s1 = f(c - h * x1) + f(c + h * x1)
    s2 = f(c - h * x2) + f(c + h * x2)
    s3 = f(c - h * x3) + f(c + h * x3)
    s4 = f(c - h * x4) + f(c + h * x4)
    s5 = f(c - h * x5) + f(c + h * x5)
    s6 = f(c - h * x6) + f(c + h * x6)
    kron = (wk7 * fc + wk0 * s0 + wk1 * s1 + wk2 * s2 + wk3 * s3 + wk4 * s4
            + wk5 * s5 + wk6 * s6)
    gauss = wg3 * fc + wg0 * s1 + wg1 * s3 + wg2 * s5
    return kron * h, abs(kron - gauss) * abs(h)


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Adaptive quadrature of f over [a, b].

    Panels are accepted when the embedded estimate satisfies
    err <= max(abs_tol_share, rel_tol * |panel value|), the absolute
    budget being split evenly on bisection; the scheme is therefore
    additive over subintervals of the same tree.  Raises ValueError for a
    non-finite bound or width, and QuadratureError (best estimate
    attached) if max_depth is reached anywhere.
    """
    if not math.isfinite(b - a):
        raise ValueError(f"integration interval must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    return sign * _adapt(f, a, b, spec.abs_tol, 0, spec, sign)


def _adapt(f: Callable[[float], float], lo: float, hi: float, abs_budget: float,
           depth: int, spec: QuadratureSpec, sign: float) -> float:
    """Integral over [lo, hi] at this depth: its panel if that passes on
    abs_budget, else the sum of its halves, each on half the budget."""
    value, err = _gk15(f, lo, hi)
    if err <= max(abs_budget, spec.rel_tol * abs(value)):
        return value
    if depth >= spec.max_depth:
        raise QuadratureError(
            f"quadrature failed to converge on [{lo}, {hi}] "
            f"at depth {depth} (error estimate {err:.3e})",
            best_estimate=sign * value, error_bound=err)
    mid = 0.5 * (lo + hi)
    abs_budget = 0.5 * abs_budget
    depth += 1
    return (_adapt(f, lo, mid, abs_budget, depth, spec, sign)
            + _adapt(f, mid, hi, abs_budget, depth, spec, sign))


def cumulative_integrate(f: Callable[[float], float], xs: Sequence[float]) -> list[float]:
    """Running integral of f from 0 to each x of xs, in order.

    One integrate call per step, from the previous point (0 for the first)
    to x.  The steps are taken in blocks of BLOCK_ROWS, in one process per
    usable CPU, and summed left to right here.
    """
    from array import array  # loaded on first use: import pfield skips it

    def steps(b: int) -> bytes:
        lo = b * BLOCK_ROWS
        prev = xs[lo - 1] if lo else 0.0
        values = array("d")
        for x in xs[lo:lo + BLOCK_ROWS]:
            values.append(integrate(f, prev, x))
            prev = x
        return values.tobytes()

    running: list[float] = []

    def add(data: bytes) -> None:
        # run_shares writes whole blocks, in order, and copies a child's
        # file in reads of shutil.COPY_BUFSIZE (64 KiB), so each write holds
        # whole steps; a part of one would make cast raise.
        acc = running[-1] if running else 0.0
        for step in memoryview(data).cast("d"):
            acc += step
            running.append(acc)

    run_shares(steps, -(-len(xs) // BLOCK_ROWS), types.SimpleNamespace(write=add))
    return running


def finite_diff(f: Callable[[float], float], x: float, h: float, order: int) -> float:
    """Central finite difference, O(h^2): order 1 or 2 only."""
    require_finite(x=x)
    require_finite_positive(h=h)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    raise ValueError("order must be 1 or 2")
