"""Independent numerical routes backing the closed-form results.

The oracle only integrates: an adaptive quadrature and its running sum,
applied by their callers to the exact integrands the physics modules
supply.  Judging a value against its reference belongs to verification.
Everything here is deliberately independent of the series expansions it
verifies: the module imports only core, and no special-function
identities are used anywhere in it.

The quadrature is an adaptive Gauss-Kronrod (G7, K15) bisection scheme with
an embedded error estimate; identical inputs always traverse the same
interval tree, so results are bit-reproducible.  A running integral's
steps are stored by core.run_shares, in one process per usable CPU, in
the memory of core.shared_doubles, and then folded there from 0.0, so its
values do not depend on that split; `taskset -c 0` gives one process.
"""

from __future__ import annotations

import collections
import io
import math
from typing import Callable, Sequence

from .core import require_finite_positive, run_shares, shared_doubles

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
# Deepest bisection level: a panel that still fails there raises.
_MAX_DEPTH = 50


class QuadratureSpec(collections.namedtuple("QuadratureSpec", "rel_tol abs_tol")):
    """Tolerances for the adaptive integrator."""

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-10, abs_tol: float = 1e-14) -> QuadratureSpec:
        require_finite_positive(rel_tol=rel_tol, abs_tol=abs_tol)
        return super().__new__(cls, rel_tol, abs_tol)


DEFAULT_QUADRATURE = QuadratureSpec()


class QuadratureError(ArithmeticError):
    """Raised when the interval tree bottoms out; the message names the
    failing panel's interval, its depth and its error estimate."""


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
    additive over subintervals of the same tree.  A reversed interval is
    integrated forward and negated.  Raises ValueError for a non-finite
    bound or width, and QuadratureError if a panel still fails at depth
    _MAX_DEPTH.
    """
    if not math.isfinite(b - a):
        raise ValueError(f"integration interval must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    if a > b:
        return -_adapt(f, b, a, spec.abs_tol, spec.rel_tol, 0)
    return _adapt(f, a, b, spec.abs_tol, spec.rel_tol, 0)


def _adapt(f: Callable[[float], float], lo: float, hi: float, abs_budget: float,
           rel_tol: float, depth: int) -> float:
    """Integral over [lo, hi] at this depth: its panel if that passes on
    abs_budget, else the sum of its halves, each on half the budget."""
    value, err = _gk15(f, lo, hi)
    if err <= max(abs_budget, rel_tol * abs(value)):
        return value
    if depth >= _MAX_DEPTH:
        raise QuadratureError(
            f"quadrature failed to converge on [{lo}, {hi}] "
            f"at depth {depth} (error estimate {err:.3e})")
    mid = 0.5 * (lo + hi)
    abs_budget = 0.5 * abs_budget
    depth += 1
    return (_adapt(f, lo, mid, abs_budget, rel_tol, depth)
            + _adapt(f, mid, hi, abs_budget, rel_tol, depth))


def cumulative_integrate(f: Callable[[float], float], xs: Sequence[float]) -> memoryview:
    """Running integral of f from 0 to each x of xs, in order, as a 'd'
    memoryview.

    One integrate call per step, from the previous point (0 for the first)
    to x; xs is read only through len, one index and slices.  steps stores
    a span's step integrals at their items' indices in memory the shares
    of core.run_shares share, so a redone share overwrites them; they are
    then summed left to right from 0.0 in one pass, in place, so the
    values do not depend on that split.
    """
    running = shared_doubles(len(xs))

    def steps(start: int, stop: int) -> bytes:
        prev = xs[start - 1] if start else 0.0
        for i, x in enumerate(xs[start:stop], start):
            running[i] = integrate(f, prev, x)
            prev = x
        return b""

    run_shares(steps, len(xs), io.BytesIO())
    total = 0.0
    for i, step in enumerate(running):
        total += step
        running[i] = total
    return running
