"""Brute-force numerical checks backing the closed-form results.

Everything here is deliberately independent of the series expansions it is
used to verify: trajectories are obtained by adaptive quadrature of the
unexpanded path integrands and derivatives by central differences.  No
special-function identities are used anywhere in this module.

The quadrature is an adaptive Gauss-Kronrod (G7, K15) bisection scheme with
an embedded error estimate; identical inputs always traverse the same
interval tree, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from . import boxmode, oscillator
from .core import require_finite_positive

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and recursion limit for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 50

    def __post_init__(self) -> None:
        require_finite_positive(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")


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
    # The whole interval is one panel first; most calls stop there.
    value, err = _gk15(f, a, b)
    if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
        return sign * value
    return sign * _bisect(f, a, b, value, err, spec.abs_tol, 0, spec, sign)


def _bisect(f: Callable[[float], float], lo: float, hi: float, value: float,
            err: float, abs_budget: float, depth: int, spec: QuadratureSpec,
            sign: float) -> float:
    """Integral over [lo, hi], whose panel (value, err) at this depth was
    rejected: each half keeps its own panel if that passes on half the
    absolute budget, and is bisected again otherwise."""
    if depth >= spec.max_depth:
        raise QuadratureError(
            f"quadrature failed to converge on [{lo}, {hi}] "
            f"at depth {depth} (error estimate {err:.3e})",
            best_estimate=sign * value, error_bound=err)
    mid = 0.5 * (lo + hi)
    abs_budget = 0.5 * abs_budget
    depth += 1
    v_lo, e_lo = _gk15(f, lo, mid)
    if not e_lo <= max(abs_budget, spec.rel_tol * abs(v_lo)):
        v_lo = _bisect(f, lo, mid, v_lo, e_lo, abs_budget, depth, spec, sign)
    v_hi, e_hi = _gk15(f, mid, hi)
    if not e_hi <= max(abs_budget, spec.rel_tol * abs(v_hi)):
        v_hi = _bisect(f, mid, hi, v_hi, e_hi, abs_budget, depth, spec, sign)
    return v_lo + v_hi


def cumulative_integrate(f: Callable[[float], float],
                         xs: Iterable[float]) -> Iterator[float]:
    """Running integral of f from 0 to each x of xs, in order.

    One integrate call per step, from the previous point (0 for the first)
    to x; the steps are summed left to right.
    """
    acc = 0.0
    prev = 0.0
    for x in xs:
        acc += integrate(f, prev, x)
        prev = x
        yield acc


def finite_diff(f: Callable[[float], float], x: float, h: float, order: int) -> float:
    """Central finite difference, O(h^2): order 1 or 2 only."""
    require_finite_positive(h=h)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    raise ValueError("order must be 1 or 2")


@dataclass(frozen=True)
class ComparisonReport:
    """One check of a criterion; its fields are the keys of a check in
    the verify report."""

    label: str
    value: float
    reference: float
    abs_dev: float
    rel_dev: float
    tolerance: float
    passed: bool

    @classmethod
    def judge(cls, label: str, value: float, reference: float, tolerance: float,
              verdict: Callable[[float, float], bool]) -> ComparisonReport:
        """Record value against reference; verdict(abs_dev, rel_dev) decides
        the pass.  rel_dev is inf at a zero reference."""
        abs_dev = abs(value - reference)
        scale = abs(reference)
        rel_dev = abs_dev / scale if scale > 0.0 else math.inf
        return cls(label=label, value=value, reference=reference,
                   abs_dev=abs_dev, rel_dev=rel_dev, tolerance=tolerance,
                   passed=verdict(abs_dev, rel_dev))


def compare(label: str, value: float, reference: float,
            tolerance: float, use_rel: bool = True) -> ComparisonReport:
    """Check passed when the chosen deviation is within tolerance."""
    return ComparisonReport.judge(
        label, value, reference, tolerance,
        lambda abs_dev, rel_dev: (rel_dev if use_rel else abs_dev) <= tolerance)


def exact_box_trajectory(mode: boxmode.BoxMode, x: float,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE,
                         g: float | None = None) -> float:
    """Path length q(x) for a box mode by quadrature of the exact integrand.

    q(x) = g * integral_0^x sqrt(1 + b^2 cos^2(k_n s)) ds.  g defaults to
    the mode's own path normalization; comparisons against a differently
    normalized series may pass a matching g explicitly.
    """
    if g is None:
        g = mode.g_npf
    return g * integrate(boxmode.path_integrand(mode), 0.0, x, spec)


def exact_osc_trajectory(mode: oscillator.OscMode, sys: oscillator.OscSystem,
                         r_bar: float,
                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Oscillator path by quadrature of the unexpanded radial integrand.

    q(r) = integral_0^r sqrt(1 + w(s)/(4 pi)) ds where w is the squared
    trajectory slope of the mode.  Odd in r by construction.
    """
    return integrate(oscillator.path_integrand(mode, sys), 0.0, r_bar, spec)
