"""Quartic self-interaction of the box field (Duffing form).

A quartic term (eps'/4) chi^4 in the field energy density turns the
stationary field equation into chi'' + k^2 chi = eps chi^3, with
eps = eps' / (m v_P^2).  To first order in eps the bounded solution is

    chi = A cos(w k x + B) - (eps A^3 / 32 k^2) cos(3 w k x + 3B),
    w = 1 - 3 eps A^2 / (8 k^2),

whose residual is second order in eps.  The phase is fixed at
B = -pi/2, the sine form with a node on the wall at x = 0.  Pinning the
field to the other wall as well shifts the box levels: w(k) k a = n pi
solves exactly to

    k_n = (n pi / 2a) [1 + sqrt(1 + 3 eps A^2 a^2 / (2 n^2 pi^2))],

which collapses bitwise onto the linear levels as eps -> 0.  All first
order formulas, such as duffing_columns' chi, chi'' and residual over a
grid, are trusted only while |eps| A^2 / k^2 <= 0.1.
"""

from __future__ import annotations

import collections
import math
from typing import Sequence

from .boxmode import BoxMode
from .core import HBAR, column, require_finite, require_finite_positive

VALIDITY_LIMIT = 0.1


class NonlinearParams(collections.namedtuple("NonlinearParams", "eps a_tilde")):
    """Field-equation coefficient eps and field amplitude a_tilde.

    A quartic energy density (eps'/4) chi^4 gives eps = eps' / (m v_P^2).
    """

    __slots__ = ()

    def __new__(cls, eps: float, a_tilde: float) -> NonlinearParams:
        require_finite(eps=eps)
        require_finite_positive(a_tilde=a_tilde)
        return super().__new__(cls, eps, a_tilde)


def _check_validity(params: NonlinearParams, k: float) -> None:
    require_finite_positive(k=k)
    strength = abs(params.eps) * params.a_tilde**2 / k**2
    if strength > VALIDITY_LIMIT:
        raise ValueError(
            f"perturbative regime exceeded: |eps| a_tilde^2/k^2="
            f"{strength:.4f} > {VALIDITY_LIMIT}")


def omega_ratio(params: NonlinearParams, k: float) -> float:
    """Frequency detuning w = 1 - 3 eps a_tilde^2 / (8 k^2)."""
    _check_validity(params, k)
    return 1.0 - 3.0 * params.eps * params.a_tilde**2 / (8.0 * k**2)


def duffing_columns(params: NonlinearParams, k: float,
                    xs: Sequence[float]) -> tuple[Sequence[float], ...]:
    """Columns (chi, chi'', residual) of the first-order solution on the grid xs.

    chi = a sin(w k x) + (eps a^3/32 k^2) sin(3 w k x), the bounded solution
    with B = -pi/2: that phase puts a node on the wall at x = 0, and the
    sine form makes the eps -> 0 limit reproduce the linear mode bit for
    bit.  chi'' is its analytic second derivative, and the residual
    chi'' + k^2 chi - eps chi^3 scales as eps^2 a^5 / k^2: quadratic in eps
    at fixed amplitude.
    """
    if not all(math.isfinite(x) for x in xs):
        raise ValueError("grid must be finite")
    w = omega_ratio(params, k)
    a, eps = params.a_tilde, params.eps
    third = eps * a**3 / (32.0 * k**2)
    wk = w * k
    k_sq = k**2
    sin = math.sin
    # 3.0 * w * k * x (in chi) and 3.0 * wk * x (in chi'') round differently; both stay.
    chi = column(a * sin(wk * x) + third * sin(3.0 * w * k * x) for x in xs)
    chi_xx = column(-a * wk**2 * sin(wk * x) - third * (3.0 * wk)**2 * sin(3.0 * wk * x)
                    for x in xs)
    return chi, chi_xx, column(d2 + k_sq * c - eps * c**3 for c, d2 in zip(chi, chi_xx))


def quantized_k(params: NonlinearParams, mode: BoxMode) -> float:
    """Wall-pinned wavenumber of the box level mode under the quartic term.

    Solves w(k) k a = n pi exactly:
    k_n = (n pi / 2a)[1 + sqrt(1 + 3 eps a_tilde^2 a^2/(2 n^2 pi^2))].
    A negative discriminant (strong softening) has no bounded level and
    raises ValueError.
    """
    n, a = mode.n, mode.sys.a
    disc = 1.0 + 3.0 * params.eps * params.a_tilde**2 * a**2 \
        / (2.0 * n**2 * math.pi**2)
    if disc < 0.0:
        raise ValueError(
            f"no bounded level: discriminant {disc:.4f} < 0 for n={n}")
    k = n * math.pi / (2.0 * a) * (1.0 + math.sqrt(disc))
    _check_validity(params, k)
    return k


def energy_levels(params: NonlinearParams, mode: BoxMode) -> float:
    """Level energy (hbar k_n)^2 / 2m of mode at the shifted wavenumber."""
    p_n = HBAR * quantized_k(params, mode)
    return p_n**2 / (2.0 * mode.sys.m)

