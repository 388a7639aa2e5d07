"""Bound modes of a particle-field composite in a 1-D box of width a.

The field of level n is chi_n(x) = A_n sin(n pi x / a) with matter-wave
momentum p_n = hbar n pi / a fixing the level energy E_n = p_n^2 / 2m.
Feeding the additive energy split back into the mode amplitude gives

    E_n = E_P / (1 - p_P^2 A_n^2 / hbar^2),
    A_n = (hbar / p_P) sqrt(1 - p_P^2 / p_n^2),

so a level only exists for p_P <= p_n (field energy is non-negative) and
the squared slope amplitude b^2 = p_n^2/p_P^2 - 1 must stay below 1 for
the path expansions to converge (p_n^2/p_P^2 < 2).

The composite path is q_n(x) = g integral sqrt(1 + chi_n'^2) dx.  Two
closed forms are provided: the quadratic-order form with
g = 4 p_P^2 / (p_n^2 + 3 p_P^2), tabulated by figure_columns, and
eighth_order_path, the sixth-order path of the eighth-order integrand,
normalized by its own secular coefficient.  Both pin q(0) = 0, q(a) = a.

A BoxMode holds the BoxSystem it was built for, so a function of a level
takes no system.  figure_columns (the quadratic path, the field and the
bare density) and eighth_order_path evaluate a whole grid, a column each,
checking the wall once; a point value is a one-element grid.  The wall
is one check, _check_grid, which field_energy and timedep pass (x,).
"""

from __future__ import annotations

import collections
import math
from typing import Callable, NamedTuple, Sequence

from .core import (HBAR, EnergyBudget, column, require_finite, require_finite_positive,
                   require_level)


class BoxSystem(collections.namedtuple("BoxSystem", "m a p_particle")):
    """Box width, particle mass, and the particle's momentum share (SI)."""

    __slots__ = ()

    def __new__(cls, m: float, a: float, p_particle: float) -> BoxSystem:
        require_finite_positive(m=m, a=a, p_particle=p_particle)
        return super().__new__(cls, m, a, p_particle)


class BoxMode(NamedTuple):
    """One bound level of the box."""

    n: int
    sys: BoxSystem  # the box and particle the level was built for
    k_n: float      # mode wavenumber n pi / a
    e_n: float      # level energy (hbar k_n)^2 / 2m
    a_n: float      # field amplitude, positive root
    b_sq: float     # squared slope amplitude p_n^2/p_particle^2 - 1
    g_npf: float    # path normalization 4 p_P^2 / (p_n^2 + 3 p_P^2)


def make_mode(sys: BoxSystem, n: int) -> BoxMode:
    """Construct level n for the system's particle momentum.

    Raises ValueError for p_particle > p_n (superclassical momentum: the
    field energy would be negative) and for p_n^2/p_particle^2 >= 2
    (series divergence, b^2 >= 1).
    """
    require_level(n, 1)
    k_n = n * math.pi / sys.a
    p_n = HBAR * k_n
    if sys.p_particle > p_n:
        raise ValueError(
            f"superclassical momentum: p_particle={sys.p_particle:.6e} "
            f"exceeds p_n={p_n:.6e} for n={n}")
    ratio = (p_n / sys.p_particle) ** 2
    if ratio >= 2.0:
        raise ValueError(
            f"series divergence (b^2 >= 1): p_n^2/p_particle^2={ratio:.6f} "
            "must be below 2")
    a_n = (HBAR / sys.p_particle) * math.sqrt(1.0 - 1.0 / ratio)
    g_npf = 4.0 * sys.p_particle**2 / (p_n**2 + 3.0 * sys.p_particle**2)
    return BoxMode(n=n, sys=sys, k_n=k_n, e_n=p_n**2 / (2.0 * sys.m),
                   a_n=a_n, b_sq=ratio - 1.0, g_npf=g_npf)


# level_at_ratio raises p_particle by at most this many ulps to keep
# make_mode's recomputed ratio below 2.
_RATIO_NUDGE_ULPS = 4


def level_at_ratio(m: float, a: float, n: int, ratio: float) -> BoxMode:
    """Level n of the system with p_n^2 / p_particle^2 = ratio in [1, 2).

    Each figure and check of the paper's box sets the particle momentum
    this way, p_particle = p_n / sqrt(ratio), so b^2 = ratio - 1.
    """
    require_level(n, 1)
    if not 1.0 <= ratio < 2.0:
        raise ValueError(f"ratio for n={n} must lie in [1, 2), got {ratio}")
    require_finite_positive(a=a)
    p_n = HBAR * n * math.pi / a
    p_mode = HBAR * (n * math.pi / a)
    # Capped at make_mode's p_n, which can round an ulp below this one.
    p_particle = min(p_n / math.sqrt(ratio), p_mode)
    # Just below 2, make_mode's (p_n / p_particle)**2 can round back up to 2.
    for _ in range(_RATIO_NUDGE_ULPS):
        if (p_mode / p_particle) ** 2 < 2.0:
            break
        p_particle = math.nextafter(p_particle, math.inf)
    return make_mode(BoxSystem(m=m, a=a, p_particle=p_particle), n)


def _check_grid(a: float, xs: Sequence[float]) -> None:
    """The box wall: every x a box field is evaluated at lies in [0, a].
    Raises at the first x outside, nan included."""
    for x in xs:
        if not 0.0 <= x <= a:
            raise ValueError(f"x={x} outside the box [0, {a}]")


def field_energy(mode: BoxMode, x: float) -> EnergyBudget:
    """Energy budget of the level, field split evaluated at x.

    The field oscillates at wbar_n = k_n p_P / m and carries
    E_F = (m/2) wbar_n^2 A_n^2 = E_n - E_P, divided into a kinetic part
    proportional to cos^2(k_n x) and a potential part proportional to
    sin^2(k_n x).  The particle share is purely kinetic inside the box.
    """
    sys = mode.sys
    _check_grid(sys.a, (x,))
    e_particle = sys.p_particle**2 / (2.0 * sys.m)
    wbar = mode.k_n * sys.p_particle / sys.m
    e_field = 0.5 * sys.m * wbar**2 * mode.a_n**2
    c = math.cos(mode.k_n * x)
    s = math.sin(mode.k_n * x)
    return EnergyBudget(e_total=e_particle + e_field,
                        e_particle=e_particle, e_field=e_field,
                        k_particle=e_particle, v_particle=0.0,
                        k_field=e_field * c * c, v_field=e_field * s * s)


def path_integrand(mode: BoxMode) -> Callable[[float], float]:
    """Path integrand x -> sqrt(1 + b^2 cos^2(k_n x)) of the mode."""
    b_sq, k = mode.b_sq, mode.k_n
    cos, sqrt = math.cos, math.sqrt

    def integrand(x: float) -> float:
        return sqrt(1.0 + b_sq * cos(k * x) ** 2)
    return integrand


def integrand_series(b_sq: float, kx: float) -> float:
    """Eighth-order truncation of the path integrand.

    1 + (b^2/2) c^2 - (b^4/8) c^4 + (b^6/16) c^6 - (5 b^8/128) c^8 with
    c = cos(kx); converges for b^2 < 1.
    """
    if not 0.0 <= b_sq < 1.0:
        raise ValueError("b_sq must lie in [0, 1)")
    require_finite(kx=kx)
    u = b_sq * math.cos(kx)**2
    return 1.0 + u / 2.0 - u**2 / 8.0 + u**3 / 16.0 - 5.0 * u**4 / 128.0


def path_series_coefficients(b_sq: float) -> tuple[float, float, float]:
    """Secular and harmonic coefficients of the integrated eighth-order path.

    Integrating the eighth-order integrand term by term gives
    q = g [ c1 x + (c2/k) sin(2kx) - (c3/k) sin(4kx) ] with

        c1 = 1 + b^2/4 - 3 b^4/64 + 5 b^6/256 - 175 b^8/16384
        c2 = b^2/8 - b^4/32 + 15 b^6/1024 - 35 b^8/4096
        c3 = b^4/256 - 3 b^6/1024 + 35 b^8/16384

    (sixth and eighth harmonics dropped: an eighth-order integrand gives a
    sixth-order path, with an O(b^6) error).  Valid for 0 <= b^2 < 1.
    """
    if not 0.0 <= b_sq < 1.0:
        raise ValueError("b_sq must lie in [0, 1)")
    b2 = b_sq
    b4 = b2 * b2
    b6 = b4 * b2
    b8 = b4 * b4
    c1 = 1.0 + b2 / 4.0 - 3.0 * b4 / 64.0 + 5.0 * b6 / 256.0 - 175.0 * b8 / 16384.0
    c2 = b2 / 8.0 - b4 / 32.0 + 15.0 * b6 / 1024.0 - 35.0 * b8 / 4096.0
    c3 = b4 / 256.0 - 3.0 * b6 / 1024.0 + 35.0 * b8 / 16384.0
    return c1, c2, c3


def eighth_order_path(mode: BoxMode, xs: Sequence[float]) -> Sequence[float]:
    """Composite path q_n of the eighth-order integrand on the grid xs,
    pinned to q(0) = 0 and q(a) = a, with one wall check.

    q = x + (c2/c1 k) sin(2kx) - (c3/c1 k) sin(4kx) with the coefficients
    of path_series_coefficients, so g = 1/c1.  The path is sixth order in b.
    """
    _check_grid(mode.sys.a, xs)
    k = mode.k_n
    c1, c2, c3 = path_series_coefficients(mode.b_sq)
    w2, w4 = c2 / (c1 * k), c3 / (c1 * k)
    return column(x + w2 * math.sin(2.0 * k * x) - w4 * math.sin(4.0 * k * x) for x in xs)


def harmonic_weight(b_sq: float) -> float:
    """Weight w = b^2/(2(b^2 + 4)) of the first harmonic of the
    quadratic-order box path x + (w/k) sin(2kx)."""
    return b_sq / (2.0 * (b_sq + 4.0))


def figure_columns(mode: BoxMode, xs: Sequence[float]) -> tuple[Sequence[float], ...]:
    """Columns (q, q/x, chi, psi^2) of the box figure on the grid xs.

    q is the quadratic-order path x + [b^2/(b^2 + 4)] sin(2kx)/(2k), with
    q/x at x = 0 its limit 1 + b^2/(b^2 + 4); chi = A_n sin(k_n x) is the
    field and psi^2 = (2/a) sin^2(n pi x / a) the bare density.  The wall
    is checked in one pass over the grid.
    """
    a = mode.sys.a
    _check_grid(a, xs)
    k = mode.k_n
    w = harmonic_weight(mode.b_sq)
    coeff = w / k
    slope0 = 1.0 + 2.0 * w
    a_n = mode.a_n
    amp = math.sqrt(2.0 / a)
    n_pi = mode.n * math.pi
    sin = math.sin
    q = column(x + coeff * sin(2.0 * k * x) for x in xs)
    return (q, column(q_x / x if x > 0.0 else slope0 for q_x, x in zip(q, xs)),
            column(a_n * sin(k * x) for x in xs),
            column((amp * sin(n_pi * x / a)) ** 2 for x in xs))
