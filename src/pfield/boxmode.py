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
g = 4 p_P^2 / (p_n^2 + 3 p_P^2), tabulated by figure_rows, and
eighth_order_path, the two-harmonic form normalized by its own secular
coefficient.  Both pin q(0) = 0, q(a) = a.

figure_rows tabulates the quadratic path, the field and the bare density
over a whole grid, checking the wall once; a point value is a one-element
grid.  Each function of one x checks that it lies inside the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (HBAR, EnergyBudget, require_finite, require_finite_positive,
                   require_level)


@dataclass(frozen=True)
class BoxSystem:
    """Box width, particle mass, and the particle's momentum share (SI)."""

    m: float
    a: float
    p_particle: float

    def __post_init__(self) -> None:
        require_finite_positive(m=self.m, a=self.a, p_particle=self.p_particle)


@dataclass(frozen=True)
class BoxMode:
    """One bound level of the box."""

    n: int
    a: float        # box width the level was built for; its wall
    k_n: float      # mode wavenumber n pi / a
    p_n: float      # matter-wave momentum hbar k_n
    e_n: float      # level energy p_n^2 / 2m
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
    return BoxMode(n=n, a=sys.a, k_n=k_n, p_n=p_n, e_n=p_n**2 / (2.0 * sys.m),
                   a_n=a_n, b_sq=ratio - 1.0, g_npf=g_npf)


# level_at_ratio raises p_particle by at most this many ulps to keep
# make_mode's recomputed ratio below 2.
_RATIO_NUDGE_ULPS = 4


def level_at_ratio(m: float, a: float, n: int,
                   ratio: float) -> tuple[BoxSystem, BoxMode]:
    """System and level n with p_n^2 / p_particle^2 = ratio in [1, 2).

    Each figure and check of the paper's box sets the particle momentum
    this way, p_particle = p_n / sqrt(ratio), so b^2 = ratio - 1.
    """
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
    sys = BoxSystem(m=m, a=a, p_particle=p_particle)
    return sys, make_mode(sys, n)


def _check_inside(a: float, x: float) -> None:
    """The box wall: every x a box field is evaluated at lies in [0, a]."""
    if not 0.0 <= x <= a:
        raise ValueError(f"x={x} outside the box [0, {a}]")


def field_energy(mode: BoxMode, sys: BoxSystem, x: float) -> EnergyBudget:
    """Energy budget of the level, field split evaluated at x.

    The field oscillates at wbar_n = k_n p_P / m and carries
    E_F = (m/2) wbar_n^2 A_n^2 = E_n - E_P, divided into a kinetic part
    proportional to cos^2(k_n x) and a potential part proportional to
    sin^2(k_n x).  The particle share is purely kinetic inside the box.
    """
    _check_inside(mode.a, x)
    e_particle = sys.p_particle**2 / (2.0 * sys.m)
    wbar = mode.k_n * sys.p_particle / sys.m
    e_field = 0.5 * sys.m * wbar**2 * mode.a_n**2
    c = math.cos(mode.k_n * x)
    s = math.sin(mode.k_n * x)
    return EnergyBudget(e_total=e_particle + e_field,
                        e_particle=e_particle, e_field=e_field,
                        k_particle=e_particle, v_particle=0.0,
                        k_field=e_field * c * c, v_field=e_field * s * s)


def field_slope(mode: BoxMode, x: float) -> float:
    """chi_n'(x) = A_n k_n cos(k_n x); note A_n^2 k_n^2 = b^2."""
    _check_inside(mode.a, x)
    return mode.a_n * mode.k_n * math.cos(mode.k_n * x)


def integrand_exact(b_sq: float, kx: float) -> float:
    """Path integrand sqrt(1 + b^2 cos^2(kx)) at phase kx."""
    return math.sqrt(1.0 + b_sq * math.cos(kx)**2)


def path_integrand(mode: BoxMode) -> Callable[[float], float]:
    """Path integrand x -> sqrt(1 + b^2 cos^2(k_n x)) of the mode.

    Equal bit for bit to integrand_exact(mode.b_sq, mode.k_n * x).
    """
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
    u = b_sq * math.cos(kx)**2
    return 1.0 + u / 2.0 - u**2 / 8.0 + u**3 / 16.0 - 5.0 * u**4 / 128.0


def path_series_coefficients(b_sq: float) -> tuple[float, float, float]:
    """Secular and harmonic coefficients of the integrated eighth-order path.

    Integrating the eighth-order integrand term by term gives
    q = g [ c1 x + (c2/k) sin(2kx) - (c3/k) sin(4kx) ] with

        c1 = 1 + b^2/4 - 3 b^4/64 + 5 b^6/256 - 175 b^8/16384
        c2 = b^2/8 - b^4/32 + 15 b^6/1024 - 35 b^8/4096
        c3 = b^4/256 - 3 b^6/1024 + 35 b^8/16384

    (sixth and eighth harmonics dropped).  Valid for 0 <= b^2 < 1.
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


def eighth_order_path(mode: BoxMode, x: float) -> float:
    """Eighth-order composite path q_n(x), pinned to q(0) = 0 and q(a) = a.

    q = x + (c2/c1 k) sin(2kx) - (c3/c1 k) sin(4kx) with the coefficients
    of path_series_coefficients, so g = 1/c1.
    """
    _check_inside(mode.a, x)
    k = mode.k_n
    c1, c2, c3 = path_series_coefficients(mode.b_sq)
    return x + (c2 / (c1 * k)) * math.sin(2.0 * k * x) \
             - (c3 / (c1 * k)) * math.sin(4.0 * k * x)


def figure_rows(mode: BoxMode, sys: BoxSystem,
                xs: Sequence[float]) -> list[tuple[float, ...]]:
    """Rows (x, q, q/x, chi, psi^2, x) of the box figure on the grid xs.

    q is the quadratic-order path x + [b^2/(b^2 + 4)] sin(2kx)/(2k), with
    q/x at x = 0 its limit 1 + b^2/(b^2 + 4); chi = A_n sin(k_n x) is the
    field and psi^2 = (2/a) sin^2(n pi x / a) the bare density.  The wall
    is checked in one pass over the grid.
    """
    if not all(0.0 <= x <= mode.a for x in xs):
        raise ValueError(f"grid leaves the box [0, {mode.a}]")
    k = mode.k_n
    b_ratio = mode.b_sq / (mode.b_sq + 4.0)
    coeff = b_ratio / (2.0 * k)
    slope0 = 1.0 + b_ratio
    a_n = mode.a_n
    amp = math.sqrt(2.0 / sys.a)
    n_pi = mode.n * math.pi
    a = sys.a
    sin = math.sin
    rows = []
    for x in xs:
        q = x + coeff * sin(2.0 * k * x)
        rows.append((x, q, q / x if x > 0.0 else slope0, a_n * sin(k * x),
                     (amp * sin(n_pi * x / a)) ** 2, x))
    return rows


def velocity(mode: BoxMode, x: float, v_p: float) -> float:
    """Composite speed dq/dt = g v_P sqrt(1 + chi'^2).

    Maximal at the field nodes x = j a / n where the full slope b^2 is
    felt, minimal (g v_P) at the antinodes.
    """
    _check_inside(mode.a, x)
    require_finite(v_p=v_p)
    return mode.g_npf * v_p * integrand_exact(mode.b_sq, mode.k_n * x)


def pf_acceleration(mode: BoxMode, x: float, v_p: float) -> float:
    """Composite acceleration d^2q/dt^2 for uniform particle motion.

    q'' = g v_P^2 chi' chi'' / sqrt(1 + chi'^2)
        = -g v_P^2 (b^2 k / 2) sin(2kx) / sqrt(1 + b^2 cos^2 kx),
    vanishing exactly at nodes (chi = 0) and antinodes (chi' = 0).
    """
    _check_inside(mode.a, x)
    require_finite(v_p=v_p)
    k = mode.k_n
    return (-mode.g_npf * v_p**2 * 0.5 * mode.b_sq * k * math.sin(2.0 * k * x)
            / integrand_exact(mode.b_sq, k * x))
