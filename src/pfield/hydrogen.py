"""Particle-field composite for hydrogen-like atoms.

The particle moves on a classical circular orbit of radius r with
v = sqrt(Z e'^2 / (mu r)) (e'^2 is the Gaussian squared charge e^2/4
pi eps0), while the field carries the stationary-state profile

    chi_{n,l,m}(r, theta, phi) = a_ha * bare_{n,l}(r) S_{l,m}(theta) T_m(phi)

with the angular factors of the separable density |Y|^2 = S^2 |T|^2.
The orbit energy e_mu = -Z e'^2 / 2r and the level energy
e_n = -(mu/2)(Z e'^2/hbar)^2 / n^2 split the total: the field share
e_n - e_mu vanishes exactly at r = n^2 a0 / Z, and averaging e_mu over
the quantum radial density returns e_n for every tabulated state.

Orbital sweep drags the field through its angular profile, so composite
speeds pick up the slope dS/dtheta: s states (dS/dtheta = 0) move at
exactly r theta_dot, while 2p states gain the orientation-dependent
corrections served by pf_velocity.  figure_rows tabulates both 2p orbit
shapes over a whole grid of angles in one kernel, computing the envelope
and checking the parameters once; a point value is a one-element grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _angular, oracle
from .core import (GAUSSIAN_CHARGE_SQ, HBAR, require_finite, require_finite_positive,
                   require_level)


@dataclass(frozen=True)
class HydrogenSystem:
    """Nuclear charge number and reduced mass."""

    z: float
    mu: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.z < math.inf:
            raise ValueError(f"z must be finite and at least 1, got {self.z!r}")
        require_finite_positive(mu=self.mu)

    @property
    def a0(self) -> float:
        """Bohr radius hbar^2 / (mu e'^2) of the reduced mass."""
        return HBAR * HBAR / (self.mu * GAUSSIAN_CHARGE_SQ)


@dataclass(frozen=True)
class HydrogenOrbit:
    """Classical circular orbit: radius, sweep rate, speed, angular
    momentum and orbit energy."""

    r: float
    theta_dot: float
    v: float
    l_c: float
    e_mu: float


@dataclass(frozen=True)
class HState:
    """Stationary state labels with the field amplitude a_ha.

    a_ha carries dimension m^(1-l) so that the l = 1 profile is
    a_ha * r * exp(-Z r / 2 a0) with dimensionless slope a_ha at the
    origin.
    """

    n: int
    l: int
    m_l: int
    a_ha: float
    e_n: float


def circular_orbit(sys: HydrogenSystem, r: float) -> HydrogenOrbit:
    """Circular orbit at radius r; force balance fixes everything else."""
    require_finite_positive(r=r)
    v = math.sqrt(sys.z * GAUSSIAN_CHARGE_SQ / (sys.mu * r))
    theta_dot = v / r
    return HydrogenOrbit(r=r, theta_dot=theta_dot, v=v, l_c=sys.mu * v * r,
                         e_mu=-0.5 * sys.z * GAUSSIAN_CHARGE_SQ / r)


def level_energy(sys: HydrogenSystem, n: int) -> float:
    """e_n = -(mu/2) (Z e'^2 / hbar)^2 / n^2."""
    require_level(n, 1)
    return -0.5 * sys.mu * (sys.z * GAUSSIAN_CHARGE_SQ / HBAR) ** 2 / n**2


def make_state(sys: HydrogenSystem, n: int, l: int, m_l: int = 0,
               a_ha: float = 0.1) -> HState:
    """Build a stationary state; radial closed forms cover n <= 3."""
    if not 1 <= n <= 3:
        raise ValueError("radial profiles tabulated for 1 <= n <= 3")
    if not 0 <= l < n:
        raise ValueError("need 0 <= l < n")
    if abs(m_l) > l:
        raise ValueError("need |m_l| <= l")
    require_finite_positive(a_ha=a_ha)
    return HState(n=n, l=l, m_l=m_l, a_ha=a_ha, e_n=level_energy(sys, n))


def field_energy(sys: HydrogenSystem, state: HState, r: float) -> float:
    """Field share e_n - e_mu(r) = (Z e'^2 / 2)(1/r - Z/(a0 n^2)).

    Zero exactly at r = n^2 a0 / Z, positive inside, negative outside
    (orbit faster than the level supports).
    """
    require_finite_positive(r=r)
    return 0.5 * sys.z * GAUSSIAN_CHARGE_SQ \
        * (1.0 / r - sys.z / (sys.a0 * state.n**2))


def _bare_radial(sys: HydrogenSystem, n: int, l: int, r: float) -> float:
    """Unnormalized radial profile with the r^l factor kept in meters."""
    sigma = sys.z * r / sys.a0
    if (n, l) == (1, 0):
        return math.exp(-sigma)
    if (n, l) == (2, 0):
        return (2.0 - sigma) * math.exp(-0.5 * sigma)
    if (n, l) == (2, 1):
        return r * math.exp(-0.5 * sigma)
    if (n, l) == (3, 0):
        return (27.0 - 18.0 * sigma + 2.0 * sigma**2) * math.exp(-sigma / 3.0)
    if (n, l) == (3, 1):
        return (6.0 - sigma) * r * math.exp(-sigma / 3.0)
    if (n, l) == (3, 2):
        return r * r * math.exp(-sigma / 3.0)
    raise ValueError(f"radial profile not tabulated for (n, l)=({n}, {l})")


def normalized_radial(sys: HydrogenSystem, n: int, l: int, r: float) -> float:
    """Unit-normalized radial function R_{n,l} (integral R^2 r^2 dr = 1)."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be finite and non-negative, got {r!r}")
    za = sys.z / sys.a0
    bare = _bare_radial(sys, n, l, r)
    if (n, l) == (1, 0):
        return 2.0 * za**1.5 * bare
    if (n, l) == (2, 0):
        return za**1.5 / (2.0 * math.sqrt(2.0)) * bare
    if (n, l) == (2, 1):
        return za**2.5 / (2.0 * math.sqrt(6.0)) * bare
    if (n, l) == (3, 0):
        return 2.0 * za**1.5 / (81.0 * math.sqrt(3.0)) * bare
    if (n, l) == (3, 1):
        return 4.0 * za**2.5 / (81.0 * math.sqrt(6.0)) * bare
    return 4.0 * za**3.5 / (81.0 * math.sqrt(30.0)) * bare


def _radial_moment(sys: HydrogenSystem, n: int, l: int, power: int) -> float:
    rmax = 30.0 * n * sys.a0 / sys.z

    def f(r: float) -> float:
        rr = normalized_radial(sys, n, l, r)
        return rr * rr * r**(2 + power)

    return oracle.integrate(f, 0.0, rmax)


def mean_inv_r(sys: HydrogenSystem, n: int, l: int) -> float:
    """<1/r> over the radial density; equals Z/(a0 n^2) for every state."""
    return _radial_moment(sys, n, l, -1)


def mean_orbit_energy(sys: HydrogenSystem, n: int, l: int) -> float:
    """<e_mu> = -(Z e'^2 / 2) <1/r>, which lands on e_n."""
    return -0.5 * sys.z * GAUSSIAN_CHARGE_SQ * mean_inv_r(sys, n, l)


def _sweep_slope_sq(sys: HydrogenSystem, state: HState, r: float,
                    theta: float) -> float:
    """Squared field slope along the orbital arc, (d chi / r d theta)^2
    with |T|^2 folded: a_ha^2 bare^2 S'^2 / (2 pi r^2)."""
    bare = _bare_radial(sys, state.n, state.l, r)
    sp = _angular.theta_factor_slope(state.l, state.m_l, theta)
    return state.a_ha**2 * bare**2 * sp**2 / (2.0 * math.pi * r**2)


def pf_velocity(sys: HydrogenSystem, state: HState, r: float, theta: float,
                theta_dot: float, exact: bool = False) -> float:
    """Composite speed of the orbit dressed with the state's field.

    The sweep drags the field through dS/dtheta, so
    v = r theta_dot sqrt(1 + u) with u = a_ha^2 bare^2 S'^2 / (2 pi r^2);
    the default returns the linearized form r theta_dot (1 + u/2).  For
    s states u = 0 and the speed is exactly r theta_dot.  For 2p0 the
    linearized correction is (3/8pi) a_ha^2 e^(-Zr/a0) sin^2(theta),
    minimal on the poles; for 2p+-1 it is (3/16pi) a_ha^2 e^(-Zr/a0)
    cos^2(theta), minimal on the equator.
    """
    require_finite_positive(r=r)
    require_finite(theta=theta, theta_dot=theta_dot)
    u = _sweep_slope_sq(sys, state, r, theta)
    base = r * theta_dot
    if exact:
        return base * math.sqrt(1.0 + u)
    return base * (1.0 + 0.5 * u)


def approximation_gap(a_ha: float) -> float:
    """Worst-case linearized-minus-exact speed factor for a 2p0 state.

    The sweep slope peaks at u = 3 a_ha^2 / 4 pi (equator, origin limit
    of the envelope), giving (1 + 3 a^2/8pi) - sqrt(1 + 3 a^2/4pi);
    quartic in a_ha for small amplitude.
    """
    require_finite_positive(a_ha=a_ha)
    u = 3.0 * a_ha**2 / (4.0 * math.pi)
    return (1.0 + 0.5 * u) - math.sqrt(1.0 + u)


_ORBIT_2P_WHICH = ("p0", "pPlusMinus1")


def _envelope_2p(sys: HydrogenSystem, a_ha: float, r: float) -> float:
    """Scale (a_ha^2 / 8 pi) e^(-Z r / a0) of the 2p orbit corrections,
    after checking a_ha and r."""
    require_finite_positive(a_ha=a_ha, r=r)
    return a_ha**2 * math.exp(-sys.z * r / sys.a0) / (8.0 * math.pi)


def figure_rows(sys: HydrogenSystem, a_ha: float, r: float,
                thetas: Sequence[float]) -> list[tuple[float, float, float]]:
    """Rows (theta, q_p0/r, q_pm1/r) of the hydrogen figure on the grid thetas.

    p0:           q = r [1 + (a^2/8pi)  e^(-Zr/a0) (1 + cos^2 theta)]
    pPlusMinus1:  q = r [1 + (a^2/16pi) e^(-Zr/a0) (1 + sin^2 theta)]

    The p0 orbit is widest through the poles, the p+-1 orbit in the
    equatorial plane.  a_ha and r are checked once and the grid is checked
    to be finite once, instead of per row.
    """
    env = _envelope_2p(sys, a_ha, r)
    if not all(math.isfinite(theta) for theta in thetas):
        raise ValueError("grid of angles must be finite")
    half_env = 0.5 * env
    cos, sin = math.cos, math.sin
    rows = []
    for theta in thetas:
        c = cos(theta)
        s = sin(theta)
        rows.append((theta, r * (1.0 + env * (1.0 + c * c)) / r,
                     r * (1.0 + half_env * (1.0 + s * s)) / r))
    return rows


def cross_sections_2p(sys: HydrogenSystem, a_ha: float,
                      r: float) -> dict[tuple[str, str], float]:
    """q/r of both 2p orbits at the pole (theta = 0) and on the equator
    (theta = pi/2), keyed (which, "polar" or "equatorial"); read from the
    figure_rows kernel that writes the hydrogen figure."""
    rows = figure_rows(sys, a_ha, r, (0.0, 0.5 * math.pi))
    return {(which, plane): row[column]
            for column, which in enumerate(_ORBIT_2P_WHICH, start=1)
            for plane, row in zip(("polar", "equatorial"), rows)}


def cartesian_components_2p0(sys: HydrogenSystem, a_ha: float, r: float,
                             theta: float, phi: float) -> tuple[float, float, float]:
    """Cartesian composite coordinates for the 2p0 dressing.

    With beta = (a^2/8pi) e^(-Zr/a0):
        qx = x (1 + beta sin^2 theta), qy likewise,
        qz = z (1 + beta (2 + sin^2 theta));
    their norm reproduces the p0 orbit radius of figure_rows to fourth
    order in a_ha.
    """
    beta = _envelope_2p(sys, a_ha, r)
    require_finite(theta=theta, phi=phi)
    s = math.sin(theta)
    x = r * s * math.cos(phi)
    y = r * s * math.sin(phi)
    z = r * math.cos(theta)
    fac_xy = 1.0 + beta * s * s
    return x * fac_xy, y * fac_xy, z * (1.0 + beta * (2.0 + s * s))
