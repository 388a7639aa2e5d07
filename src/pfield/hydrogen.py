"""Particle-field composite for hydrogen-like atoms.

The particle moves on a classical circular orbit of radius r with
v = sqrt(Z e'^2 / (mu r)) (e'^2 is the Gaussian squared charge e^2/4
pi eps0), while the field carries the radial profile bare_{n,l}(r) of
the stationary state.  The orbit energy e_mu = -Z e'^2 / 2r and the
level energy e_n = -(mu/2)(Z e'^2/hbar)^2 / n^2 split the total: the
field share e_n - e_mu vanishes exactly at r = n^2 a0 / Z, and averaging
e_mu over the quantum radial density returns e_n for every tabulated
state.  The radial closed forms are one table keyed (n, l); make_state
checks a state's labels against it, and every radial function takes the
HState.

The 2p functions take the field amplitude a_ha, of dimension m^(1-l),
so that the l = 1 profile a_ha * r * exp(-Z r / 2 a0) has slope a_ha at
the origin.  approximation_gap bounds the linearization of the composite
speed in a_ha.  figure_columns tabulates both 2p orbit shapes over a
whole grid of angles in one kernel, as one column each, computing the
envelope and checking the parameters once; a point value is a
one-element grid.
"""

from __future__ import annotations

import collections
import math
from typing import NamedTuple, Sequence

from . import oracle
from .core import GAUSSIAN_CHARGE_SQ, HBAR, column, require_finite_positive, require_level


class HydrogenSystem(collections.namedtuple("HydrogenSystem", "z mu")):
    """Nuclear charge number and reduced mass."""

    __slots__ = ()

    def __new__(cls, z: float, mu: float) -> HydrogenSystem:
        if not 1.0 <= z < math.inf:
            raise ValueError(f"z must be finite and at least 1, got {z!r}")
        require_finite_positive(mu=mu)
        return super().__new__(cls, z, mu)

    @property
    def a0(self) -> float:
        """Bohr radius hbar^2 / (mu e'^2) of the reduced mass."""
        return HBAR * HBAR / (self.mu * GAUSSIAN_CHARGE_SQ)


class HydrogenOrbit(NamedTuple):
    """Classical circular orbit: radius, sweep rate, speed, angular
    momentum and orbit energy."""

    r: float
    theta_dot: float
    v: float
    l_c: float
    e_mu: float


class HState(NamedTuple):
    """Stationary state (n, l) of the system sys and its level energy."""

    sys: HydrogenSystem
    n: int
    l: int
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


def make_state(sys: HydrogenSystem, n: int, l: int) -> HState:
    """Build a stationary state; only the (n, l) of the radial table are
    accepted."""
    require_level(n, 1)
    if (n, l) not in _RADIAL:
        raise ValueError(f"radial profile not tabulated for (n, l)=({n!r}, {l!r})")
    return HState(sys=sys, n=n, l=l, e_n=level_energy(sys, n))


def field_energy(state: HState, r: float) -> float:
    """Field share e_n - e_mu(r) = (Z e'^2 / 2)(1/r - Z/(a0 n^2)).

    Zero exactly at r = n^2 a0 / Z, positive inside, negative outside
    (orbit faster than the level supports).
    """
    require_finite_positive(r=r)
    sys = state.sys
    return 0.5 * sys.z * GAUSSIAN_CHARGE_SQ \
        * (1.0 / r - sys.z / (sys.a0 * state.n**2))


# (n, l) -> (norm, profile): R_{n,l} = norm(Z/a0) * profile(sigma, r) with
# sigma = Z r / a0, the profile keeping the r^l factor in meters.
_RADIAL = {
    (1, 0): (lambda za: 2.0 * za**1.5,
             lambda sigma, r: math.exp(-sigma)),
    (2, 0): (lambda za: za**1.5 / (2.0 * math.sqrt(2.0)),
             lambda sigma, r: (2.0 - sigma) * math.exp(-0.5 * sigma)),
    (2, 1): (lambda za: za**2.5 / (2.0 * math.sqrt(6.0)),
             lambda sigma, r: r * math.exp(-0.5 * sigma)),
    (3, 0): (lambda za: 2.0 * za**1.5 / (81.0 * math.sqrt(3.0)),
             lambda sigma, r: (27.0 - 18.0 * sigma + 2.0 * sigma**2) * math.exp(-sigma / 3.0)),
    (3, 1): (lambda za: 4.0 * za**2.5 / (81.0 * math.sqrt(6.0)),
             lambda sigma, r: (6.0 - sigma) * r * math.exp(-sigma / 3.0)),
    (3, 2): (lambda za: 4.0 * za**3.5 / (81.0 * math.sqrt(30.0)),
             lambda sigma, r: r * r * math.exp(-sigma / 3.0)),
}


def _bare_radial(state: HState, r: float) -> float:
    """Unnormalized radial profile with the r^l factor kept in meters."""
    return _RADIAL[state.n, state.l][1](state.sys.z * r / state.sys.a0, r)


def normalized_radial(state: HState, r: float) -> float:
    """Unit-normalized radial function R_{n,l} (integral R^2 r^2 dr = 1)."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be finite and non-negative, got {r!r}")
    za = state.sys.z / state.sys.a0
    return _RADIAL[state.n, state.l][0](za) * _bare_radial(state, r)


def mean_inv_r(state: HState) -> float:
    """<1/r> over the radial density; equals Z/(a0 n^2) for every state."""
    def f(r: float) -> float:
        rr = normalized_radial(state, r)
        return rr * rr * r

    return oracle.integrate(f, 0.0, 30.0 * state.n * state.sys.a0 / state.sys.z)


def mean_orbit_energy(state: HState) -> float:
    """<e_mu> = -(Z e'^2 / 2) <1/r>, which lands on e_n."""
    return -0.5 * state.sys.z * GAUSSIAN_CHARGE_SQ * mean_inv_r(state)


def approximation_gap(a_ha: float) -> float:
    """Worst-case linearized-minus-exact speed factor for a 2p0 state.

    The sweep slope peaks at u = 3 a_ha^2 / 4 pi (equator, origin limit
    of the envelope), giving (1 + u/2) - sqrt(1 + u); quartic in a_ha for
    small amplitude.  It is computed as (u^2/4) / ((1 + u/2) + sqrt(1 + u)),
    which cancels no digits.
    """
    require_finite_positive(a_ha=a_ha)
    u = 3.0 * a_ha**2 / (4.0 * math.pi)
    return 0.25 * u * u / ((1.0 + 0.5 * u) + math.sqrt(1.0 + u))


def _envelope_2p(sys: HydrogenSystem, a_ha: float, r: float) -> float:
    """Scale (a_ha^2 / 8 pi) e^(-Z r / a0) of the 2p orbit corrections,
    after checking a_ha and r."""
    require_finite_positive(a_ha=a_ha, r=r)
    return a_ha**2 * math.exp(-sys.z * r / sys.a0) / (8.0 * math.pi)


def figure_columns(sys: HydrogenSystem, a_ha: float, r: float,
                   thetas: Sequence[float]) -> tuple[Sequence[float], Sequence[float]]:
    """Columns (q_p0/r, q_pm1/r) of the hydrogen figure on the grid thetas.

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
    return (column(r * (1.0 + env * (1.0 + c * c)) / r for c in map(math.cos, thetas)),
            column(r * (1.0 + half_env * (1.0 + s * s)) / r for s in map(math.sin, thetas)))


def cross_sections_2p(sys: HydrogenSystem, a_ha: float,
                      r: float) -> dict[tuple[str, str], float]:
    """q/r of both 2p orbits at the pole (theta = 0) and on the equator
    (theta = pi/2), keyed (which, "polar" or "equatorial"); read from the
    figure_columns kernel that writes the hydrogen figure."""
    columns = figure_columns(sys, a_ha, r, (0.0, 0.5 * math.pi))
    return {(which, plane): q_over_r
            for which, column in zip(("p0", "pPlusMinus1"), columns)
            for plane, q_over_r in zip(("polar", "equatorial"), column)}
