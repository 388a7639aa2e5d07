"""Particle-field composite for the isotropic harmonic oscillator.

The particle executes classical radial motion r_bar(t) = L cos(w0 t + b)
about the equilibrium point while the field rides the radial line with a
Gaussian-envelope profile chi_n(r_bar).  With alpha = mu w0 / hbar the
level energy is e_n = hbar w0 (n + 1/2); the classical share is
e_mu = mu w0^2 L^2 / 2, and the field keeps the remainder

    e_field = (hbar w0 / 2) (2n + 1 - alpha L^2),

which vanishes at the threshold amplitude L_n = sqrt((2n + 1)/alpha) and
turns negative beyond it (the level cannot support the amplitude; the
composite bookkeeping of core.classify_region applies).

The composite path q(r_bar) integrates (1 + w/4pi)^(1/2), the integrand
of path_integrand, where w is the effective squared field slope; its
two-term expansion resums into closed forms.  figure_columns is their one
copy: over a whole grid it returns both truncations' path corrections
q - r_bar, which the table adds to r_bar, and the field, a column each,
sharing the envelope and checking the grid once; a point value is a
one-element grid.  An OscMode holds its OscSystem, so no function of a
level takes the system again.
"""

from __future__ import annotations

import collections
import math
from typing import Callable, NamedTuple, Sequence

from .core import HBAR, column, require_finite_positive, require_level


class OscSystem(collections.namedtuple("OscSystem", "mu omega0 cap_l")):
    """Oscillator parameters: reduced mass, angular frequency and classical
    amplitude cap_l (r_bar is the displacement from equilibrium along the
    radial line)."""

    __slots__ = ()

    def __new__(cls, mu: float, omega0: float, cap_l: float) -> OscSystem:
        require_finite_positive(mu=mu, omega0=omega0, cap_l=cap_l)
        return super().__new__(cls, mu, omega0, cap_l)

    @property
    def alpha(self) -> float:
        """Gaussian envelope parameter mu omega0 / hbar."""
        return self.mu * self.omega0 / HBAR


def system_at_alpha(alpha: float, mu: float) -> OscSystem:
    """System with envelope parameter alpha whose classical amplitude is
    the n = 50 threshold, cap_l = L_50 = sqrt(101 / alpha)."""
    require_finite_positive(alpha=alpha, mu=mu)
    return OscSystem(mu=mu, omega0=alpha * HBAR / mu,
                     cap_l=math.sqrt(101.0 / alpha))


class OscMode(NamedTuple):
    """One level of the system sys dressed with a field of amplitude a_osc."""

    sys: OscSystem
    n: int
    a_osc: float
    e_n: float
    e_mu: float
    e_field: float


def make_mode(sys: OscSystem, n: int, amplitude: float | None = None) -> OscMode:
    """Build level n of the system sys with field amplitude a_osc.

    amplitude defaults to amplitude_estimate(sys, n).  e_field may come
    out negative when sys.cap_l exceeds the level threshold; the mode is
    still constructed so that regime can be probed.
    """
    require_level(n, 0)
    if amplitude is None:
        amplitude = amplitude_estimate(sys, n)
    require_finite_positive(amplitude=amplitude)
    e_n = HBAR * sys.omega0 * (n + 0.5)
    e_mu = 0.5 * sys.mu * sys.omega0**2 * sys.cap_l**2
    return OscMode(sys=sys, n=n, a_osc=amplitude, e_n=e_n, e_mu=e_mu, e_field=e_n - e_mu)


def classical_threshold(sys: OscSystem, n: int) -> float:
    """Amplitude L_n = sqrt((2n + 1)/alpha) where e_field crosses zero."""
    require_level(n, 0)
    return math.sqrt((2.0 * n + 1.0) / sys.alpha)


def threshold_suppression(n: int) -> float:
    """Squared Gaussian envelope at the threshold amplitude.

    exp(-alpha L_n^2) = exp(-(2n + 1)), independent of the system scale.
    """
    require_level(n, 0)
    return math.exp(-(2.0 * n + 1.0))


def path_integrand(mode: OscMode) -> Callable[[float], float]:
    """Composite path integrand r_bar -> sqrt(1 + w(r_bar)/4pi), for n <= 1.

    w = (1/2) [d/dr_bar (a_osc h_n(sqrt(alpha) r_bar) e^(-alpha r_bar^2/2))]^2
    with h_0 = 1 and h_1(u) = u: the weight and argument that make the
    two-term expansion integrate to the paths of figure_columns.
    """
    alpha = mode.sys.alpha
    four_pi = 4.0 * math.pi
    exp, sqrt = math.exp, math.sqrt
    if mode.n == 0:
        pre = mode.a_osc * alpha

        def integrand(r: float) -> float:
            return sqrt(1.0 + 0.5 * (pre * r) ** 2 * exp(-alpha * r * r) / four_pi)
        return integrand
    if mode.n == 1:
        pre = 0.5 * mode.a_osc**2 * alpha

        def integrand(r: float) -> float:
            return sqrt(1.0 + pre * (1.0 - alpha * r * r) ** 2 * exp(-alpha * r * r)
                        / four_pi)
        return integrand
    raise ValueError(f"path slope not tabulated for n={mode.n}")


def figure_columns(mode: OscMode, xs: Sequence[float]) -> tuple[Sequence[float], ...]:
    """Columns (dq_two, dq_three, chi) of the oscillator figure on xs, n <= 1.

    dq_two and dq_three are the field parts q - r_bar of the composite
    path to two and three terms, which the table adds to r_bar:

    n = 0: (alpha^2 a^2/48pi) r_bar^3 e^(-alpha r_bar^2)
           [+ (alpha^3 a^2/120pi) r_bar^5 e^(-alpha r_bar^2)]
    n = 1: (alpha a^2/16pi) r_bar e^(-alpha r_bar^2)
           [+ (alpha^3 a^2/80pi) r_bar^5 e^(-alpha r_bar^2)]

    with the bracketed term in dq_three only; chi is the field.  Near the
    turning points a correction is below one ulp of r_bar, so it is kept
    apart from r_bar.  The envelope and the two-term correction are shared
    by both paths, and the turning points are checked once per grid.
    """
    sys, a_osc, n = mode.sys, mode.a_osc, mode.n
    alpha, a_sq = sys.alpha, a_osc**2
    if n == 0:
        c_two, power, c_three = (alpha**2 * a_sq / (48.0 * math.pi), 3,
                                 alpha**3 * a_sq / (120.0 * math.pi))
    elif n == 1:
        c_two, power, c_three = (alpha * a_sq / (16.0 * math.pi), 1,
                                 alpha**3 * a_sq / (80.0 * math.pi))
    else:
        raise ValueError(f"path series not tabulated for n={n}")
    cap_l = sys.cap_l
    if not all(abs(r) <= cap_l for r in xs):
        raise ValueError(f"grid leaves the classical interval |r_bar| <= cap_l={cap_l:.6e}")
    neg_alpha = -alpha
    neg_half_alpha = -0.5 * alpha
    exp = math.exp
    envs = column(exp(neg_alpha * r * r) for r in xs)
    dq_two = column(c_two * r**power * env for r, env in zip(xs, envs))
    return (dq_two, column(dq + c_three * r**5 * env for r, dq, env in zip(xs, dq_two, envs)),
            column(a_osc * r**n * exp(neg_half_alpha * r * r) for r in xs))


def amplitude_estimate(sys: OscSystem, n: int) -> float:
    """Representative field amplitude for levels n <= 1.

    Near alpha = 1e20 m^-2 (within half a decade) the tabulated values
    1e-9 m (n = 0) and 1e-10 m (n = 1) are returned.  Elsewhere the
    n = 1 amplitude solves a one-percent path deviation at the envelope
    scale, alpha a^2 e^-1 (1/16pi + 1/80pi) = 0.01, and the n = 0 value
    keeps the tabulated tenfold ratio.
    """
    if n not in (0, 1):
        raise ValueError(f"amplitude estimate only tabulated for n <= 1, got n={n}")
    alpha = sys.alpha
    if abs(math.log10(alpha) - 20.0) <= 0.5:
        return 1e-9 if n == 0 else 1e-10
    coeff = (1.0 / (16.0 * math.pi) + 1.0 / (80.0 * math.pi)) / math.e
    a1 = math.sqrt(0.01 / (alpha * coeff))
    return 10.0 * a1 if n == 0 else a1
