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
two-term expansion resums into closed forms.  figure_rows tabulates both
truncations and the field over a whole grid in one kernel, sharing the
envelope between them and checking the grid once; a point value is a
one-element grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import _angular
from .core import HBAR, require_finite, require_finite_positive, require_level


@dataclass(frozen=True)
class OscSystem:
    """Oscillator parameters: reduced mass, angular frequency and classical
    amplitude cap_l (r_bar is the displacement from equilibrium along the
    radial line)."""

    mu: float
    omega0: float
    cap_l: float

    def __post_init__(self) -> None:
        require_finite_positive(mu=self.mu, omega0=self.omega0, cap_l=self.cap_l)

    @functools.cached_property
    def alpha(self) -> float:
        """Gaussian envelope parameter mu omega0 / hbar."""
        return self.mu * self.omega0 / HBAR


def system_at_alpha(alpha: float, mu: float) -> OscSystem:
    """System with envelope parameter alpha whose classical amplitude is
    the n = 50 threshold, cap_l = L_50 = sqrt(101 / alpha)."""
    require_finite_positive(alpha=alpha, mu=mu)
    return OscSystem(mu=mu, omega0=alpha * HBAR / mu,
                     cap_l=math.sqrt(101.0 / alpha))


@dataclass(frozen=True)
class OscMode:
    """One oscillator level dressed with a field of amplitude a_osc."""

    n: int
    l: int
    m_l: int
    a_osc: float
    e_n: float
    e_mu: float
    e_field: float


def make_mode(sys: OscSystem, n: int, l: int = 0, m_l: int = 0,
              amplitude: float | None = None) -> OscMode:
    """Build level n with angular labels (l, m_l).

    amplitude defaults to amplitude_estimate(sys, n).  e_field may come
    out negative when sys.cap_l exceeds the level threshold; the mode is
    still constructed so that regime can be probed.
    """
    require_level(n, 0)
    if l < 0 or abs(m_l) > l:
        raise ValueError("need l >= 0 and |m_l| <= l")
    if amplitude is None:
        amplitude = amplitude_estimate(sys, n)
    require_finite_positive(amplitude=amplitude)
    e_n = HBAR * sys.omega0 * (n + 0.5)
    e_mu = 0.5 * sys.mu * sys.omega0**2 * sys.cap_l**2
    return OscMode(n=n, l=l, m_l=m_l, a_osc=amplitude, e_n=e_n, e_mu=e_mu,
                   e_field=e_n - e_mu)


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


def classical_motion(sys: OscSystem, cap_l: float, phase: float,
                     t: float) -> tuple[float, float]:
    """Classical displacement and momentum at time t.

    r_bar = cap_l cos(w0 t + phase), p_mu = -mu w0 cap_l sin(w0 t + phase);
    the energy p_mu^2/2mu + mu w0^2 r_bar^2/2 = mu w0^2 cap_l^2/2 is exact.
    """
    require_finite_positive(cap_l=cap_l)
    require_finite(phase=phase, t=t)
    arg = sys.omega0 * t + phase
    r_bar = cap_l * math.cos(arg)
    p_mu = -sys.mu * sys.omega0 * cap_l * math.sin(arg)
    return r_bar, p_mu


def _hermite(n: int, u: float) -> float:
    """Physicists' Hermite polynomial by upward recurrence."""
    if n == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * u
    for k in range(1, n):
        h_prev, h = h, 2.0 * u * h - 2.0 * k * h_prev
    return h


def radial_field_slope(mode: OscMode, sys: OscSystem, r_bar: float) -> float:
    """d chi_n / d r_bar of the radial field profile: chi = a_osc r_bar^n
    e^(-alpha r_bar^2/2) for n <= 1, a_osc H_n(sqrt(alpha) r_bar)
    e^(-alpha r_bar^2/2) for n >= 2.  Any r_bar is permitted."""
    alpha = sys.alpha
    env = math.exp(-0.5 * alpha * r_bar * r_bar)
    if mode.n == 0:
        return -mode.a_osc * alpha * r_bar * env
    if mode.n == 1:
        return mode.a_osc * (1.0 - alpha * r_bar * r_bar) * env
    u = math.sqrt(alpha) * r_bar
    h_n = _hermite(mode.n, u)
    h_prev = _hermite(mode.n - 1, u)
    return mode.a_osc * math.sqrt(alpha) * (2.0 * mode.n * h_prev - u * h_n) * env


def _check_turning(sys: OscSystem, r_bar: float) -> None:
    """The turning points: every r_bar a path or kinetic energy is
    evaluated at lies in [-cap_l, cap_l]."""
    if not abs(r_bar) <= sys.cap_l:
        raise ValueError(
            f"|r_bar|={abs(r_bar):.6e} beyond the turning point "
            f"cap_l={sys.cap_l:.6e}")


def kinetic_field(mode: OscMode, sys: OscSystem, r_bar: float,
                  theta: float) -> float:
    """Field kinetic energy (mu/2) v_mu^2 chi_n'^2 |Y_{l,m}|^2.

    v_mu^2 = w0^2 (cap_l^2 - r_bar^2) is the classical speed squared, so
    the value vanishes at the turning points r_bar = +-cap_l and the
    angular weight uses the orientation density |Y|^2 = S^2/(2 pi), which
    does not depend on phi.
    """
    _check_turning(sys, r_bar)
    require_finite(theta=theta)
    v_sq = sys.omega0**2 * (sys.cap_l**2 - r_bar**2)
    slope = radial_field_slope(mode, sys, r_bar)
    return 0.5 * sys.mu * v_sq * slope * slope \
        * _angular.angular_density(mode.l, mode.m_l, theta)


def path_integrand(mode: OscMode, sys: OscSystem) -> Callable[[float], float]:
    """Composite path integrand r_bar -> sqrt(1 + w(r_bar)/4pi), for n <= 1.

    w = (1/2) [d/dr_bar (a_osc h_n(sqrt(alpha) r_bar) e^(-alpha r_bar^2/2))]^2
    with h_0 = 1 and h_1(u) = u: the weight and argument that make the
    two-term expansion integrate to the paths of figure_rows.
    """
    alpha = sys.alpha
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


def _path_series(mode: OscMode, sys: OscSystem) -> tuple[float, int, float]:
    """(c_two, power, c_three) of the field part of the path, n <= 1:
    q - r_bar = c_two r_bar^power e^(-alpha r_bar^2)
                [+ c_three r_bar^5 e^(-alpha r_bar^2)]."""
    alpha = sys.alpha
    a_sq = mode.a_osc**2
    if mode.n == 0:
        return alpha**2 * a_sq / (48.0 * math.pi), 3, alpha**3 * a_sq / (120.0 * math.pi)
    if mode.n == 1:
        return alpha * a_sq / (16.0 * math.pi), 1, alpha**3 * a_sq / (80.0 * math.pi)
    raise ValueError(f"path series not tabulated for n={mode.n}")


def path_correction(mode: OscMode, sys: OscSystem, r_bar: float) -> float:
    """Field part q - r_bar of the three-term composite path, for n <= 1.

    Returned separately because near the turning points it is smaller
    than one ulp of r_bar and would vanish inside the sum.
    """
    _check_turning(sys, r_bar)
    c_two, power, c_three = _path_series(mode, sys)
    env = math.exp(-sys.alpha * r_bar * r_bar)
    return c_two * r_bar**power * env + c_three * r_bar**5 * env


def figure_rows(mode: OscMode, sys: OscSystem,
                xs: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Rows (r_bar, q_two, q_three, chi) of the oscillator figure on xs, n <= 1.

    q_two and q_three are the composite path q_n(r_bar) to two and three
    terms:

    n = 0: r_bar + (alpha^2 a^2/48pi) r_bar^3 e^(-alpha r_bar^2)
                 [+ (alpha^3 a^2/120pi) r_bar^5 e^(-alpha r_bar^2)]
    n = 1: r_bar + (alpha a^2/16pi) r_bar e^(-alpha r_bar^2)
                 [+ (alpha^3 a^2/80pi) r_bar^5 e^(-alpha r_bar^2)]

    with the bracketed term in q_three only; chi is the field.  The
    envelope and the two-term correction are shared by both paths, and the
    turning points are checked once per grid.
    """
    c_two, power, c_three = _path_series(mode, sys)
    cap_l = sys.cap_l
    if not all(abs(r) <= cap_l for r in xs):
        raise ValueError(f"grid leaves the classical interval |r_bar| <= cap_l={cap_l:.6e}")
    neg_alpha = -sys.alpha
    neg_half_alpha = -0.5 * sys.alpha
    a_osc, n = mode.a_osc, mode.n
    exp = math.exp
    rows = []
    for r in xs:
        env = exp(neg_alpha * r * r)
        dq = c_two * r**power * env
        rows.append((r, r + dq, r + (dq + c_three * r**5 * env),
                     a_osc * r**n * exp(neg_half_alpha * r * r)))
    return rows


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
