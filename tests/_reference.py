"""Point forms of the tabulated closed forms, frozen as the row kernels'
references.

Each function is the formula as it stood in the package before the row
kernels became its only copy, with the products in the same order, so a
kernel must equal it bit for bit.  A point value in the package is a
one-element grid of its kernel; these copies live with the tests so they
cannot drift along with it.
"""

from __future__ import annotations

import math

from pfield.core import HBAR


def box_path_quadratic(mode, x):
    """Quadratic-order box path x + [b^2/(b^2 + 4)] sin(2kx)/(2k)."""
    k = mode.k_n
    coeff = mode.b_sq / (mode.b_sq + 4.0) / (2.0 * k)
    return x + coeff * math.sin(2.0 * k * x)


def box_field(mode, x):
    """Box field chi_n(x) = A_n sin(k_n x)."""
    return mode.a_n * math.sin(mode.k_n * x)


def box_wavefunction(mode, sys, x):
    """Bare box eigenfunction sqrt(2/a) sin(n pi x / a)."""
    return math.sqrt(2.0 / sys.a) * math.sin(mode.n * math.pi * x / sys.a)


def osc_field(mode, sys, r_bar):
    """Oscillator field a_osc r_bar^n exp(-alpha r_bar^2/2), n <= 1."""
    env = math.exp(-0.5 * sys.alpha * r_bar * r_bar)
    if mode.n == 0:
        return mode.a_osc * env
    return mode.a_osc * r_bar * env


def osc_slope_sq(mode, sys, r_bar):
    """Effective squared slope w of the oscillator path integrand, n <= 1."""
    alpha = sys.alpha
    env = math.exp(-alpha * r_bar * r_bar)
    if mode.n == 0:
        return 0.5 * (mode.a_osc * alpha * r_bar) ** 2 * env
    return 0.5 * mode.a_osc**2 * alpha * (1.0 - alpha * r_bar * r_bar) ** 2 * env


def _osc_series(mode, sys):
    """(c_two, power, c_three) of the oscillator path's field part, n <= 1."""
    alpha = sys.alpha
    a_sq = mode.a_osc**2
    if mode.n == 0:
        return alpha**2 * a_sq / (48.0 * math.pi), 3, alpha**3 * a_sq / (120.0 * math.pi)
    return alpha * a_sq / (16.0 * math.pi), 1, alpha**3 * a_sq / (80.0 * math.pi)


def osc_path_two_term(mode, sys, r_bar):
    """Two-term oscillator path r_bar + c_two r_bar^power e^(-alpha r_bar^2)."""
    c_two, power, _ = _osc_series(mode, sys)
    return r_bar + c_two * r_bar**power * math.exp(-sys.alpha * r_bar * r_bar)


def osc_path_three_term(mode, sys, r_bar):
    """Three-term oscillator path: two-term plus c_three r^5 e^(-alpha r^2)."""
    c_two, power, c_three = _osc_series(mode, sys)
    env = math.exp(-sys.alpha * r_bar * r_bar)
    return r_bar + (c_two * r_bar**power * env + c_three * r_bar**5 * env)


def orbit_2p0(sys, a_ha, r, theta):
    """2p0 orbit radius r [1 + (a^2/8pi) e^(-Zr/a0) (1 + cos^2 theta)]."""
    env = a_ha**2 * math.exp(-sys.z * r / sys.a0) / (8.0 * math.pi)
    c = math.cos(theta)
    return r * (1.0 + env * (1.0 + c * c))


def orbit_2p1(sys, a_ha, r, theta):
    """2p+-1 orbit radius r [1 + (a^2/16pi) e^(-Zr/a0) (1 + sin^2 theta)]."""
    env = a_ha**2 * math.exp(-sys.z * r / sys.a0) / (8.0 * math.pi)
    s = math.sin(theta)
    return r * (1.0 + 0.5 * env * (1.0 + s * s))


def flux(field, x, t):
    """Probability flux (hbar/m) Im(Psi* dPsi/dx)."""
    return HBAR / field.m * (field.value(x, t).conjugate() * field.d_dx(x, t)).imag


def continuity_residual(field, x, t, h_x, h_t):
    """Central-difference d rho/dt + d j/dx."""
    drho_dt = (abs(field.value(x, t + h_t)) ** 2
               - abs(field.value(x, t - h_t)) ** 2) / (2.0 * h_t)
    dj_dx = (flux(field, x + h_x, t) - flux(field, x - h_x, t)) / (2.0 * h_x)
    return drho_dt + dj_dx
