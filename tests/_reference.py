"""Point forms of the tabulated closed forms, frozen as the column kernels'
references, the whole-text table builder, frozen as the streaming
writer's, and the CLI's option tables.

Each point function is the formula as it stood in the package before the
row kernels became its only copy, with the products in the same order, so a
kernel must equal it bit for bit.  A point value in the package is a
one-element grid of its kernel; box_integrand's kernel is
boxmode.path_integrand, and the oscillator kernel returns the path
corrections that the table adds to r_bar.  box_path_eighth and the three
duffing_* functions are boxmode.eighth_order_path and the nonlinear point
forms as they stood before boxmode.eighth_order_path and
nonlinear.duffing_columns took whole grids; they still read the package's
path_series_coefficients and omega_ratio.  bare_radial and
normalized_radial are the hydrogen radial if-chain as it stood before it
became one table keyed by (n, l), so every table entry must equal its
chain bit for bit.  box_acceleration, field_force_1d, pf_force_stationary,
cartesian_components_2p0 and sweep_speed are the composite kinematics as
the package stated them before they were deleted as unreached; the tests
hold the kept path integrand, quadrature path, field columns, hydrogen
figure columns and approximation_gap to them.  finite_diff is the central
difference that stood in oracle while only the tests called it.  table_text is the
CLI's table text as it stood before tables were written in row blocks, so
the joined chunks must equal it byte for byte.  grid and box_grid are
cli._grid and cli._box_grid as they stood while a grid was made whole,
box_grid with its last point since pinned on hi, so every point and slice
of the grids made on demand must equal them bit for bit.  CLI_OPTIONS is each
subcommand's option table as it stood before the runners' keyword
parameters became the only copy: the keys in order, with the name of each
converter and each default.  cli_parser is the argparse parser that read
the command line before cli read it itself, built from the same
cli._COMMANDS and cli._options, with abbreviated flags turned off.  These
copies live with the tests so they cannot drift along with the package.
"""

from __future__ import annotations

import argparse
import json
import math

from pfield import cli
from pfield.boxmode import path_series_coefficients
from pfield.core import HBAR, require_finite, require_finite_positive
from pfield.nonlinear import omega_ratio


def finite_diff(f, x, h, order):
    """Central finite difference, O(h^2): order 1 or 2 only."""
    require_finite(x=x)
    require_finite_positive(h=h)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    raise ValueError("order must be 1 or 2")


def box_path_quadratic(mode, x):
    """Quadratic-order box path x + [b^2/(b^2 + 4)] sin(2kx)/(2k)."""
    k = mode.k_n
    coeff = mode.b_sq / (mode.b_sq + 4.0) / (2.0 * k)
    return x + coeff * math.sin(2.0 * k * x)


def box_path_eighth(mode, x):
    """Eighth-order box path x + (c2/c1 k) sin(2kx) - (c3/c1 k) sin(4kx)."""
    k = mode.k_n
    c1, c2, c3 = path_series_coefficients(mode.b_sq)
    return x + (c2 / (c1 * k)) * math.sin(2.0 * k * x) \
             - (c3 / (c1 * k)) * math.sin(4.0 * k * x)


def duffing_solution(params, k, x):
    """First-order Duffing solution a sin(w k x) + (eps a^3/32 k^2) sin(3 w k x)."""
    w = omega_ratio(params, k)
    a = params.a_tilde
    third = params.eps * a**3 / (32.0 * k**2)
    return a * math.sin(w * k * x) + third * math.sin(3.0 * w * k * x)


def duffing_second_derivative(params, k, x):
    """Analytic chi'' of duffing_solution."""
    w = omega_ratio(params, k)
    a = params.a_tilde
    third = params.eps * a**3 / (32.0 * k**2)
    wk = w * k
    return -a * wk**2 * math.sin(wk * x) \
        - third * (3.0 * wk)**2 * math.sin(3.0 * wk * x)


def duffing_residual(params, k, x):
    """chi'' + k^2 chi - eps chi^3 for the first-order solution."""
    chi = duffing_solution(params, k, x)
    d2 = duffing_second_derivative(params, k, x)
    return d2 + k**2 * chi - params.eps * chi**3


def box_integrand(b_sq, kx):
    """Box path integrand sqrt(1 + b^2 cos^2(kx)) at phase kx."""
    return math.sqrt(1.0 + b_sq * math.cos(kx)**2)


def box_acceleration(mode, x, v_p):
    """Composite acceleration for uniform particle motion,
    q'' = -g v_P^2 (b^2 k / 2) sin(2kx) / sqrt(1 + b^2 cos^2 kx)."""
    k = mode.k_n
    return (-mode.g_npf * v_p**2 * 0.5 * mode.b_sq * k * math.sin(2.0 * k * x)
            / box_integrand(mode.b_sq, k * x))


def field_force_1d(m, v_p, chi_prime, d_abs_chi_prime_dx, f_p):
    """Force the field exerts, f_F = m v_P^2 d|chi'|/dx + f_P |chi'|."""
    return m * v_p**2 * d_abs_chi_prime_dx + f_p * abs(chi_prime)


def pf_force_stationary(g, f_p, chi_prime, chi_second, m, v):
    """Composite force along the path of a stationary real field,
    f_PF = g [f_P sqrt(1 + chi'^2) + m v^2 chi' chi'' / sqrt(1 + chi'^2)]."""
    root = math.sqrt(1.0 + chi_prime**2)
    return g * (f_p * root + m * v**2 * chi_prime * chi_second / root)


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


def osc_path_correction(mode, sys, r_bar):
    """Field part q - r_bar of the three-term oscillator path."""
    c_two, power, c_three = _osc_series(mode, sys)
    env = math.exp(-sys.alpha * r_bar * r_bar)
    return c_two * r_bar**power * env + c_three * r_bar**5 * env


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


def cartesian_components_2p0(sys, a_ha, r, theta, phi):
    """Cartesian composite coordinates of the 2p0 dressing, with
    beta = (a^2/8pi) e^(-Zr/a0): qx = x (1 + beta sin^2 theta), qy likewise,
    qz = z (1 + beta (2 + sin^2 theta))."""
    beta = a_ha**2 * math.exp(-sys.z * r / sys.a0) / (8.0 * math.pi)
    s = math.sin(theta)
    x = r * s * math.cos(phi)
    y = r * s * math.sin(phi)
    z = r * math.cos(theta)
    fac_xy = 1.0 + beta * s * s
    return x * fac_xy, y * fac_xy, z * (1.0 + beta * (2.0 + s * s))


def sweep_speed(sys, n, l, m_l, a_ha, r, theta, theta_dot, exact=False):
    """Composite speed r theta_dot sqrt(1 + u) of an orbit dressed with the
    field of amplitude a_ha of the l <= 1 state (n, l, m_l),
    u = a_ha^2 bare^2 S'^2 / (2 pi r^2); the linearized r theta_dot
    (1 + u/2) unless exact."""
    if l == 0:
        slope = 0.0
    elif m_l == 0:
        slope = -math.sqrt(6.0) / 2.0 * math.sin(theta)
    else:
        slope = math.sqrt(3.0) / 2.0 * math.cos(theta)
    bare = bare_radial(sys, n, l, r)
    u = a_ha**2 * bare**2 * slope**2 / (2.0 * math.pi * r**2)
    base = r * theta_dot
    if exact:
        return base * math.sqrt(1.0 + u)
    return base * (1.0 + 0.5 * u)


def bare_radial(sys, n, l, r):
    """Unnormalized hydrogen radial profile, r^l factor kept in meters."""
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
    return r * r * math.exp(-sigma / 3.0)


def normalized_radial(sys, n, l, r):
    """Unit-normalized hydrogen radial function R_{n,l}."""
    za = sys.z / sys.a0
    bare = bare_radial(sys, n, l, r)
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


def flux(field, x, t):
    """Probability flux (hbar/m) Im(Psi* dPsi/dx)."""
    return HBAR / field.m * (field.value(x, t).conjugate() * field.d_dx(x, t)).imag


def continuity_residual(field, x, t, h_x, h_t):
    """Central-difference d rho/dt + d j/dx."""
    drho_dt = (abs(field.value(x, t + h_t)) ** 2
               - abs(field.value(x, t - h_t)) ** 2) / (2.0 * h_t)
    dj_dx = (flux(field, x + h_x, t) - flux(field, x - h_x, t)) / (2.0 * h_x)
    return drho_dt + dj_dx


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table_text(fmt, meta, columns, rows):
    """Whole text of a CSV or JSON table, as the CLI built it before it
    streamed its tables in row blocks."""
    if fmt == "csv":
        lines = [f"# {key}={_fmt(value)}" for key, value in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(map(repr, row)))
        return "\n".join(lines) + "\n"
    return json.dumps({"meta": dict(meta), "columns": list(columns),
                       "rows": [list(row) for row in rows]},
                      indent=2, sort_keys=True) + "\n"


def grid(lo, hi, n):
    """n points from lo to hi, the last one lo + step * (n - 1)."""
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def box_grid(lo, hi, n):
    """grid with its last point hi itself, which rounding can overshoot or
    fall short of."""
    xs = grid(lo, hi, n)
    xs[-1] = hi
    return xs


_ELECTRON_MASS = 9.1093837015e-31

# subcommand -> ((key, converter name, default), ...) in --help order.
CLI_OPTIONS = {
    "box-figure": (("grid", "grid_points", 1000), ("format", "output_format", "csv"),
                   ("a", "finite_float", 2e-9), ("mass", "finite_float", _ELECTRON_MASS),
                   ("ratios", "ratio_list", (1.5, 1.45, 1.40))),
    "osc-trajectory": (("grid", "grid_points", 1000), ("format", "output_format", "csv"),
                       ("alpha", "finite_float", 1e20), ("n", "int", 1),
                       ("mu", "finite_float", _ELECTRON_MASS),
                       ("amplitude", "finite_float", None)),
    "hydrogen-figure": (("grid", "grid_points", 1000), ("format", "output_format", "csv"),
                        ("z", "finite_float", 1.0), ("mu", "finite_float", _ELECTRON_MASS),
                        ("a_ha", "finite_float", 0.1), ("r", "finite_float", None)),
    "spectrum": (("format", "output_format", "csv"), ("a", "finite_float", 2e-9),
                 ("mass", "finite_float", _ELECTRON_MASS), ("eps", "finite_float", 0.0),
                 ("ratio", "finite_float", 1.5), ("levels", "level_count", 5)),
    "flux-check": (("grid", "grid_points", 1000), ("format", "output_format", "csv"),
                   ("a", "finite_float", 2e-9), ("mass", "finite_float", _ELECTRON_MASS)),
    "verify": (("inject_error", "boolean", False),),
}


def cli_parser():
    parser = argparse.ArgumentParser(
        prog="pfield", allow_abbrev=False,
        description="Particle-field composite data sets and verification.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, runner in cli._COMMANDS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} command", allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value option file")
        sub.add_argument("--out", help="output directory (default: "
                                       "$OUTPUT_DIR or the working directory)")
        for key, (conv, default) in cli._options(runner).items():
            flag = "--" + key.replace("_", "-")
            if key == "inject_error":
                sub.add_argument(flag, action="store_true", default=None,
                                 help="scale outputs by 1%% as a negative "
                                      "control; the run must then fail")
            else:
                sub.add_argument(flag, type=conv,
                                 help=f"{key} (default {default})")
    return parser
