"""Harmonic trap: levels, thresholds, field profiles, composite paths."""

from __future__ import annotations

import math

import pytest

import _reference as ref
from pfield import cli, oracle, oscillator
from pfield.core import ELECTRON_MASS, HBAR

ALPHA = 1e20  # m^-2, electron-scale trap


def _system(cap_l: float | None = None, alpha: float = ALPHA) -> oscillator.OscSystem:
    omega0 = alpha * HBAR / ELECTRON_MASS
    if cap_l is None:
        cap_l = 1.5 / math.sqrt(alpha)
    return oscillator.OscSystem(mu=ELECTRON_MASS, omega0=omega0, cap_l=cap_l)


def test_alpha_property():
    sys = _system()
    assert sys.alpha == pytest.approx(ALPHA, rel=1e-14)


def test_make_mode_energies():
    sys = _system()
    mode = oscillator.make_mode(sys, 2, amplitude=1e-10)
    assert mode.e_n == pytest.approx(2.5 * HBAR * sys.omega0, rel=1e-14)
    assert mode.e_mu == pytest.approx(
        0.5 * sys.mu * sys.omega0**2 * sys.cap_l**2, rel=1e-14)
    assert mode.e_field == pytest.approx(mode.e_n - mode.e_mu, rel=1e-13)


def test_make_mode_allows_negative_field_energy():
    # amplitude beyond the threshold: the classical share exceeds e_n
    big = 2.0 * oscillator.classical_threshold(_system(), 0)
    sys = _system(cap_l=big)
    mode = oscillator.make_mode(sys, 0, amplitude=1e-10)
    assert mode.e_field < 0.0


def test_make_mode_default_amplitude():
    sys = _system()
    mode = oscillator.make_mode(sys, 1)
    assert mode.a_osc == oscillator.amplitude_estimate(sys, 1)


def test_classical_threshold_zeroes_field_energy():
    for n in (0, 1, 3):
        cap = oscillator.classical_threshold(_system(), n)
        sys = _system(cap_l=cap)
        mode = oscillator.make_mode(sys, n, amplitude=1e-10)
        assert abs(mode.e_field) <= 1e-12 * mode.e_n
    with pytest.raises(ValueError):
        oscillator.classical_threshold(_system(), -1)


def test_threshold_suppression_values():
    assert oscillator.threshold_suppression(0) == pytest.approx(math.exp(-1.0))
    assert oscillator.threshold_suppression(50) == pytest.approx(
        1.368539471173853e-44, rel=1e-12)
    with pytest.raises(ValueError):
        oscillator.threshold_suppression(-1)


def test_classical_motion_conserves_energy():
    sys = _system()
    cap = 1e-10
    e_ref = 0.5 * sys.mu * sys.omega0**2 * cap**2
    for t_frac in (0.0, 0.13, 0.77, 2.4):
        r, p = oscillator.classical_motion(sys, cap, 0.3, t_frac / sys.omega0)
        e = p**2 / (2.0 * sys.mu) + 0.5 * sys.mu * sys.omega0**2 * r**2
        assert e == pytest.approx(e_ref, rel=1e-12)
    r0, p0 = oscillator.classical_motion(sys, cap, 0.0, 0.0)
    assert r0 == cap and p0 == 0.0
    with pytest.raises(ValueError):
        oscillator.classical_motion(sys, 0.0, 0.0, 0.0)


def _field(mode, sys, r_bar):
    """The field column chi of the osc-trajectory kernel at one r_bar."""
    [(_, _, _, chi)] = oscillator.figure_rows(mode, sys, [r_bar])
    return chi


def _hermite_2_field(mode, sys, r_bar):
    """a_osc H_2(u) e^(-u^2/2) with u = sqrt(alpha) r_bar and H_2(u) = 4u^2 - 2."""
    u = math.sqrt(sys.alpha) * r_bar
    return mode.a_osc * (4.0 * u * u - 2.0) * math.exp(-0.5 * u * u)


def test_radial_field_profiles():
    sys = _system()
    a = 1e-10
    r = 0.6 / math.sqrt(ALPHA)
    env = math.exp(-0.5 * sys.alpha * r * r)
    m0 = oscillator.make_mode(sys, 0, amplitude=a)
    assert _field(m0, sys, r) == pytest.approx(a * env, rel=1e-14)
    m1 = oscillator.make_mode(sys, 1, amplitude=a)
    assert _field(m1, sys, r) == pytest.approx(a * r * env, rel=1e-14)
    # n = 2 goes through the Hermite recurrence: H_2 = 4u^2 - 2, H_1 = 2u
    m2 = oscillator.make_mode(sys, 2, amplitude=a)
    u = math.sqrt(sys.alpha) * r
    assert oscillator.radial_field_slope(m2, sys, r) == pytest.approx(
        a * math.sqrt(sys.alpha) * (8.0 * u - u * (4.0 * u * u - 2.0)) * env, rel=1e-13)


def test_radial_field_slope_matches_finite_difference():
    sys = _system()
    h = 1e-13
    for n, field in ((0, _field), (1, _field), (2, _hermite_2_field)):
        mode = oscillator.make_mode(sys, n, amplitude=1e-10)
        for r in (0.0, 0.4e-10, 0.9e-10):
            fd = oracle.finite_diff(lambda s: field(mode, sys, s), r, h, order=1)
            slope = oscillator.radial_field_slope(mode, sys, r)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-12 * abs(mode.a_osc))


def test_kinetic_field_turning_points_and_domain():
    sys = _system()
    mode = oscillator.make_mode(sys, 1, l=1, m_l=0, amplitude=1e-10)
    assert oscillator.kinetic_field(mode, sys, sys.cap_l, 0.3) == 0.0
    assert oscillator.kinetic_field(mode, sys, -sys.cap_l, 0.3) == 0.0
    with pytest.raises(ValueError):
        oscillator.kinetic_field(mode, sys, 1.01 * sys.cap_l, 0.3)


def test_kinetic_field_angular_weight():
    sys = _system()
    a = 1e-10
    mode = oscillator.make_mode(sys, 1, l=1, m_l=0, amplitude=a)
    # slope at the center is a_osc; S_10 = sqrt(6)/2 cos(theta)
    base = 0.5 * sys.mu * sys.omega0**2 * sys.cap_l**2 * a**2 / (2.0 * math.pi)
    at_pole = oscillator.kinetic_field(mode, sys, 0.0, 0.0)
    assert at_pole == pytest.approx(base * 6.0 / 4.0, rel=1e-13)
    at_equator = oscillator.kinetic_field(mode, sys, 0.0, 0.5 * math.pi)
    assert at_equator <= 1e-30 * at_pole


def test_trajectory_slope_sq_forms():
    # the path integrand is sqrt(1 + w/4pi); recover w from it
    sys = _system()
    a = 1e-10
    r = 0.5e-10

    def slope_sq(n, r_bar):
        f = oscillator.path_integrand(oscillator.make_mode(sys, n, amplitude=a), sys)
        return 4.0 * math.pi * (f(r_bar) ** 2 - 1.0)

    assert slope_sq(0, r) == pytest.approx(
        0.5 * (a * sys.alpha * r)**2 * math.exp(-sys.alpha * r * r), rel=1e-12)
    assert slope_sq(1, 0.0) == pytest.approx(0.5 * a * a * sys.alpha, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("alpha", [ALPHA, 3.7e19])
def test_path_integrand_matches_slope_bit_for_bit(n, alpha):
    sys = _system(cap_l=math.sqrt(101.0 / alpha), alpha=alpha)
    mode = oscillator.make_mode(sys, n)
    integrand = oscillator.path_integrand(mode, sys)
    grid = [sys.cap_l * (i / 64.0 - 1.0) for i in range(129)]
    assert 0.0 in grid and grid[0] == -sys.cap_l and grid[-1] == sys.cap_l
    for r in grid:
        w = ref.osc_slope_sq(mode, sys, r)
        assert integrand(r) == math.sqrt(1.0 + w / (4.0 * math.pi))


def test_path_integrand_rejects_untabulated_level():
    sys = _system()
    with pytest.raises(ValueError):
        oscillator.path_integrand(oscillator.make_mode(sys, 2, amplitude=1e-10), sys)


def test_trajectory_odd_and_consistent():
    sys = _system()
    mode = oscillator.make_mode(sys, 1, amplitude=1e-10)
    r = 0.8e-10
    (_, q_two, q, _), (_, q_two_neg, q_neg, _) = oscillator.figure_rows(mode, sys, [r, -r])
    assert (q_two_neg, q_neg) == (-q_two, -q)
    assert q == r + oscillator.path_correction(mode, sys, r)
    # the turning point itself is inside the domain
    oscillator.figure_rows(mode, sys, [sys.cap_l])
    oscillator.path_correction(mode, sys, sys.cap_l)
    with pytest.raises(ValueError):
        oscillator.path_correction(mode, sys, 1.01 * sys.cap_l)


def test_path_correction_resolves_subulp_terms():
    """Near the envelope tail the correction is far below one ulp of r."""
    cap = oscillator.classical_threshold(_system(), 50)
    sys = _system(cap_l=cap)
    mode = oscillator.make_mode(sys, 0, amplitude=1e-9)
    dq = oscillator.path_correction(mode, sys, cap)
    assert 0.0 < dq < 1e-20 * cap
    # folded into the sum it vanishes entirely
    [(_, _, q, _)] = oscillator.figure_rows(mode, sys, [cap])
    assert q == cap


@pytest.mark.parametrize("aa_sq,n,dev2_max,dev3_max", [
    (0.25, 0, 4.0e-4, 1.1e-4),
    (0.25, 1, 6.0e-4, 1.6e-4),
    (1.00, 0, 1.6e-3, 4.2e-4),
    (1.00, 1, 2.4e-3, 5.6e-4),
])
def test_trajectory_against_oracle(aa_sq, n, dev2_max, dev3_max):
    """Both truncations track the quadrature path; three terms track closer."""
    sys = _system()
    mode = oscillator.make_mode(sys, n, amplitude=math.sqrt(aa_sq / ALPHA))
    r = 1.0 / math.sqrt(ALPHA)
    scale = math.sqrt(ALPHA)
    q_oracle = oracle.exact_osc_trajectory(mode, sys, r)
    [(_, q_two, q_three, _)] = oscillator.figure_rows(mode, sys, [r])
    dev2 = abs(q_two - q_oracle) * scale
    dev3 = abs(q_three - q_oracle) * scale
    assert dev2 <= dev2_max
    assert dev3 <= dev3_max
    assert dev3 < dev2


def test_amplitude_estimate_window_and_closed_form():
    # within half a decade of alpha = 1e20 the tabulated pair is served
    assert oscillator.amplitude_estimate(_system(alpha=1e20), 0) == 1e-9
    assert oscillator.amplitude_estimate(_system(alpha=1e20), 1) == 1e-10
    assert oscillator.amplitude_estimate(_system(alpha=10**19.6), 1) == 1e-10
    # outside, the one-percent path-deviation rule applies
    sys18 = _system(alpha=1e18)
    coeff = (1.0 / (16.0 * math.pi) + 1.0 / (80.0 * math.pi)) / math.e
    a1 = math.sqrt(0.01 / (sys18.alpha * coeff))
    assert oscillator.amplitude_estimate(sys18, 1) == a1
    assert oscillator.amplitude_estimate(sys18, 0) == 10.0 * a1
    # the tabulated value agrees with the rule to better than a factor 2
    a1_rule = math.sqrt(0.01 / (1e20 * coeff))
    assert 0.5 < a1_rule / 1e-10 < 2.0
    with pytest.raises(ValueError):
        oscillator.amplitude_estimate(_system(), 2)


@pytest.mark.parametrize("alpha", [1e20, 3e19, 10.0 ** 20.37, 7.5e20])
@pytest.mark.parametrize("mu", [ELECTRON_MASS, 1.6726e-27])
def test_system_at_alpha_matches_hand_construction(alpha, mu):
    omega0 = alpha * HBAR / mu
    cap_l = math.sqrt(101.0 / alpha)
    expected = oscillator.OscSystem(mu=mu, omega0=omega0, cap_l=cap_l)
    assert oscillator.system_at_alpha(alpha, mu) == expected
    # cap_l is the n = 50 threshold amplitude
    assert cap_l == pytest.approx(oscillator.classical_threshold(expected, 50),
                                  rel=1e-14)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("alpha", [ALPHA, 3.7e19])
@pytest.mark.parametrize("amplitude", [None, 3e-10])
@pytest.mark.parametrize("grid", [2, 257])
def test_figure_rows_match_point_functions_bit_for_bit(n, alpha, amplitude, grid):
    sys = oscillator.system_at_alpha(alpha, ELECTRON_MASS)
    mode = oscillator.make_mode(sys, n, amplitude=amplitude)
    r_max = 5.0 / math.sqrt(alpha)
    xs = cli._grid(-r_max, r_max, grid)
    rows = oscillator.figure_rows(mode, sys, xs)
    assert len(rows) == grid
    for r_bar, row in zip(xs, rows):
        assert row == (r_bar, ref.osc_path_two_term(mode, sys, r_bar),
                       ref.osc_path_three_term(mode, sys, r_bar),
                       ref.osc_field(mode, sys, r_bar))


@pytest.mark.parametrize("bad", ["beyond", -math.inf, math.nan])
def test_figure_rows_reject_a_grid_beyond_the_turning_points(bad):
    sys = _system()
    mode = oscillator.make_mode(sys, 1, amplitude=1e-10)
    if bad == "beyond":
        bad = math.nextafter(-sys.cap_l, -math.inf)
    with pytest.raises(ValueError, match="grid leaves the classical interval"):
        oscillator.figure_rows(mode, sys, [0.0, bad])


def test_figure_rows_reject_untabulated_level():
    sys = _system()
    mode = oscillator.make_mode(sys, 2, amplitude=1e-10)
    with pytest.raises(ValueError, match="path series not tabulated for n=2"):
        oscillator.figure_rows(mode, sys, [0.0])
