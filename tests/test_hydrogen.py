"""Coulomb orbits and field-dressed states of hydrogen-like atoms."""

from __future__ import annotations

import math

import pytest

import _reference as ref
from pfield import _angular, cli, hydrogen, oracle
from pfield.core import BOHR_RADIUS, ELECTRON_MASS, HBAR

EV = 1.602176634e-19

SYS = hydrogen.HydrogenSystem(z=1.0, mu=ELECTRON_MASS)


def test_system_validation_and_a0():
    assert SYS.a0 == BOHR_RADIUS
    assert SYS.a0 == pytest.approx(5.29177210903e-11, rel=1e-9)
    with pytest.raises(ValueError):
        hydrogen.HydrogenSystem(z=0.5, mu=ELECTRON_MASS)
    with pytest.raises(ValueError):
        hydrogen.HydrogenSystem(z=1.0, mu=0.0)


def test_circular_orbit_at_bohr_radius():
    orb = hydrogen.circular_orbit(SYS, SYS.a0)
    assert orb.v == pytest.approx(2187691.263636476, rel=1e-9)
    assert orb.e_mu / EV == pytest.approx(-13.605693122885832, rel=1e-9)
    assert orb.l_c == pytest.approx(HBAR, rel=1e-12)
    assert orb.l_c == pytest.approx(SYS.mu * orb.v * orb.r, rel=1e-13)
    assert orb.theta_dot == pytest.approx(orb.v / orb.r, rel=1e-13)
    assert orb.e_mu == pytest.approx(-0.5 * SYS.mu * orb.v**2, rel=1e-13)


def test_level_energy_scaling():
    e1 = hydrogen.level_energy(SYS, 1)
    assert e1 / EV == pytest.approx(-13.605693122885832, rel=1e-9)
    assert hydrogen.level_energy(SYS, 3) == pytest.approx(e1 / 9.0, rel=1e-13)
    helium = hydrogen.HydrogenSystem(z=2.0, mu=ELECTRON_MASS)
    assert hydrogen.level_energy(helium, 1) == pytest.approx(4.0 * e1, rel=1e-13)


def test_make_state_validation():
    st = hydrogen.make_state(SYS, 2, 1, m_l=-1)
    assert st.e_n == hydrogen.level_energy(SYS, 2)
    for n, l, m in ((0, 0, 0), (4, 0, 0), (2, 2, 0), (2, 1, 2)):
        with pytest.raises(ValueError):
            hydrogen.make_state(SYS, n, l, m_l=m)


def test_field_energy_sign_structure():
    st = hydrogen.make_state(SYS, 2, 0)
    r_zero = 4.0 * SYS.a0          # n^2 a0 / Z
    assert hydrogen.field_energy(SYS, st, r_zero) == pytest.approx(0.0, abs=1e-40)
    assert hydrogen.field_energy(SYS, st, 0.5 * r_zero) > 0.0
    assert hydrogen.field_energy(SYS, st, 2.0 * r_zero) < 0.0


def test_radial_field_closed_forms():
    za = SYS.z / SYS.a0
    # 2p: r exp(-Z r / 2 a0) times its normalization
    for r in (0.4 * SYS.a0, 1.3 * SYS.a0, 6.0 * SYS.a0):
        assert hydrogen.normalized_radial(SYS, 2, 1, r) == pytest.approx(
            za**2.5 / (2.0 * math.sqrt(6.0)) * r * math.exp(-0.5 * za * r), rel=1e-13)
    assert hydrogen.normalized_radial(SYS, 1, 0, 0.0) == 2.0 * za**1.5
    # 3s node near sigma = 1.9
    assert hydrogen.normalized_radial(SYS, 3, 0, 1.5 * SYS.a0) > 0.0
    assert hydrogen.normalized_radial(SYS, 3, 0, 2.5 * SYS.a0) < 0.0


@pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_normalized_radial_unit_norm(n, l):
    rmax = 30.0 * n * SYS.a0
    val = oracle.integrate(
        lambda r: hydrogen.normalized_radial(SYS, n, l, r)**2 * r * r, 0.0, rmax)
    assert val == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 2)])
def test_mean_inv_r_and_energies(n, l):
    assert hydrogen.mean_inv_r(SYS, n, l) == pytest.approx(
        1.0 / (SYS.a0 * n * n), rel=1e-9)
    e_n = hydrogen.level_energy(SYS, n)
    assert hydrogen.mean_orbit_energy(SYS, n, l) == pytest.approx(e_n, rel=1e-8)
    assert abs(e_n - hydrogen.mean_orbit_energy(SYS, n, l)) <= 1e-10 * abs(e_n)


@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_theta_factor_normalized(l, m):
    val = oracle.integrate(
        lambda th: _angular.theta_factor(l, m, th)**2 * math.sin(th),
        0.0, math.pi)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_theta_factor_slope():
    h = 1e-7
    for l, m in ((1, 0), (2, 1), (2, 2)):
        fd = oracle.finite_diff(
            lambda th: _angular.theta_factor(l, m, th), 0.8, h, order=1)
        assert _angular.theta_factor_slope(l, m, 0.8) == pytest.approx(fd, rel=1e-6)
    with pytest.raises(ValueError):
        _angular.theta_factor(3, 0, 0.5)
    with pytest.raises(ValueError):
        _angular.theta_factor(1, 2, 0.5)


def test_pf_velocity_s_state_is_bare():
    st = hydrogen.make_state(SYS, 2, 0)
    td = hydrogen.circular_orbit(SYS, SYS.a0).theta_dot
    assert hydrogen.pf_velocity(SYS, st, SYS.a0, 0.7, td) == SYS.a0 * td


def test_pf_velocity_2p_corrections():
    a_ha = 0.1
    td = hydrogen.circular_orbit(SYS, SYS.a0).theta_dot
    base = SYS.a0 * td
    p0 = hydrogen.make_state(SYS, 2, 1, m_l=0, a_ha=a_ha)
    # poles carry no sweep for m = 0; equator the full (3/8pi) a^2 e^-sigma
    assert hydrogen.pf_velocity(SYS, p0, SYS.a0, 0.0, td) == base
    v_eq = hydrogen.pf_velocity(SYS, p0, SYS.a0, 0.5 * math.pi, td)
    assert v_eq / base - 1.0 == pytest.approx(
        3.0 / (8.0 * math.pi) * a_ha**2 * math.exp(-1.0), rel=1e-10)
    p1 = hydrogen.make_state(SYS, 2, 1, m_l=1, a_ha=a_ha)
    assert hydrogen.pf_velocity(SYS, p1, SYS.a0, 0.5 * math.pi, td) == base
    v_pole = hydrogen.pf_velocity(SYS, p1, SYS.a0, 0.0, td)
    assert v_pole / base - 1.0 == pytest.approx(
        3.0 / (16.0 * math.pi) * a_ha**2 * math.exp(-1.0), rel=1e-10)
    # exact speed never exceeds the linearized one
    v_exact = hydrogen.pf_velocity(SYS, p0, SYS.a0, 0.5 * math.pi, td, exact=True)
    assert 0.0 < v_eq - v_exact < hydrogen.approximation_gap(a_ha) * base
    with pytest.raises(ValueError):
        hydrogen.pf_velocity(SYS, p0, 0.0, 0.5, td)


def test_approximation_gap_quartic():
    assert hydrogen.approximation_gap(0.1) == pytest.approx(
        7.115654570011287e-7, rel=1e-9)
    ratio = hydrogen.approximation_gap(0.1) / hydrogen.approximation_gap(0.05)
    assert 15.5 <= ratio <= 16.05
    with pytest.raises(ValueError):
        hydrogen.approximation_gap(0.0)


def _p0_radius(a_ha, r, theta):
    """The p0 orbit radius q = r (q_p0/r) from the hydrogen-figure kernel."""
    [(_, p0, _)] = hydrogen.figure_rows(SYS, a_ha, r, [theta])
    return r * p0


def test_orbit_2p_cross_sections():
    a_ha = 0.1
    r = SYS.a0
    (_, p0_pole, p1_pole), (_, p0_eq, p1_eq) = hydrogen.figure_rows(
        SYS, a_ha, r, [0.0, 0.5 * math.pi])
    assert p0_pole == pytest.approx(1.0002927491576217, rel=1e-12)
    assert p0_eq == pytest.approx(1.0001463745788108, rel=1e-12)
    assert p1_pole == pytest.approx(1.0000731872894053, rel=1e-12)
    assert p1_eq == pytest.approx(1.0001463745788108, rel=1e-12)
    # prolate for m = 0, oblate for |m| = 1
    assert p0_pole > p0_eq
    assert p1_pole < p1_eq
    # mirror symmetry across the equator
    (_, p0_north, p1_north), (_, p0_south, p1_south) = hydrogen.figure_rows(
        SYS, a_ha, r, [0.4, math.pi - 0.4])
    assert p0_north == pytest.approx(p0_south, rel=1e-13)
    assert p1_north == pytest.approx(p1_south, rel=1e-13)


def test_cartesian_components_match_orbit():
    a_ha = 0.1
    r = SYS.a0
    for theta in (0.3, 1.0, 2.2):
        qx, qy, qz = hydrogen.cartesian_components_2p0(SYS, a_ha, r, theta, 0.8)
        norm = math.sqrt(qx * qx + qy * qy + qz * qz)
        q = _p0_radius(a_ha, r, theta)
        assert abs(norm - q) / q <= 2e-8        # O(a_ha^4) mismatch
    # the gap closes quartically with the amplitude
    qx, qy, qz = hydrogen.cartesian_components_2p0(SYS, 0.01, r, 1.0, 0.8)
    small = abs(math.sqrt(qx**2 + qy**2 + qz**2)
                - _p0_radius(0.01, r, 1.0)) / r
    assert small <= 2e-12
    # on the axis only the z component survives
    qx0, qy0, qz0 = hydrogen.cartesian_components_2p0(SYS, a_ha, r, 0.0, 0.0)
    assert qx0 == 0.0 and qy0 == 0.0
    assert qz0 == pytest.approx(_p0_radius(a_ha, r, 0.0), rel=1e-12)



# nan and inf are covered with the other guards in test_core.
@pytest.mark.parametrize("call", [
    lambda v: hydrogen.figure_rows(SYS, v, SYS.a0, [0.3]),
    lambda v: hydrogen.cartesian_components_2p0(SYS, v, SYS.a0, 0.3, 0.2),
], ids=["figure_rows", "cartesian_components_2p0"])
@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_2p_orbits_reject_non_positive_amplitude(call, bad):
    call(0.1)
    with pytest.raises(ValueError, match="a_ha must be finite and positive"):
        call(bad)


@pytest.mark.parametrize("a_ha,r", [(0.1, SYS.a0), (0.2, 1.5e-10), (0.05, 3e-11)])
def test_cross_sections_2p_match_hand_construction(a_ha, r):
    expected = [
        (("p0", "polar"), ref.orbit_2p0(SYS, a_ha, r, 0.0) / r),
        (("p0", "equatorial"), ref.orbit_2p0(SYS, a_ha, r, 0.5 * math.pi) / r),
        (("pPlusMinus1", "polar"), ref.orbit_2p1(SYS, a_ha, r, 0.0) / r),
        (("pPlusMinus1", "equatorial"), ref.orbit_2p1(SYS, a_ha, r, 0.5 * math.pi) / r),
    ]
    assert list(hydrogen.cross_sections_2p(SYS, a_ha, r).items()) == expected


@pytest.mark.parametrize("z", [1.0, 3.0])
@pytest.mark.parametrize("a_ha,r", [(0.1, SYS.a0), (0.2, 1.5e-10), (0.05, 3e-11)])
@pytest.mark.parametrize("grid", [2, 257])
def test_figure_rows_match_point_functions_bit_for_bit(z, a_ha, r, grid):
    sys = hydrogen.HydrogenSystem(z=z, mu=ELECTRON_MASS)
    thetas = cli._grid(0.0, 2.0 * math.pi, grid)
    rows = hydrogen.figure_rows(sys, a_ha, r, thetas)
    assert len(rows) == grid
    for theta, row in zip(thetas, rows):
        assert row == (theta, ref.orbit_2p0(sys, a_ha, r, theta) / r,
                       ref.orbit_2p1(sys, a_ha, r, theta) / r)


@pytest.mark.parametrize("a_ha,r,theta,match", [
    (0.0, SYS.a0, 0.3, "a_ha must be finite and positive"),
    (math.nan, SYS.a0, 0.3, "a_ha must be finite and positive"),
    (0.1, -1e-10, 0.3, "r must be finite and positive"),
    (0.1, math.nan, 0.3, "r must be finite and positive"),
    (0.1, SYS.a0, math.nan, "grid of angles must be finite"),
    (0.1, SYS.a0, math.inf, "grid of angles must be finite"),
])
def test_figure_rows_reject_bad_parameters_and_angles(a_ha, r, theta, match):
    with pytest.raises(ValueError, match=match):
        hydrogen.figure_rows(SYS, a_ha, r, [0.0, theta])
