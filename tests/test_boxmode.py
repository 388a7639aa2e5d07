"""Box levels: mode data, energy budget, path series, composite kinematics."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import boxmode, cli, oracle
from pfield.core import ELECTRON_MASS, HBAR, energy_budget_check

A_BOX = 2e-9
M = ELECTRON_MASS


def _fixture(n: int = 1, ratio: float = 1.5):
    p_n = HBAR * n * math.pi / A_BOX
    sys = boxmode.BoxSystem(m=M, a=A_BOX, p_particle=p_n / math.sqrt(ratio))
    return sys, boxmode.make_mode(sys, n)


def test_system_validation():
    with pytest.raises(ValueError):
        boxmode.BoxSystem(m=0.0, a=A_BOX, p_particle=1e-25)
    with pytest.raises(ValueError):
        boxmode.BoxSystem(m=M, a=-1.0, p_particle=1e-25)
    with pytest.raises(ValueError):
        boxmode.BoxSystem(m=M, a=A_BOX, p_particle=0.0)


def test_make_mode_fields():
    sys, mode = _fixture()
    assert mode.n == 1
    assert mode.k_n == math.pi / A_BOX
    assert mode.p_n == HBAR * mode.k_n
    assert mode.e_n == mode.p_n**2 / (2.0 * M)
    assert mode.b_sq == pytest.approx(0.5, rel=1e-14)
    assert mode.g_npf == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert mode.a_n == pytest.approx(
        (HBAR / sys.p_particle) * math.sqrt(1.0 - 1.0 / 1.5), rel=1e-14)
    assert mode.a == A_BOX
    # slope amplitude identity A_n^2 k_n^2 = b^2
    assert mode.a_n**2 * mode.k_n**2 == pytest.approx(mode.b_sq, rel=1e-13)


def test_make_mode_bare_limit():
    # p_particle = p_n: zero field share, unit path normalization
    p_n = HBAR * math.pi / A_BOX
    sys = boxmode.BoxSystem(m=M, a=A_BOX, p_particle=p_n)
    mode = boxmode.make_mode(sys, 1)
    assert mode.b_sq == 0.0
    assert mode.a_n == 0.0
    assert mode.g_npf == 1.0


def test_make_mode_rejections():
    p_n = HBAR * math.pi / A_BOX
    sys = boxmode.BoxSystem(m=M, a=A_BOX, p_particle=2.0 * p_n)
    with pytest.raises(ValueError, match="superclassical"):
        boxmode.make_mode(sys, 1)
    sys = boxmode.BoxSystem(m=M, a=A_BOX, p_particle=p_n / math.sqrt(2.0))
    with pytest.raises(ValueError, match="series divergence"):
        boxmode.make_mode(sys, 1)
    sys = boxmode.BoxSystem(m=M, a=A_BOX, p_particle=p_n)
    with pytest.raises(ValueError):
        boxmode.make_mode(sys, 0)


def test_field_energy_budget():
    sys, mode = _fixture()
    b = boxmode.field_energy(mode, sys, 0.25 * A_BOX)
    assert energy_budget_check(b)
    assert b.e_field == pytest.approx(mode.e_n - b.e_particle, rel=1e-13)
    at_node = boxmode.field_energy(mode, sys, 0.0)
    assert at_node.k_field == pytest.approx(at_node.e_field, rel=1e-13)
    assert at_node.v_field == 0.0
    at_antinode = boxmode.field_energy(mode, sys, 0.5 * A_BOX)
    assert at_antinode.v_field == pytest.approx(at_antinode.e_field, rel=1e-13)
    assert abs(at_antinode.k_field) <= 1e-30 * at_antinode.e_field + 1e-60
    with pytest.raises(ValueError):
        boxmode.field_energy(mode, sys, -0.1 * A_BOX)


def _column(mode, sys, xs, index):
    """One column of the box-figure kernel on the grid xs."""
    return [row[index] for row in boxmode.figure_rows(mode, sys, xs)]


def test_field_profile():
    sys, mode = _fixture()
    at_wall0, at_antinode, at_wall = _column(mode, sys, [0.0, 0.5 * A_BOX, A_BOX], 3)
    assert at_wall0 == 0.0
    assert abs(at_wall) <= 1e-12 * mode.a_n
    assert at_antinode == pytest.approx(mode.a_n, rel=1e-14)
    assert boxmode.field_slope(mode, 0.0) == mode.a_n * mode.k_n
    with pytest.raises(ValueError):
        boxmode.field_slope(mode, 1.1 * A_BOX)


def test_wavefunction_normalized():
    sys, mode = _fixture(n=2, ratio=1.4)
    val = oracle.integrate(lambda x: _column(mode, sys, [x], 4)[0], 0.0, A_BOX)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_integrand_series_vs_exact():
    # worst case at cos^2 = 1: truncation after the eighth order in b
    series = boxmode.integrand_series(0.5, 0.0)
    exact = boxmode.integrand_exact(0.5, 0.0)
    assert series == 1.22412109375        # dyadic sum, exact float
    assert abs(series - exact) == pytest.approx(6.2378e-4, rel=1e-3)
    # at the antinode both sides are exactly 1
    half_pi = 0.5 * math.pi
    assert boxmode.integrand_series(0.5, half_pi) == pytest.approx(1.0, abs=1e-16)
    assert boxmode.integrand_exact(0.5, half_pi) == pytest.approx(1.0, abs=1e-16)
    with pytest.raises(ValueError):
        boxmode.integrand_series(1.0, 0.0)


def test_path_series_coefficients_at_half():
    # every term is dyadic at b^2 = 1/2, so the sums are exact floats
    c1, c2, c3 = boxmode.path_series_coefficients(0.5)
    assert c1 == 1.1150550842285156
    assert c2 == 0.0559844970703125
    assert c3 == 0.000743865966796875
    with pytest.raises(ValueError):
        boxmode.path_series_coefficients(-0.1)
    with pytest.raises(ValueError):
        boxmode.path_series_coefficients(1.0)


def _both_paths(mode, sys, xs):
    """The quadratic path of the box-figure kernel and the eighth-order path on xs."""
    return _column(mode, sys, xs, 1), [boxmode.eighth_order_path(mode, x) for x in xs]


def test_trajectory_series_wall_pins():
    sys, mode = _fixture()
    for q0, qa in _both_paths(mode, sys, [0.0, A_BOX]):
        assert q0 == 0.0
        assert abs(qa - A_BOX) <= 1e-12 * A_BOX


def test_trajectory_series_quadratic_peak():
    sys, mode = _fixture()
    x = 0.25 * A_BOX                       # sin(2kx) = 1
    excess = _column(mode, sys, [x], 1)[0] - x
    target = mode.b_sq / (mode.b_sq + 4.0) / (2.0 * mode.k_n)
    assert excess == pytest.approx(target, rel=1e-12)


def test_trajectory_series_monotone():
    sys, mode = _fixture(n=2, ratio=1.9)
    for qs in _both_paths(mode, sys, [i * A_BOX / 200.0 for i in range(201)]):
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_trajectory_matches_oracle():
    sys, mode = _fixture()
    c1, _, _ = boxmode.path_series_coefficients(mode.b_sq)
    worst = 0.0
    for i in range(1, 32):
        x = i * A_BOX / 32.0
        q_series = boxmode.eighth_order_path(mode, x)
        q_oracle = oracle.exact_box_trajectory(mode, x, g=1.0 / c1)
        worst = max(worst, abs(q_series - q_oracle) / A_BOX)
    assert worst <= 2e-4                   # measured 1.41e-4 over the fine grid


def test_velocity_extrema():
    sys, mode = _fixture()
    v_p = sys.p_particle / M
    at_node = boxmode.velocity(mode, 0.0, v_p)
    at_antinode = boxmode.velocity(mode, 0.5 * A_BOX, v_p)
    assert at_node == pytest.approx(
        mode.g_npf * v_p * math.sqrt(1.0 + mode.b_sq), rel=1e-14)
    assert at_antinode == pytest.approx(mode.g_npf * v_p, rel=1e-14)
    assert at_node > at_antinode


def test_acceleration_zeros_and_sign():
    sys, mode = _fixture()
    v_p = sys.p_particle / M
    scale = mode.g_npf * v_p**2 * 0.5 * mode.b_sq * mode.k_n
    assert boxmode.pf_acceleration(mode, 0.0, v_p) == 0.0
    assert abs(boxmode.pf_acceleration(mode, 0.5 * A_BOX, v_p)) <= 1e-12 * scale
    # field drags the composite toward the antinode
    assert boxmode.pf_acceleration(mode, 0.25 * A_BOX, v_p) < 0.0
    assert boxmode.pf_acceleration(mode, 0.75 * A_BOX, v_p) > 0.0


def test_acceleration_against_oracle_curvature():
    sys, mode = _fixture()
    v_p = sys.p_particle / M
    x = 0.25 * A_BOX
    acc = boxmode.pf_acceleration(mode, x, v_p)

    def q(s: float) -> float:
        return oracle.exact_box_trajectory(mode, s)

    devs = [abs(v_p**2 * oracle.finite_diff(q, x, h, order=2) - acc) / abs(acc)
            for h in (A_BOX / 400.0, A_BOX / 800.0)]
    assert devs[1] <= 1e-5                 # measured 4.99e-6
    assert 3.5 <= devs[0] / devs[1] <= 4.5


def test_series_curvature_misses_arclength_factor():
    """d^2/dx^2 of the closed-form path lacks 1/sqrt(1 + chi'^2).

    The series differentiates q(x), not q(t); the two curvatures differ
    by exactly the local arclength factor.
    """
    sys, mode = _fixture()
    v_p = sys.p_particle / M
    x = 0.25 * A_BOX
    acc = boxmode.pf_acceleration(mode, x, v_p)

    def q(s: float) -> float:
        return _column(mode, sys, [s], 1)[0]

    fd = v_p**2 * oracle.finite_diff(q, x, A_BOX / 2000.0, order=2)
    factor = boxmode.integrand_exact(mode.b_sq, mode.k_n * x)
    assert fd / acc == pytest.approx(factor, rel=1e-3)


@pytest.mark.parametrize("n,ratio", [(1, 1.5), (2, 1.05), (3, 1.95)])
def test_path_integrand_matches_integrand_exact_bit_for_bit(n, ratio):
    sys, mode = _fixture(n, ratio)
    integrand = boxmode.path_integrand(mode)
    for i in range(257):
        x = sys.a * i / 256.0
        assert integrand(x) == boxmode.integrand_exact(mode.b_sq, mode.k_n * x)


@pytest.mark.parametrize("a", [2e-9, 2.917e-09, 3.6400000000000003e-09])
@pytest.mark.parametrize("n,ratio", [(1, 1.0), (1, 1.5), (2, 1.45), (3, 1.4),
                                     (7, 1.9999999999999998)])
def test_level_at_ratio_matches_hand_construction(a, n, ratio):
    p_n = HBAR * n * math.pi / a
    sys = boxmode.BoxSystem(m=M, a=a, p_particle=p_n / math.sqrt(ratio))
    assert boxmode.level_at_ratio(M, a, n, ratio) == (sys, boxmode.make_mode(sys, n))


@pytest.mark.parametrize("ratio", [0.99, 2.0])
def test_level_at_ratio_rejects_ratio_outside_range(ratio):
    with pytest.raises(ValueError, match=r"ratio for n=1 must lie in \[1, 2\)"):
        boxmode.level_at_ratio(M, A_BOX, 1, ratio)


def _level_at_ratio_uncapped(m, a, n, ratio):
    """level_at_ratio as it was before p_particle was capped at make_mode's p_n."""
    p_n = HBAR * n * math.pi / a
    sys = boxmode.BoxSystem(m=m, a=a, p_particle=p_n / math.sqrt(ratio))
    return sys, boxmode.make_mode(sys, n)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-9, 4e-9), n=st.integers(1, 3),
       ratio=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
def test_level_at_ratio_cap_leaves_ratios_above_one_unchanged(a, n, ratio):
    def outcome(build):
        try:
            return build(M, a, n, ratio)
        except ValueError as exc:
            return str(exc)

    got = outcome(boxmode.level_at_ratio)
    expected = outcome(_level_at_ratio_uncapped)
    if isinstance(expected, str) and expected.startswith("superclassical"):
        # sqrt(ratio) rounded to 1: the uncapped form met the bare limit's ulp
        assert got[1].b_sq < 1e-15
    elif isinstance(expected, str) and expected.startswith("series divergence"):
        # (p_n/p_particle)**2 rounded up to 2 just below it: nudged back under
        assert got[1].b_sq < 1.0
    else:
        assert got == expected


@pytest.mark.parametrize("ratio", [1.9999999999999996, 1.9999999999999998])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_at_ratio_just_below_two(n, ratio):
    # make_mode's (p_n/p_particle)**2 rounds up to 2.0 at this width unless
    # p_particle is nudged up; the nudge is a few ulps at most
    a = 2.2633223641900492e-09
    sys, mode = boxmode.level_at_ratio(M, a, n, ratio)
    assert mode.b_sq < 1.0
    p_particle = HBAR * n * math.pi / a / math.sqrt(ratio)
    for _ in range(boxmode._RATIO_NUDGE_ULPS):
        p_particle = math.nextafter(p_particle, math.inf)
    assert p_particle >= sys.p_particle >= HBAR * n * math.pi / a / math.sqrt(ratio)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-9, 4e-9), n=st.integers(1, 3))
@example(a=2.8041268172117018e-09, n=3)
def test_level_at_ratio_reaches_the_bare_limit(a, n):
    # HBAR*n*pi/a can round an ulp above make_mode's HBAR*(n*pi/a)
    sys, mode = boxmode.level_at_ratio(M, a, n, 1.0)
    assert sys.p_particle <= mode.p_n
    assert mode.b_sq < 1e-15


def test_mode_wall_is_the_system_width():
    # n pi / k_n misses a by an ulp here; the wall is a itself
    a = 2.917e-09
    sys, mode = boxmode.level_at_ratio(M, a, 1, 1.5)
    assert mode.n * math.pi / mode.k_n < a
    assert _column(mode, sys, [a], 1)[0] == pytest.approx(a, rel=1e-12)
    with pytest.raises(ValueError, match="outside the box"):
        boxmode.field_slope(mode, math.nextafter(a, 1.0))


@pytest.mark.parametrize("a", [2.917e-09, 3.64e-09])
@pytest.mark.parametrize("grid", [2, 257])
@pytest.mark.parametrize("n,ratio", [(1, 1.5), (2, 1.05), (3, 1.95)])
def test_figure_rows_match_point_functions_bit_for_bit(a, grid, n, ratio):
    sys, mode = boxmode.level_at_ratio(M, a, n, ratio)
    xs = cli._box_grid(0.0, a, grid)
    slope0 = 1.0 + mode.b_sq / (mode.b_sq + 4.0)
    rows = boxmode.figure_rows(mode, sys, xs)
    assert len(rows) == grid
    for x, row in zip(xs, rows):
        q = ref.box_path_quadratic(mode, x)
        assert row == (x, q, q / x if x > 0.0 else slope0, ref.box_field(mode, x),
                       ref.box_wavefunction(mode, sys, x) ** 2, x)


@pytest.mark.parametrize("bad", [-1e-30, "above", math.nan])
def test_figure_rows_reject_a_grid_outside_the_box(bad):
    sys, mode = _fixture()
    if bad == "above":
        bad = math.nextafter(A_BOX, 1.0)
    xs = [0.0, 0.5 * A_BOX, bad, A_BOX]
    with pytest.raises(ValueError, match="grid leaves the box"):
        boxmode.figure_rows(mode, sys, xs)


@settings(max_examples=200, deadline=None)
@given(b_sq=st.floats(0.0, 0.999999),
       a=st.floats(1e-9, 4e-9),
       n=st.integers(1, 3))
def test_figure_rows_pin_the_walls(b_sq, a, n):
    # p_particle from make_mode's own p_n, so b^2 = 0 builds the bare level
    p_n = HBAR * (n * math.pi / a)
    sys = boxmode.BoxSystem(m=M, a=a, p_particle=p_n / math.sqrt(1.0 + b_sq))
    mode = boxmode.make_mode(sys, n)
    first, last = boxmode.figure_rows(mode, sys, [0.0, a])
    assert first[:2] == (0.0, 0.0)
    assert abs(last[1] - a) <= 1e-12 * a
