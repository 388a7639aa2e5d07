"""Superpositions in the box: flux, continuity, norms, and momentum moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import boxmode, cli, timedep
from pfield.core import ELECTRON_MASS, HBAR

M = ELECTRON_MASS
A_BOX = 2e-9


def _beat() -> timedep.Superposition:
    m1 = timedep.bare_eigenmode(M, A_BOX, 1)
    m2 = timedep.bare_eigenmode(M, A_BOX, 2)
    return timedep.Superposition(((m1, 1.0), (m2, 1.0)))


def _beat_period(s: timedep.Superposition) -> float:
    return 2.0 * math.pi * HBAR / (s.components[1][0].e_n - s.components[0][0].e_n)


def test_bare_eigenmode_has_no_field_share():
    mode = timedep.bare_eigenmode(M, A_BOX, 3)
    assert mode.b_sq == 0.0
    assert mode.a_n == 0.0
    assert mode.g_npf == 1.0
    assert mode.e_n == pytest.approx(
        (HBAR * 3.0 * math.pi / A_BOX)**2 / (2.0 * M), rel=1e-13)


def test_from_modes_normalizes_and_defaults():
    """The constructor rescales the coefficients to unit total weight, and
    the box is that of the modes."""
    s = _beat()
    assert sum(abs(c) ** 2 for _, c in s.components) == pytest.approx(1.0, rel=1e-14)
    assert (s.m, s.a) == (M, A_BOX)
    with pytest.raises(ValueError):
        timedep.Superposition(())
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    with pytest.raises(ValueError):
        timedep.Superposition(((mode, 0.0),))


@pytest.mark.parametrize("m,a", [(M, 3e-9), (2.0 * M, A_BOX)])
def test_superposition_rejects_a_mode_from_another_box(m, a):
    here = timedep.bare_eigenmode(M, A_BOX, 1)
    other = boxmode.level_at_ratio(m, a, 2, 1.5)
    with pytest.raises(ValueError, match="n=2 belongs to another box"):
        timedep.Superposition(((here, 1.0), (other, 1.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan), complex(math.inf, 1.0)])
def test_superposition_rejects_a_non_finite_coefficient(bad):
    m1 = timedep.bare_eigenmode(M, A_BOX, 1)
    m2 = timedep.bare_eigenmode(M, A_BOX, 2)
    with pytest.raises(ValueError, match="finite"):
        timedep.Superposition(((m1, 1.0), (m2, bad)))


@pytest.mark.parametrize("c", [1e200, 1e308, 1e-200, complex(1e200, -1e200)])
def test_superposition_rescales_coefficients_at_the_float_range_edges(c):
    """The weight is scaled, not squared, so neither overflow nor underflow
    turns an equal-weight state into an error."""
    m1 = timedep.bare_eigenmode(M, A_BOX, 1)
    m2 = timedep.bare_eigenmode(M, A_BOX, 2)
    s = timedep.Superposition(((m1, c), (m2, c)))
    for _, coeff in s.components:
        assert abs(coeff) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_superposition_rejects_a_repeated_level():
    """Twice the same level is one term at the summed coefficient, so its
    weight and its moments would not be those of its components."""
    m1 = timedep.bare_eigenmode(M, A_BOX, 1)
    m2 = timedep.bare_eigenmode(M, A_BOX, 2)
    again = timedep.bare_eigenmode(M, A_BOX, 1)
    with pytest.raises(ValueError, match="n=1 appears twice"):
        timedep.Superposition(((m1, 1.0), (m2, 1.0), (again, 1.0)))


def test_value_walls_and_domain():
    s = _beat()
    t = 1e-15
    assert s.value(0.0, t) == 0.0
    assert abs(s.value(A_BOX, t)) <= 1e-12 * math.sqrt(2.0 / A_BOX)
    with pytest.raises(ValueError):
        s.value(-0.1 * A_BOX, t)
    with pytest.raises(ValueError):
        s.d_dx(1.1 * A_BOX, t)


def _fd_complex(f, x0: float, h: float, order: int) -> complex:
    re = ref.finite_diff(lambda u: f(u).real, x0, h, order)
    im = ref.finite_diff(lambda u: f(u).imag, x0, h, order)
    return complex(re, im)


def test_derivatives_match_finite_differences():
    s = _beat()
    x, t = 0.3 * A_BOX, 0.8e-15
    hx, ht = A_BOX * 1e-5, 1e-20
    d1 = s.d_dx(x, t)
    assert abs(d1 - _fd_complex(lambda u: s.value(u, t), x, hx, 1)) \
        <= 1e-7 * abs(d1)
    d2 = s.d2_dx2(x, t)
    assert abs(d2 - _fd_complex(lambda u: s.value(u, t), x, hx, 2)) \
        <= 1e-5 * abs(d2)
    dt = s.d_dt(x, t)
    assert abs(dt - _fd_complex(lambda u: s.value(x, u), t, ht, 1)) \
        <= 1e-7 * abs(dt)


@dataclass(frozen=True)
class PlaneWave:
    """Free-particle harness e^(i(kx - w t)), w = hbar k^2 / 2m; carries
    the textbook flux hbar k / m."""

    k: float
    m: float

    def value(self, x: float, t: float) -> complex:
        arg = self.k * x - HBAR * self.k**2 / (2.0 * self.m) * t
        return complex(math.cos(arg), math.sin(arg))

    def d_dx(self, x: float, t: float) -> complex:
        return 1j * self.k * self.value(x, t)


def test_plane_wave_density_and_flux():
    pw = PlaneWave(k=1e9, m=M)
    x, t = 1.3e-10, 2e-16
    assert timedep.density(pw, x, t) == pytest.approx(1.0, rel=1e-14)
    # the flux reference of the kernel tests carries the textbook hbar k / m
    assert ref.flux(pw, x, t) == pytest.approx(HBAR * 1e9 / M, rel=1e-12)


def test_stationary_state_carries_no_flux():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition(((mode, 1.0),))
    scale = HBAR * mode.k_n / (M * A_BOX)
    _, _, h_x, h_t = timedep.equal_weight_beat(M, A_BOX)
    fluxes, residual = timedep.flux_columns(
        s, (0.2 * A_BOX, 0.5 * A_BOX, 0.9 * A_BOX), 1e-15, h_x, h_t)
    for flux in fluxes:
        assert abs(flux) <= 1e-15 * scale


def test_continuity_residual_small_and_second_order():
    s = _beat()
    t = 0.1 * _beat_period(s)
    k2 = s.components[1][0].k_n
    h_x = A_BOX / 1e4
    h_t = h_x * M / (HBAR * k2)
    x = 0.3 * A_BOX
    flux, [res] = timedep.flux_columns(s, [x], t, h_x, h_t)
    # compare against the local density-rate scale
    rate = abs(2.0 * (s.value(x, t).conjugate() * s.d_dt(x, t)).real)
    assert abs(res) <= 1e-5 * rate
    flux, [finer] = timedep.flux_columns(s, [x], t, h_x / 2.0, h_t / 2.0)
    assert 3.5 <= abs(res / finer) <= 4.5


def test_continuity_residual_validation():
    s = _beat()
    with pytest.raises(ValueError):
        timedep.flux_columns(s, [0.0], 1e-15, A_BOX / 100.0, 1e-18)
    with pytest.raises(ValueError):
        timedep.flux_columns(s, [0.3 * A_BOX], 1e-15, -1e-12, 1e-18)
    with pytest.raises(ValueError):
        timedep.flux_columns(s, [0.3 * A_BOX], 1e-15, 1e-12, 0.0)


def test_norm_is_one_and_conserved():
    s = _beat()
    period = _beat_period(s)
    norms = [timedep.norm(s, f * period) for f in (0.0, 0.37, 0.81)]
    for v in norms:
        assert v == pytest.approx(1.0, rel=1e-10)
    assert max(norms) - min(norms) <= 1e-10


def test_expectation_p_single_mode_vanishes():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition(((mode, 1.0),))
    assert abs(timedep.expectation_p(s, 0.7e-15)) <= 1e-12 * HBAR * mode.k_n


def test_expectation_p2_is_coefficient_weighted():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition(((mode, 1.0),))
    assert timedep.expectation_p2(s, 0.0) == pytest.approx(
        (HBAR * mode.k_n)**2, rel=1e-10)
    beat = _beat()
    k1 = beat.components[0][0].k_n
    k2 = beat.components[1][0].k_n
    target = 0.5 * ((HBAR * k1)**2 + (HBAR * k2)**2)
    for t in (0.0, 0.33e-14):
        assert timedep.expectation_p2(beat, t) == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("moment", [timedep.expectation_p, timedep.expectation_p2])
def test_moment_evaluates_each_node_once(monkeypatch, moment):
    """The real and imaginary quadratures share one value of Psi per node."""
    beat, t0, _, _ = timedep.equal_weight_beat(M, A_BOX)
    nodes = []
    value = timedep.Superposition.value

    def counting(self, x, t):
        nodes.append(x)
        return value(self, x, t)

    monkeypatch.setattr(timedep.Superposition, "value", counting)
    moment(beat, t0)
    assert nodes and len(nodes) == len(set(nodes))


def test_moment_with_a_boundary_term_raises(monkeypatch):
    """Psi = sqrt(2/a) x/a does not vanish at the wall, so <p> picks up an
    imaginary boundary term of hbar/a, about a tenth of the beat's bound
    hbar c_sum k_sum."""
    beat, t0, _, _ = timedep.equal_weight_beat(M, A_BOX)
    slope = math.sqrt(2.0 / A_BOX) / A_BOX
    monkeypatch.setattr(timedep.Superposition, "value", lambda self, x, t: complex(slope * x))
    monkeypatch.setattr(timedep.Superposition, "d_dx", lambda self, x, t: complex(slope))
    with pytest.raises(ValueError, match="<p> picked up imaginary part"):
        timedep.expectation_p(beat, t0)


def test_expectation_p_beat_oscillation():
    """<p>(t) = (8/3a) hbar sin(dE t / hbar) for the equal-weight 1+2 beat."""
    s = _beat()
    period = _beat_period(s)
    peak = 8.0 * HBAR / (3.0 * A_BOX)
    p_quarter = timedep.expectation_p(s, 0.25 * period)
    assert p_quarter == pytest.approx(peak, rel=1e-9)
    assert timedep.expectation_p(s, 0.75 * period) == pytest.approx(
        -p_quarter, rel=1e-9)
    assert abs(timedep.expectation_p(s, 0.0)) <= 1e-12 * peak
    assert abs(timedep.expectation_p(s, 0.5 * period)) <= 1e-12 * peak


def _tdse_residual(s, x, t):
    """i hbar dPsi/dt + (hbar^2/2m) d2Psi/dx2 inside the box (V = 0)."""
    return 1j * HBAR * s.d_dt(x, t) + HBAR**2 / (2.0 * s.m) * s.d2_dx2(x, t)


def test_tdse_residual_eigen_vs_detuned():
    s = _beat()
    x, t = 0.3 * A_BOX, 0.4e-14
    e1 = s.components[0][0].e_n
    assert abs(_tdse_residual(s, x, t)) <= 1e-12 * e1 * abs(s.value(x, t))
    # an energy offset leaves a residual delta_e * |psi|
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    bad = timedep.Superposition(((mode._replace(e_n=1.01 * mode.e_n), 1.0 + 0j),))
    res = abs(_tdse_residual(bad, x, 0.0))
    assert res == pytest.approx(0.01 * mode.e_n * abs(bad.value(x, 0.0)),
                                rel=1e-10)


@pytest.mark.parametrize("a", [A_BOX, 1.8550000000000001e-09, 3.3e-9])
def test_equal_weight_beat_matches_hand_construction(a):
    mode1 = timedep.bare_eigenmode(M, a, 1)
    mode2 = timedep.bare_eigenmode(M, a, 2)
    beat = timedep.Superposition(((mode1, 1.0 + 0j), (mode2, 1.0 + 0j)))
    t0 = 0.1 * 2.0 * math.pi * HBAR / (mode2.e_n - mode1.e_n)
    h_x = a / 1e4
    h_t = h_x * M / (HBAR * mode2.k_n)
    assert timedep.equal_weight_beat(M, a) == (beat, t0, h_x, h_t)


# The four Superposition loops as they were before the term table: each
# call rebuilt sqrt(2/a) and every phase.  The methods must match them
# bit for bit.
def _ref_value(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    psi = 0j
    for mode, c in s.components:
        e = mode.e_n
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        psi += c * amp * math.sin(mode.k_n * x) * phase
    return psi


def _ref_d_dx(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for mode, c in s.components:
        e = mode.e_n
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out += c * amp * mode.k_n * math.cos(mode.k_n * x) * phase
    return out


def _ref_d2_dx2(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for mode, c in s.components:
        e = mode.e_n
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out -= c * amp * mode.k_n**2 * math.sin(mode.k_n * x) * phase
    return out


def _ref_d_dt(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for mode, c in s.components:
        e = mode.e_n
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out += c * amp * math.sin(mode.k_n * x) * phase \
            * complex(0.0, -e / HBAR)
    return out


_REFERENCES = {"value": _ref_value, "d_dx": _ref_d_dx,
               "d2_dx2": _ref_d2_dx2, "d_dt": _ref_d_dt}


def _three_level() -> timedep.Superposition:
    modes = [timedep.bare_eigenmode(M, A_BOX, n) for n in (1, 2, 5)]
    return timedep.Superposition(tuple(zip(modes, (0.3 - 0.2j, 1.0, -0.4 + 0.7j))))


def _matches_reference(s, xs, ts):
    for name, ref in _REFERENCES.items():
        method = getattr(s, name)
        for t in ts:
            for x in xs:
                assert method(x, t) == ref(s, x, t), (name, x, t)


@pytest.mark.parametrize("make", [_beat, _three_level])
def test_term_table_matches_reference_loops_bit_for_bit(make):
    s = make()
    _, t0, _, h_t = timedep.equal_weight_beat(M, A_BOX)
    ts = (0.0, -0.0, t0, t0 + h_t, t0 - h_t, 1e-9)
    xs = (0.0, A_BOX / 1e4, 0.3 * A_BOX, 0.5 * A_BOX, 0.77 * A_BOX, A_BOX)
    _matches_reference(s, xs, ts)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(-1e-12, 1e-12, allow_nan=False),
       u=st.floats(0.0, 1.0))
def test_value_matches_reference_at_any_time(t, u):
    s = _three_level()
    x = u * A_BOX
    assert s.value(x, t) == _ref_value(s, x, t)


def _superposition_at(a: float, levels: tuple[int, ...],
                      coefficients: tuple[complex, ...]) -> timedep.Superposition:
    modes = [timedep.bare_eigenmode(M, a, n) for n in levels]
    return timedep.Superposition(tuple(zip(modes, coefficients)))


@pytest.mark.parametrize("a", [2e-9, 2.917e-09, 3.64e-09])
@pytest.mark.parametrize("grid", [2, 257])
@pytest.mark.parametrize("levels,coefficients", [
    ((1, 2), (1.0, 1.0)),
    ((1, 2), (0.8, 0.6j)),
    ((1, 2, 5), (0.3 - 0.2j, 1.0, -0.4 + 0.7j)),
])
def test_flux_rows_match_point_functions_bit_for_bit(a, grid, levels, coefficients):
    s = _superposition_at(a, levels, coefficients)
    _, t0, h_x, h_t = timedep.equal_weight_beat(M, a)
    xs = cli._box_grid(h_x, a - h_x, grid)
    flux, residual = timedep.flux_columns(s, xs, t0, h_x, h_t)
    assert len(flux) == len(residual) == grid
    for x, row in zip(xs, zip(flux, residual)):
        assert row == (ref.flux(s, x, t0), ref.continuity_residual(s, x, t0, h_x, h_t))


@pytest.mark.parametrize("bad", ["below", "above", math.nan])
def test_flux_rows_reject_a_grid_closer_than_h_x_to_the_wall(bad):
    s, t0, h_x, h_t = timedep.equal_weight_beat(M, A_BOX)
    bad = {"below": math.nextafter(h_x, 0.0),
           "above": math.nextafter(A_BOX - h_x, A_BOX)}.get(bad, bad)
    with pytest.raises(ValueError, match="grid comes closer than h_x"):
        timedep.flux_columns(s, [0.5 * A_BOX, bad], t0, h_x, h_t)


@pytest.mark.parametrize("steps", [(0.0, 1e-18), (-1e-12, 1e-18), (math.nan, 1e-18),
                                   (1e-13, 0.0), (1e-13, math.inf), (1e-13, math.nan)])
def test_flux_rows_reject_bad_steps(steps):
    s, t0, _, _ = timedep.equal_weight_beat(M, A_BOX)
    with pytest.raises(ValueError, match="must be finite and positive"):
        timedep.flux_columns(s, [0.5 * A_BOX], t0, *steps)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(1e-9, 4e-9), phase=st.floats(0.01, 0.49),
       second_half=st.booleans())
def test_flux_rows_residual_converges_at_second_order(a, phase, second_half):
    # The worst residual over the grid: single points sit on zeros of the
    # leading error term, and t = 0 and half a beat period carry no flux.
    s, t0, h_x, h_t = timedep.equal_weight_beat(M, a)
    t = (phase + 0.5 * second_half) * _beat_period(s)
    xs = cli._box_grid(h_x, a - h_x, 33)
    coarse = max(map(abs, timedep.flux_columns(s, xs, t, h_x, h_t)[1]))
    fine = max(map(abs, timedep.flux_columns(s, xs, t, 0.5 * h_x, 0.5 * h_t)[1]))
    assert 3.5 <= coarse / fine <= 4.5
