"""Superpositions in the box: flux, continuity, norms, and momentum moments."""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import boxmode, cli, oracle, timedep
from pfield.core import ELECTRON_MASS, HBAR

M = ELECTRON_MASS
A_BOX = 2e-9


def _bare_sys() -> boxmode.BoxSystem:
    return boxmode.BoxSystem(m=M, a=A_BOX, p_particle=HBAR * math.pi / A_BOX)


def _beat() -> timedep.Superposition:
    m1 = timedep.bare_eigenmode(M, A_BOX, 1)
    m2 = timedep.bare_eigenmode(M, A_BOX, 2)
    return timedep.Superposition.from_modes(_bare_sys(), ((m1, 1.0), (m2, 1.0)))


def _beat_period(s: timedep.Superposition) -> float:
    return 2.0 * math.pi * HBAR / (s.energies[1] - s.energies[0])


def test_bare_eigenmode_has_no_field_share():
    mode = timedep.bare_eigenmode(M, A_BOX, 3)
    assert mode.b_sq == 0.0
    assert mode.a_n == 0.0
    assert mode.g_npf == 1.0
    assert mode.e_n == pytest.approx(
        (HBAR * 3.0 * math.pi / A_BOX)**2 / (2.0 * M), rel=1e-13)


def test_from_modes_normalizes_and_defaults():
    s = _beat()
    assert sum(abs(c) ** 2 for _, c in s.components) == pytest.approx(1.0, rel=1e-14)
    assert s.energies == (s.components[0][0].e_n, s.components[1][0].e_n)
    with pytest.raises(ValueError):
        timedep.Superposition.from_modes(_bare_sys(), ())
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    with pytest.raises(ValueError):
        timedep.Superposition.from_modes(_bare_sys(), ((mode, 0.0),))
    with pytest.raises(ValueError):
        timedep.Superposition(m=M, a=A_BOX,
                              components=((mode, 1.0 + 0j),), energies=())


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
    re = oracle.finite_diff(lambda u: f(u).real, x0, h, order)
    im = oracle.finite_diff(lambda u: f(u).imag, x0, h, order)
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

    def d2_dx2(self, x: float, t: float) -> complex:
        return -self.k**2 * self.value(x, t)

    def d_dt(self, x: float, t: float) -> complex:
        w = HBAR * self.k**2 / (2.0 * self.m)
        return -1j * w * self.value(x, t)


def test_plane_wave_flux_and_tdse():
    pw = PlaneWave(k=1e9, m=M)
    x, t = 1.3e-10, 2e-16
    assert timedep.density(pw, x, t) == pytest.approx(1.0, rel=1e-14)
    # the flux reference of the kernel tests carries the textbook hbar k / m
    assert ref.flux(pw, x, t) == pytest.approx(HBAR * 1e9 / M, rel=1e-12)
    e_k = (HBAR * 1e9)**2 / (2.0 * M)
    assert abs(timedep.tdse_residual(pw, x, t)) <= 1e-12 * e_k


def test_stationary_state_carries_no_flux():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition.from_modes(_bare_sys(), ((mode, 1.0),))
    scale = HBAR * mode.k_n / (M * A_BOX)
    _, _, h_x, h_t = timedep.equal_weight_beat(M, A_BOX)
    rows = timedep.flux_rows(s, (0.2 * A_BOX, 0.5 * A_BOX, 0.9 * A_BOX), 1e-15, h_x, h_t)
    for _, flux, _ in rows:
        assert abs(flux) <= 1e-15 * scale


def test_continuity_residual_small_and_second_order():
    s = _beat()
    t = 0.1 * _beat_period(s)
    k2 = s.components[1][0].k_n
    h_x = A_BOX / 1e4
    h_t = h_x * M / (HBAR * k2)
    x = 0.3 * A_BOX
    [(_, _, res)] = timedep.flux_rows(s, [x], t, h_x, h_t)
    # compare against the local density-rate scale
    rate = abs(2.0 * (s.value(x, t).conjugate() * s.d_dt(x, t)).real)
    assert abs(res) <= 1e-5 * rate
    [(_, _, finer)] = timedep.flux_rows(s, [x], t, h_x / 2.0, h_t / 2.0)
    assert 3.5 <= abs(res / finer) <= 4.5


def test_continuity_residual_validation():
    s = _beat()
    with pytest.raises(ValueError):
        timedep.flux_rows(s, [0.0], 1e-15, A_BOX / 100.0, 1e-18)
    with pytest.raises(ValueError):
        timedep.flux_rows(s, [0.3 * A_BOX], 1e-15, -1e-12, 1e-18)
    with pytest.raises(ValueError):
        timedep.flux_rows(s, [0.3 * A_BOX], 1e-15, 1e-12, 0.0)


def test_norm_is_one_and_conserved():
    s = _beat()
    period = _beat_period(s)
    norms = [timedep.norm(s, f * period) for f in (0.0, 0.37, 0.81)]
    for v in norms:
        assert v == pytest.approx(1.0, rel=1e-10)
    assert max(norms) - min(norms) <= 1e-10


def test_expectation_p_single_mode_vanishes():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition.from_modes(_bare_sys(), ((mode, 1.0),))
    assert abs(timedep.expectation_p(s, 0.7e-15)) <= 1e-12 * HBAR * mode.k_n


def test_expectation_p2_is_coefficient_weighted():
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    s = timedep.Superposition.from_modes(_bare_sys(), ((mode, 1.0),))
    assert timedep.expectation_p2(s, 0.0) == pytest.approx(
        (HBAR * mode.k_n)**2, rel=1e-10)
    beat = _beat()
    k1 = beat.components[0][0].k_n
    k2 = beat.components[1][0].k_n
    target = 0.5 * ((HBAR * k1)**2 + (HBAR * k2)**2)
    for t in (0.0, 0.33e-14):
        assert timedep.expectation_p2(beat, t) == pytest.approx(target, rel=1e-9)


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


def test_tdse_residual_eigen_vs_detuned():
    s = _beat()
    x, t = 0.3 * A_BOX, 0.4e-14
    e1 = s.energies[0]
    assert abs(timedep.tdse_residual(s, x, t)) <= 1e-12 * e1 * abs(s.value(x, t))
    # an energy offset leaves a residual delta_e * |psi|
    mode = timedep.bare_eigenmode(M, A_BOX, 1)
    bad = timedep.Superposition(m=M, a=A_BOX,
                                components=((mode, 1.0 + 0j),),
                                energies=(1.01 * mode.e_n,))
    res = abs(timedep.tdse_residual(bad, x, 0.0))
    assert res == pytest.approx(0.01 * mode.e_n * abs(bad.value(x, 0.0)),
                                rel=1e-10)


@pytest.mark.parametrize("a", [A_BOX, 1.8550000000000001e-09, 3.3e-9])
def test_equal_weight_beat_matches_hand_construction(a):
    sys = boxmode.BoxSystem(m=M, a=a, p_particle=HBAR * math.pi / a)
    mode1 = timedep.bare_eigenmode(M, a, 1)
    mode2 = timedep.bare_eigenmode(M, a, 2)
    beat = timedep.Superposition.from_modes(
        sys, [(mode1, 1.0 + 0j), (mode2, 1.0 + 0j)])
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
    for (mode, c), e in zip(s.components, s.energies):
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        psi += c * amp * math.sin(mode.k_n * x) * phase
    return psi


def _ref_d_dx(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for (mode, c), e in zip(s.components, s.energies):
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out += c * amp * mode.k_n * math.cos(mode.k_n * x) * phase
    return out


def _ref_d2_dx2(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for (mode, c), e in zip(s.components, s.energies):
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out -= c * amp * mode.k_n**2 * math.sin(mode.k_n * x) * phase
    return out


def _ref_d_dt(s, x, t):
    amp = math.sqrt(2.0 / s.a)
    out = 0j
    for (mode, c), e in zip(s.components, s.energies):
        phase = complex(math.cos(e * t / HBAR), -math.sin(e * t / HBAR))
        out += c * amp * math.sin(mode.k_n * x) * phase \
            * complex(0.0, -e / HBAR)
    return out


_REFERENCES = {"value": _ref_value, "d_dx": _ref_d_dx,
               "d2_dx2": _ref_d2_dx2, "d_dt": _ref_d_dt}


def _three_level() -> timedep.Superposition:
    modes = [timedep.bare_eigenmode(M, A_BOX, n) for n in (1, 2, 5)]
    return timedep.Superposition.from_modes(
        _bare_sys(), list(zip(modes, (0.3 - 0.2j, 1.0, -0.4 + 0.7j))))


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
    # -0.0 finds the table of 0.0 in the memo; the sums must not care
    ts = (0.0, -0.0, t0, t0 + h_t, t0 - h_t, 1e-9)
    xs = (0.0, A_BOX / 1e4, 0.3 * A_BOX, 0.5 * A_BOX, 0.77 * A_BOX, A_BOX)
    # twice: the second pass also meets tables the first left in the memo
    for _ in range(2):
        _matches_reference(s, xs, ts)


def test_term_memo_stays_bounded_and_exact():
    s = _beat()
    xs = (0.0, 0.41 * A_BOX, A_BOX)
    for i in range(1000):
        t = i * 1.7e-17
        _matches_reference(s, xs, (t,))
        assert 1 <= len(s._terms_at) <= timedep._TERMS_MEMO_SIZE


def test_term_memo_shared_by_threads():
    s = _beat()
    ts = [i * 3.1e-17 for i in range(13)]
    xs = (0.0, 0.41 * A_BOX, A_BOX)
    expected = {(x, t): _ref_value(s, x, t) for x in xs for t in ts}
    mismatches, errors = [], []

    def worker(offset):
        try:
            for i in range(300):
                t = ts[(i + offset) % len(ts)]
                for x in xs:
                    if s.value(x, t) != expected[x, t]:
                        mismatches.append((x, t))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and mismatches == []
    assert len(s._terms_at) <= timedep._TERMS_MEMO_SIZE


def test_term_memo_leaves_equality_and_hash_alone():
    s, fresh = _beat(), _beat()
    s.value(0.3 * A_BOX, 1e-15)
    assert s._terms_at and not fresh._terms_at
    assert s == fresh and hash(s) == hash(fresh)
    assert "_terms_at" not in repr(s)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(-1e-12, 1e-12, allow_nan=False),
       u=st.floats(0.0, 1.0))
def test_value_through_memo_matches_reference(t, u):
    s = _three_level()
    x = u * A_BOX
    assert s.value(x, t) == _ref_value(s, x, t)
    assert s.value(x, t) == _ref_value(s, x, t)


def _superposition_at(a: float, levels: tuple[int, ...],
                      coefficients: tuple[complex, ...]) -> timedep.Superposition:
    sys = boxmode.BoxSystem(m=M, a=a, p_particle=HBAR * math.pi / a)
    modes = [timedep.bare_eigenmode(M, a, n) for n in levels]
    return timedep.Superposition.from_modes(sys, list(zip(modes, coefficients)))


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
    rows = timedep.flux_rows(s, xs, t0, h_x, h_t)
    assert len(rows) == grid
    for x, row in zip(xs, rows):
        assert row == (x, ref.flux(s, x, t0), ref.continuity_residual(s, x, t0, h_x, h_t))


@pytest.mark.parametrize("bad", ["below", "above", math.nan])
def test_flux_rows_reject_a_grid_closer_than_h_x_to_the_wall(bad):
    s, t0, h_x, h_t = timedep.equal_weight_beat(M, A_BOX)
    bad = {"below": math.nextafter(h_x, 0.0),
           "above": math.nextafter(A_BOX - h_x, A_BOX)}.get(bad, bad)
    with pytest.raises(ValueError, match="grid comes closer than h_x"):
        timedep.flux_rows(s, [0.5 * A_BOX, bad], t0, h_x, h_t)


@pytest.mark.parametrize("steps", [(0.0, 1e-18), (-1e-12, 1e-18), (math.nan, 1e-18),
                                   (1e-13, 0.0), (1e-13, math.inf), (1e-13, math.nan)])
def test_flux_rows_reject_bad_steps(steps):
    s, t0, _, _ = timedep.equal_weight_beat(M, A_BOX)
    with pytest.raises(ValueError, match="must be finite and positive"):
        timedep.flux_rows(s, [0.5 * A_BOX], t0, *steps)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(1e-9, 4e-9), phase=st.floats(0.01, 0.49),
       second_half=st.booleans())
def test_flux_rows_residual_converges_at_second_order(a, phase, second_half):
    # The worst residual over the grid: single points sit on zeros of the
    # leading error term, and t = 0 and half a beat period carry no flux.
    s, t0, h_x, h_t = timedep.equal_weight_beat(M, a)
    t = (phase + 0.5 * second_half) * _beat_period(s)
    xs = cli._box_grid(h_x, a - h_x, 33)
    coarse = max(abs(res) for _, _, res in timedep.flux_rows(s, xs, t, h_x, h_t))
    fine = max(abs(res) for _, _, res in timedep.flux_rows(s, xs, t, 0.5 * h_x, 0.5 * h_t))
    assert 3.5 <= coarse / fine <= 4.5
