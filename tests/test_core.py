"""Shared core: constants, validators, budgets, region tags, columns and
shares, and the composite forces against the box kernels."""

from __future__ import annotations

import errno
import io
import math
import os
import signal
import threading
import time

import pytest

import _reference as ref
from pfield import boxmode, core, hydrogen, nonlinear, oracle, oscillator, timedep
from pfield.core import (
    BOHR_RADIUS,
    ELECTRON_MASS,
    HBAR,
    PLANCK_H,
    EnergyBudget,
    RegionClass,
    classify_region,
    energy_budget_check,
)


def test_constants_consistent():
    assert HBAR == PLANCK_H / (2.0 * math.pi)
    assert BOHR_RADIUS == pytest.approx(5.29177210903e-11, rel=1e-9)


_VALIDATED = [
    (lambda **kw: boxmode.BoxSystem(**{"m": ELECTRON_MASS, "a": 2e-9,
                                       "p_particle": 1e-25, **kw}),
     ("m", "a", "p_particle")),
    (lambda **kw: oscillator.OscSystem(**{"mu": ELECTRON_MASS, "omega0": 1e16,
                                          "cap_l": 1e-9, **kw}),
     ("mu", "omega0", "cap_l")),
    (lambda **kw: hydrogen.HydrogenSystem(**{"z": 1.0, "mu": ELECTRON_MASS, **kw}),
     ("z", "mu")),
    (lambda **kw: nonlinear.NonlinearParams(**{"eps": 0.0, "a_tilde": 1e-10, **kw}),
     ("eps", "a_tilde")),
    (lambda **kw: oracle.QuadratureSpec(**kw), ("rel_tol", "abs_tol")),
]


@pytest.mark.parametrize("ctor,field", [(ctor, field) for ctor, fields in _VALIDATED
                                        for field in fields])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validators_reject_non_finite_fields(ctor, field, bad):
    ctor()  # the defaults are valid
    with pytest.raises(ValueError, match=field):
        ctor(**{field: bad})


_BOX_MODE = boxmode.level_at_ratio(ELECTRON_MASS, 2e-9, 1, 1.5)
_OSC = oscillator.system_at_alpha(1e20, ELECTRON_MASS)
_OSC_MODE = oscillator.make_mode(_OSC, 1)
_H = hydrogen.HydrogenSystem(z=1.0, mu=ELECTRON_MASS)
_H_STATE = hydrogen.make_state(_H, 2, 1)
_NL = nonlinear.NonlinearParams(eps=0.0, a_tilde=1e-10)
_BEAT, _T0, _H_X, _H_T = timedep.equal_weight_beat(ELECTRON_MASS, 2e-9)

# Every scalar guard outside the dataclass validators: name -> (call, a valid
# argument).  The call must raise the guard's own ValueError for nan and +-inf.
_GUARDS = {
    "classify_region eps": (lambda v: classify_region(1.0, 1.0, eps=v), 1e-6),
    "classify_region e_field": (lambda v: classify_region(v, 1.0, eps=1e-6), 1.0),
    "classify_region k_particle": (lambda v: classify_region(1.0, v, eps=1e-6), 1.0),
    "boxmode.level_at_ratio": (
        lambda v: boxmode.level_at_ratio(ELECTRON_MASS, 2e-9, 1, v), 1.5),
    "hydrogen.circular_orbit": (lambda v: hydrogen.circular_orbit(_H, v), 1e-10),
    "hydrogen.field_energy": (
        lambda v: hydrogen.field_energy(_H_STATE, v), 1e-10),
    "hydrogen.approximation_gap": (hydrogen.approximation_gap, 0.1),
    "hydrogen.figure_rows r": (lambda v: hydrogen.figure_columns(_H, 0.1, v, [0.3]), 1e-10),
    "hydrogen.figure_rows a_ha": (lambda v: hydrogen.figure_columns(_H, v, 1e-10, [0.3]), 0.1),
    "hydrogen.figure_rows theta": (
        lambda v: hydrogen.figure_columns(_H, 0.1, 1e-10, [v]), 0.3),
    "hydrogen.normalized_radial": (
        lambda v: hydrogen.normalized_radial(_H_STATE, v), 1e-10),
    "nonlinear.omega_ratio k": (lambda v: nonlinear.omega_ratio(_NL, v), 1e9),
    "oscillator.system_at_alpha": (
        lambda v: oscillator.system_at_alpha(v, ELECTRON_MASS), 1e20),
    "oscillator.make_mode amplitude": (
        lambda v: oscillator.make_mode(_OSC, 1, amplitude=v), 1e-10),
    "oscillator.figure_rows r_bar": (
        lambda v: oscillator.figure_columns(_OSC_MODE, [v]), 1e-10),
    "boxmode.integrand_series kx": (lambda v: boxmode.integrand_series(0.5, v), 0.3),
    # The three columns of nonlinear.duffing_columns, each on a one-element grid.
    "nonlinear.duffing_solution x": (
        lambda v: nonlinear.duffing_columns(_NL, 1e9, [v])[0], 1e-9),
    "nonlinear.duffing_second_derivative x": (
        lambda v: nonlinear.duffing_columns(_NL, 1e9, [v])[1], 1e-9),
    "nonlinear.duffing_residual x": (
        lambda v: nonlinear.duffing_columns(_NL, 1e9, [v])[2], 1e-9),
    "timedep.flux_rows h_x": (
        lambda v: timedep.flux_columns(_BEAT, [1e-9], _T0, v, _H_T), _H_X),
    "timedep.flux_rows h_t": (
        lambda v: timedep.flux_columns(_BEAT, [1e-9], _T0, _H_X, v), _H_T),
    "timedep.Superposition.value t": (lambda v: _BEAT.value(1e-9, v), _T0),
    "timedep.flux_rows t": (
        lambda v: timedep.flux_columns(_BEAT, [1e-9], v, _H_X, _H_T), _T0),
    "boxmode.level_at_ratio a": (
        lambda v: boxmode.level_at_ratio(ELECTRON_MASS, v, 1, 1.5), 2e-9),
    "timedep.bare_eigenmode a": (
        lambda v: timedep.bare_eigenmode(ELECTRON_MASS, v, 1), 2e-9),
    "timedep.equal_weight_beat a": (
        lambda v: timedep.equal_weight_beat(ELECTRON_MASS, v), 2e-9),
    "oscillator.system_at_alpha mu": (
        lambda v: oscillator.system_at_alpha(1e20, v), ELECTRON_MASS),
}

# Every function that takes a level index n: name -> (call, lowest level).
_LEVELS = {
    "boxmode.make_mode": (lambda n: boxmode.make_mode(_BOX_MODE.sys, n), 1),
    "boxmode.level_at_ratio": (
        lambda n: boxmode.level_at_ratio(ELECTRON_MASS, 2e-9, n, 1.5), 1),
    "timedep.bare_eigenmode": (lambda n: timedep.bare_eigenmode(ELECTRON_MASS, 2e-9, n), 1),
    "hydrogen.level_energy": (lambda n: hydrogen.level_energy(_H, n), 1),
    "hydrogen.make_state": (lambda n: hydrogen.make_state(_H, n, 0), 1),
    "oscillator.make_mode": (lambda n: oscillator.make_mode(_OSC, n), 0),
    "oscillator.classical_threshold": (
        lambda n: oscillator.classical_threshold(_OSC, n), 0),
    "oscillator.threshold_suppression": (oscillator.threshold_suppression, 0),
}
_GUARDS.update({f"{name} n": entry for name, entry in _LEVELS.items()})

# The paper-setup constructors that divide by a width or a mass.
_SETUPS = ("boxmode.level_at_ratio a", "timedep.bare_eigenmode a",
           "timedep.equal_weight_beat a", "oscillator.system_at_alpha mu")


@pytest.mark.parametrize("name", list(_GUARDS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_guards_reject_non_finite(name, bad):
    call, valid = _GUARDS[name]
    call(valid)
    with pytest.raises(ValueError,
                       match=r"finite|classical interval|\[1, 2\)"):
        call(bad)


@pytest.mark.parametrize("name", _SETUPS)
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
def test_setups_reject_non_positive_before_dividing(name, bad):
    call, _ = _GUARDS[name]
    with pytest.raises(ValueError, match="must be finite and positive"):
        call(bad)


@pytest.mark.parametrize("name", list(_LEVELS))
@pytest.mark.parametrize("below", [False, True], ids=["fractional", "below_lowest"])
def test_levels_reject_fractional_and_below_lowest(name, below):
    call, lowest = _LEVELS[name]
    call(float(lowest))  # an integral float is a level
    with pytest.raises(ValueError, match=f"n must be a finite integer >= {lowest}"):
        call(lowest - 1 if below else 1.5)


def test_energy_budget_check_accepts_consistent_split():
    b = EnergyBudget(e_total=5.0, e_particle=3.0, e_field=2.0,
                     k_particle=3.0, v_particle=0.0,
                     k_field=0.5, v_field=1.5)
    assert energy_budget_check(b)


def test_energy_budget_check_rejects_broken_identity():
    b = EnergyBudget(e_total=5.0, e_particle=3.0, e_field=2.1,
                     k_particle=3.0, v_particle=0.0,
                     k_field=0.5, v_field=1.6)
    assert not energy_budget_check(b)


def test_energy_budget_check_rejects_negative_kinetic():
    b = EnergyBudget(e_total=1.0, e_particle=2.0, e_field=-1.0,
                     k_particle=2.0, v_particle=0.0,
                     k_field=-1.0, v_field=0.0)
    assert not energy_budget_check(b)


def test_classify_region_forbidden_wins_over_classical():
    # tiny e_field but e_field + k_particle < 0: still forbidden
    assert classify_region(-1e-30, 0.0, eps=1e-20) is RegionClass.FORBIDDEN
    assert classify_region(1e-30, 1.0, eps=1e-20) is RegionClass.CLASSICAL_LIMIT
    assert classify_region(0.5, 1.0, eps=1e-6) is RegionClass.ALLOWED
    assert classify_region(-0.5, 1.0, eps=1e-6) is RegionClass.ALLOWED


def test_classify_region_validates_inputs():
    with pytest.raises(ValueError):
        classify_region(1.0, 1.0, eps=0.0)
    with pytest.raises(ValueError):
        classify_region(math.nan, 1.0, eps=1e-6)
    with pytest.raises(ValueError):
        classify_region(1.0, math.inf, eps=1e-6)


def _sine_mode():
    # electron in a 2 nm box, first level, p_n^2/p_P^2 = 1.5
    a = 2e-9
    p_n = HBAR * math.pi / a
    sys = boxmode.BoxSystem(m=ELECTRON_MASS, a=a,
                            p_particle=p_n / math.sqrt(1.5))
    return sys, boxmode.make_mode(sys, 1)


def _chi(mode, x):
    """The field chi_n(x), read from the box-figure kernel."""
    q, q_over_x, [chi], psi_density = boxmode.figure_columns(mode, [x])
    return chi


def _slope(mode, x):
    """chi_n'(x) = A_n k_n cos(k_n x)."""
    return mode.a_n * mode.k_n * math.cos(mode.k_n * x)


def test_field_force_reduces_to_stationary_form():
    """On intervals of fixed slope sign, f_F = sign(chi') (-m wbar^2 chi + f_P chi')."""
    sys, mode = _sine_mode()
    v_p = sys.p_particle / sys.m
    wbar = v_p * mode.k_n
    f_p = 3.1e-12
    worst = 0.0
    xs = [0.5 * sys.a * i / 40.0 for i in range(1, 40)]     # cos(kx) > 0 throughout
    q, q_over_x, chis, psi_density = boxmode.figure_columns(mode, xs)
    for x, chi in zip(xs, chis):
        chi_p = _slope(mode, x)
        d_abs = -mode.a_n * mode.k_n**2 * math.sin(mode.k_n * x)
        lhs = ref.field_force_1d(sys.m, v_p, chi_p, d_abs, f_p)
        rhs = math.copysign(1.0, chi_p) * (-sys.m * wbar**2 * chi + f_p * chi_p)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    assert worst <= 5e-15


def test_pf_force_matches_mode_acceleration():
    """The generic force formula reproduces the box closed form."""
    sys, mode = _sine_mode()
    v_p = sys.p_particle / sys.m
    for frac in (0.1, 0.22, 0.35, 0.43):
        x = frac * sys.a
        chi_pp = -mode.k_n**2 * _chi(mode, x)
        f = ref.pf_force_stationary(mode.g_npf, 0.0, _slope(mode, x), chi_pp, sys.m, v_p)
        assert f == pytest.approx(
            sys.m * ref.box_acceleration(mode, x, v_p), rel=5e-15)


def test_pf_force_tracks_oracle_path_curvature():
    """m d^2q/dt^2 from the quadrature path converges to the force at O(h^2)."""
    sys, mode = _sine_mode()
    v_p = sys.p_particle / sys.m
    x = 0.25 * sys.a
    chi_pp = -mode.k_n**2 * _chi(mode, x)
    f = ref.pf_force_stationary(mode.g_npf, 0.0, _slope(mode, x), chi_pp, sys.m, v_p)

    def q(s: float) -> float:
        return mode.g_npf * oracle.integrate(boxmode.path_integrand(mode), 0.0, s)

    devs = []
    for h in (sys.a / 400.0, sys.a / 800.0):
        fd = sys.m * v_p**2 * ref.finite_diff(q, x, h, order=2)
        devs.append(abs(fd - f) / abs(f))
    assert devs[1] <= 1e-5          # measured 4.99e-6 at h = a/800
    assert 3.5 <= devs[0] / devs[1] <= 4.5


_C = core.BLOCK_ROWS


def _block(start, stop):
    """A block of uneven length that names its span."""
    return f"<{start}-{stop}:{'x' * (start // _C % 7)}>".encode()


def _items(blocks):
    """Item count whose last span is short, filling the given number of blocks."""
    return max(0, blocks * _C - 5)


def _serial(work, items):
    return b"".join(work(start, min(start + _C, items)) for start in range(0, items, _C))


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("blocks", range(8))
def test_run_shares_writes_the_serial_bytes_for_any_share_count(monkeypatch, no_child_left,
                                                                cpus, blocks):
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    out = io.BytesIO()
    core.run_shares(_block, _items(blocks), out)
    assert out.getvalue() == _serial(_block, _items(blocks))


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("items", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_run_shares_spans_cover_the_items_once_in_order(monkeypatch, no_child_left,
                                                        cpus, items):
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    out = io.BytesIO()
    core.run_shares(lambda start, stop: f"{start} {stop}\n".encode(), items, out)
    spans = [tuple(map(int, line.split())) for line in out.getvalue().decode().splitlines()]
    assert [i for start, stop in spans for i in range(start, stop)] == list(range(items))
    assert all(0 < stop - start <= _C and stop <= items for start, stop in spans)


@pytest.mark.parametrize("cpus,blocks,forks", [(1, 8, 0), (2, 8, 1), (5, 8, 4), (5, 3, 2),
                                               (5, 1, 0), (5, 0, 0)])
def test_run_shares_forks_one_child_per_share_after_the_first(monkeypatch, no_child_left,
                                                              cpus, blocks, forks):
    fork, pids = os.fork, []

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", recording_fork)
    core.run_shares(_block, _items(blocks), io.BytesIO())
    assert len(pids) == forks


def test_run_shares_does_not_fork_beside_a_running_thread(monkeypatch, no_child_left):
    def no_fork():
        raise AssertionError("forked beside a running thread")

    monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        out = io.BytesIO()
        core.run_shares(_block, _items(8), out)
    finally:
        release.set()
        thread.join()
    assert out.getvalue() == _serial(_block, _items(8))


def test_run_shares_redoes_a_share_whose_fork_fails(monkeypatch, no_child_left):
    def failed_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", failed_fork)
    out = io.BytesIO()
    core.run_shares(_block, _items(7), out)
    assert out.getvalue() == _serial(_block, _items(7))


@pytest.mark.parametrize("death", ["exit", "kill"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_run_shares_redoes_the_share_of_a_child_that_dies(monkeypatch, no_child_left,
                                                          death, cpus):
    parent = os.getpid()

    def work(start, stop):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return _block(start, stop)

    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    out = io.BytesIO()
    core.run_shares(work, _items(7), out)
    assert out.getvalue() == _serial(_block, _items(7))


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_run_shares_raises_the_serial_error_of_the_last_share(monkeypatch, no_child_left,
                                                              cpus):
    def work(start, stop):
        if start == 5 * _C:
            raise OverflowError(f"block from {start} overflows")
        return _block(start, stop)

    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    out = io.BytesIO()
    with pytest.raises(OverflowError, match=f"^block from {5 * _C} overflows$"):
        core.run_shares(work, _items(6), out)
    # The serial loop, too, writes every block before the failing one.
    assert out.getvalue() == _serial(_block, 5 * _C)


def test_run_shares_kills_its_children_when_its_own_share_fails(monkeypatch, no_child_left):
    parent = os.getpid()

    def work(start, stop):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("the first share fails")

    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the first share fails"):
        core.run_shares(work, _items(3), io.BytesIO())
    assert time.monotonic() - start < 30


def test_shared_doubles_of_no_items_is_an_empty_double_view():
    view = core.shared_doubles(0)
    assert view.format == "d" and len(view) == 0 and view.nbytes == 0


def test_a_double_a_forked_process_stores_reads_back_here(no_child_left):
    view = core.shared_doubles(3)
    assert list(view) == [0.0, 0.0, 0.0]
    pid = os.fork()
    if pid == 0:
        try:
            view[1] = math.pi
        finally:
            os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert list(view) == [0.0, math.pi, 0.0]
