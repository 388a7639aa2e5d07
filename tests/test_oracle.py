"""Quadrature used as the reference side, and the tests' central finite difference."""

from __future__ import annotations

import ast
import functools
import math
import random
from array import array
from itertools import accumulate
from pathlib import Path

import pytest

import _reference as ref
from pfield import boxmode, core, oracle, oscillator
from pfield.core import ELECTRON_MASS, HBAR


def test_integrate_sin_half_period():
    assert oracle.integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_integrate_cubic_polynomial():
    assert oracle.integrate(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-13)


def test_integrate_orientation_and_empty_interval():
    val = oracle.integrate(math.exp, 0.0, 1.0)
    assert oracle.integrate(math.exp, 1.0, 0.0) == -val
    assert oracle.integrate(math.exp, 0.3, 0.3) == 0.0


def test_integrate_additive_over_split():
    f = lambda x: math.sin(x) * math.exp(-0.3 * x)
    whole = oracle.integrate(f, 0.0, 2.0)
    split = oracle.integrate(f, 0.0, 0.7) + oracle.integrate(f, 0.7, 2.0)
    assert abs(whole - split) <= 1e-12


def test_integrate_deterministic():
    f = lambda x: math.sin(x) * math.exp(-0.3 * x)
    assert oracle.integrate(f, 0.0, 2.0) == oracle.integrate(f, 0.0, 2.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the GK15 nodes and weights carry "
                          "15 digits, so a constant integrates to 1 - 2.9e-15")
def test_integrate_a_constant_exactly():
    assert oracle.integrate(lambda x: 1.0, 0.0, 1.0) == 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 2 and 13: abs_tol=1e-14 is an absolute "
                          "floor in metres, and the GK15 constants carry 15 digits")
@pytest.mark.parametrize("x_sqrt_alpha", [0.5, 3.0, 5.0])
def test_gaussian_integral_at_the_nm_scale_to_a_few_ulps(x_sqrt_alpha):
    """int_0^x e^(-alpha r^2) dr = sqrt(pi)/(2 sqrt(alpha)) erf(sqrt(alpha) x)
    at alpha = 1e20, the oscillator's scale."""
    alpha = 1e20
    x = x_sqrt_alpha / math.sqrt(alpha)
    ref = math.sqrt(math.pi) / (2.0 * math.sqrt(alpha)) * math.erf(math.sqrt(alpha) * x)
    value = oracle.integrate(lambda r: math.exp(-alpha * r * r), 0.0, x)
    assert abs(value - ref) <= 8 * math.ulp(ref)


def test_integrate_raises_an_arithmetic_error():
    spec = oracle.QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    with pytest.raises(oracle.QuadratureError) as exc:
        oracle.integrate(lambda x: x**-0.9, 1e-12, 1.0, spec)
    assert isinstance(exc.value, ArithmeticError)
    assert "depth 50 (error estimate" in str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_integrate_rejects_non_finite_bounds(bad, side):
    calls = []

    def f(x):
        calls.append(x)
        return 1.0

    a, b = (bad, 1.0) if side == "a" else (0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        oracle.integrate(f, a, b)
    assert calls == []


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        oracle.QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        oracle.QuadratureSpec(abs_tol=-1.0)


def test_finite_diff_first_and_second_order():
    x = 0.7
    d1 = ref.finite_diff(math.sin, x, 1e-5, order=1)
    assert d1 == pytest.approx(math.cos(x), rel=1e-9)
    d2 = ref.finite_diff(math.sin, x, 1e-4, order=2)
    assert d2 == pytest.approx(-math.sin(x), rel=1e-7)


def test_finite_diff_second_order_convergence():
    x = 0.7
    errs = [abs(ref.finite_diff(math.exp, x, h, order=1) - math.exp(x))
            for h in (1e-3, 5e-4)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_finite_diff_validation():
    with pytest.raises(ValueError):
        ref.finite_diff(math.sin, 0.0, -1e-5, order=1)
    with pytest.raises(ValueError):
        ref.finite_diff(math.sin, 0.0, 1e-5, order=3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h must be finite"):
            ref.finite_diff(math.sin, 0.0, bad, order=1)
        with pytest.raises(ValueError, match="x must be finite"):
            ref.finite_diff(math.sin, bad, 1e-3, order=1)


def _box_mode():
    a = 2e-9
    p_n = HBAR * math.pi / a
    sys = boxmode.BoxSystem(m=ELECTRON_MASS, a=a,
                            p_particle=p_n / math.sqrt(1.5))
    return sys, boxmode.make_mode(sys, 1)


def test_box_path_quadrature_wall_values():
    sys, mode = _box_mode()
    c1, _, _ = boxmode.path_series_coefficients(mode.b_sq)
    # series normalization: residual truncation of c1 at b^2 = 0.5
    path = oracle.integrate(boxmode.path_integrand(mode), 0.0, sys.a)
    dev = (1.0 / c1) * path / sys.a - 1.0
    assert 1.40e-4 <= dev <= 1.42e-4
    # native quadratic normalization undershoots the wall
    assert mode.g_npf * path / sys.a == pytest.approx(
        0.9912997606169242, rel=1e-10)


def test_box_path_quadrature_monotone():
    sys, mode = _box_mode()
    values = [mode.g_npf * oracle.integrate(boxmode.path_integrand(mode),
                                            0.0, i * sys.a / 16.0)
              for i in range(17)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_osc_path_quadrature_odd_and_anchored():
    alpha = 1e20
    sys = oscillator.OscSystem(mu=ELECTRON_MASS,
                               omega0=alpha * HBAR / ELECTRON_MASS,
                               cap_l=1.5 / math.sqrt(alpha))
    mode = oscillator.make_mode(sys, 0, amplitude=math.sqrt(0.25 / alpha))
    r = 1.0 / math.sqrt(alpha)
    integrand = oscillator.path_integrand(mode)
    q = oracle.integrate(integrand, 0.0, r)
    assert oracle.integrate(integrand, 0.0, -r) == -q
    assert q * math.sqrt(alpha) == pytest.approx(1.0009417043, rel=1e-9)


def _gk15_loop(f, a, b):
    """The panel routine as a loop over node pairs: reference for oracle._gk15."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = oracle._WK[7] * fc
    gauss = oracle._WG[3] * fc
    for i in range(7):
        fl = f(c - h * oracle._XK[i])
        fr = f(c + h * oracle._XK[i])
        kron += oracle._WK[i] * (fl + fr)
        if i % 2 == 1:
            gauss += oracle._WG[i // 2] * (fl + fr)
    return kron * h, abs(kron - gauss) * abs(h)


def _panel_integrands():
    sys, mode = _box_mode()
    alpha = 1e20
    osc = oscillator.OscSystem(mu=ELECTRON_MASS, omega0=alpha * HBAR / ELECTRON_MASS,
                               cap_l=math.sqrt(101.0 / alpha))
    return [
        (math.exp, -1.0, 2.0),
        (lambda x: math.sin(x) * math.exp(-0.3 * x), 0.0, 2.0),
        (lambda x: 1.0, 0.0, 1.0),
        (lambda x: x**7 - 3.0 * x**2, 0.3, -1.7),
        (boxmode.path_integrand(mode), 0.0, sys.a),
        (boxmode.path_integrand(mode), 0.37 * sys.a, 0.41 * sys.a),
        (oscillator.path_integrand(oscillator.make_mode(osc, 0)), -osc.cap_l, 0.0),
        (oscillator.path_integrand(oscillator.make_mode(osc, 1)), -2e-10, 3e-10),
    ]


@pytest.mark.parametrize("f,a,b", _panel_integrands())
def test_gk15_matches_loop_reference_bit_for_bit(f, a, b):
    assert oracle._gk15(f, a, b) == _gk15_loop(f, a, b)


def test_gk15_evaluates_nodes_in_loop_order():
    seen, seen_loop = [], []
    oracle._gk15(lambda x: seen.append(x) or x, -0.4, 1.3)
    _gk15_loop(lambda x: seen_loop.append(x) or x, -0.4, 1.3)
    assert seen == seen_loop and len(seen) == 15


def _running_osc_loop(f, xs):
    """osc-trajectory's hand-written running quadrature, starting from 0."""
    out = []
    acc = oracle.integrate(f, 0.0, xs[0])
    prev = xs[0]
    for x in xs:
        acc += oracle.integrate(f, prev, x)
        prev = x
        out.append(acc)
    return out


def _running_box_loop(f, a, n):
    """criterion_04's hand-written running quadrature over a/n, ..., a."""
    out = []
    acc = 0.0
    prev = 0.0
    for i in range(1, n + 1):
        x = a * i / n
        acc += oracle.integrate(f, prev, x)
        prev = x
        out.append(acc)
    return out


@pytest.mark.parametrize("n", [0, 1])
def test_cumulative_integrate_matches_osc_loop(n):
    alpha = 1e20
    sys = oscillator.OscSystem(mu=ELECTRON_MASS, omega0=alpha * HBAR / ELECTRON_MASS,
                               cap_l=math.sqrt(101.0 / alpha))
    f = oscillator.path_integrand(oscillator.make_mode(sys, n))
    r_max = 5.0 / math.sqrt(alpha)
    xs = [-r_max + 2.0 * r_max * i / 96 for i in range(97)]
    assert list(oracle.cumulative_integrate(f, xs)) == _running_osc_loop(f, xs)


def test_cumulative_integrate_matches_box_loop():
    sys, mode = _box_mode()
    f = boxmode.path_integrand(mode)
    xs = [sys.a * i / 200 for i in range(1, 201)]
    assert list(oracle.cumulative_integrate(f, xs)) == \
        _running_box_loop(f, sys.a, 200)


def test_cumulative_integrate_starts_at_zero_and_sums_left_to_right():
    running = oracle.cumulative_integrate(math.cos, [1.0, 2.0])
    assert isinstance(running, memoryview) and running.format == "d"
    assert list(running) == [oracle.integrate(math.cos, 0.0, 1.0),
                             oracle.integrate(math.cos, 0.0, 1.0)
                             + oracle.integrate(math.cos, 1.0, 2.0)]
    assert list(oracle.cumulative_integrate(math.cos, [])) == []


_SIZES = [core.BLOCK_ROWS - 1, core.BLOCK_ROWS, core.BLOCK_ROWS + 1, 2 * core.BLOCK_ROWS + 1]


@functools.cache
def _osc_case(n, points):
    alpha = 1e20
    sys = oscillator.OscSystem(mu=ELECTRON_MASS, omega0=alpha * HBAR / ELECTRON_MASS,
                               cap_l=math.sqrt(101.0 / alpha))
    f = oscillator.path_integrand(oscillator.make_mode(sys, n))
    r_max = 5.0 / math.sqrt(alpha)
    xs = [-r_max + 2.0 * r_max * i / (points - 1) for i in range(points)]
    return f, xs, _running_osc_loop(f, xs)


@functools.cache
def _box_case(points):
    sys, mode = _box_mode()
    f = boxmode.path_integrand(mode)
    return f, [sys.a * i / points for i in range(1, points + 1)], \
        _running_box_loop(f, sys.a, points)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("points", _SIZES)
@pytest.mark.parametrize("case", ["osc0", "osc1", "box"])
def test_cumulative_integrate_matches_the_loops_for_any_share_count(monkeypatch, no_child_left,
                                                                     cpus, points, case):
    f, xs, expected = _box_case(points) if case == "box" else _osc_case(int(case[-1]), points)
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    assert list(oracle.cumulative_integrate(f, xs)) == expected


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("points", [0, *_SIZES])
def test_running_sum_in_place_equals_one_fold_bit_for_bit(monkeypatch, no_child_left,
                                                          cpus, points):
    """The sums made span by span where the steps lie are the additions of
    one left-to-right fold from 0.0; a first step of -0.0 gives +0.0."""
    rng = random.Random(points)
    steps = [-0.0, *(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                     for _ in range(points - 1))][:points]
    monkeypatch.setattr(oracle, "integrate", lambda f, prev, x: steps[int(x)])
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    running = oracle.cumulative_integrate(None, [float(i) for i in range(points)])
    folded = array("d", accumulate(steps, initial=0.0))[1:]
    assert running.tobytes() == folded.tobytes()
    if points:
        assert math.copysign(1.0, running[0]) == 1.0


@pytest.mark.parametrize("cpus", [2, 3])
def test_quadrature_error_in_the_last_share_is_the_serial_error(monkeypatch, no_child_left,
                                                                cpus):
    """An integrand that turns nan past a point fails the last step only."""
    xs = [i / 1000.0 for i in range(1, 2 * core.BLOCK_ROWS + 2)]

    def f(x):
        return math.nan if x > xs[-2] else math.cos(x)

    errors = []
    for count in (1, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda count=count: count)
        with pytest.raises(oracle.QuadratureError) as exc:
            oracle.cumulative_integrate(f, xs)
        errors.append(exc.value)
    serial, shared = errors
    assert str(shared) == str(serial)
    assert "failed to converge" in str(shared)
    assert isinstance(shared, ArithmeticError)


def _integrate_closure(f, a, b, spec=oracle.DEFAULT_QUADRATURE):
    """integrate as it was written with a recursive closure per call:
    reference for the first panel inline and the module-level bisection."""
    if not math.isfinite(b - a):
        raise ValueError(f"integration interval must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    def recurse(lo, hi, abs_budget, depth):
        value, err = oracle._gk15(f, lo, hi)
        if err <= max(abs_budget, spec.rel_tol * abs(value)):
            return value, err
        if depth >= oracle._MAX_DEPTH:
            raise oracle.QuadratureError(
                f"quadrature failed to converge on [{lo}, {hi}] "
                f"at depth {depth} (error estimate {err:.3e})")
        mid = 0.5 * (lo + hi)
        vl, el = recurse(lo, mid, 0.5 * abs_budget, depth + 1)
        vr, er = recurse(mid, hi, 0.5 * abs_budget, depth + 1)
        return vl + vr, el + er

    value, _ = recurse(a, b, spec.abs_tol, 0)
    return sign * value


def _bisecting_integrands():
    sys, mode = _box_mode()
    tight = oracle.QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)
    return [
        (lambda x: math.exp(-50.0 * x * x), -1.0, 2.0, oracle.DEFAULT_QUADRATURE),
        (lambda x: 1.0 / (1.0 + 100.0 * x * x), -3.0, 2.0, oracle.DEFAULT_QUADRATURE),
        (lambda x: math.sin(30.0 * x), 0.0, 5.0, oracle.DEFAULT_QUADRATURE),
        (math.exp, -1.0, 2.0, tight),
        (boxmode.path_integrand(mode), 0.0, sys.a, tight),
    ]


@pytest.mark.parametrize("f,a,b,spec", _bisecting_integrands())
@pytest.mark.parametrize("flip", [False, True], ids=["forward", "reversed"])
def test_integrate_matches_closure_reference_bit_for_bit(f, a, b, spec, flip):
    if flip:
        a, b = b, a
    seen, seen_ref = [], []
    value = oracle.integrate(lambda x: seen.append(x) or f(x), a, b, spec)
    reference = _integrate_closure(lambda x: seen_ref.append(x) or f(x), a, b, spec)
    assert len(seen) > 15  # more than one panel
    assert value == reference
    assert seen == seen_ref


@pytest.mark.parametrize("flip", [False, True], ids=["forward", "reversed"])
def test_integrate_failure_matches_closure_reference(flip):
    spec = oracle.QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    f = lambda x: x**-0.9
    a, b = (1.0, 1e-12) if flip else (1e-12, 1.0)
    with pytest.raises(oracle.QuadratureError) as exc:
        oracle.integrate(f, a, b, spec)
    with pytest.raises(oracle.QuadratureError) as ref:
        _integrate_closure(f, a, b, spec)
    assert isinstance(exc.value, ArithmeticError)
    assert str(exc.value) == str(ref.value)


def test_oracle_imports_only_core_from_the_package():
    """The oracle is the independent route: it may not import the physics
    modules whose closed forms it is held against."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    relative = set()
    absolute = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
    assert relative == {"core"}
    assert "pfield" not in absolute
