"""Quartic field self-interaction: Duffing solution and shifted spectrum."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from pfield import boxmode, nonlinear
from pfield.core import ELECTRON_MASS

A_BOX = 2e-9
K1 = math.pi / A_BOX


def _level(n: int, ratio: float = 1.0) -> boxmode.BoxMode:
    return boxmode.level_at_ratio(ELECTRON_MASS, A_BOX, n, ratio)


def test_params_validation():
    with pytest.raises(ValueError):
        nonlinear.NonlinearParams(eps=1.0, a_tilde=0.0)


def test_validity_boundary():
    a = 1e-10
    k = K1
    near_limit = nonlinear.NonlinearParams(eps=0.0999 * k * k / (a * a), a_tilde=a)
    nonlinear.omega_ratio(near_limit, k)    # just inside the limit: allowed
    beyond = nonlinear.NonlinearParams(eps=0.11 * k * k / (a * a), a_tilde=a)
    with pytest.raises(ValueError, match="perturbative regime"):
        nonlinear.omega_ratio(beyond, k)
    with pytest.raises(ValueError):
        nonlinear.omega_ratio(near_limit, 0.0)


def test_omega_ratio_values():
    a = 1e-10
    p0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a)
    assert nonlinear.omega_ratio(p0, K1) == 1.0
    p = nonlinear.NonlinearParams(eps=0.08 * K1**2 / a**2, a_tilde=a)
    assert nonlinear.omega_ratio(p, K1) == pytest.approx(1.0 - 0.03, rel=1e-12)


def test_duffing_solution_linear_limit_is_bitwise():
    a = 1e-10
    p0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a)
    for x in (0.0, 0.3 * A_BOX, 0.77 * A_BOX):
        assert list(nonlinear.duffing_columns(p0, K1, [x])[0]) == [a * math.sin(K1 * x)]


def test_duffing_residual_vanishes_at_eps_zero():
    a = 1e-10
    p0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a)
    scale = K1**2 * a
    for x in (0.1 * A_BOX, 0.45 * A_BOX):
        [residual] = nonlinear.duffing_columns(p0, K1, [x])[2]
        assert abs(residual) <= 1e-14 * scale


def test_duffing_residual_is_second_order():
    a = 1e-10
    x = 0.23 * A_BOX
    eps1 = 1e-4 * K1**2 / a**2
    [r1] = nonlinear.duffing_columns(
        nonlinear.NonlinearParams(eps=eps1, a_tilde=a), K1, [x])[2]
    [r2] = nonlinear.duffing_columns(
        nonlinear.NonlinearParams(eps=2.0 * eps1, a_tilde=a), K1, [x])[2]
    assert 3.9 <= r2 / r1 <= 4.1


def _lists(columns):
    return tuple(map(list, columns))


def _duffing_point_forms(params, k, xs):
    return ([ref.duffing_solution(params, k, x) for x in xs],
            [ref.duffing_second_derivative(params, k, x) for x in xs],
            [ref.duffing_residual(params, k, x) for x in xs])


@pytest.mark.parametrize("strength", [-0.1, -1e-3, 0.0, 1e-6, 1e-3, 0.05, 0.1])
@pytest.mark.parametrize("k_scale", [1.0, 2.0, 3.7])
def test_duffing_columns_match_point_forms_bit_for_bit(strength, k_scale):
    a = 1e-10
    k = k_scale * K1
    params = nonlinear.NonlinearParams(eps=strength * k**2 / a**2, a_tilde=a)
    xs = [A_BOX * j / 256.0 for j in range(257)]
    assert _lists(nonlinear.duffing_columns(params, k, xs)) == \
        _duffing_point_forms(params, k, xs)


@settings(max_examples=300, deadline=None)
@given(strength=st.floats(-0.1, 0.1), k_scale=st.floats(0.5, 4.0),
       xs=st.lists(st.floats(-2.0 * A_BOX, 2.0 * A_BOX), min_size=1, max_size=50))
# eps = strength k^2/a^2 can round-trip to one ulp above VALIDITY_LIMIT.
@example(strength=0.1, k_scale=2.189453125, xs=[0.0])
def test_duffing_columns_match_point_forms_on_drawn_points(strength, k_scale, xs):
    a = 1e-10
    k = k_scale * K1
    params = nonlinear.NonlinearParams(eps=strength * k**2 / a**2, a_tilde=a)
    try:
        expected = _duffing_point_forms(params, k, xs)
    except ValueError as exc:
        # Where the point forms refuse the parameters, the kernel refuses
        # them with the same message.
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            nonlinear.duffing_columns(params, k, xs)
        return
    assert _lists(nonlinear.duffing_columns(params, k, xs)) == expected
    for x, chi, chi_xx, residual in zip(xs, *expected):
        assert _lists(nonlinear.duffing_columns(params, k, [x])) == \
            ([chi], [chi_xx], [residual])


def test_quantized_k_linear_limit_bitwise():
    p0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=1e-10)
    for n in (1, 2, 5):
        assert nonlinear.quantized_k(p0, _level(n)) == n * math.pi / A_BOX
        assert nonlinear.energy_levels(p0, _level(n)) == _level(n).e_n


def test_quantized_k_satisfies_wall_condition():
    a = 1e-10
    p = nonlinear.NonlinearParams(eps=5e-3 * K1**2 / a**2, a_tilde=a)
    for n in (1, 2, 3):
        k = nonlinear.quantized_k(p, _level(n))
        lhs = nonlinear.omega_ratio(p, k) * k * A_BOX
        assert lhs == pytest.approx(n * math.pi, rel=1e-12)


def test_quantized_k_shifts_with_sign():
    a = 1e-10
    hard = nonlinear.NonlinearParams(eps=1e-3 * K1**2 / a**2, a_tilde=a)
    soft = nonlinear.NonlinearParams(eps=-1e-3 * K1**2 / a**2, a_tilde=a)
    assert nonlinear.quantized_k(hard, _level(1, 1.5)) > K1
    assert nonlinear.quantized_k(soft, _level(1, 1.5)) < K1


def test_quantized_k_strong_softening_unbound():
    a = 1e-10
    # discriminant 1 + 3 eps a^2 A^2 / (2 pi^2) < 0
    eps = -2.0 * math.pi**2 / (3.0 * a**2 * A_BOX**2) * 1.5
    p = nonlinear.NonlinearParams(eps=eps, a_tilde=a)
    with pytest.raises(ValueError, match="no bounded level"):
        nonlinear.quantized_k(p, _level(1, 1.5))

