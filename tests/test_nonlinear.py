"""Quartic field self-interaction: Duffing solution and shifted spectrum."""

from __future__ import annotations

import math

import pytest

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
        assert nonlinear.duffing_solution(p0, K1, x) == a * math.sin(K1 * x)


def test_duffing_residual_vanishes_at_eps_zero():
    a = 1e-10
    p0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a)
    scale = K1**2 * a
    for x in (0.1 * A_BOX, 0.45 * A_BOX):
        assert abs(nonlinear.duffing_residual(p0, K1, x)) <= 1e-14 * scale


def test_duffing_residual_is_second_order():
    a = 1e-10
    x = 0.23 * A_BOX
    eps1 = 1e-4 * K1**2 / a**2
    r1 = nonlinear.duffing_residual(
        nonlinear.NonlinearParams(eps=eps1, a_tilde=a), K1, x)
    r2 = nonlinear.duffing_residual(
        nonlinear.NonlinearParams(eps=2.0 * eps1, a_tilde=a), K1, x)
    assert 3.9 <= r2 / r1 <= 4.1


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

