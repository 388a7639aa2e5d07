"""Separable angular factors S_{l,m}(theta) and T_m(phi).

Normalization follows the split |Y_{l,m}|^2 = S^2 T T* with
integral S^2 sin(theta) dtheta = 1 over [0, pi] and |T_m|^2 = 1/(2 pi),
so S_{l,m} = sqrt(2 pi) |Y_{l,m}| up to sign.  Closed forms are kept to
l <= 2, which covers every state used elsewhere in the package.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def theta_factor(l: int, m_l: int, theta: float) -> float:
    """S_{l,m}(theta) for l <= 2."""
    am = abs(m_l)
    if am > l:
        raise ValueError(f"|m_l|={am} exceeds l={l}")
    c = math.cos(theta)
    s = math.sin(theta)
    if l == 0:
        return 1.0 / _SQRT2
    if l == 1:
        if am == 0:
            return math.sqrt(6.0) / 2.0 * c
        return math.sqrt(3.0) / 2.0 * s
    if l == 2:
        if am == 0:
            return math.sqrt(10.0) / 4.0 * (3.0 * c * c - 1.0)
        if am == 1:
            return math.sqrt(15.0) / 2.0 * s * c
        return math.sqrt(15.0) / 4.0 * s * s
    raise ValueError(f"theta factor not tabulated for l={l}")


def theta_factor_slope(l: int, m_l: int, theta: float) -> float:
    """dS_{l,m}/dtheta for l <= 2."""
    am = abs(m_l)
    if am > l:
        raise ValueError(f"|m_l|={am} exceeds l={l}")
    c = math.cos(theta)
    s = math.sin(theta)
    if l == 0:
        return 0.0
    if l == 1:
        if am == 0:
            return -math.sqrt(6.0) / 2.0 * s
        return math.sqrt(3.0) / 2.0 * c
    if l == 2:
        if am == 0:
            return -math.sqrt(10.0) / 4.0 * 6.0 * c * s
        if am == 1:
            return math.sqrt(15.0) / 2.0 * (c * c - s * s)
        return math.sqrt(15.0) / 2.0 * s * c
    raise ValueError(f"theta factor not tabulated for l={l}")


def angular_density(l: int, m_l: int, theta: float) -> float:
    """|Y_{l,m}|^2 = S^2 / (2 pi)."""
    s = theta_factor(l, m_l, theta)
    return s * s / (2.0 * math.pi)
