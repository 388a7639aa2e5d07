"""Separable angular factors S_{l,m}(theta) and T_m(phi).

Normalization follows the split |Y_{l,m}|^2 = S^2 T T* with
integral S^2 sin(theta) dtheta = 1 over [0, pi] and |T_m|^2 = 1/(2 pi),
so S_{l,m} = sqrt(2 pi) |Y_{l,m}| up to sign.  Closed forms are kept to
l <= 2, which covers every state used elsewhere in the package, in one
table keyed (l, |m_l|); check_labels is the one test of a level's angular
labels against it.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)

# (l, |m_l|) -> (S, dS/dtheta), each a function of cos(theta), sin(theta).
_THETA = {
    (0, 0): (lambda c, s: 1.0 / _SQRT2,
             lambda c, s: 0.0),
    (1, 0): (lambda c, s: math.sqrt(6.0) / 2.0 * c,
             lambda c, s: -math.sqrt(6.0) / 2.0 * s),
    (1, 1): (lambda c, s: math.sqrt(3.0) / 2.0 * s,
             lambda c, s: math.sqrt(3.0) / 2.0 * c),
    (2, 0): (lambda c, s: math.sqrt(10.0) / 4.0 * (3.0 * c * c - 1.0),
             lambda c, s: -math.sqrt(10.0) / 4.0 * 6.0 * c * s),
    (2, 1): (lambda c, s: math.sqrt(15.0) / 2.0 * s * c,
             lambda c, s: math.sqrt(15.0) / 2.0 * (c * c - s * s)),
    (2, 2): (lambda c, s: math.sqrt(15.0) / 4.0 * s * s,
             lambda c, s: math.sqrt(15.0) / 2.0 * s * c),
}


def check_labels(l: int, m_l: int) -> None:
    """Raise ValueError unless (l, |m_l|) is tabulated (nan never is)."""
    if (l, abs(m_l)) not in _THETA:
        raise ValueError(f"theta factor not tabulated for (l, m_l)=({l!r}, {m_l!r})")


def theta_factor(l: int, m_l: int, theta: float) -> float:
    """S_{l,m}(theta) for l <= 2."""
    check_labels(l, m_l)
    return _THETA[l, abs(m_l)][0](math.cos(theta), math.sin(theta))


def theta_factor_slope(l: int, m_l: int, theta: float) -> float:
    """dS_{l,m}/dtheta for l <= 2."""
    check_labels(l, m_l)
    return _THETA[l, abs(m_l)][1](math.cos(theta), math.sin(theta))


def angular_density(l: int, m_l: int, theta: float) -> float:
    """|Y_{l,m}|^2 = S^2 / (2 pi)."""
    s = theta_factor(l, m_l, theta)
    return s * s / (2.0 * math.pi)
