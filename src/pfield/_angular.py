"""The angular labels (l, |m_l|) of the separable factors S_{l,m}(theta) T_m(phi).

The factors split |Y_{l,m}|^2 = S^2 T T*.  Every state of the package has
l <= 2; _LABELS holds those (l, |m_l|) pairs, and check_labels is the one
test of a level's angular labels against them.
"""

from __future__ import annotations

_LABELS = {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def check_labels(l: int, m_l: int) -> None:
    """Raise ValueError unless (l, |m_l|) is tabulated (nan never is)."""
    if (l, abs(m_l)) not in _LABELS:
        raise ValueError(f"theta factor not tabulated for (l, m_l)=({l!r}, {m_l!r})")
