"""Time-dependent checks on the bare box problem.

Superpositions Psi(x, t) = sum_j c_j sqrt(2/a) sin(k_j x) e^(-i E_j t/hbar)
supply the probability bookkeeping the composite picture must respect:
density rho = |Psi|^2, flux j = (hbar/m) Im(Psi* dPsi/dx), continuity
d rho/dt + dj/dx = 0, and momentum moments <p>, <p^2>.  Stationary modes
carry zero flux and zero mean momentum; beats between levels slosh
probability with <p> oscillating about zero.

Multi-level superpositions use bare eigenmodes (field amplitude zero,
p_particle saturating each level), built by bare_eigenmode.  A
Superposition is only its components, distinct levels of one box: its m
and a are those of the first mode's system, each term evolves at its
mode's e_n, and the constructor rejects a non-finite coefficient and
rescales the coefficients to unit weight.  Each Superposition method
checks that its x lies inside the box and builds the phase table
(c_j sqrt(2/a), k_j, e^(-i E_j t/hbar)) of its time t.
flux_columns tabulates the flux and the continuity residual over a whole
grid in one kernel, one column each: it reads each of its three phase
tables (t and t +/- h_t) once per call, so every point of the grid shares
the cos and sin of each phase, and it checks the grid once; a point value
is a one-element grid.  The real and imaginary quadratures of a momentum
moment share their node values: Psi* d^j Psi/dx^j is evaluated once per
distinct node and read by both.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable, Sequence

from . import oracle
from .boxmode import BoxMode, BoxSystem, _check_grid, make_mode
from .core import HBAR, column, require_finite, require_finite_positive, require_level

# (c_j sqrt(2/a), k_j, e^(-i E_j t/hbar)) for each component j at one time t.
_Terms = tuple[tuple[complex, float, complex], ...]


def bare_eigenmode(m: float, a: float, n: int) -> BoxMode:
    """Level n with p_particle = p_n: zero field amplitude, the bare
    quantum mode of the box."""
    require_level(n, 1)
    require_finite_positive(a=a)
    p_n = HBAR * (n * math.pi / a)
    return make_mode(BoxSystem(m=m, a=a, p_particle=p_n), n)


class Superposition(collections.namedtuple("Superposition", "components")):
    """Linear combination of eigenmodes of one box, at unit total weight:
    components is a tuple of (BoxMode, complex) pairs."""

    __slots__ = ()

    def __new__(cls, components: tuple[tuple[BoxMode, complex], ...]) -> Superposition:
        comps = [(mode, complex(c)) for mode, c in components]
        w = math.hypot(*(abs(c) for _, c in comps))
        if not 0.0 < w < math.inf:
            raise ValueError("need finite coefficients, one of them nonzero")
        box = comps[0][0].sys
        seen = set()
        for mode, _ in comps:
            if (mode.sys.m, mode.sys.a) != (box.m, box.a):
                raise ValueError(f"level n={mode.n} belongs to another box "
                                 f"(m={mode.sys.m!r}, a={mode.sys.a!r})")
            if mode.n in seen:
                raise ValueError(f"level n={mode.n} appears twice")
            seen.add(mode.n)
        return super().__new__(cls, tuple((mode, c / w) for mode, c in comps))

    def __reduce__(self) -> tuple[object, ...]:
        # A copy or an unpickled record keeps the coefficients as they are;
        # rescaling them a second time could move their last bits.
        return tuple.__new__, (type(self), tuple(self))

    @property
    def m(self) -> float:
        """Particle mass of the box."""
        return self.components[0][0].sys.m

    @property
    def a(self) -> float:
        """Width of the box."""
        return self.components[0][0].sys.a

    def _terms(self, t: float) -> _Terms:
        """The term table at time t."""
        require_finite(t=t)
        amp = math.sqrt(2.0 / self.a)
        return tuple(
            (c * amp, mode.k_n,
             complex(math.cos(mode.e_n * t / HBAR), -math.sin(mode.e_n * t / HBAR)))
            for mode, c in self.components)

    def _sum(self, x: float, t: float, term: Callable[..., complex]) -> complex:
        """Sum over the components of term(c_j sqrt(2/a), k_j, k_j x,
        e^(-i E_j t/hbar), E_j), once x is checked to lie inside the box."""
        _check_grid(self.a, (x,))
        out = 0j
        for (c_amp, k, phase), (mode, _) in zip(self._terms(t), self.components):
            out += term(c_amp, k, k * x, phase, mode.e_n)
        return out

    def value(self, x: float, t: float) -> complex:
        return self._sum(x, t, lambda c, k, kx, phase, e: c * math.sin(kx) * phase)

    def d_dx(self, x: float, t: float) -> complex:
        return self._sum(x, t, lambda c, k, kx, phase, e: c * k * math.cos(kx) * phase)

    def d2_dx2(self, x: float, t: float) -> complex:
        return self._sum(x, t, lambda c, k, kx, phase, e:
                         -(c * k**2 * math.sin(kx) * phase))

    def d_dt(self, x: float, t: float) -> complex:
        return self._sum(x, t, lambda c, k, kx, phase, e:
                         c * math.sin(kx) * phase * complex(0.0, -e / HBAR))


def equal_weight_beat(m: float, a: float) -> tuple[Superposition, float, float, float]:
    """Equal-weight beat of levels 1 and 2 of the bare box, as (psi, t0,
    h_x, h_t): the snapshot t0 is a tenth of the beat period, and the
    continuity steps are h_x = a/1e4 and the time level 2 takes to cross it.
    """
    mode1 = bare_eigenmode(m, a, 1)
    mode2 = bare_eigenmode(m, a, 2)
    psi = Superposition(((mode1, 1.0 + 0j), (mode2, 1.0 + 0j)))
    t0 = 0.1 * 2.0 * math.pi * HBAR / (mode2.e_n - mode1.e_n)
    h_x = a / 1e4
    h_t = h_x * m / (HBAR * mode2.k_n)
    return psi, t0, h_x, h_t


def density(field, x: float, t: float) -> float:
    """rho = |Psi|^2."""
    return abs(field.value(x, t)) ** 2


def flux_columns(s: Superposition, xs: Sequence[float], t: float,
                 h_x: float, h_t: float) -> tuple[Sequence[float], Sequence[float]]:
    """Columns (j, residual) of the flux check on the grid xs.

    j is the probability flux (hbar/m) Im(Psi* dPsi/dx) at (x, t), and
    residual the central-difference continuity residual d rho/dt + dj/dx
    with steps h_t and h_x, second order in both.  c_j sqrt(2/a) sin(k_j x) is
    computed once per x and shared by the values at t and t +/- h_t.  The
    steps and the grid are checked once, every x at least h_x inside the
    box.
    """
    require_finite_positive(h_x=h_x, h_t=h_t)
    a = s.a
    if not all(h_x <= x <= a - h_x and x + h_x <= a for x in xs):
        raise ValueError(f"grid comes closer than h_x={h_x} to the box edge [0, {a}]")
    # Per component: c_j sqrt(2/a), c_j sqrt(2/a) k_j, k_j and the phases
    # at t, t + h_t and t - h_t.
    comps = [(c_amp, c_amp * k, k, phase, phase_p, phase_m)
             for (c_amp, k, phase), (_, _, phase_p), (_, _, phase_m)
             in zip(s._terms(t), s._terms(t + h_t), s._terms(t - h_t))]
    hbar_m = HBAR / s.m
    two_h_x = 2.0 * h_x
    two_h_t = 2.0 * h_t
    sin, cos = math.sin, math.cos
    flux, residual = column(()), column(())
    for x in xs:
        x_l = x - h_x
        x_r = x + h_x
        psi = d_psi = psi_p = psi_m = psi_l = d_psi_l = psi_r = d_psi_r = 0j
        for c_amp, ck, k, phase, phase_p, phase_m in comps:
            c_sin = c_amp * sin(k * x)
            psi += c_sin * phase
            d_psi += ck * cos(k * x) * phase
            psi_p += c_sin * phase_p
            psi_m += c_sin * phase_m
            psi_l += c_amp * sin(k * x_l) * phase
            d_psi_l += ck * cos(k * x_l) * phase
            psi_r += c_amp * sin(k * x_r) * phase
            d_psi_r += ck * cos(k * x_r) * phase
        drho_dt = (abs(psi_p) ** 2 - abs(psi_m) ** 2) / two_h_t
        dj_dx = (hbar_m * (psi_r.conjugate() * d_psi_r).imag
                 - hbar_m * (psi_l.conjugate() * d_psi_l).imag) / two_h_x
        flux.append(hbar_m * (psi.conjugate() * d_psi).imag)
        residual.append(drho_dt + dj_dx)
    return flux, residual


def norm(s: Superposition, t: float) -> float:
    """Integral of the density over the box."""
    return oracle.integrate(lambda x: density(s, x, t), 0.0, s.a)


def _moment_spec(s: Superposition, k_power: int) -> oracle.QuadratureSpec:
    """Quadrature tolerances scaled to the moment integrand.

    Parts of Psi* d^j Psi/dx^j are exact zeros polluted by rounding
    noise of order eps |Psi| |d^j Psi|; the absolute floor must sit
    above that noise or the adaptive refinement chases it forever.
    """
    c_sum = sum(abs(c) for _, c in s.components)
    k_sum = sum(abs(c) * mode.k_n**k_power for mode, c in s.components)
    return oracle.QuadratureSpec(rel_tol=1e-11, abs_tol=2e-14 * c_sum * k_sum)


def _moment(s: Superposition, t: float, order: int, prefactor: complex,
            label: str) -> float:
    """Real part of prefactor * integral Psi* d^order Psi/dx^order.

    The imaginary part is a boundary term that must vanish; it is
    checked against 1e-12 relative before being dropped.
    """
    deriv = s.d_dx if order == 1 else s.d2_dx2
    spec = _moment_spec(s, order)

    @functools.cache
    def integrand(x: float) -> complex:
        return s.value(x, t).conjugate() * deriv(x, t)

    re = oracle.integrate(lambda x: integrand(x).real, 0.0, s.a, spec)
    im = oracle.integrate(lambda x: integrand(x).imag, 0.0, s.a, spec)
    val = prefactor * complex(re, im)
    if abs(val.imag) > 1e-12 * abs(val.real) + 1e-20:
        raise ValueError(
            f"{label} picked up imaginary part {val.imag:.3e}; "
            "superposition is inconsistent")
    return val.real


def expectation_p(s: Superposition, t: float) -> float:
    """<p> = -i hbar integral Psi* dPsi/dx."""
    return _moment(s, t, 1, -1j * HBAR, "<p>")


def expectation_p2(s: Superposition, t: float) -> float:
    """<p^2> = -hbar^2 integral Psi* d2Psi/dx2; equals the coefficient-
    weighted sum of (hbar k_j)^2 at all times."""
    return _moment(s, t, 2, -HBAR**2, "<p^2>")
