"""End-to-end verification suite over every closed form in the package.

Each criterion pits package output against an independent reference: a
worked numeric value, a quadrature oracle, or an exact identity.  The
CLI `verify` subcommand runs the whole table and reports one block per
criterion; tests reuse the same functions.  Where a table subcommand
writes a closed form, the criterion samples the same row kernel
(figure_rows, flux_rows), so verify checks the code that writes the table.

The `perturb` argument scales the package-side value of every
comparison by (1 + perturb).  A one-percent perturbation is the
negative control: it must flip the tight comparisons to FAIL, showing
the suite actually constrains the numbers it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import boxmode, hydrogen, nonlinear, oracle, oscillator, timedep
from .core import ELECTRON_MASS, HBAR
from .oracle import ComparisonReport, compare

# Shared fixtures: an electron in a 2 nm box, in an alpha = 1e20 trap, in hydrogen.
_BOX_M = ELECTRON_MASS
_BOX_A = 2e-9
_OSC = oscillator.system_at_alpha(1e20, ELECTRON_MASS)
_HYDROGEN = hydrogen.HydrogenSystem(z=1.0, mu=ELECTRON_MASS)


def _range_report(label: str, value: float, lo: float, hi: float) -> ComparisonReport:
    """Check passed when value lands inside [lo, hi]."""
    return ComparisonReport.judge(label, value, 0.5 * (lo + hi), 0.5 * (hi - lo),
                                  lambda *_: lo <= value <= hi)


def _bool_report(label: str, value: float, reference: float,
                 passed: bool) -> ComparisonReport:
    """Check of a structural property (monotonicity, limits)."""
    return ComparisonReport.judge(label, value, reference, 0.0, lambda *_: passed)


def criterion_01(perturb: float = 0.0) -> list[ComparisonReport]:
    """Eighth-order path coefficients at b^2 = 0.5 against worked values."""
    s = 1.0 + perturb
    c1, c2, c3 = boxmode.path_series_coefficients(0.5)
    return [
        compare("c1(b^2=0.5)", s * c1, 1.1151, 5e-4, use_rel=False),
        compare("c2(b^2=0.5)", s * c2, 0.0561, 5e-4, use_rel=False),
        compare("c3(b^2=0.5)", s * c3, 7.44e-4, 1e-5, use_rel=False),
    ]


def criterion_02(perturb: float = 0.0) -> list[ComparisonReport]:
    """Truncated vs exact path integrand at the deepest point cos^2 = 1."""
    s = 1.0 + perturb
    series = boxmode.integrand_series(0.5, 0.0)
    exact = boxmode.integrand_exact(0.5, 0.0)
    return [compare("integrand at cos^2=1, b^2=0.5", s * series, exact,
                    1.1e-3, use_rel=False)]


def criterion_03(perturb: float = 0.0) -> list[ComparisonReport]:
    """Quadratic vs eighth-order first-harmonic weight at b^2 = 0.5.

    The quadratic path carries b^2/(2(b^2+4)) ~ 0.0556 per wavenumber;
    the eighth-order one c2/c1 ~ 0.0502.  Their gap is a real series
    effect and must sit in [4e-3, 7e-3].
    """
    s = 1.0 + perturb
    b_sq = 0.5
    quad = s * b_sq / (2.0 * (b_sq + 4.0))
    c1, c2, _ = boxmode.path_series_coefficients(b_sq)
    eighth = c2 / c1
    reports = [compare("quadratic harmonic weight", quad, 0.0556, 2e-4,
                       use_rel=False),
               _range_report("harmonic weight gap (quadratic - eighth)",
                             quad - eighth, 4e-3, 7e-3)]
    return reports


def criterion_04(perturb: float = 0.0) -> list[ComparisonReport]:
    """Eighth-order path vs quadrature oracle along the whole box.

    Same normalization g = 1/c1 on both sides, b^2 = 0.5, n = 1, ten
    thousand sample points; the sup deviation must stay within 1e-3 of
    the box width, and both closed-form variants must pin the walls to
    1e-12 relative.
    """
    s = 1.0 + perturb
    sys, mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, 1, 1.5)
    c1, _, _ = boxmode.path_series_coefficients(mode.b_sq)
    g = 1.0 / c1
    n_pts = 10_000
    xs = [sys.a * i / n_pts for i in range(1, n_pts + 1)]
    running = oracle.cumulative_integrate(boxmode.path_integrand(mode), xs)
    sup_dev = 0.0
    for x, acc in zip(xs, running):
        sup_dev = max(sup_dev, abs(s * boxmode.eighth_order_path(mode, x) - g * acc))

    reports = [compare("sup |series - oracle| / a", sup_dev / sys.a, 0.0,
                       1e-3, use_rel=False)]
    pins = {"quadratic": [q for _, q, *_ in boxmode.figure_rows(mode, sys, [0.0, sys.a])],
            "eighth_order": [boxmode.eighth_order_path(mode, x) for x in (0.0, sys.a)]}
    for label, (q0, qa) in pins.items():
        reports.append(compare(f"wall pin q(0) [{label}]",
                               q0 / sys.a, 0.0, 1e-12, use_rel=False))
        reports.append(compare(f"wall pin q(a) [{label}]",
                               qa / sys.a, 1.0, 1e-12, use_rel=False))
    return reports


def criterion_05(perturb: float = 0.0) -> list[ComparisonReport]:
    """Energy identity e_n (1 - p_P^2 a_n^2 / hbar^2) = e_particle.

    Checked for n = 1..10 across four momentum ratios; the identity is
    algebraic so the worst relative deviation must be below 1e-12.
    """
    s = 1.0 + perturb
    worst = 0.0
    for n in range(1, 11):
        for ratio in (1.1, 1.4, 1.5, 1.9):
            sys, mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, n, ratio)
            e_particle = sys.p_particle**2 / (2.0 * sys.m)
            lhs = s * mode.e_n * (1.0 - (sys.p_particle * mode.a_n / HBAR) ** 2)
            worst = max(worst, abs(lhs - e_particle) / e_particle)
    return [compare("worst energy identity deviation (40 modes)", worst,
                    0.0, 1e-12, use_rel=False)]


def criterion_06(perturb: float = 0.0) -> list[ComparisonReport]:
    """Classical threshold scale: alpha = 1e20, n = 50."""
    s = 1.0 + perturb
    cap_l = oscillator.classical_threshold(_OSC, 50)
    supp = oscillator.threshold_suppression(50)
    return [
        compare("threshold amplitude L_50", s * cap_l, 1.005e-9, 5e-3),
        _range_report("envelope suppression exp(-101)", s * supp,
                      0.5e-44, 2e-44),
    ]


def criterion_07(perturb: float = 0.0) -> list[ComparisonReport]:
    """First-level path bump at the envelope scale and its extinction.

    alpha = 1e20, amplitude 1e-10: sqrt(alpha) q(1/sqrt(alpha)) must hit
    1.0088 within 2e-3, and at the n = 50 threshold amplitude the path
    correction has died to below 1e-20 relative.
    """
    s = 1.0 + perturb
    mode = oscillator.make_mode(_OSC, 1, amplitude=1e-10)
    [(_, _, q_env, _)] = oscillator.figure_rows(mode, _OSC, [1.0 / math.sqrt(_OSC.alpha)])
    dq_cap = oscillator.path_correction(mode, _OSC, _OSC.cap_l)
    return [
        compare("sqrt(alpha) q_1(1/sqrt(alpha))",
                s * q_env * math.sqrt(_OSC.alpha), 1.0088, 2e-3, use_rel=False),
        compare("relative path correction at L_50",
                s * dq_cap / _OSC.cap_l, 0.0, 1e-20, use_rel=False),
    ]


def criterion_08(perturb: float = 0.0) -> list[ComparisonReport]:
    """Linearized-vs-exact speed gap for a 2p0 amplitude of 0.1."""
    s = 1.0 + perturb
    gap = hydrogen.approximation_gap(0.1)
    return [compare("speed linearization gap at a_ha=0.1", s * gap,
                    7.1e-7, 1e-8, use_rel=False)]


def criterion_09(perturb: float = 0.0) -> list[ComparisonReport]:
    """2p orbit cross-sections at r = a0, Z = 1, amplitude 0.1.

    The field term q/r - 1 is about 3e-4 here, so it is compared to 1e-4
    relative: a 1% error in it must fail.
    """
    s = 1.0 + perturb
    sections = hydrogen.cross_sections_2p(_HYDROGEN, 0.1, _HYDROGEN.a0)
    refs = (2.9276e-4, 1.4638e-4, 7.319e-5, 1.4638e-4)
    return [compare(f"{which} {plane} q/r - 1", s * (q_over_r - 1.0), ref, 1e-4)
            for ((which, plane), q_over_r), ref in zip(sections.items(), refs)]


def criterion_10(perturb: float = 0.0) -> list[ComparisonReport]:
    """<e_mu> over the radial density must return e_n, state by state."""
    s = 1.0 + perturb
    reports = []
    for n, l in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        mean = hydrogen.mean_orbit_energy(_HYDROGEN, n, l)
        reports.append(compare(f"<e_mu> vs e_n for (n,l)=({n},{l})", s * mean,
                               hydrogen.level_energy(_HYDROGEN, n), 1e-8))
    return reports


def criterion_11(perturb: float = 0.0) -> list[ComparisonReport]:
    """Quartic-term spectrum: linear limit, residual order, level pinning."""
    s = 1.0 + perturb
    sys = boxmode.BoxSystem(m=_BOX_M, a=_BOX_A,
                            p_particle=HBAR * math.pi / _BOX_A)
    reports = []

    # eps -> 0 collapses onto the linear spectrum to machine precision.
    worst = 0.0
    a_tilde = 1e-10
    params0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a_tilde)
    for n in (1, 2, 3):
        e_lin = timedep.bare_eigenmode(sys.m, sys.a, n).e_n
        e_non = nonlinear.energy_levels(params0, sys, n)
        worst = max(worst, abs(s * e_non - e_lin) / e_lin)
    reports.append(compare("eps=0 spectrum collapse (worst of 3)", worst,
                           0.0, 1e-15, use_rel=False))

    # Residual of the first-order solution scales as eps^2.
    k = math.pi / _BOX_A
    strengths = (1e-6, 1e-5, 1e-4, 1e-3)
    maxima = []
    for strength in strengths:
        params = nonlinear.NonlinearParams(eps=strength * k**2 / a_tilde**2,
                                           a_tilde=a_tilde)
        peak = max(abs(nonlinear.duffing_residual(params, k, j * _BOX_A / 200.0))
                   for j in range(1, 200))
        maxima.append(peak)
    slope = (math.log(maxima[-1]) - math.log(maxima[0])) \
        / (math.log(strengths[-1]) - math.log(strengths[0]))
    reports.append(compare("residual log-log slope in eps", s * slope,
                           2.0, 0.1, use_rel=False))

    # The shifted wavenumber satisfies the wall condition exactly.
    params = nonlinear.NonlinearParams(eps=0.05 * k**2 / a_tilde**2,
                                       a_tilde=a_tilde)
    worst_pin = 0.0
    for n in (1, 2, 3):
        k_n = nonlinear.quantized_k(params, sys, n)
        pin = nonlinear.omega_ratio(params, k_n) * k_n * sys.a / (n * math.pi)
        worst_pin = max(worst_pin, abs(s * pin - 1.0))
    reports.append(compare("wall condition w(k) k a = n pi (worst of 3)",
                           worst_pin, 0.0, 1e-12, use_rel=False))
    return reports


def criterion_12(perturb: float = 0.0) -> list[ComparisonReport]:
    """Probability bookkeeping of a two-level beat and of pure modes."""
    s = 1.0 + perturb
    m, a = _BOX_M, _BOX_A
    beat, t0, h_x, h_t = timedep.equal_weight_beat(m, a)

    xs = [a * i / 400 for i in range(1, 400)]
    worst_res = max(abs(res) for _, _, res in timedep.flux_rows(beat, xs, t0, h_x, h_t))
    worst_rate = max(abs(2.0 * (beat.value(x, t0).conjugate() * beat.d_dt(x, t0)).real)
                     for x in xs)
    reports = [compare("continuity residual / max|drho/dt|",
                       s * worst_res / worst_rate, 0.0, 1e-6, use_rel=False)]

    [(_, _, r_h)] = timedep.flux_rows(beat, [0.3 * a], t0, h_x, h_t)
    [(_, _, r_h2)] = timedep.flux_rows(beat, [0.3 * a], t0, 0.5 * h_x, 0.5 * h_t)
    reports.append(_range_report("residual refinement ratio", s * r_h / r_h2,
                                 3.5, 4.5))

    mode1 = beat.components[0][0]
    single = timedep.Superposition(m=m, a=a, components=((mode1, 1.0 + 0j),),
                                   energies=(mode1.e_n,))
    peak_flux = max(abs(f) for _, f, _ in timedep.flux_rows(
        single, [a * i / 64.0 for i in range(1, 64)], t0, h_x, h_t))
    flux_scale = HBAR * mode1.k_n / (m * a)
    reports.append(compare("stationary flux / (hbar k / m a)",
                           s * peak_flux / flux_scale, 0.0, 1e-15,
                           use_rel=False))
    p_mean = timedep.expectation_p(single, t0)
    reports.append(compare("stationary <p> / (hbar k_1)",
                           s * p_mean / (HBAR * mode1.k_n), 0.0, 1e-12,
                           use_rel=False))
    p2 = timedep.expectation_p2(single, t0)
    reports.append(compare("stationary <p^2> vs (hbar k_1)^2", s * p2,
                           (HBAR * mode1.k_n) ** 2, 1e-10))
    return reports


def criterion_13(perturb: float = 0.0) -> list[ComparisonReport]:
    """Classical limit: amplitude, normalization and path all flatten
    monotonically as the particle momentum approaches the level."""
    s = 1.0 + perturb
    ratios = (1.9, 1.6, 1.3, 1.1, 1.01, 1.0001)
    amps = []
    gs = []
    sups = []
    xs = [_BOX_A * i / 256.0 for i in range(257)]
    for ratio in ratios:
        sys, mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, 1, ratio)
        amps.append(mode.a_n)
        gs.append(mode.g_npf)
        sup = max(abs(q - x) for x, q, *_ in boxmode.figure_rows(mode, sys, xs))
        sups.append(sup / _BOX_A)
    amp_mono = all(x > y for x, y in zip(amps, amps[1:]))
    g_mono = all(x < y for x, y in zip(gs, gs[1:]))
    sup_mono = all(x > y for x, y in zip(sups, sups[1:]))
    return [
        _bool_report("a_n strictly decreasing", amps[-1], 0.0, amp_mono),
        _bool_report("g strictly increasing", gs[-1], 1.0, g_mono),
        _bool_report("sup|q - x|/a strictly decreasing", sups[-1], 0.0,
                     sup_mono),
        compare("a_n shrink factor across sweep", s * amps[-1] / amps[0],
                0.0, 2e-2, use_rel=False),
        compare("1 - g at ratio 1.0001", s * (1.0 - gs[-1]), 0.0, 1e-4,
                use_rel=False),
        compare("sup|q - x|/a at ratio 1.0001", s * sups[-1], 0.0, 5e-6,
                use_rel=False),
    ]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one verification criterion."""

    ident: str
    description: str
    reports: tuple[ComparisonReport, ...]

    @classmethod
    def run(cls, ident: str, func: Callable[[float], list[ComparisonReport]],
            perturb: float = 0.0) -> CriterionResult:
        """Run one criterion; its description is its docstring's first line."""
        description = (func.__doc__ or ident).strip().splitlines()[0]
        return cls(ident=ident, description=description,
                   reports=tuple(func(perturb)))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


_CRITERIA = (
    ("path-coefficients", criterion_01),
    ("integrand-truncation", criterion_02),
    ("harmonic-weight-gap", criterion_03),
    ("path-vs-oracle", criterion_04),
    ("energy-identity", criterion_05),
    ("oscillator-threshold", criterion_06),
    ("oscillator-path-bump", criterion_07),
    ("speed-linearization-gap", criterion_08),
    ("orbit-cross-sections", criterion_09),
    ("orbit-energy-average", criterion_10),
    ("quartic-spectrum", criterion_11),
    ("probability-bookkeeping", criterion_12),
    ("classical-limit", criterion_13),
)


def run_acceptance_suite(perturb: float = 0.0) -> list[CriterionResult]:
    """Run all criteria; perturb != 0 is the negative-control mode."""
    return [CriterionResult.run(ident, func, perturb) for ident, func in _CRITERIA]
