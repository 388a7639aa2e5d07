"""End-to-end verification suite over every closed form in the package.

Each criterion pits package output against an independent reference: a
worked numeric value, a series, a quadrature oracle, or an exact
identity.  This module owns the criteria, their check record (built by
`compare`) and the verify report that `run_acceptance_suite` returns and
the CLI `verify` subcommand writes unchanged.  Where a table subcommand
writes a closed form, the criterion reads the same column kernel
(figure_columns, flux_columns), so verify checks the code that writes
the table.

Each criterion scales the package-side value of every comparison by its
`s`, 1.0 by default, except seven: the four wall pins of criterion 04 and
the three monotonicity flags of criterion 13.  `run_acceptance_suite`
passes every criterion s = 1 + perturb; with inject_error=True perturb is
0.01, the negative control, which must flip the tight comparisons to
FAIL, showing the suite actually constrains the numbers it prints.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import boxmode, hydrogen, nonlinear, oracle, oscillator, timedep
from .core import ELECTRON_MASS, HBAR

# Shared fixtures: an electron in a 2 nm box, in an alpha = 1e20 trap, in hydrogen.
_BOX_M = ELECTRON_MASS
_BOX_A = 2e-9
_OSC = oscillator.system_at_alpha(1e20, ELECTRON_MASS)
_HYDROGEN = hydrogen.HydrogenSystem(z=1.0, mu=ELECTRON_MASS)


class ComparisonReport(NamedTuple):
    """One check of a criterion; its fields are the keys of a check in
    the verify report."""

    label: str
    value: float
    reference: float
    abs_dev: float
    rel_dev: float | None
    tolerance: float
    passed: bool


def compare(label: str, value: float, reference: float, tolerance: float,
            use_rel: bool = True, passed: bool | None = None) -> ComparisonReport:
    """Check value against reference: passed when the chosen deviation is
    within tolerance, or as given.  rel_dev is None at a zero reference,
    null in the report, since JSON has no inf, and a relative check
    against a zero reference fails."""
    abs_dev = abs(value - reference)
    scale = abs(reference)
    rel_dev = abs_dev / scale if scale > 0.0 else None
    if passed is None:
        deviation = rel_dev if use_rel else abs_dev
        passed = deviation is not None and deviation <= tolerance
    return ComparisonReport(label=label, value=value, reference=reference,
                            abs_dev=abs_dev, rel_dev=rel_dev,
                            tolerance=tolerance, passed=passed)


def _worst(values: Iterable[float]) -> float:
    """The largest of values, or nan if any is nan: max alone skips a nan
    that does not come first, and a nan must fail the check it feeds."""
    return max(values, key=lambda v: (v != v, v))


def _range_report(label: str, value: float, lo: float, hi: float) -> ComparisonReport:
    """Check passed when value lands inside [lo, hi]."""
    return compare(label, value, 0.5 * (lo + hi), 0.5 * (hi - lo),
                   passed=lo <= value <= hi)


def _order_report(label: str, params: Sequence[float], errors: Sequence[float],
                  order: float, tol: float, s: float) -> ComparisonReport:
    """Observed order of accuracy (Roache, J. Fluids Eng. 124 (2002) 4):
    the log-log slope of |errors| against params, first pair to last,
    scaled by s and checked within tol of order.  A nan error gives a nan
    slope, which fails."""
    slope = (math.log(abs(errors[-1])) - math.log(abs(errors[0]))) \
        / (math.log(params[-1]) - math.log(params[0]))
    return compare(label, s * slope, order, tol, use_rel=False)


def criterion_01(s: float = 1.0) -> list[ComparisonReport]:
    """Eighth-order path coefficients at b^2 = 0.5: worked values and quadrature.

    The worked values hold in their bands.  The Fourier cosine moments of
    the eighth-order integrand f over [0, pi] give each coefficient
    independently, c1 = (1/pi) int f, c2 = (1/pi) int f cos 2t and
    c3 = -(1/2pi) int f cos 4t, and must match to 1e-12 relative.
    """
    b_sq = 0.5
    c1, c2, c3 = boxmode.path_series_coefficients(b_sq)
    spec = oracle.QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)

    def moment(harmonic: int) -> float:
        return oracle.integrate(
            lambda t: boxmode.integrand_series(b_sq, t) * math.cos(harmonic * t),
            0.0, math.pi, spec) / math.pi

    reports = [
        compare("c1(b^2=0.5)", s * c1, 1.1151, 5e-4, use_rel=False),
        compare("c2(b^2=0.5)", s * c2, 0.0561, 5e-4, use_rel=False),
        compare("c3(b^2=0.5)", s * c3, 7.44e-4, 1e-5, use_rel=False),
    ]
    for label, c, route in (("c1", c1, moment(0)), ("c2", c2, moment(2)),
                            ("c3", c3, -0.5 * moment(4))):
        reports.append(compare(f"{label}(b^2=0.5) vs Fourier quadrature", s * c, route, 1e-12))
    return reports


def criterion_02(s: float = 1.0) -> list[ComparisonReport]:
    """Truncated vs exact path integrand at the deepest point cos^2 = 1."""
    series = boxmode.integrand_series(0.5, 0.0)
    exact = math.sqrt(1.0 + 0.5)
    return [compare("integrand at cos^2=1, b^2=0.5", s * series, exact,
                    1.1e-3, use_rel=False)]


def criterion_03(s: float = 1.0) -> list[ComparisonReport]:
    """Quadratic vs eighth-order first-harmonic weight at b^2 = 0.5.

    The quadratic path of box-figure carries boxmode.harmonic_weight,
    b^2/(2(b^2+4)) ~ 0.0556; the eighth-order one c2/c1 ~ 0.0502.  Their
    gap is a real series effect and must sit in [4e-3, 7e-3].
    """
    b_sq = 0.5
    quad = s * boxmode.harmonic_weight(b_sq)
    c1, c2, _ = boxmode.path_series_coefficients(b_sq)
    eighth = c2 / c1
    reports = [compare("quadratic harmonic weight", quad, 0.0556, 2e-4,
                       use_rel=False),
               _range_report("harmonic weight gap (quadratic - eighth)",
                             quad - eighth, 4e-3, 7e-3)]
    return reports


def criterion_04(s: float = 1.0) -> list[ComparisonReport]:
    """Eighth-order path vs quadrature oracle along the whole box.

    Same normalization g = 1/c1 on both sides, b^2 = 0.5, n = 1: one
    eighth_order_path call on ten thousand sample points, one on the two
    walls.  The path is sixth order in b (the sixth and eighth harmonics
    are dropped); the sup deviation must stay within 1e-3 of the box
    width, and both closed-form variants must pin the walls to 1e-12
    relative.
    """
    mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, 1, 1.5)
    c1, _, _ = boxmode.path_series_coefficients(mode.b_sq)
    g = 1.0 / c1
    n_pts = 10_000
    xs = [_BOX_A * i / n_pts for i in range(1, n_pts + 1)]
    running = oracle.cumulative_integrate(boxmode.path_integrand(mode), xs)
    sup_dev = _worst(abs(s * q_x - g * acc)
                     for q_x, acc in zip(boxmode.eighth_order_path(mode, xs), running))

    reports = [compare("sup |series - oracle| / a", sup_dev / _BOX_A, 0.0,
                       1e-3, use_rel=False)]
    q, q_over_x, chi, psi_density = boxmode.figure_columns(mode, [0.0, _BOX_A])
    pins = {"quadratic": q,
            "eighth_order": boxmode.eighth_order_path(mode, [0.0, _BOX_A])}
    for label, (q0, qa) in pins.items():
        reports.append(compare(f"wall pin q(0) [{label}]",
                               q0 / _BOX_A, 0.0, 1e-12, use_rel=False))
        reports.append(compare(f"wall pin q(a) [{label}]",
                               qa / _BOX_A, 1.0, 1e-12, use_rel=False))
    return reports


def criterion_05(s: float = 1.0) -> list[ComparisonReport]:
    """Energy identity e_n (1 - p_P^2 a_n^2 / hbar^2) = e_particle.

    Checked for n = 1..10 across four momentum ratios; the identity is
    algebraic so the worst relative deviation must be below 1e-12.
    """
    deviations = []
    for n in range(1, 11):
        for ratio in (1.1, 1.4, 1.5, 1.9):
            mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, n, ratio)
            e_particle = boxmode.field_energy(mode, 0.0).e_particle
            lhs = s * mode.e_n * (1.0 - (mode.sys.p_particle * mode.a_n / HBAR) ** 2)
            deviations.append(abs(lhs - e_particle) / e_particle)
    return [compare("worst energy identity deviation (40 modes)", _worst(deviations),
                    0.0, 1e-12, use_rel=False)]


def criterion_06(s: float = 1.0) -> list[ComparisonReport]:
    """Classical threshold at alpha = 1e20, n = 50: worked scale and the root of e_field.

    The threshold amplitude L_50 must hold its worked value in its band
    and equal, to 1e-15 relative, the amplitude at which the field's share
    e_field of the level changes sign, found by bisection from the
    system's own amplitude; there the classical share e_mu takes the
    whole level e_n.
    """
    cap_l = oscillator.classical_threshold(_OSC, 50)
    supp = oscillator.threshold_suppression(50)

    def level(amplitude: float) -> oscillator.OscMode:
        sys = oscillator.OscSystem(_OSC.mu, _OSC.omega0, amplitude)
        return oscillator.make_mode(sys, 50, amplitude=1e-10)

    # Halve until the midpoint rounds to an end: hi is the least amplitude
    # found whose level leaves the field no energy.
    lo, hi = 0.5 * _OSC.cap_l, 2.0 * _OSC.cap_l
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if level(mid).e_field > 0.0:
            lo = mid
        else:
            hi = mid
    root = level(hi)
    return [
        compare("threshold amplitude L_50", s * cap_l, 1.005e-9, 5e-3),
        _range_report("envelope suppression exp(-101)", s * supp,
                      0.5e-44, 2e-44),
        compare("L_50 vs root of e_field", s * cap_l, root.sys.cap_l, 1e-15),
        compare("e_mu vs e_n at the root", s * root.e_mu, root.e_n, 1e-15),
    ]


def criterion_07(s: float = 1.0) -> list[ComparisonReport]:
    """First-level path bump at the envelope scale and its extinction.

    alpha = 1e20, amplitude 1e-10: sqrt(alpha) q(1/sqrt(alpha)) must hit
    1.0088 within 2e-3, and at the n = 50 threshold amplitude the path
    correction has died to below 1e-20 relative.
    """
    mode = oscillator.make_mode(_OSC, 1, amplitude=1e-10)
    r_env = 1.0 / math.sqrt(_OSC.alpha)
    dq_two, (dq_env, dq_cap), chi = oscillator.figure_columns(mode, [r_env, _OSC.cap_l])
    q_env = r_env + dq_env
    return [
        compare("sqrt(alpha) q_1(1/sqrt(alpha))",
                s * q_env * math.sqrt(_OSC.alpha), 1.0088, 2e-3, use_rel=False),
        compare("relative path correction at L_50",
                s * dq_cap / _OSC.cap_l, 0.0, 1e-20, use_rel=False),
    ]


def _binomial_gap(a_ha: float) -> float:
    """(1 + u/2) - sqrt(1 + u), u = 3 a_ha^2 / 4 pi, as the binomial series
    u^2/8 - u^3/16 + 5u^4/128 - ..., to u^12, summed with math.fsum."""
    u = 3.0 * a_ha**2 / (4.0 * math.pi)
    terms, term = [], 0.5 * u
    for k in range(1, 12):
        term *= (0.5 - k) / (k + 1) * u
        terms.append(-term)
    return math.fsum(terms)


def criterion_08(s: float = 1.0) -> list[ComparisonReport]:
    """Linearized-vs-exact speed gap for a 2p0 amplitude of 0.1.

    The worked value holds to 1e-8; at amplitudes 0.1 and 0.01 the gap
    must equal its binomial series to 1e-13 relative, which a form that
    cancels its digits fails.
    """
    reports = [compare("speed linearization gap at a_ha=0.1",
                       s * hydrogen.approximation_gap(0.1), 7.1e-7, 1e-8, use_rel=False)]
    for a_ha in (0.1, 0.01):
        reports.append(compare(f"gap vs binomial series at a_ha={a_ha}",
                               s * hydrogen.approximation_gap(a_ha), _binomial_gap(a_ha),
                               1e-13))
    return reports


def criterion_09(s: float = 1.0) -> list[ComparisonReport]:
    """2p orbit cross-sections at r = a0, Z = 1, amplitude 0.1.

    The field term q/r - 1 is about 3e-4 here, so it is compared to 1e-4
    relative: a 1% error in it must fail.
    """
    sections = hydrogen.cross_sections_2p(_HYDROGEN, 0.1, _HYDROGEN.a0)
    refs = (2.9276e-4, 1.4638e-4, 7.319e-5, 1.4638e-4)
    return [compare(f"{which} {plane} q/r - 1", s * (q_over_r - 1.0), ref, 1e-4)
            for ((which, plane), q_over_r), ref in zip(sections.items(), refs)]


def criterion_10(s: float = 1.0) -> list[ComparisonReport]:
    """<e_mu> over the radial density must return e_n, state by state."""
    reports = []
    for n, l in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        state = hydrogen.make_state(_HYDROGEN, n, l)
        reports.append(compare(f"<e_mu> vs e_n for (n,l)=({n},{l})",
                               s * hydrogen.mean_orbit_energy(state), state.e_n, 1e-8))
    return reports


def criterion_11(s: float = 1.0) -> list[ComparisonReport]:
    """Quartic-term spectrum: linear limit, residual order, level pinning."""
    modes = [timedep.bare_eigenmode(_BOX_M, _BOX_A, n) for n in (1, 2, 3)]
    reports = []

    # eps -> 0 collapses onto the linear spectrum to machine precision.
    a_tilde = 1e-10
    params0 = nonlinear.NonlinearParams(eps=0.0, a_tilde=a_tilde)
    worst = _worst(abs(s * nonlinear.energy_levels(params0, mode) - mode.e_n) / mode.e_n
                   for mode in modes)
    reports.append(compare("eps=0 spectrum collapse (worst of 3)", worst,
                           0.0, 1e-15, use_rel=False))

    # Residual of the first-order solution scales as eps^2.
    k = math.pi / _BOX_A
    strengths = (1e-6, 1e-3)
    xs = [j * _BOX_A / 200.0 for j in range(1, 200)]
    maxima = []
    for strength in strengths:
        params = nonlinear.NonlinearParams(eps=strength * k**2 / a_tilde**2,
                                           a_tilde=a_tilde)
        chi, chi_xx, residual = nonlinear.duffing_columns(params, k, xs)
        maxima.append(_worst(map(abs, residual)))
    reports.append(_order_report("residual log-log slope in eps", strengths, maxima,
                                 2.0, 0.1, s))

    # The shifted wavenumber satisfies the wall condition exactly.
    params = nonlinear.NonlinearParams(eps=0.05 * k**2 / a_tilde**2,
                                       a_tilde=a_tilde)
    pin_devs = []
    for mode in modes:
        k_n = nonlinear.quantized_k(params, mode)
        pin = nonlinear.omega_ratio(params, k_n) * k_n * _BOX_A / (mode.n * math.pi)
        pin_devs.append(abs(s * pin - 1.0))
    reports.append(compare("wall condition w(k) k a = n pi (worst of 3)",
                           _worst(pin_devs), 0.0, 1e-12, use_rel=False))
    return reports


def criterion_12(s: float = 1.0) -> list[ComparisonReport]:
    """Probability bookkeeping of a two-level beat and of pure modes."""
    m, a = _BOX_M, _BOX_A
    beat, t0, h_x, h_t = timedep.equal_weight_beat(m, a)

    xs = [a * i / 400 for i in range(1, 400)]
    flux, residual = timedep.flux_columns(beat, xs, t0, h_x, h_t)
    worst_rate = _worst(abs(2.0 * (beat.value(x, t0).conjugate() * beat.d_dt(x, t0)).real)
                        for x in xs)
    reports = [compare("continuity residual / max|drho/dt|",
                       s * _worst(map(abs, residual)) / worst_rate, 0.0, 1e-6,
                       use_rel=False)]

    steps = (1.0, 0.5)
    residuals = [timedep.flux_columns(beat, [0.3 * a], t0, f * h_x, f * h_t)[1][0]
                 for f in steps]
    reports.append(_order_report("residual order in the step factor at x = 0.3a",
                                 steps, residuals, 2.0, 0.1, s))

    mode1 = beat.components[0][0]
    single = timedep.Superposition(((mode1, 1.0 + 0j),))
    flux, residual = timedep.flux_columns(
        single, [a * i / 64.0 for i in range(1, 64)], t0, h_x, h_t)
    flux_scale = HBAR * mode1.k_n / (m * a)
    reports.append(compare("stationary flux / (hbar k / m a)",
                           s * _worst(map(abs, flux)) / flux_scale, 0.0, 1e-15,
                           use_rel=False))
    p_mean = timedep.expectation_p(single, t0)
    reports.append(compare("stationary <p> / (hbar k_1)",
                           s * p_mean / (HBAR * mode1.k_n), 0.0, 1e-12,
                           use_rel=False))
    p2 = timedep.expectation_p2(single, t0)
    reports.append(compare("stationary <p^2> vs (hbar k_1)^2", s * p2,
                           (HBAR * mode1.k_n) ** 2, 1e-10))
    return reports


def criterion_13(s: float = 1.0) -> list[ComparisonReport]:
    """Classical limit: amplitude, normalization and path all flatten
    monotonically as the particle momentum approaches the level."""
    ratios = (1.9, 1.6, 1.3, 1.1, 1.01, 1.0001)
    amps = []
    gs = []
    sups = []
    xs = [_BOX_A * i / 256.0 for i in range(257)]
    for ratio in ratios:
        mode = boxmode.level_at_ratio(_BOX_M, _BOX_A, 1, ratio)
        amps.append(mode.a_n)
        gs.append(mode.g_npf)
        q, q_over_x, chi, psi_density = boxmode.figure_columns(mode, xs)
        sups.append(_worst(abs(q_x - x) for x, q_x in zip(xs, q)) / _BOX_A)
    amp_mono = all(x > y for x, y in zip(amps, amps[1:]))
    g_mono = all(x < y for x, y in zip(gs, gs[1:]))
    sup_mono = all(x > y for x, y in zip(sups, sups[1:]))
    return [
        compare("a_n strictly decreasing", amps[-1], 0.0, 0.0, passed=amp_mono),
        compare("g strictly increasing", gs[-1], 1.0, 0.0, passed=g_mono),
        compare("sup|q - x|/a strictly decreasing", sups[-1], 0.0, 0.0,
                passed=sup_mono),
        compare("a_n shrink factor across sweep", s * amps[-1] / amps[0],
                0.0, 2e-2, use_rel=False),
        compare("1 - g at ratio 1.0001", s * (1.0 - gs[-1]), 0.0, 1e-4,
                use_rel=False),
        compare("sup|q - x|/a at ratio 1.0001", s * sups[-1], 0.0, 5e-6,
                use_rel=False),
    ]


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


def run_acceptance_suite(inject_error: bool = False) -> dict[str, object]:
    """Run all criteria and return the verify report; inject_error runs the
    negative control.  A criterion's description is its docstring's
    first line, or its ident where docstrings are stripped (python -OO)."""
    perturb = 0.01 if inject_error else 0.0
    s = 1.0 + perturb
    criteria = []
    for ident, func in _CRITERIA:
        checks = [r._asdict() for r in func(s)]
        criteria.append({"ident": ident,
                         "description": (func.__doc__ or ident).strip().splitlines()[0],
                         "passed": all(c["passed"] for c in checks), "checks": checks})
    return {"passed": all(c["passed"] for c in criteria), "perturb": perturb,
            "criteria": criteria}
