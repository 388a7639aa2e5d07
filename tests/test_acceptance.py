"""Acceptance gate: every verification criterion, one test case each.

Every criterion compares package output against an independent
reference (worked values, quadrature oracles, exact identities) at a
stated tolerance.  Each test prints one PASS/FAIL line; run with -s to
see them on success, or use the `pfield verify` subcommand which
prints the same lines unconditionally.
"""

from __future__ import annotations

import math

import pytest

from pfield import boxmode, hydrogen, nonlinear, oscillator, timedep, verification


@pytest.fixture(scope="module")
def descriptions():
    return {c["ident"]: c["description"]
            for c in verification.run_acceptance_suite()["criteria"]}


@pytest.mark.parametrize("ident,func", verification._CRITERIA,
                         ids=[ident for ident, _ in verification._CRITERIA])
def test_acceptance(descriptions, ident, func):
    reports = func()
    passed = all(r.passed for r in reports)
    print(f"ACCEPTANCE {'PASS' if passed else 'FAIL'} [{ident}] {descriptions[ident]}")
    failing = [
        f"{r.label}: value={r.value!r} reference={r.reference!r} "
        f"abs_dev={r.abs_dev:.3e} rel_dev={r.rel_dev} tol={r.tolerance:.3e}"
        for r in reports if not r.passed
    ]
    assert passed, f"criterion {ident} failed:\n" + "\n".join(failing)


def test_compare_relative_and_absolute_modes():
    r = verification.compare("x", 1.001, 1.0, tolerance=2e-3)
    assert r.passed and r.rel_dev == pytest.approx(1e-3)
    r = verification.compare("x", 1.001, 1.0, tolerance=5e-4)
    assert not r.passed
    r = verification.compare("x", 0.1, 0.0, tolerance=0.2, use_rel=False)
    assert r.passed and r.rel_dev is None
    # A relative check against a zero reference has no deviation to pass on.
    for value in (0.0, 0.1):
        r = verification.compare("x", value, 0.0, tolerance=0.2)
        assert not r.passed and r.rel_dev is None
    # A given verdict overrides the tolerance test; the deviations stay.
    for value, inside in ((5e-3, True), (8e-3, False)):  # a range [4e-3, 7e-3]
        r = verification._range_report("gap", value, 4e-3, 7e-3)
        assert r.passed is inside
        assert (r.reference, r.tolerance) == pytest.approx((5.5e-3, 1.5e-3))
        assert r.abs_dev == abs(value - r.reference)
    # Structural checks whose verdict contradicts the tolerance test.
    r = verification.compare("monotone", 0.5, 0.0, 0.0, passed=True)
    assert r.passed is True and r.abs_dev == 0.5 and r.rel_dev is None
    r = verification.compare("monotone", 1.0, 1.0, 0.0, passed=False)
    assert r.passed is False and r.abs_dev == 0.0 and r.rel_dev == 0.0


def test_negative_control_perturbation_trips_the_suite():
    """A one-percent perturbation must flip tight criteria to FAIL."""
    report = verification.run_acceptance_suite(inject_error=True)
    assert report["passed"] is False and report["perturb"] == 0.01
    failed = [c["ident"] for c in report["criteria"] if not c["passed"]]
    assert failed, "perturbed suite still passed everywhere; the gate is loose"
    assert len(failed) >= 5


def _scaled(factor):
    """The defect that scales what a function returns by factor."""
    return lambda original: lambda *args: factor * original(*args)


def _scaled_column(original):
    return lambda *args: [1.01 * value for value in original(*args)]


def _scaled_particle_energy(original):
    def defect(mode, x):
        budget = original(mode, x)
        return budget._replace(e_particle=1.01 * budget.e_particle)
    return defect


def _scaled_path_terms(original):
    def defect(mode, xs):
        dq_two, dq_three, chi = original(mode, xs)
        return [1.01 * dq for dq in dq_two], [1.01 * dq for dq in dq_three], chi
    return defect


def _cancelling_gap(original):
    """approximation_gap's old form, (1 + u/2) - sqrt(1 + u), which cancels its digits."""
    def defect(a_ha):
        u = 3.0 * a_ha**2 / (4.0 * math.pi)
        return (1.0 + 0.5 * u) - math.sqrt(1.0 + u)
    return defect


def _passes(reason):
    """The mark of a defect that its criterion passes, until the ROADMAP
    item that reason names lands."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {reason}")


# (criterion, module, name, defect, every) of each defect a criterion must
# catch: with module.name replaced by defect(module.name), the criterion
# fails, in every one of its checks where every is true.
_MUTATIONS = [
    pytest.param(verification.criterion_02, boxmode, "integrand_series", _scaled(1.01), True,
                 id="02 integrand_series x1.01"),
    # Criterion 03 reads the weight box-figure writes, so a 1% error in it
    # (about 5.6e-4) leaves the absolute 2e-4 band.
    pytest.param(verification.criterion_03, boxmode, "harmonic_weight", _scaled(1.01), False,
                 id="03 harmonic_weight x1.01"),
    pytest.param(verification.criterion_04, boxmode, "eighth_order_path", _scaled_column,
                 False, id="04 eighth_order_path x1.01"),
    pytest.param(verification.criterion_05, boxmode, "field_energy", _scaled_particle_energy,
                 True, id="05 e_particle x1.01"),
    # Scaled by 1.004, L_50 lies 4.0e-3 from the worked value, inside its
    # 5e-3 band; the root of e_field sees it.
    pytest.param(verification.criterion_06, oscillator, "classical_threshold", _scaled(1.004),
                 False, id="06 classical_threshold x1.004"),
    pytest.param(verification.criterion_07, oscillator, "figure_columns", _scaled_path_terms,
                 False, id="07 path terms x1.01",
                 marks=_passes("item 8: criterion 07 reads the path at one point, where "
                               "a 1% error in its terms is 9e-5, inside the 2e-3 band")),
    # A 1% error in the gap, 7e-9 at a_ha = 0.1, lies inside the worked
    # value's absolute 1e-8 band, and the cancelling form is off by 7.3e-11
    # there; the binomial series sees both.
    pytest.param(verification.criterion_08, hydrogen, "approximation_gap", _scaled(1.01),
                 False, id="08 approximation_gap x1.01"),
    pytest.param(verification.criterion_08, hydrogen, "approximation_gap", _cancelling_gap,
                 False, id="08 approximation_gap cancelling"),
    # q/r - 1 is about 3e-4, so a 1% error in it is 3e-6: inside an
    # absolute 1e-5 on q/r, outside the relative 1e-4 on q/r - 1.
    pytest.param(verification.criterion_09, hydrogen, "_envelope_2p", _scaled(1.01), True,
                 id="09 _envelope_2p x1.01"),
    pytest.param(verification.criterion_10, hydrogen, "mean_inv_r", _scaled(1.01), True,
                 id="10 mean_inv_r x1.01"),
    pytest.param(verification.criterion_11, nonlinear, "energy_levels", _scaled(1.01), False,
                 id="11 energy_levels x1.01"),
    pytest.param(verification.criterion_12, timedep, "expectation_p2", _scaled(1.01), False,
                 id="12 expectation_p2 x1.01"),
    pytest.param(verification.criterion_13, boxmode, "harmonic_weight", _scaled(1.01), False,
                 id="13 harmonic_weight x1.01",
                 marks=_passes("item 3: classical-limit checks trends that a 1% scaling "
                               "keeps, so it needs a defect of the second kind")),
]


@pytest.mark.parametrize("func,module,name,defect,every", _MUTATIONS)
def test_a_mutation_fails_its_criterion(monkeypatch, func, module, name, defect, every):
    assert all(r.passed for r in func())
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    passed = [r.passed for r in func()]
    assert not any(passed) if every else not all(passed)


@pytest.mark.parametrize("index", [0, 1, 2], ids=["c1", "c2", "c3"])
def test_suite_catches_a_one_percent_error_in_a_path_coefficient(monkeypatch, index):
    coefficients = boxmode.path_series_coefficients

    def scaled(b_sq):
        cs = list(coefficients(b_sq))
        cs[index] *= 1.01
        return tuple(cs)

    monkeypatch.setattr(boxmode, "path_series_coefficients", scaled)
    assert not verification.run_acceptance_suite()["passed"]


_OSC_PATH_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 8: no criterion compares the osc-trajectory path "
           "columns with the oracle, so a 1% error in c_two passes")


@pytest.mark.parametrize("n", [pytest.param(n, marks=_OSC_PATH_GAP) for n in (0, 1)])
def test_suite_catches_a_one_percent_error_in_the_oscillator_c_two(monkeypatch, n):
    columns = oscillator.figure_columns

    def scaled(mode, xs):
        dq_two, dq_three, chi = columns(mode, xs)
        if mode.n != n:
            return dq_two, dq_three, chi
        return ([1.01 * dq for dq in dq_two],
                [dq3 + 0.01 * dq for dq3, dq in zip(dq_three, dq_two)], chi)

    monkeypatch.setattr(oscillator, "figure_columns", scaled)
    assert not verification.run_acceptance_suite()["passed"]


def _nan_mid_grid(values):
    values = list(values)
    values[len(values) // 2] = math.nan
    return values


def _nan_in_box_path(monkeypatch):
    path = boxmode.eighth_order_path
    monkeypatch.setattr(boxmode, "eighth_order_path", lambda mode, xs: (
        _nan_mid_grid(path(mode, xs)) if len(xs) > 2 else path(mode, xs)))


def _nan_in_particle_energy_at_n5(monkeypatch):
    energy = boxmode.field_energy
    monkeypatch.setattr(boxmode, "field_energy", lambda mode, x: (
        energy(mode, x)._replace(e_particle=math.nan) if mode.n == 5 else energy(mode, x)))


def _nan_in_duffing_residual(monkeypatch):
    columns = nonlinear.duffing_columns

    def injected(params, k, xs):
        chi, chi_xx, residual = columns(params, k, xs)
        return chi, chi_xx, _nan_mid_grid(residual)
    monkeypatch.setattr(nonlinear, "duffing_columns", injected)


def _nan_in_flux_residual(monkeypatch):
    columns = timedep.flux_columns

    def injected(s, xs, t, h_x, h_t):
        flux, residual = columns(s, xs, t, h_x, h_t)
        return flux, _nan_mid_grid(residual) if len(xs) > 1 else residual
    monkeypatch.setattr(timedep, "flux_columns", injected)


def _nan_in_box_figure_q(monkeypatch):
    columns = boxmode.figure_columns

    def injected(mode, xs):
        q, *rest = columns(mode, xs)
        return (_nan_mid_grid(q), *rest)
    monkeypatch.setattr(boxmode, "figure_columns", injected)


@pytest.mark.parametrize("func,inject", [
    (verification.criterion_04, _nan_in_box_path),
    (verification.criterion_05, _nan_in_particle_energy_at_n5),
    (verification.criterion_11, _nan_in_duffing_residual),
    (verification.criterion_12, _nan_in_flux_residual),
    (verification.criterion_13, _nan_in_box_figure_q),
], ids=["path-vs-oracle", "energy-identity", "quartic-spectrum",
        "probability-bookkeeping", "classical-limit"])
def test_a_nan_in_a_checked_quantity_fails_its_criterion(monkeypatch, func, inject):
    """One nan away from the first place of a worst-case reduction must
    still reach the check, where it fails."""
    assert all(r.passed for r in func())
    inject(monkeypatch)
    assert not all(r.passed for r in func())
