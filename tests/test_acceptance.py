"""Acceptance gate: the thirteen verification criteria, one test each.

Every criterion compares package output against an independent
reference (worked values, quadrature oracles, exact identities) at a
stated tolerance.  Each test prints one PASS/FAIL line; run with -s to
see them on success, or use the `pfield verify` subcommand which
prints the same lines unconditionally.
"""

from __future__ import annotations

import pytest

from pfield import hydrogen, verification


def _check(index: int) -> None:
    ident, func = verification._CRITERIA[index - 1]
    result = verification.CriterionResult.run(ident, func)
    print(f"ACCEPTANCE {index:02d} {'PASS' if result.passed else 'FAIL'} "
          f"[{ident}] {result.description}")
    failing = [
        f"{r.label}: value={r.value!r} reference={r.reference!r} "
        f"abs_dev={r.abs_dev:.3e} rel_dev={r.rel_dev:.3e} tol={r.tolerance:.3e}"
        for r in result.reports if not r.passed
    ]
    assert result.passed, f"criterion {ident} failed:\n" + "\n".join(failing)


def test_acceptance_01_path_coefficients():
    _check(1)


def test_acceptance_02_integrand_truncation():
    _check(2)


def test_acceptance_03_harmonic_weight_gap():
    _check(3)


def test_acceptance_04_path_vs_oracle():
    _check(4)


def test_acceptance_05_energy_identity():
    _check(5)


def test_acceptance_06_oscillator_threshold():
    _check(6)


def test_acceptance_07_oscillator_path_bump():
    _check(7)


def test_acceptance_08_speed_linearization_gap():
    _check(8)


def test_acceptance_09_orbit_cross_sections():
    _check(9)


def test_acceptance_10_orbit_energy_average():
    _check(10)


def test_acceptance_11_quartic_spectrum():
    _check(11)


def test_acceptance_12_probability_bookkeeping():
    _check(12)


def test_acceptance_13_classical_limit():
    _check(13)


def test_negative_control_perturbation_trips_the_suite():
    """A one-percent perturbation must flip tight criteria to FAIL."""
    results = verification.run_acceptance_suite(perturb=0.01)
    failed = [r.ident for r in results if not r.passed]
    assert failed, "perturbed suite still passed everywhere; the gate is loose"
    assert len(failed) >= 5


def test_criterion_09_catches_a_one_percent_error_in_the_2p_term(monkeypatch):
    """q/r - 1 is about 3e-4, so a 1% error in it is 3e-6: inside an
    absolute 1e-5 on q/r, outside the relative 1e-4 on q/r - 1."""
    envelope = hydrogen._envelope_2p
    monkeypatch.setattr(hydrogen, "_envelope_2p", lambda *args: 1.01 * envelope(*args))
    reports = verification.criterion_09()
    assert not any(r.passed for r in reports)
