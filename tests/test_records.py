"""The package's immutable records: construction, equality, hash, repr."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from pfield import boxmode, core, hydrogen, nonlinear, oracle, oscillator, timedep, verification
from pfield.core import ELECTRON_MASS

_BOX = boxmode.BoxSystem(m=ELECTRON_MASS, a=2e-9, p_particle=1e-25)
_H = hydrogen.HydrogenSystem(z=1.0, mu=ELECTRON_MASS)
_OSC = oscillator.OscSystem(mu=ELECTRON_MASS, omega0=1e16, cap_l=1e-9)

# Record type -> keyword arguments of a valid sample, every field given.
_SAMPLES = {
    core.EnergyBudget: dict(e_total=3.0, e_particle=1.0, e_field=2.0, k_particle=1.0,
                            v_particle=0.0, k_field=1.5, v_field=0.5),
    boxmode.BoxSystem: dict(m=ELECTRON_MASS, a=2e-9, p_particle=1e-25),
    boxmode.BoxMode: dict(n=1, sys=_BOX, k_n=1.5e9, e_n=1e-19, a_n=1e-10, b_sq=0.5,
                          g_npf=0.9),
    hydrogen.HydrogenSystem: dict(z=1.0, mu=ELECTRON_MASS),
    hydrogen.HydrogenOrbit: dict(r=5e-11, theta_dot=4e16, v=2e6, l_c=1e-34, e_mu=-4e-18),
    hydrogen.HState: dict(sys=_H, n=2, l=1, e_n=-5e-19),
    oscillator.OscSystem: dict(mu=ELECTRON_MASS, omega0=1e16, cap_l=1e-9),
    oscillator.OscMode: dict(sys=_OSC, n=1, a_osc=1e-10, e_n=1e-18, e_mu=4e-19,
                             e_field=6e-19),
    nonlinear.NonlinearParams: dict(eps=0.0, a_tilde=1e-10),
    oracle.QuadratureSpec: dict(rel_tol=1e-9, abs_tol=1e-13),
    verification.ComparisonReport: dict(label="c1", value=1.0, reference=1.0, abs_dev=0.0,
                                        rel_dev=0.0, tolerance=1e-12, passed=True),
    # One component at unit weight, so the rescaling keeps the coefficient.
    timedep.Superposition: dict(
        components=((timedep.bare_eigenmode(ELECTRON_MASS, 2e-9, 1), 1.0 + 0j),)),
}

_TYPES = pytest.mark.parametrize("cls", _SAMPLES, ids=lambda cls: cls.__name__)


@_TYPES
def test_keyword_construction_round_trips_every_field(cls):
    kwargs = _SAMPLES[cls]
    record = cls(**kwargs)
    assert {key: getattr(record, key) for key in kwargs} == kwargs


@_TYPES
def test_equal_builds_are_equal_and_hash_alike(cls):
    one, two = cls(**_SAMPLES[cls]), cls(**_SAMPLES[cls])
    assert one == two
    assert hash(one) == hash(two)


@_TYPES
def test_repr_names_the_type_and_every_field(cls):
    text = repr(cls(**_SAMPLES[cls]))
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{key}=" in text for key in _SAMPLES[cls])


@_TYPES
def test_fields_and_attributes_cannot_be_set(cls):
    record = cls(**_SAMPLES[cls])
    for key, value in _SAMPLES[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, key, value)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@_TYPES
def test_copies_and_pickles_equal_the_record(cls):
    record = cls(**_SAMPLES[cls])
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_copied_superposition_keeps_its_coefficient_bits():
    """Rescaling the unit-weight coefficients again would move their last
    bits in about a quarter of random three-level states."""
    modes = [timedep.bare_eigenmode(ELECTRON_MASS, 2e-9, n) for n in (1, 2, 3)]
    rng = random.Random(1)
    for _ in range(100):
        s = timedep.Superposition(tuple((mode, complex(rng.random(), rng.random()))
                                        for mode in modes))
        assert copy.copy(s).components == s.components
        assert pickle.loads(pickle.dumps(s)).components == s.components


def test_quadrature_spec_defaults():
    spec = oracle.QuadratureSpec()
    assert (spec.rel_tol, spec.abs_tol) == (1e-10, 1e-14)
    assert oracle._MAX_DEPTH == 50
