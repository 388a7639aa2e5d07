"""Particle-field composites: energy splits, composite paths, and the
verification suite that holds every closed form to an oracle."""

from .core import (
    BOHR_RADIUS,
    ELECTRON_MASS,
    GAUSSIAN_CHARGE_SQ,
    HBAR,
    PLANCK_H,
    EnergyBudget,
    RegionClass,
    classify_region,
    energy_budget_check,
)

__all__ = [
    "BOHR_RADIUS",
    "ELECTRON_MASS",
    "GAUSSIAN_CHARGE_SQ",
    "HBAR",
    "PLANCK_H",
    "EnergyBudget",
    "RegionClass",
    "classify_region",
    "energy_budget_check",
]

__version__ = "0.1.0"
