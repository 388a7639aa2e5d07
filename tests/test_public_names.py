"""Every public name of the package is reached from the package, or is
on the allow-list below with the reason it is kept.

A public function or class counts as reached when another module refers
to it, as ``module.name`` or through ``from .module import name``, or
when its own module refers to it by name.  A public method counts as
reached when any module reads an attribute of that name.  Only code
counts: docstrings, ``__all__`` strings and the tests do not.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pfield

_PACKAGE = Path(pfield.__file__).parent

_TEST_REFERENCE = "test reference: tests compare reached code against it"
_ENERGY_BALANCE = "energy-balance API"
_PLANNED = "item 2: criterion planned"

# Unreached public names -> why each stays.  A new public name needs a
# caller in the package, an entry here, or deletion.
_ALLOWED_UNREACHED = {
    "oracle.finite_diff": _TEST_REFERENCE,
    "oracle.exact_box_trajectory": _TEST_REFERENCE,
    "oracle.exact_osc_trajectory": _TEST_REFERENCE,
    "boxmode.field_energy": _ENERGY_BALANCE,
    "core.energy_budget_check": _ENERGY_BALANCE,
    "core.classify_region": _ENERGY_BALANCE,
    "hydrogen.circular_orbit": _ENERGY_BALANCE,
    "hydrogen.make_state": _ENERGY_BALANCE,
    "hydrogen.field_energy": _ENERGY_BALANCE,
    "boxmode.field_slope": _PLANNED,
    "boxmode.velocity": _PLANNED,
    "boxmode.pf_acceleration": _PLANNED,
    "core.field_force_1d": _PLANNED,
    "core.kinetic_pf": _PLANNED,
    "core.pf_force_stationary": _PLANNED,
    "oscillator.classical_motion": _PLANNED,
    "oscillator.kinetic_field": _PLANNED,
    "timedep.tdse_residual": _PLANNED,
    # with criterion 08: (linear - exact) / (r theta_dot) at theta = pi/2,
    # r -> 0 tends to approximation_gap(a_ha)
    "hydrogen.pf_velocity": _PLANNED,
    # with criterion 09: the norm of the components matches r times the
    # q_p0/r column of hydrogen.figure_rows to O(a_ha^4)
    "hydrogen.cartesian_components_2p0": _PLANNED,
}


def _public_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each public top-level function and class, and
    module.Class.name for each public method of a public class."""
    names = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names.extend(f"{mod}.{node.name}.{sub.name}" for sub in node.body
                             if isinstance(sub, ast.FunctionDef)
                             and not sub.name.startswith("_"))
    return names


def _references(trees: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """(module.name for every name the code refers to, every attribute read)."""
    names: set[str] = set()
    attributes: set[str] = set()
    for mod, tree in trees.items():
        imported: dict[str, str] = {}    # local name -> module or module.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    prefix = f"{node.module}." if node.module else ""
                    imported[alias.asname or alias.name] = prefix + alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(imported.get(node.id, f"{mod}.{node.id}"))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    names.add(f"{imported[node.value.id]}.{node.attr}")
    return names, attributes


def _unreached(package: Path) -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    names, attributes = _references(trees)
    out = set()
    for qualname in _public_definitions(trees):
        parts = qualname.split(".")
        reached = parts[-1] in attributes if len(parts) == 3 else qualname in names
        if not reached:
            out.add(qualname)
    return out


def test_unreached_public_names_are_exactly_the_allow_list():
    assert _unreached(_PACKAGE) == set(_ALLOWED_UNREACHED)


def test_reachability_rules(tmp_path):
    (tmp_path / "a.py").write_text(
        'def used_here():\n    """Calls unused() in prose only."""\n'
        "def other_only():\n    pass\n"
        "def imported():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n    def read(self):\n        pass\n"
        "    def never(self):\n        pass\n"
        "used_here()\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import imported\n"
        "a.other_only()\nimported()\nx.read()\n", encoding="utf-8")
    assert _unreached(tmp_path) == {"a.unused", "a.Box", "a.Box.never"}
