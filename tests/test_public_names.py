"""Every public name of the package is reached from the package, or is
on an allow-list below with the reason it is kept.

A public function or class counts as reached when another module refers
to it, as ``module.name`` or through ``from .module import name``, or
when its own module refers to it by name.  A public method counts as
reached when any module reads an attribute of that name.  Only code
counts: docstrings, ``__all__`` strings and the tests do not.  No module
imports a name that it never uses; there, ``__init__``'s ``__all__``
strings count as uses of its re-exports.

A field of a record (a NamedTuple or namedtuple class) counts as read
when running every subcommand reads it as an attribute of a record of
that class: a trace at run time, so a read of a field or method of the
same name on another class does not count for it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import pkgutil
import types
from pathlib import Path
from typing import Callable

import pytest

import pfield
from pfield import cli, core

_PACKAGE = Path(pfield.__file__).parent

_ENERGY_BALANCE = "energy-balance API"
_REPORT_ROW = "verify writes it through ComparisonReport._asdict()"

# Unreached public names -> why each stays.  A new public name needs a
# caller in the package, an entry here, or deletion.
_ALLOWED_UNREACHED = {
    "core.energy_budget_check": _ENERGY_BALANCE,
    "core.classify_region": _ENERGY_BALANCE,
    "hydrogen.circular_orbit": _ENERGY_BALANCE,
    "hydrogen.field_energy": _ENERGY_BALANCE,
}

# Unread record fields -> why each stays.  A new field needs a reader in
# the package, an entry here, or deletion.
_ALLOWED_UNREAD_FIELDS = {
    **{f"hydrogen.HydrogenOrbit.{field}": _ENERGY_BALANCE
       for field in ("r", "theta_dot", "v", "l_c", "e_mu")},
    **{f"oscillator.OscMode.{field}": _ENERGY_BALANCE for field in ("e_n", "e_mu", "e_field")},
    **{f"core.EnergyBudget.{field}": _ENERGY_BALANCE
       for field in ("e_total", "e_field", "k_particle", "v_particle", "k_field", "v_field")},
    **{f"verification.ComparisonReport.{field}": _REPORT_ROW
       for field in ("label", "value", "reference", "abs_dev", "rel_dev", "tolerance",
                     "passed")},
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


def _parse(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _unreached(package: Path) -> set[str]:
    trees = _parse(package)
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


def _record_classes(modules: list[types.ModuleType]) -> dict[str, type]:
    """module.Class -> class, for each NamedTuple or namedtuple class that
    one of modules defines; a class another module imports is not listed
    again under that module."""
    return {f"{module.__name__.rpartition('.')[2]}.{name}": obj
            for module in modules for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__}


def _unread_fields(modules: list[types.ModuleType], run: Callable[[], object]) -> set[str]:
    """module.Class.field for each field of a record class of modules that
    run() never reads as an attribute.  Each field is swapped for a
    property that notes the read, for the length of run(), then restored.
    Constructor keywords, _asdict(), _replace(), indexing and tuple
    unpacking are not reads, and neither are reads in a forked child."""
    read: set[str] = set()
    fields = set()
    with pytest.MonkeyPatch.context() as patch:
        for qualname, cls in _record_classes(modules).items():
            for index, field in enumerate(cls._fields):
                name = f"{qualname}.{field}"
                fields.add(name)

                def traced(self, index=index, name=name):
                    read.add(name)
                    return tuple.__getitem__(self, index)
                patch.setattr(cls, field, property(traced))
        run()
    return fields - read


def _run_every_subcommand(tmp_path: Path) -> None:
    """Every subcommand in this process, on one share, in each of its forms."""
    runs = [["box-figure"], ["box-figure", "--format", "json"],
            ["osc-trajectory", "--n", "0"], ["osc-trajectory", "--n", "1"],
            ["hydrogen-figure"], ["spectrum"], ["spectrum", "--eps", "1e35"],
            ["flux-check"], ["verify"], ["verify", "--inject-error"]]
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(core, "_usable_cpus", lambda: 1)
        for number, argv in enumerate(runs):
            assert cli.main([*argv, "--out", str(tmp_path / str(number))]) \
                == (argv == ["verify", "--inject-error"])


def test_unread_record_fields_are_exactly_the_allow_list(tmp_path):
    modules = [importlib.import_module(f"pfield.{info.name}")
               for info in pkgutil.iter_modules(pfield.__path__)]
    unread = _unread_fields(modules, lambda: _run_every_subcommand(tmp_path))
    assert unread == set(_ALLOWED_UNREAD_FIELDS)


def test_unread_field_rules():
    module = types.ModuleType("pkg.a")
    exec("import collections\nfrom typing import NamedTuple\n"
         "class Rec(NamedTuple):\n    read: int\n    kept: int\n    unread: float\n"
         "class Pair(collections.namedtuple('Pair', 'left right')):\n    __slots__ = ()\n"
         "class Plain:\n    never = 0\n"
         "def run():\n"
         "    rec, pair = Rec(read=1, kept=2, unread=3.0), Pair(4, 5)\n"
         "    left, right = pair\n    rec._replace(kept=6)._asdict()\n"
         "    return rec.read + pair.left + rec[1] + Plain.never\n",
         vars(module))
    assert _unread_fields([module], module.run) == {"a.Rec.kept", "a.Rec.unread",
                                                    "a.Pair.right"}
    # Every field reads as before once the trace is over.
    assert "read" in vars(module.Rec) and "left" not in vars(module.Pair)
    assert module.Pair(4, 5).left == 4 and module.Rec(1, 2, 3.0).unread == 3.0


def _unused_imports(package: Path) -> list[str]:
    """module.name for each name a module imports and never refers to; the
    strings of a module's __all__ count as references."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports(_PACKAGE) == []


def test_unused_import_rules(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from __future__ import annotations\n"
        "from .a import exported, dropped\n__all__ = ['exported']\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "import math\nimport os.path\nimport json as js\n"
        "from typing import Sequence, Callable\n"
        "def f(xs: Sequence[float]) -> float:\n    return math.fsum(xs)\n"
        "os.path.join('a')\n", encoding="utf-8")
    assert _unused_imports(tmp_path) == ["__init__.dropped", "a.js", "a.Callable"]


_SYSTEMS = {"BoxSystem", "OscSystem", "HydrogenSystem"}
_LEVELS = {"BoxMode", "OscMode", "HState"}


def _annotation_name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_no_function_takes_a_level_and_a_system():
    """A level carries the system it was built for, so a function that
    takes a level reads the system from it instead of taking both."""
    pairs = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            kinds = {_annotation_name(a.annotation) for a in params}
            if kinds & _SYSTEMS and kinds & _LEVELS:
                pairs.append(f"{path.stem}.{node.name}")
    assert pairs == []
