import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fibrelab

MODULES = sorted(
    ["fibrelab"]
    + [f"fibrelab.{m.name}" for m in pkgutil.iter_modules(fibrelab.__path__) if m.name != "__main__"]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name dropped from a module but left in its __all__ breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def private_sibling_uses(source: str) -> list[str]:
    """Each place in ``source``, a module of the package, that reads a sibling's private name.

    A private name starts with one underscore.  It is read through a
    relative import of the name, ``from .mod import _name``, or as an
    attribute of a module bound by a relative import, ``from . import mod
    as m`` and then ``m._name``.
    """
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    uses.append(f"{node.lineno}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(uses)


@pytest.mark.parametrize("source, expected", [
    ("from .nodal import _circle_dist, fiber_reach\n", ["1: from .nodal import _circle_dist"]),
    ("def f():\n    from . import operators as ops\n    return ops._fiber_ground(ops.X)\n",
     ["3: ops._fiber_ground"]),
    ("from . import nodal\nnodal._sample(nodal.NodalSet)\n", ["2: nodal._sample"]),
    ("from .nodal import NodalSet\nfrom . import __version__\nimport numpy as np\n"
     "np._NoValue\nx = NodalSet._private\n", []),
], ids=["imported_name", "module_alias_in_a_function", "module", "public_and_foreign_names"])
def test_private_sibling_uses_are_found(source, expected):
    assert private_sibling_uses(source) == expected


@pytest.mark.parametrize("path", sorted(Path(fibrelab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_a_siblings_private_names(path):
    # each module keeps its private helpers to itself: another module
    # that needs one needs a public name for it
    assert private_sibling_uses(path.read_text(encoding="utf-8")) == []


GEOMETRY_CLASSES = {"WarpedTorusGeometry", "WaveguideGeometry"}
# the modules that may name a geometry class: its own, the assembler that
# picks the torus's factors or a whole matrix, the study that builds a
# geometry from its config and picks each testbed's rate row, and the
# package, which re-exports them
GEOMETRY_CLASS_READERS = {"__init__.py", "geometry.py", "operators.py", "study.py"}


def geometry_class_names(source: str) -> list[str]:
    """Each place in ``source`` that names one of the two geometry classes.

    A class is named by importing it, by its bare name or as an attribute,
    ``geometry.WaveguideGeometry``.  Docstrings and comments name nothing.
    """
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, f"import {alias.name}") for alias in node.names
                     if alias.name in GEOMETRY_CLASSES]
        elif isinstance(node, ast.Name) and node.id in GEOMETRY_CLASSES:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in GEOMETRY_CLASSES:
            uses.append((node.lineno, f".{node.attr}"))
    return [f"{line}: {what}" for line, what in sorted(uses)]


@pytest.mark.parametrize("source, expected", [
    ("from .geometry import BundleGeometry, WaveguideGeometry\n"
     "periodic = not isinstance(geom, WaveguideGeometry)\n",
     ["1: import WaveguideGeometry", "2: WaveguideGeometry"]),
    ("from . import geometry as g\nx = g.WarpedTorusGeometry(1.0, 1.0, p)\n",
     ["2: .WarpedTorusGeometry"]),
    ('"""The fibre of a WaveguideGeometry."""\n# not a WarpedTorusGeometry test\n'
     "closed = geom.closed_fiber\n", []),
], ids=["import_and_isinstance", "module_attribute", "docstring_and_comment"])
def test_geometry_class_names_are_found(source, expected):
    assert geometry_class_names(source) == expected


@pytest.mark.parametrize("path", sorted(p for p in Path(fibrelab.__file__).parent.glob("*.py")
                                        if p.name not in GEOMETRY_CLASS_READERS),
                         ids=lambda p: p.name)
def test_no_other_module_names_a_geometry_class(path):
    # every other module reads the fibre facts each geometry states
    # (closed_fiber, fiber_interval, fiber_scale, ...), not its class
    assert geometry_class_names(path.read_text(encoding="utf-8")) == []
