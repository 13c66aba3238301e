import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gbbkit

MODULES = [gbbkit] + [
    importlib.import_module(f"gbbkit.{info.name}") for info in pkgutil.iter_modules(gbbkit.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _imported_modules(path):
    """Dotted names a source file imports; relative imports read as gbbkit's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["gbbkit" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", ["types", "polygons", "convert", "annotations", "metrics"])
def test_lower_layers_import_neither_raster_nor_cli(name):
    # Geometry and conversions sit below the IoU routes and the command line.
    imported = _imported_modules(Path(gbbkit.__file__).parent / f"{name}.py")
    upper = {"gbbkit.raster", "gbbkit.cli"}
    assert {m for m in imported if ".".join(m.split(".")[:2]) in upper} == set()


# Exported names allowed to have no caller in the library, perfbench or the
# acceptance module, each with its reason.
UNCALLED_EXPORTS = {
    # The exact Bhattacharyya coefficient of two uniform masks: an overlap
    # kernel of its own, not a one-line combination of other public names.
    "mask_bc",
}


def _referenced_names(path):
    """Names a source file reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller():
    # No public name exists only for tests: each is read somewhere in the
    # library itself, in perfbench or in the acceptance module.
    package = Path(gbbkit.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += [*(repo / "perfbench").glob("*.py"), repo / "tests" / "test_acceptance.py"]
    called = set().union(*map(_referenced_names, sources))
    uncalled = set(gbbkit.__all__) - called
    assert sorted(uncalled - UNCALLED_EXPORTS) == []
    # An entry whose name gained a caller leaves the list.
    assert sorted(UNCALLED_EXPORTS - uncalled) == []
