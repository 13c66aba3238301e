import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize(
    "name",
    ["types", "polygons", "convert", "annotations", "metrics", "gradients", "batch", "regress"],
)
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


_PROPERTY_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # A failing hypothesis test makes its pytest plugin import libcst, whose
    # import warns; under the project's warning filters the session must
    # still report that failure and run the next test.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(_PROPERTY_PROBE), encoding="utf-8")
    settings = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(settings), "--rootdir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def _openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its core at run time."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in config


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


@pytest.mark.skipif(
    not (_openblas_dynamic_arch() and {"avx2", "fma"} <= _cpu_flags()),
    reason="needs a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2 and FMA",
)
def test_goldens_pass_under_the_haswell_openblas_core():
    # Haswell's kernels must give every golden its recorded bits, as the core
    # OpenBLAS picks here does.  The core is set in a child process only:
    # OpenBLAS reads it at load time.
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(gbbkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:]
    assert " passed" in result.stdout.splitlines()[-1]
