"""Names that other code relies on: the package's exports and the attributes the benchmark wraps."""

import ast
import types
from pathlib import Path

import tvgsr

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "tvgsr"


def test_perfbench_trace_wrappers_install_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure
    from spans import Tracer

    tracer = Tracer()
    measure.install_wrappers(tracer)  # AttributeError if a wrapped attribute is gone
    patches = list(tracer._patches)
    try:
        assert patches
        assert all(getattr(module, attr) is not original for module, attr, original in patches)
    finally:
        tracer.unwrap_all()
    assert all(getattr(module, attr) is original for module, attr, original in patches)


def _relative_imports(path):
    """Names bound by the ``from .x import (...)`` statements of a module."""
    tree = ast.parse(path.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_all_is_exactly_the_relatively_imported_names():
    imported = _relative_imports(PACKAGE / "__init__.py")
    assert imported
    assert tvgsr.__all__ == sorted(imported)
    assert not any(isinstance(getattr(tvgsr, name), types.ModuleType) for name in tvgsr.__all__)
    namespace = {}
    exec("from tvgsr import *", namespace)
    assert all(namespace[name] is getattr(tvgsr, name) for name in tvgsr.__all__)


def _names_measure_reads_on_cli():
    """``cli.<name>`` attributes and ``("tvgsr.cli", "<name>", ...)`` wrap targets in measure.py."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "measure.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "cli":
            names.add(node.attr)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) for e in node.elts[:2]) \
                and node.elts[0].value == "tvgsr.cli":
            names.add(node.elts[1].value)
    return names


def test_cli_keeps_unused_imports_only_for_the_benchmark():
    source = (PACKAGE / "cli.py").read_text()
    lines = source.splitlines()
    unused = [alias.asname or alias.name for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if "# noqa: F401" in lines[alias.lineno - 1]]
    read = _names_measure_reads_on_cli()
    assert "main" in read
    assert set(unused) <= read, sorted(set(unused) - read)


def _private_scipy_imports(path):
    """Parts starting with ``_`` of the scipy modules and names that a module imports."""
    private = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            private.update(part for part in node.module.split(".") if part.startswith("_"))
            private.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Import):
            private.update(part for alias in node.names if alias.name.split(".")[0] == "scipy"
                           for part in alias.name.split(".") if part.startswith("_"))
    return private


def test_the_one_private_scipy_kernel_stays_in_solvers():
    modules = sorted(PACKAGE.glob("*.py"))
    imports = {path.name: _private_scipy_imports(path) for path in modules}
    assert {name: found for name, found in imports.items() if found} == \
        {"solvers.py": {"_sparsetools"}}
    assert [path.name for path in modules if "_sparsetools" in path.read_text()] == ["solvers.py"]


def _private_package_imports(path):
    """``_``-prefixed names that a module imports from another tvgsr module."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")}


def test_only_spectral_imports_private_names_from_other_modules():
    imports = {path.name: _private_package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in imports.items() if found} == \
        {"spectral.py": {"_check_symmetric", "_check_problem"}}
