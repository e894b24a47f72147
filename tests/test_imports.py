"""Every name a module imports is read in that module, and the scalar
modules import no numpy.

A name imported and never read is left over from code that moved or went,
and keeps an import edge that nothing needs.  ``__init__.py`` is exempt:
it imports names to re-export them.
"""

import ast
from pathlib import Path

import deadtime_channel

PACKAGE = Path(deadtime_channel.__file__).parent


def _imported_names(tree):
    """Names the import statements under ``tree`` bind (``import a.b`` binds a)."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unread += [f"{path.name}: {name}" for name in _imported_names(tree) - _read_names(tree)]
    assert unread == []


# Modules whose own source imports no numpy, on the way to a capacity or
# gap run that never loads it.  capacity still reaches numpy through
# optimize, which its brute-force oracle calls.
NUMPY_FREE = ("channel", "guards", "errors", "divergences", "asymptotics", "capacity")


def test_scalar_modules_import_no_numpy():
    importing = []
    for name in NUMPY_FREE:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        modules = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        importing += [
            f"{name}: {module}" for module in sorted(modules - {None})
            if module.split(".")[0] == "numpy"
        ]
    assert importing == []
