"""Every public name is used by the library itself.

Code that only its own unit test calls is deleted, unless it is a paper
result, which is then wired into a sweep or a check instead.  So each name
in ``deadtime_channel.__all__`` must be read somewhere in the package: as a
name or as an attribute (``optimize.maximize_scalar``), in a module other
than ``__init__.py`` and outside the name's own definition.  Imports do
not count.
"""

import ast
from pathlib import Path

import deadtime_channel

PACKAGE = Path(deadtime_channel.__file__).parent


def _reads(node, enclosing, found):
    """Add (name, enclosing definition names) for each name or attribute
    read under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.append((node.id, enclosing))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.append((node.attr, enclosing))
    for child in ast.iter_child_nodes(node):
        _reads(child, enclosing, found)


def test_every_public_name_is_used_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            _reads(ast.parse(path.read_text(encoding="utf-8")), frozenset(), found)
    used = {name for name, enclosing in found if name not in enclosing}
    assert sorted(set(deadtime_channel.__all__) - used) == []
