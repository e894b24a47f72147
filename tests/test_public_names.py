"""Every public name is used by the library itself.

Code that only its own unit test calls is deleted, unless it is a paper
result, which is then wired into a sweep or a check instead.  So each name
in ``deadtime_channel.__all__`` must be read somewhere in the package: as a
name or as an attribute (``optimize.maximize_scalar``), in a module other
than ``__init__.py`` and outside the name's own definition.  Imports do
not count.  Each module-level private name (a function, class or constant
named ``_x``) must likewise be read somewhere in the package, its own
module included, outside its own definition.
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


def _used(paths):
    """Names read under ``paths`` outside their own definitions."""
    found = []
    for path in paths:
        _reads(ast.parse(path.read_text(encoding="utf-8")), frozenset(), found)
    return {name for name, enclosing in found if name not in enclosing}


def _private_names(path):
    """Module-level names ``_x`` that ``path`` defines or assigns."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_public_name_is_used_in_the_package():
    used = _used(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    assert sorted(set(deadtime_channel.__all__) - used) == []


def test_every_private_name_is_used_in_the_package():
    paths = sorted(PACKAGE.glob("*.py"))
    private = set().union(*(_private_names(path) for path in paths))
    assert private, "no private names found"
    assert sorted(private - _used(paths)) == []
