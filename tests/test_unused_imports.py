"""Every name a package module imports is read in that module, so an import
that loses its last use goes with it.  __init__ imports only to re-export."""

import ast
from pathlib import Path

import chaosinfer

PACKAGE = Path(chaosinfer.__file__).parent
# The sweep no longer calls transition_counts, but perfbench's tracer tests
# check that installing the tracer rebinds the sweep module's binding of it.
KEPT = [("sweep.py", "transition_counts")]


def imported_names(tree):
    """The names a module binds by its imports, wherever they stand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = read_names(tree)
        unread += [(path.name, name) for name in imported_names(tree) if name not in read]
    assert unread == KEPT
