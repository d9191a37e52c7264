"""Every module-level private name of the package is used in the package, so
a helper that loses its last caller goes with it."""

import ast
from pathlib import Path

import chaosinfer

PACKAGE = Path(chaosinfer.__file__).parent


def private_definitions(tree):
    """The private names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def references(tree):
    """The names a module reads, as a variable, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_referenced_in_the_package():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.name, name) for name in private_definitions(tree)]
        used.update(references(tree))
    assert defined, "the package defines private helpers"
    assert [(module, name) for module, name in defined if name not in used] == []
