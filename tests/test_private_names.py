"""Every module-level private name of the package is used in the package, so
a helper that loses its last caller goes with it.  Every public function,
class, method and constant has a caller too: the library holds only what the
sweep, its oracles and the acceptance checks call, and what the README
shows."""

import ast
import re
from pathlib import Path

import chaosinfer

PACKAGE = Path(chaosinfer.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def public_definitions(tree):
    """The public functions, classes and UPPER_CASE constants a module
    defines at its top level, and the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name) and t.id.isupper() and t.id[0] != "_")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (method.name for method in node.body
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not method.name.startswith("_"))


def outside_references(node, within=()):
    """The names `node` reads as a variable or an attribute, each outside the
    definitions of that name that enclose it.  Imports are left out, so a
    re-export from __init__ is no caller."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        within += (node.name,)
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and name not in within:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from outside_references(child, within)


def test_every_public_name_has_a_caller_or_a_readme_mention():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.name, name) for name in public_definitions(tree)]
        used.update(outside_references(tree))
    callers = [*sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "helpers.py", ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        used.update(references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    # In the README, a name counts inside a code span or a code block.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"`+([^`]*)`+", readme):
        used.update(re.findall(r"\w+", code))
    assert defined, "the package defines public names"
    assert [(module, name) for module, name in defined if name not in used] == []


def enclosing_definitions(node, name, within=()):
    """For each read or import of `name` under `node`, the names of the
    definitions that enclose it, outermost first."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        within += (node.name,)
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)):
        yield within
    for child in ast.iter_child_nodes(node):
        yield from enclosing_definitions(child, name, within)


def test_order_scores_is_the_one_caller_of_the_scoring_kernel():
    # Every log evidence and entropy estimate of the package comes from
    # entropy.order_scores: no other function reaches its kernel.
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [(path.name, *within) for within in enclosing_definitions(tree, "_count_sums")]
    assert callers == [("entropy.py", "order_scores")]


def readers(tree, name):
    """For each read of `name` under `tree`, not its import, the names of the
    definitions or the module-level assignment targets that enclose it."""
    def walk(node, within):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            within += (node.name,)
        elif isinstance(node, ast.Assign) and not within:
            within += tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            yield within
        for child in ast.iter_child_nodes(node):
            yield from walk(child, within)

    return set(walk(tree, ()))


def test_each_count_table_limit_is_stated_once():
    # The k_max table limit is OrderRange's, the alpha range DirichletPrior's;
    # counts.py reads MAX_TABLE_ENTRIES for a single table, and inference.py
    # for MAX_ALPHA.  The sweep restates neither and hands lower_orders'
    # CountTables to order_scores as they are.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {(module, name): readers(tree, name) for module, tree in trees.items()
             for name in ("MAX_TABLE_ENTRIES", "MIN_ALPHA", "MAX_ALPHA")}
    assert {key: within for key, within in found.items()
            if within and key != ("counts.py", "MAX_TABLE_ENTRIES")} == {
        ("inference.py", "MAX_TABLE_ENTRIES"): {("MAX_ALPHA",)},
        ("order_select.py", "MAX_TABLE_ENTRIES"): {("OrderRange", "__post_init__")},
        ("inference.py", "MIN_ALPHA"): {("DirichletPrior", "__post_init__")},
        ("inference.py", "MAX_ALPHA"): {("DirichletPrior", "__post_init__")},
    }
    sweep = set(references(trees["sweep.py"]))
    assert sweep.isdisjoint({"MAX_TABLE_ENTRIES", "MIN_ALPHA", "MAX_ALPHA", "CountTable"})
    # Only the result's columns are reshaped in the sweep, no count table.
    assert readers(trees["sweep.py"], "reshape") == {("_columns",), ("_pieces",)}


def test_the_output_spellings_are_stated_once():
    # emit's _SPELLING is the one statement of how each output format spells
    # a missing or non-finite cell.  load_sweep_json restates none of it: it
    # writes the result it read back and compares the bytes.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if within := readers(tree, "_SPELLING"):
            found[path.name] = within
    assert found == {"sweep.py": {("FORMAT_CHOICES",), ("_filled",), ("_dump",)}}


def test_load_checks_only_the_write_back():
    # load_sweep_json's one check is that emit writes back the file's bytes.
    # The row round trip _same is from_rows' check and equality's, not load's.
    tree = ast.parse((PACKAGE / "sweep.py").read_text(encoding="utf-8"))
    assert readers(tree, "_same") == {("SweepResult", "from_rows"), ("SweepResult", "__eq__"),
                                      ("_same",)}


# Methods that change the list, dict, set or array they are called on.
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "fill", "put", "resize",
            "itemset", "setflags", "__setitem__", "__delitem__", "__setattr__"}


def root_name(node):
    """The name at the root of a chain of attributes and subscripts, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def assigned_names(node):
    """The names a top-level assignment binds; none for any other statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def module_state_changes(tree):
    """(function, line) of each place where a function declares `global`,
    stores into an item or attribute of a name the module assigns at its
    top level, or calls a mutating method on one; a name the function binds
    itself, as a parameter or a local, is its own."""
    module_names = {name for node in tree.body for name in assigned_names(node)}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = function.args
        own = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                               *filter(None, (args.vararg, args.kwarg)))}
        own |= {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        shared = module_names - own
        name = getattr(function, "name", "<lambda>")
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                yield name, node.lineno
            elif (isinstance(node, (ast.Attribute, ast.Subscript))
                  and isinstance(node.ctx, (ast.Store, ast.Del)) and root_name(node) in shared):
                yield name, node.lineno
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and root_name(node.func.value) in shared):
                yield name, node.lineno


def test_no_function_changes_module_state():
    # A result depends on its arguments alone: no function keeps state in a
    # module-level name, so nothing has to be cleared between runs or tests.
    # Caches go through functools.
    changes = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        changes += [(path.name, *change) for change in sorted(set(module_state_changes(tree)))]
    assert changes == []
