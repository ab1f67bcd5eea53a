"""No dead symbols in the package: each module uses every name it
imports, imports no name again inside a function that it already
imports at the top, every module-level private function, class or
constant is used somewhere in the package, and so is every field of a
dataclass or `NamedTuple`.  ``__init__.py`` only re-exports, so it is not
checked itself."""

import ast
from pathlib import Path

import cbnctrl

PACKAGE = Path(cbnctrl.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
MODULES = {name: tree for name, tree in TREES.items() if name != "__init__.py"}


def used_names(tree) -> set[str]:
    """The names ``tree`` reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(nodes) -> set[str]:
    """The names that the import statements among ``nodes`` bind, bar
    ``__future__`` features."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        unused += [f"{name}: {bound}" for bound in sorted(imported_names(tree.body) - used_names(tree))]
    assert unused == []


def test_no_function_imports_a_name_its_module_imports():
    again = []
    for name, tree in MODULES.items():
        top = imported_names(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                again += [f"{name}: {node.name} imports {bound}" for bound in imported_names(ast.walk(node)) & top]
    assert again == []


def test_every_private_module_symbol_is_used():
    used = set().union(*map(used_names, TREES.values()))
    imported = {
        alias.name
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}: {d}" for d in defined if d.startswith("_") and d not in used | imported]
    assert dead == []


def record_fields(tree):
    """``(class, field)`` per field of each dataclass or `NamedTuple` that
    ``tree`` defines."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [mark.func if isinstance(mark, ast.Call) else mark for mark in node.decorator_list] + node.bases
        if {getattr(mark, "id", getattr(mark, "attr", None)) for mark in marks} & {"dataclass", "NamedTuple"}:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_record_field_is_read():
    # a field is read when some attribute of its name is loaded anywhere in
    # the package; one that is only ever set holds what no call reads
    read = {
        node.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [(name, *field) for name, tree in MODULES.items() for field in record_fields(tree)]
    assert len(fields) > 10
    assert [f"{name}: {cls}.{field}" for name, cls, field in fields if field not in read] == []
