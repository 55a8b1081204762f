"""Every package module uses each name it imports, and every module-level
private name is used somewhere in the package.

__init__.py is exempt from the import check: its imports are the package's
public re-exports.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "burnlab"


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by an import in the module but never read in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert not any(unused.values()), {m: n for m, n in unused.items() if n}


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level _private names a module defines (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    """Names a module reads, looks up as attributes or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def unreferenced_privates(paths) -> dict[str, list[str]]:
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    used = set().union(*(references(t) for t in trees.values()))
    return {name: sorted(private_definitions(t) - used)
            for name, t in trees.items()}


def test_no_unreferenced_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    dead = unreferenced_privates(modules)
    assert not any(dead.values()), {m: n for m, n in dead.items() if n}
