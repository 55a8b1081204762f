"""Every package module uses each name it imports, every module-level
private name is used somewhere in the package, no module exits with a
message through SystemExit (bad input is a ValueError that the CLI turns into
one `burnlab: error:` line and exit status 2), and mechanism names are
spelled only in the mechanism table's module (and the audit control's name
in audit.py), so no other module dispatches on one. A fresh `import
burnlab` loads no standard-library module the package does not need.

__init__.py is exempt from the import check: its imports are the package's
public re-exports, and __all__ lists exactly those.
"""

import ast
import os
import pathlib
import subprocess
import sys

import burnlab
from burnlab.audit import CONTROLS
from burnlab.mechanisms import ALIASES, MECHANISMS

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


def test_all_is_the_imported_names():
    # a name dropped from the imports but not from __all__, or the other way
    # round, fails here
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(burnlab.__all__) == len(set(burnlab.__all__))
    assert set(burnlab.__all__) == imported


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


def message_exits(tree: ast.Module) -> list[int]:
    """Lines of `raise SystemExit(...)` whose argument is a string literal or
    an f-string: such an exit prints the message with status 1."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "SystemExit" and node.exc.args
            and (isinstance(node.exc.args[0], ast.JoinedStr)
                 or (isinstance(node.exc.args[0], ast.Constant)
                     and isinstance(node.exc.args[0].value, str)))]


def test_message_exits_detector():
    source = ('raise SystemExit("no")\n'
              'raise SystemExit(f"no {x}")\n'
              'raise SystemExit(main())\n'
              'raise SystemExit(2)\n'
              'raise ValueError("fine")\n')
    assert message_exits(ast.parse(source)) == [1, 2]


def test_no_message_exits():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: message_exits(ast.parse(p.read_text(), filename=str(p)))
             for p in modules}
    assert not any(found.values()), {m: n for m, n in found.items() if n}


def name_constants(tree: ast.Module, names) -> list[tuple[int, str]]:
    """(line, name) of each string constant equal to one of names, except
    the column names of experiment rows: the keys of a dict display that
    also has the key "experiment" (rsol-ratio's rsol, thmub's logprice)."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "experiment"
                for key in node.keys):
            skip.update(id(key) for key in node.keys)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in names and id(node) not in skip]


def test_name_constants_detector():
    source = ('table = {"vickrey": 1}\n'
              'run("rsol")\n'
              'row = {"experiment": "thmub", "logprice": 1.0}\n'
              'tag = "vickrey-ish"\n')
    assert name_constants(ast.parse(source), {"vickrey", "rsol", "logprice"}) == [
        (1, "vickrey"), (2, "rsol")]


def test_mechanism_names_only_in_the_table():
    names = {*MECHANISMS, *ALIASES, *CONTROLS}
    allowed = {"mechanisms.py": names, "audit.py": set(CONTROLS)}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: [c for c in name_constants(
                 ast.parse(p.read_text(), filename=str(p)), names)
                      if c[1] not in allowed.get(p.name, ())]
             for p in modules}
    assert not any(found.values()), {m: c for m, c in found.items() if c}


def test_import_loads_no_statistics():
    # statistics pulls in fractions and decimal, some 4-5 ms of each fresh
    # import; numpy loads none of the three
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = ("import sys, burnlab; print(' '.join(m for m in "
            "('statistics', 'fractions', 'decimal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
