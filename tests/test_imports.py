"""Every name that a module of the package imports is used by that module,
save three: perfbench's tracer wraps `try_collapse` and `replay_collapse` at
every module that imports them, and
`perfbench/test_perfbench.py::test_tracer_patches_every_import_site` pins
the imports of `try_collapse` in `states` and `links` and of
`replay_collapse` in `verify`.  Each carries a comment saying so.  A name
counts as used when the module reads it, lists it in `__all__`, or names it
in a string annotation."""

import ast
from pathlib import Path

import morsecert

PACKAGE = Path(morsecert.__file__).parent

# (module, name): imported and never used, because perfbench pins the import
PINNED = {("states", "try_collapse"), ("links", "try_collapse"),
          ("verify", "replay_collapse")}


def _strings(node):
    """The string constants of a list or tuple node."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return [e.value for e in node.elts if isinstance(e, ast.Constant)]
    return []


def _unused(source: str) -> dict:
    """The names that `source` imports and never uses, each with its line."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(_strings(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                used.update(n.id for n in ast.walk(ast.parse(a.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return {name: line for name, line in imported.items() if name not in used}


def test_the_guard_sees_unused_imports():
    source = ("from typing import List, Optional\nimport os.path\nimport re\n"
              "__all__ = ['re']\ndef f(x: 'Optional[int]'): return os.sep\n")
    assert _unused(source) == {"List": 1}


def test_every_import_is_used():
    found = {(path.stem, name): line for path in sorted(PACKAGE.glob("*.py"))
             for name, line in _unused(path.read_text(encoding="utf-8")).items()}
    # equality: an unused import fails, and so does a pinned one that is
    # used again or gone, so that the list stays exact
    assert set(found) == PINNED, found
