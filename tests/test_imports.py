"""Every name that a module of the package imports is used by that module,
save three.  perfbench's tracer wraps `try_collapse` and `replay_collapse`
at every module that imports them, and
`perfbench/test_perfbench.py::test_tracer_patches_every_import_site` pins
the imports of `try_collapse` in `states` and `links` and of
`replay_collapse` in `verify`.  Each carries a comment saying so.  A name counts as used
when the module reads it, lists it in `__all__`, or names it in a string
annotation.

The checker and the prover are peers over the report format: following the
package's imports, wherever in a module they stand, `verify` reaches
none of `certify`, `cli`, `states` and `links`, and `report` does not reach
`certify`.  No module that `verify` reaches defines a declared finder, and
the kernel reaches only `polytopes`, `labels`, `errors` and `complexes`.

Every annotation in the package resolves: `typing.get_type_hints` finds
each name it uses bound in its module."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import morsecert

PACKAGE = Path(morsecert.__file__).parent

# (module, name): imported and never used, because perfbench pins the import
PINNED = {("states", "try_collapse"), ("links", "try_collapse"),
          ("verify", "replay_collapse")}

# The functions and classes that search for a certificate.  The checker must
# reach no module that defines one.
FINDERS = {"dismantle", "flag_certificate", "cone_apex", "split_legality",
           "CriticalLinkCertifier", "classify_link", "certify_boundary_cube", "try_collapse"}

# Reached by the checker although it defines a finder, with the reason: `verify`
# keeps its import of `complexes.replay_collapse` while perfbench pins it.
FINDER_EXCEPTIONS = {"complexes"}


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


def _package_imports(stem: str) -> set:
    """The modules of the package that module `stem` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("morsecert."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("morsecert."))
    return found


def _closure(stem: str) -> set:
    """The modules of the package that module `stem` reaches by imports."""
    reached, todo = set(), [stem]
    while todo:
        for dep in _package_imports(todo.pop()) - reached:
            reached.add(dep)
            todo.append(dep)
    return reached


def _defines(stem: str) -> set:
    """The names that module `stem` defines at its top level: its functions,
    its classes and the targets of its assignments, not what it imports."""
    names = set()
    for node in ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_closure_follows_imports():
    assert {"report", "kernel", "polytopes", "schema", "io"} <= _closure("verify")
    assert {"certify", "verify", "report", "states", "links"} <= _closure("cli")


def test_every_finder_is_defined_once_in_the_package():
    owners = {name: [p.stem for p in sorted(PACKAGE.glob("*.py")) if name in _defines(p.stem)]
              for name in FINDERS}
    assert all(len(stems) == 1 for stems in owners.values()), owners


def test_the_checker_reaches_no_prover():
    assert not {"certify", "cli", "states", "links"} & _closure("verify")
    assert "certify" not in _closure("report")


def test_the_checker_reaches_no_finder():
    found = {stem: sorted(FINDERS & _defines(stem))
             for stem in sorted((_closure("verify") | {"verify"}) - FINDER_EXCEPTIONS)}
    assert {stem: names for stem, names in found.items() if names} == {}


def test_the_kernel_is_the_bottom_layer():
    assert _closure("kernel") <= {"polytopes", "labels", "errors", "complexes"}


def _annotated(mod):
    """(qualified name, object) of every function, method and class that
    module `mod` defines, a property's getter, a cached property's and a
    cached function's wrapped function included."""
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        members = [obj]
        if inspect.isclass(obj):
            members += [getattr(m, "fget", getattr(m, "func", getattr(m, "__func__", m)))
                        for m in vars(obj).values()]
        for member in members:
            member = inspect.unwrap(member) if callable(member) else member
            if inspect.isfunction(member) or inspect.isclass(member):
                yield f"{mod.__name__}.{member.__qualname__}", member


def test_every_annotation_resolves():
    unresolved, n = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "__main__"):  # __main__ runs the CLI on import
            continue
        for name, obj in _annotated(importlib.import_module(f"morsecert.{path.stem}")):
            n += 1
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{name}: {exc}")
    assert n > 200 and unresolved == []
