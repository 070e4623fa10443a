"""The benchmark's reads of a report, checked on every test run: the
output checks of `perfbench/checks.py` on the seed-0 p5 and p6 reports,
and its tamper check, a copy with one sequence step dropped that `verify`
must reject, naming each tampered item's id.  perfbench reads `face`,
`states` and `verdict` of the verdict rows, `ok` and `all_regular` of the
cusp rows, and `kind`, `host.type` and the `*_sequence` keys of the
evidence items, so a report format that drops one of them fails here.

perfbench imports morsecert names and wraps the ones `spans.TRACED`
lists, each in the module where it resolves.  A static check, on the
sources of `perfbench/*.py` and on `TRACED`, finds each such name where
perfbench looks for it, so a name moved out of a module fails here, naming
the perfbench file and line, before any benchmark child process runs.  The
six names that its `child.py ready` builds P6 and P5 with read the shipped
documents; they must give the subject every command builds, and `ready`
must run."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from morsecert.cli import main
from morsecert.io import builtin_subject
from morsecert.polytopes import build_p5, build_p6
from morsecert.report import emit_report
from morsecert.states import (
    balanced_states_p5, balanced_states_p6, move_system_p5, move_system_p6,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem: str):
    """perfbench's module `stem`, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


checks = _load("checks")


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_benchmark_checks_pass_on_the_report(request, subject):
    cert = request.getfixturevalue(f"cert_{subject}")
    doc = json.loads(emit_report(cert, "structured"))
    rc = 0 if cert.passed else 1
    assert checks.check_certify(subject, rc, cert.summary_line(), doc) == []


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_benchmark_tamper_is_rejected_and_named(request, tmp_path, capsys, subject):
    """p6 tampers an ambient item and the shared item, as the p6-verify
    workload does; p5 an ambient item, as the p5-roundtrip workload does."""
    cert = request.getfixturevalue(f"cert_{subject}")
    for seed in (0, 1):
        doc = json.loads(emit_report(cert, "structured"))
        bad, named = checks.tamper(doc, seed, shared=subject == "p6")
        path = tmp_path / f"tampered-{seed}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        rc = main(["verify", str(path)])
        assert checks.check_rejected(rc, capsys.readouterr().out, named) == []


def _resolves(modname: str, attr: str = None) -> bool:
    """Whether module `modname` imports and binds `attr`, a name or a
    "Class.method" that the class itself defines."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return False
    if attr is None:
        return True
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
        return owner is not None and name in vars(owner)
    return hasattr(owner, name) or (hasattr(owner, "__path__") and  # a package's submodule
                                    importlib.util.find_spec(f"{modname}.{name}") is not None)


def test_every_name_perfbench_uses_resolves():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                wanted = [(a.name, None) for a in node.names if a.name.startswith("morsecert")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("morsecert"):
                wanted = [(node.module, a.name) for a in node.names]
            else:
                continue
            missing += [f"{path.name}:{node.lineno}: {mod}" + (f".{attr}" if attr else "")
                        for mod, attr in wanted if not _resolves(mod, attr)]
    spans = PERFBENCH / "spans.py"
    lines = next(node.value.elts for node in ast.parse(spans.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.AnnAssign) and node.target.id == "TRACED")
    traced = _load("spans").TRACED
    assert len(lines) == len(traced) > 0
    missing += [f"{spans.name}:{line.lineno}: {modname}.{attr}"
                for line, (_, modname, attr, _, _) in zip(lines, traced)
                if not _resolves(modname, attr)]
    assert missing == []


@pytest.mark.parametrize("tag", ["p6", "p5"])
def test_the_names_ready_calls_give_the_shipped_subject(tag):
    """`build_*`, `move_system_*` and `balanced_states_*` of `tag` give the
    polytope, moves and states of `io.builtin_subject(tag)`, and perfbench's
    `child.py ready` of it exits 0 in a fresh interpreter."""
    S = builtin_subject(tag)
    if tag == "p6":
        P = build_p6()
        m, states = move_system_p6(), balanced_states_p6(P)
    else:
        P = build_p5()
        m, states = move_system_p5(P), balanced_states_p5(P)
    assert (P.name, P.dimension, P.facets) == (S.P.name, S.P.dimension, S.P.facets)
    assert P.adjacency_pairs == S.P.adjacency_pairs
    assert P.ideal_vertices == S.P.ideal_vertices
    assert m == S.m
    assert states == S.states
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "ready", tag],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
