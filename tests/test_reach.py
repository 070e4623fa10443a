"""What the package keeps that no command reaches, and why.

The commands are traced with the trusted base's tracer
(`test_trusted_base._trace`), from the same cleared caches: `info`,
`certify` in text and structured form and `verify` of its report, for p5
and p6; `certify generic` of the 3-cube and of the square, in both modes
and both formats, and `verify` of each structured report; and four reject
paths.  These are `certify generic` of the 3-cube with an incompatible
state (exit 2) and of the square with adjacent same-move facets, whose
identity fails (exit 1), and `verify` of the seed-0 p5 report with a
verdict row's face of the wrong kind (exit 2) and with one dismantling
step dropped (exit 1).

Every function and method of the package that these runs do not call is
pinned in `KEPT` under exactly one reason, and the pin is exact in both
directions: a function that no run calls and no reason names fails here,
and so does one named that a run now calls or that is gone.  A function
that no command runs, that the benchmark does not name and that no kept
code calls belongs in `tests/oracles.py`, or nowhere.  The reasons:

- "perfbench": the benchmark names it, in `perfbench/spans.py`'s
  `TRACED`, in `child.ready`, or as what a hook reads;
- "called": kept code calls it, a function of the package or a
  module's own code at import;
- "readme": README documents it for users;
- "failure": it only writes the text of a failure that the reject
  paths above do not meet;
- "python": Python calls it, a special method of a kept class that an
  operator or an assignment runs.

The first three are checked on the sources: a "perfbench" name occurs in
perfbench's, a "called" one in the package's outside its own definition
(its class's name for `__init__`), and a "readme" one, with its module, in
README.  The "perfbench" entries and the code that only they call are the
to-do list of ROADMAP items 1a and 8b.

Run as a script, `PYTHONPATH=src python tests/test_reach.py` runs the same
trace and prints the pinned functions by reason, with their source lines by
`inspect.getsourcelines` per module and in total."""

import ast
import copy
import inspect
import json
import re
from pathlib import Path

from morsecert.report import certificate_to_document, document_to_json

from test_certify import _input_files, cube_inputs, square_inputs
from test_trusted_base import _functions, _names, _trace

ROOT = Path(__file__).resolve().parents[1]

# Kept, reached by no command: qualified names by reason and module.
KEPT = {
    "perfbench": {
        "complexes": """
            SimplicialComplex.n_simplices betti_mod2 full_subcomplex order_complex
            replay_collapse try_collapse""",
        "links": "canonical_pairs_transform face_links_oracle",
        "polytopes": "build_cusp_section build_p5 build_p6 dual_complex enumerate_faces",
        "states": """
            balanced_states_p5 balanced_states_p6 inherited_state legality move_system_p5
            move_system_p6""",
    },
    "called": {
        "certify": "_worker_classify _worker_init",
        "cli": "_add_common build_parser",
        "complexes": """
            SimplicialComplex.__init__ SimplicialComplex.has_face SimplicialComplex.is_empty
            SimplicialComplex.simplices _Table.__init__ _Table.labelled _Table.rank_of
            _Table.remaining_complex _Table.remove_pair _Table.reset _Table.restore_pair
            _Table.simplex _absorb _backtrack _derive_seed _gf2_rank _greedy_pass label_key
            simplex_key""",
        "links": "CubeLift.lift_of_face CubeLift.proper_faces face_link_posets",
        "polytopes": "clique_complex",
        "report": "verdict_row",
        "schema": "Leaf.__init__ ListOf.__init__ Obj.__init__ _plural _report",
        "states": "split_state",
    },
    "readme": {"io": "moves_to_doc polytope_to_doc state_to_doc write_json"},
    "failure": {
        "verify": """
            _Verifier._apexes _Verifier._cusp_state _Verifier._departed _Verifier._same_row
            _Verifier._witness_moves""",
    },
    "python": {
        "complexes": "SimplicialComplex.__eq__ SimplicialComplex.__hash__ SimplicialComplex.__setattr__",
    },
}


def _generic(directory, docs) -> list:
    """`certify generic` of the documents `docs`, written to `directory`."""
    directory.mkdir()
    return ["certify", "generic", *_input_files(directory, docs)]


def _runs(directory, cert_p5) -> list:
    """The argument lists of the traced runs, accept paths first, with the
    files that they read written to `directory`."""
    runs = []
    for subject in ("p5", "p6"):
        report = str(directory / f"{subject}.json")
        runs += [["info", subject], ["certify", subject],
                 ["certify", subject, "--format", "structured", "--output", report],
                 ["verify", report]]
    for name, docs in (("cube", cube_inputs()), ("square", square_inputs())):
        argv = _generic(directory / name, docs)
        for mode in ("perfect", "fibration"):
            report = str(directory / f"{name}-{mode}.json")
            runs += [[*argv, "--mode", mode],
                     [*argv, "--mode", mode, "--format", "structured", "--output", report],
                     ["verify", report]]
    polytope, _, state = square_inputs()
    rejects = [_generic(directory / "incompatible", cube_inputs("O")),
               _generic(directory / "adjacent-moves", (polytope, [["a", "b"], ["c", "d"]], state))]
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    for edit in (_wrong_kind, _dropped_step):
        bad = copy.deepcopy(doc)
        edit(bad)
        (directory / f"{edit.__name__}.json").write_text(json.dumps(bad))
        rejects.append(["verify", str(directory / f"{edit.__name__}.json")])
    return runs + rejects


def _wrong_kind(doc):
    doc["verdicts"]["rows"][3]["face"] = 5


def _dropped_step(doc):
    next(iter(doc["evidence"].values()))["out_sequence"].pop()


CODES = [0] * 20 + [2, 1, 2, 1]


def _unreached(directory, cert_p5) -> set:
    """The functions of the package that no traced run calls."""
    codes, ran = _trace(_runs(directory, cert_p5))
    assert codes == CODES
    return set(_functions().values()) - ran


def _uses() -> dict:
    """Each name that the package's code uses, as a name or an attribute,
    with where: "module.qualname" of a function or method, nested code
    included, or "module" for a module's own code."""
    uses = {}
    for path in sorted((ROOT / "src" / "morsecert").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                owner = path.stem if node is top else f"{path.stem}.{top.name}"
                where = f"{owner}.{node.name}" if isinstance(node, ast.FunctionDef) else path.stem
                for n in ast.walk(node):
                    if isinstance(n, ast.Name):
                        uses.setdefault(n.id, set()).add(where)
                    elif isinstance(n, ast.Attribute):
                        uses.setdefault(n.attr, set()).add(where)
    return uses


def _unfounded() -> list:
    """The pinned functions whose reason the sources do not bear out."""
    perfbench = " ".join(path.read_text(encoding="utf-8")
                         for path in sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    uses = _uses()
    wrong = []
    for reason, pinned in KEPT.items():
        for name in sorted(_names(pinned)):
            *owner, last = name.split(".")
            if reason == "perfbench":
                ok = re.search(rf"\b{last}\b", perfbench)
            elif reason == "called":
                ok = uses.get(owner[-1] if last == "__init__" else last, set()) - {name}
            elif reason == "readme":
                ok = f"`{name}`" in readme
            else:
                ok = reason == "failure" or last.startswith("__")
            if not ok:
                wrong.append(f"{reason}: {name}")
    return wrong


def test_what_no_command_reaches_is_kept_for_one_reason(cert_p5, tmp_path, capsys):
    unreached = _unreached(tmp_path, cert_p5)
    capsys.readouterr()
    pinned = [name for names in KEPT.values() for name in _names(names)]
    assert len(pinned) == len(set(pinned)), "a function pinned under two reasons"
    assert sorted(unreached - set(pinned)) == [], "reached by no command, kept for no reason"
    assert sorted(set(pinned) - unreached) == [], "pinned, but a command reaches it or it is gone"
    assert _unfounded() == []


if __name__ == "__main__":
    import contextlib
    import tempfile
    from io import StringIO

    from morsecert.certify import certify_p5

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(StringIO()), \
            contextlib.redirect_stderr(StringIO()):
        unreached = _unreached(Path(tmp), certify_p5())
    code_of = {name: code for code, name in _functions().items()}
    lines = {name: len(inspect.getsourcelines(code)[0]) for name, code in code_of.items()}
    total = [0, 0]
    for reason, pinned in KEPT.items():
        names = sorted(_names(pinned))
        print(f"{reason}: {len(names)} functions, {sum(lines[n] for n in names):,} lines")
        for mod in pinned:
            mine = [n for n in names if n.split(".")[0] == mod]
            print(f"  {mod:10} {len(mine):3} functions {sum(lines[n] for n in mine):5,} lines")
        total = [total[0] + len(names), total[1] + sum(lines[n] for n in names)]
    print(f"total: {total[0]} functions, {total[1]:,} lines, of {len(code_of)} functions, "
          f"{sum(lines.values()):,} lines")
    pinned = {name for names in KEPT.values() for name in _names(names)}
    for what, names in (("unreached, not pinned", unreached - pinned),
                        ("pinned, not unreached", pinned - unreached)):
        if names:
            print(f"{what}: {' '.join(sorted(names))}")
    wrong = _unfounded()
    if wrong:
        print(f"reason not borne out: {'; '.join(wrong)}")
