"""The verifier's trusted base: every function and method of the package
that `morsecert verify` runs on the reports it must accept, traced with
`sys.setprofile` from cleared subject and link-graph caches, so that the
trace includes building what the verifier recomputes, the built-in
subjects from their shipped inputs.  The set is pinned:
a verifier that calls a function outside it fails here, and one that stops
calling a function in it fails too, so the list stays exact.  A change that
adds to it updates the list and says why.  Nested functions, lambdas and
comprehensions count as part of the function that defines them; a
property's getter, a cached property's included, counts as a method.

Four reports are traced, one for each way a verdicts section is accepted:
the seed-0 p5 and p6 reports as certify writes them, whose verdicts
sections `verify` reads through the subject's frame from their bytes; the
compatible 3-cube's generic report as `morsecert certify generic` writes
it, whose embedded inputs follow its verdicts; and the p5 report
re-written by `json.dumps`, another spelling.  The last two are parsed
whole, and each verdicts section is read through the same frame in the
bytes certify writes of it (`report.document_to_json`).  The reject path
is pinned too: `verify` of four malformed copies of the p5 report, written
by `json.dumps`, three stopped by the schema parse and one by a repeated
key, runs only trusted functions, and the few of `schema` that name a
mismatch (`REJECTED`).

Run as a script, `PYTHONPATH=src python tests/test_trusted_base.py` traces
the same four reports and prints, per module and in total, the number of
pinned functions and their source lines by `inspect.getsourcelines`, and
any function the trace and the pin disagree on.  README quotes these
figures, and `test_readme_quotes_the_figures` holds it to them."""

import copy
import inspect
import json
import re
import sys
from pathlib import Path

from morsecert.cli import build_parser, main
from morsecert.io import builtin_inputs, builtin_subject
from morsecert.kernel import canonical_pairs_graphs
from morsecert.report import certificate_to_document, document_to_json

from test_certify import cube_inputs

# The pinned set, by module: qualified names, space-separated.
TRUSTED = {
    "cli": "_cmd_verify main",
    "io": """
        _object builtin_inputs builtin_subject load_json moves_from_doc read_object read_text
        state_from_doc subject_from_inputs""",
    "kernel": """
        MoveSystem.__post_init__ MoveSystem.block_of MoveSystem.covers State.__post_init__
        State.serial Subject.__init__ Subject.bad_masks Subject.cusps Subject.plan
        _pair_values _plan_rows all_pairs_index canonical_pairs_graphs certificate_problem
        check_cusp_condition check_sd_crosspolytope_witness cusp_table face_contains face_int
        face_masks face_parts face_table facet_mask generic_subject is_compatible orbit
        pairs_core_elements""",
    "polytopes": """
        FaceHandle.codim FaceHandle.sorted_ids Polytope.__init__
        Polytope._build_census Polytope._clique_levels Polytope.adjacent
        Polytope.clique_count Polytope.cliques Polytope.degree Polytope.ranked_graph
        RankedGraph.labels RankedGraph.mask adjacency_from_lorentz
        cusp_incidence dual_mask f_vector_check face_of_mask lorentz_product polytope_from_doc""",
    "report": """
        _eid _inputs_digest _kept_frame canonical_json cusp_rows document_to_json
        euler_identity legality_header read_verdicts report_tables shared_header
        verdict_allowed verdict_frame""",
    "schema": """
        Leaf._at_once Leaf.parse ListOf._at_once ListOf.parse Obj._at_once
        Obj._check_keys Obj.parse _Kind.parse_items parse""",
    "verify": """
        _Verifier.__init__ _Verifier._check_outcome _Verifier._core_problems
        _Verifier._evidence _Verifier._legality _Verifier.check_bound
        _Verifier.check_cusps _Verifier.check_tables _Verifier.check_verdicts
        _Verifier.run _subject verify_document verify_report_file""",
}

# What the reject path runs beyond the trusted set, qualified names by module:
# the per-value walk that names a mismatch, and the naming itself.
REJECTED = {"schema": "_Kind._walk _Mismatch.__init__ _expected"}


def _names(pinned: dict) -> set:
    return {f"{mod}.{name}" for mod, names in pinned.items() for name in names.split()}


def _functions() -> dict:
    """"module.qualname" of every function and method defined in the
    package, under its code object."""
    names = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("morsecert."):
            continue
        stem = modname.split(".", 1)[1]
        for obj in vars(mod).values():
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for fn in members:
                fn = getattr(fn, "fget", getattr(fn, "func", fn))  # a property's getter
                fn = inspect.unwrap(fn) if callable(fn) else fn  # under `functools.cache`
                if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                    names[fn.__code__] = f"{stem}.{fn.__qualname__}"
    return names


def _trace(runs) -> tuple:
    """The exit codes of `morsecert` run on each argument list of `runs`, and
    the functions of the package that the runs called, from cleared caches."""
    build_parser()  # kept per process: built here so the trace holds no parser
    builtin_inputs.cache_clear()
    builtin_subject.cache_clear()
    canonical_pairs_graphs.cache_clear()
    names, ran = _functions(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            ran.add(names[frame.f_code])

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    return codes, ran


def _reports(directory, cert_p5, cert_p6) -> list:
    """Write the four reports that `verify` must accept; the argument lists
    of `morsecert verify` of each.  The generic one is written by `morsecert
    certify generic`, in perfect mode."""
    paths = []
    for name, cert in (("p5", cert_p5), ("p6", cert_p6)):
        paths.append(directory / f"{name}.json")
        paths[-1].write_text(document_to_json(certificate_to_document(cert)))
    argv = ["certify", "generic", "--format", "structured", "--output",
            str(directory / "cube.json")]
    for name, doc in zip(("polytope", "moves", "state"), cube_inputs()):
        (directory / f"{name}.json").write_text(json.dumps(doc))
        argv += [f"--{name}", str(directory / f"{name}.json")]
    if main(argv) != 0:
        raise AssertionError("certify generic of the 3-cube failed")
    paths += [directory / "cube.json", directory / "p5-dumps.json"]
    paths[-1].write_text(json.dumps(json.loads(paths[0].read_text())))
    return [["verify", str(path)] for path in paths]


def _figures() -> dict:
    """The pinned functions and their source lines, (functions, lines), by
    module and under "total"."""
    code_of = {name: code for code, name in _functions().items()}
    out = {"total": [0, 0]}
    for name in _names(TRUSTED):
        for key in (name.split(".")[0], "total"):
            counts = out.setdefault(key, [0, 0])
            counts[0] += 1
            counts[1] += len(inspect.getsourcelines(code_of[name])[0])
    return {key: tuple(counts) for key, counts in out.items()}


def test_verify_runs_the_trusted_base(cert_p5, cert_p6, tmp_path):
    codes, ran = _trace(_reports(tmp_path, cert_p5, cert_p6))
    assert codes == [0, 0, 0, 0]
    assert not [name for name in ran if name.split(".")[0] in ("complexes", "states", "links")]
    want = _names(TRUSTED)
    assert sorted(ran - want) == [] and sorted(want - ran) == []
    assert len(want) == 92


def test_readme_quotes_the_figures():
    """README's sentence "It pins the set, N functions and methods (L lines
    ...), in M modules: ..." gives the figures `_figures` computes."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = re.search(r"It pins the set, (\d+) functions and methods \(([\d,]+) lines by "
                      r"`inspect\.getsourcelines`\), in (\d+) modules: (.*?)\. ", text)
    assert found, "README has no sentence quoting the trusted base's figures"
    n, lines, modules, listed = found.groups()
    quoted = {mod: (int(k), int(m.replace(",", "")))
              for mod, k, m in re.findall(r"`(\w+)` (\d+) \(([\d,]+)(?: lines)?\)", listed)}
    want = _figures()
    assert (int(n), int(lines.replace(",", ""))) == want.pop("total")
    assert (int(modules), quoted) == (len(want), want)


def _wrong_kind(doc):
    doc["verdicts"]["rows"][3]["face"] = 5


def _missing_key(doc):
    del doc["verdicts"]["rows"][0]["states"]


def _three_element_pair(doc):
    doc["cusps"]["apexes"][0][0][0].append(None)


def _repeated_key(text: str) -> str:
    return '{"pass":true,' + text[1:]


def test_verify_rejects_with_the_trusted_base(cert_p5, tmp_path, capsys):
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    paths = []
    for edit in (_wrong_kind, _missing_key, _three_element_pair):
        bad = copy.deepcopy(doc)
        edit(bad)
        paths.append(tmp_path / f"{edit.__name__}.json")
        paths[-1].write_text(json.dumps(bad))
    paths.append(tmp_path / "_repeated_key.json")
    paths[-1].write_text(_repeated_key(json.dumps(doc)))
    codes, ran = _trace([["verify", str(path)] for path in paths])
    assert codes == [2, 2, 2, 2]
    err = capsys.readouterr().err
    for where in ("verdicts.rows[3].face: expected", "verdicts.rows[0]: missing key states",
                  "cusps.apexes[0][0][0]: expected", "repeated key 'pass'"):
        assert where in err
    assert sorted(ran - _names(TRUSTED)) == sorted(_names(REJECTED))


if __name__ == "__main__":
    import contextlib
    import tempfile
    from io import StringIO

    from morsecert.certify import certify_p5, certify_p6

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(StringIO()):
        codes, ran = _trace(_reports(Path(tmp), certify_p5(), certify_p6()))
    if codes != [0, 0, 0, 0]:
        raise SystemExit(f"verify exited {codes}")
    counts = _figures()
    total = counts.pop("total")
    for mod, (n, lines) in [*sorted(counts.items(), key=lambda item: -item[1][1]),
                            ("total", total)]:
        print(f"{mod:10} {n:4} functions {lines:6,} lines")
    pinned = _names(TRUSTED)
    for what, names in (("run, not pinned", ran - pinned), ("pinned, not run", pinned - ran)):
        if names:
            print(f"{what}: {' '.join(sorted(names))}")
