"""The verifier's trusted base: every function and method of the package
that `morsecert verify` runs on the seed-0 p5 and p6 reports, traced with
`sys.setprofile` from cleared subject and link-graph caches, so that the
trace includes building what the verifier recomputes, the built-in
subjects from their shipped inputs.  The set is pinned:
a verifier that calls a function outside it fails here, and one that stops
calling a function in it fails too, so the list stays exact.  A change that
adds to it updates the list and says why.  Nested functions, lambdas and
comprehensions count as part of the function that defines them; a
property's getter, a cached property's included, counts as a method.

The reports are written as certify writes them, so `verify` reads each
verdicts section through its subject's frame.  The reject path is pinned
too: `verify` of four malformed copies of the p5 report, written by
`json.dumps`, three stopped by the schema parse and one by a repeated key,
runs only trusted functions, the whole-document read `load_json` that such
a copy falls back to and that reads the shipped inputs included, and the
few of `schema` that name a mismatch (`REJECTED`)."""

import copy
import inspect
import json
import sys

from morsecert.cli import build_parser, main
from morsecert.io import builtin_inputs, builtin_subject
from morsecert.kernel import canonical_pairs_graphs
from morsecert.report import certificate_to_document, document_to_json

# The pinned set, by module: qualified names, space-separated.
TRUSTED = {
    "cli": "_cmd_verify main",
    "io": """
        _object builtin_inputs builtin_subject load_json moves_from_doc polytope_from_doc
        read_object read_text state_from_doc subject_from_inputs""",
    "kernel": """
        CubeLift.lift_of_face CubeLift.proper_faces MoveSystem.__post_init__
        MoveSystem.block_of MoveSystem.covers State.__post_init__ State.serial
        Subject.__init__ Subject.bad_masks Subject.cusps Subject.plan _pair_values
        _plan_rows all_pairs_index canonical_pairs_graphs certificate_problem
        check_cusp_condition check_sd_crosspolytope_witness comparability_graph cusp_table
        face_contains face_int face_link_posets face_masks face_parts face_table facet_mask
        generic_subject is_compatible orbit pairs_core_elements synthetic_pairs_lift""",
    "polytopes": """
        FaceHandle.codim FaceHandle.sorted_ids Polytope.__init__
        Polytope._build_census Polytope._clique_levels Polytope.adjacent
        Polytope.clique_count Polytope.cliques Polytope.degree Polytope.ideal_vertex
        Polytope.ranked_graph RankedGraph.labels RankedGraph.mask adjacency_from_lorentz
        cusp_incidence dual_mask f_vector_check face_of_mask lorentz_product""",
    "report": """
        _eid _inputs_digest _kept_frame canonical_json cusp_rows euler_identity
        legality_header read_verdicts report_tables shared_header verdict_allowed
        verdict_frame verdict_row""",
    "schema": """
        Leaf._at_once Leaf.parse ListOf._at_once ListOf.parse Obj._at_once
        Obj._check_keys Obj.parse _Kind.parse_items parse""",
    "verify": """
        _Verifier.__init__ _Verifier._check_row _Verifier._claimed_row _Verifier._core_problems
        _Verifier._critical_row _Verifier._evidence _Verifier._legality
        _Verifier.check_bound _Verifier.check_cusps _Verifier.check_tables
        _Verifier.check_verdicts _Verifier.run _subject verify_document
        verify_report_file""",
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


def _trace(paths) -> tuple:
    """The exit codes of `morsecert verify` of each path, and the functions
    of the package that the runs called, from cleared caches."""
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
        codes = [main(["verify", str(path)]) for path in paths]
    finally:
        sys.setprofile(None)
    return codes, ran


def test_verify_runs_the_trusted_base(cert_p5, cert_p6, tmp_path):
    paths = []
    for name, cert in (("p5", cert_p5), ("p6", cert_p6)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(document_to_json(certificate_to_document(cert)))
    codes, ran = _trace(paths)
    assert codes == [0, 0]
    assert not [name for name in ran if name.split(".")[0] in ("complexes", "states", "links")]
    want = _names(TRUSTED)
    assert sorted(ran - want) == [] and sorted(want - ran) == []
    assert len(want) == 100


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
    codes, ran = _trace(paths)
    assert codes == [2, 2, 2, 2]
    err = capsys.readouterr().err
    for where in ("verdicts.rows[3].face: expected", "verdicts.rows[0]: missing key states",
                  "cusps.apexes[0][0][0]: expected", "repeated key 'pass'"):
        assert where in err
    assert sorted(ran - _names(TRUSTED)) == sorted(_names(REJECTED))
