"""The built-in subjects and the canonical link graphs are kept per process,
and each `Subject` keeps its verdict plan and cusp tables.

The built-in subjects are built from their shipped inputs and shared by
every run in the process, so no run may change them, and no report may reach them: a
tampered report verified between two good ones fails alone, and a generic
report is checked against its own embedded inputs only.  What a run finds,
its dismantling orders and cone apexes, is found again by every run.
Nothing is kept on a polytope under a move system.  A subject keeps the
report's text of its verdict rows around what a run finds, built by its
first structured write or verify: the report is the bytes `json.dumps`
writes of the rows `verdict_row` makes, with no row built and no encoder
call per row, and `verify` reads those bytes back through the same text."""

import json

import pytest

from morsecert.certify import certify_generic, certify_p5, certify_p6, run_pipeline
from morsecert.cli import main
from morsecert.io import builtin_inputs, builtin_subject, moves_from_doc, state_from_doc, state_to_doc
from morsecert.kernel import MoveSystem, canonical_pairs_graphs, generic_subject, orbit
from morsecert.polytopes import polytope_from_doc
from morsecert import report
from morsecert.report import (
    BUILTINS,
    _inputs_digest,
    certificate_to_document,
    document_to_json,
    emit_report,
)
from morsecert.verify import verify_document

from oracles import verdict_rows

from test_certify import cube_inputs
from test_dismantling import _certify_inputs, _stuck_inputs
from test_shipped_inputs import construction


def _fresh(tag):
    """A fresh subject equal to the built-in one: built from the paper's
    construction, as the orbit of the first balanced state."""
    P, m, states = construction(tag)
    return generic_subject(P, m, states[0])


def _fingerprint(S):
    P, table = S.P, S.table
    return (P.name, P.facet_ids, P.ranked_graph(), P.ideal_vertices, S.m.blocks,
            [s.serial() for s in S.states], table.masks, table.witnesses, table.bad,
            S.bad_faces, S.f_vector, S.in_masks, S.plan, S.cusps,
            report._FRAMES.get(S) or report.verdict_frame(S))


@pytest.mark.parametrize("tag", ["p6", "p5"])
def test_builtin_subject_is_built_once(tag):
    first = builtin_subject(tag)
    assert first is builtin_subject(tag)
    assert first.plan is builtin_subject(tag).plan
    assert first.cusps is builtin_subject(tag).cusps


def _with_state(tag, s):
    """The shipped inputs of `tag`, the initial state replaced by s."""
    return {**builtin_inputs(tag)[0], "state": state_to_doc(s)}


def test_builtin_subject_checks_its_states(monkeypatch):
    """A shipped initial state that is not compatible is a transcription
    bug: `builtin_subject` refuses it, naming the subject and the adjacent
    same-move pair."""
    import morsecert.io
    from morsecert.errors import StructuralError
    from morsecert.kernel import State, is_compatible

    S = _fresh("p5")
    P, m, states = S.P, S.m, S.states
    s = states[3]
    bad = State(s.universe, s.in_facets - {min(s.in_facets)})
    ok, pair = is_compatible(P, m, bad)
    assert not ok
    inputs = _with_state("p5", bad)
    monkeypatch.setattr(morsecert.io, "builtin_inputs", lambda tag: (inputs, None))
    builtin_subject.cache_clear()
    try:
        with pytest.raises(StructuralError) as info:
            builtin_subject("p5")
    finally:
        builtin_subject.cache_clear()
    assert str(info.value) == f"p5 initial state is incompatible: adjacent same-move pair {pair!r}"


def test_builtin_subject_checks_its_orbit(monkeypatch):
    """The built-in states are the orbit of the shipped initial state, in
    canonical order: the construction's balanced states, whichever of them
    is shipped, the first of them the shipped one."""
    import morsecert.io

    P, m, states = construction("p5")
    kept = builtin_subject("p5")
    assert kept.states[0] == state_from_doc(builtin_inputs("p5")[0]["state"], kept.P)
    assert orbit(kept.states[0], kept.m) == kept.states == states
    for s in (states[1], states[-1]):
        inputs = _with_state("p5", s)
        monkeypatch.setattr(morsecert.io, "builtin_inputs", lambda tag: (inputs, None))
        builtin_subject.cache_clear()
        try:
            assert builtin_subject("p5").states == states
        finally:
            builtin_subject.cache_clear()


@pytest.mark.parametrize("census, named", [
    (({1: 27, 2: 215, 6: 72}, 16, {(2,), (3,), (2, 2), (2, 2, 2)}),
     "p6 face census failed: cliques of size 2: 216 != 215"),
    (({1: 27, 2: 216, 6: 72}, 16, {(2,), (3,), (2, 2)}),
     "p6 bad-face signatures [(2,), (2, 2), (2, 2, 2), (3,)] != expected "
     "[(2,), (2, 2), (3,)]"),
], ids=["clique-count", "signatures"])
def test_builtin_subject_audits_its_census(monkeypatch, cert_p6, tmp_path, capsys,
                                           census, named):
    """A built-in census that the built subject breaks is a transcription
    bug: `builtin_subject` refuses it, naming the subject and the broken
    line, and certify, verify of a good report and info all exit 3."""
    from morsecert.errors import StructuralError

    report = tmp_path / "p6.json"
    report.write_text(document_to_json(certificate_to_document(cert_p6)))
    counts, degree, signatures = census
    monkeypatch.setitem(BUILTINS, "p6", BUILTINS["p6"]._replace(
        counts=counts, degree=degree, signatures=signatures))
    builtin_subject.cache_clear()
    try:
        with pytest.raises(StructuralError) as info:
            builtin_subject("p6")
        codes = [main(argv) for argv in (["certify", "p6"], ["verify", str(report)],
                                         ["info", "p6"])]
    finally:
        builtin_subject.cache_clear()
    assert str(info.value) == named
    assert codes == [3, 3, 3]
    assert capsys.readouterr().err == f"internal error: {named}\n" * 3


def test_runs_leave_the_kept_subjects_as_built():
    """Certify and verify of both subjects change nothing in what they
    share: each kept subject still equals a freshly built one, facet ids,
    facet graph, ideal vertices, moves, states, face table, bad faces,
    census, In masks, verdict plan, cusp tables and the report's kept text
    of its verdicts alike, and the canonical link graphs equal a fresh
    build."""
    for certify in (certify_p6, certify_p5):
        cert = certify()
        assert cert.passed, cert.failures
        ok, msgs = verify_document(json.loads(document_to_json(certificate_to_document(cert))))
        assert ok, msgs
    for tag in ("p6", "p5"):
        assert builtin_subject(tag) in report._FRAMES
        assert _fingerprint(builtin_subject(tag)) == _fingerprint(_fresh(tag))
    assert canonical_pairs_graphs(3) == canonical_pairs_graphs.__wrapped__(3)


def test_a_builtin_inputs_digest_is_computed_once_per_process(tmp_path, capsys):
    """Two `certify p5` and two `verify` of its report in one process, from
    a cleared cache of the shipped inputs, compute the p5 inputs digest once."""
    import sys

    path, code, calls = tmp_path / "p5.json", report._inputs_digest.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["tag"])

    builtin_inputs.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [main(["certify", "p5", "--format", "structured", "--output", str(path)])
                 for _ in range(2)] + [main(["verify", str(path)]) for _ in range(2)]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0]
    assert calls == ["p5"]


def test_a_tampered_report_between_good_ones_fails_alone(cert_p5, tmp_path, capsys):
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    eid, ev = next((k, v) for k, v in doc["evidence"].items() if v["out_sequence"])
    ev["out_sequence"] = ev["out_sequence"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(good)]) == 0
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    assert f"evidence {eid}" in capsys.readouterr().out
    assert main(["verify", str(good)]) == 0


def _generic_report(pol, moves, state):
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="fibration")
    assert cert.passed, cert.failures
    return json.loads(document_to_json(certificate_to_document(cert)))


def test_generic_reports_are_checked_against_their_own_inputs():
    """A square and a cube, each a fibration: both reports verify in one
    process, in either order, and each is rejected with the other's
    embedded inputs."""
    square = _generic_report(
        {"name": "square", "dimension": 2, "facets": [{"id": f} for f in "abcd"],
         "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]},
        [["a", "c"], ["b", "d"]], {"a": "I", "b": "I", "c": "O", "d": "O"})
    ids = ["x0", "x1", "y0", "y1", "z0", "z1"]
    cube = _generic_report(
        {"name": "cube", "dimension": 3, "facets": [{"id": f} for f in ids],
         "adjacency": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if a[0] != b[0]]},
        [["x0", "x1"], ["y0", "y1"], ["z0", "z1"]], {f: "I" if f[1] == "0" else "O" for f in ids})
    for doc in (square, cube, square):
        ok, msgs = verify_document(doc)
        assert ok, msgs
    for doc, other in ((square, cube), (cube, square)):
        swapped = {**doc, "inputs": other["inputs"]}
        ok, msgs = verify_document(swapped)
        assert not ok
        assert any("does not match its recomputation" in m for m in msgs), msgs


def _counting(monkeypatch, owner, name) -> list:
    """Replace `owner.name` with a wrapper that records the arguments of
    each call."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_plan_and_cusp_tables_are_built_once_per_subject(monkeypatch):
    """From a cleared subject cache, two p6 certifies and a verify of the
    first report build one verdict plan and one table per cusp, 27, all
    of P6's subject; each certify still finds every cone apex itself."""
    import morsecert.kernel
    import morsecert.links

    plans = _counting(monkeypatch, morsecert.kernel, "_plan_rows")
    tables = _counting(monkeypatch, morsecert.kernel, "cusp_incidence")
    apexes = _counting(monkeypatch, morsecert.links, "cone_apex")
    builtin_subject.cache_clear()
    try:
        docs, found = [], []
        for _ in range(2):
            docs.append(document_to_json(certificate_to_document(certify_p6())))
            found.append(len(apexes))
            apexes.clear()
        ok, msgs = verify_document(json.loads(docs[0]))
        S = builtin_subject("p6")
    finally:
        builtin_subject.cache_clear()
    assert ok, msgs
    assert docs[0] == docs[1]
    assert plans == [(S,)]
    assert tables == [(S.P, iv.id) for iv in S.P.ideal_vertices]
    assert len(tables) == 27
    assert found[0] == found[1] == 2 * 2688


def test_the_p5_subject_builds_no_p6_table(monkeypatch):
    """P5 is read from its own shipped inputs: building the p5 subject
    builds its cusp tables, where `generic_subject` checks each section,
    and no plan; a p5 certify and verify then build P5's plan and nothing
    of P6, whose subject is never built."""
    import morsecert.kernel

    plans = _counting(monkeypatch, morsecert.kernel, "_plan_rows")
    tables = _counting(monkeypatch, morsecert.kernel, "cusp_incidence")
    builtin_subject.cache_clear()
    try:
        S5 = builtin_subject("p5")
        assert (plans, len(tables)) == ([], 10)
        ok, msgs = verify_document(json.loads(
            document_to_json(certificate_to_document(certify_p5()))))
        kept = builtin_subject.cache_info().currsize
    finally:
        builtin_subject.cache_clear()
    assert ok, msgs
    assert plans == [(S5,)]
    assert tables == [(S5.P, iv.id) for iv in S5.P.ideal_vertices]
    assert kept == 1


def test_no_polytope_keeps_anything_under_a_move_system():
    """After certify and verify of p6 and p5, no attribute of either
    polytope holds anything keyed by a move system: what depends on the
    moves is the subject's."""
    for certify in (certify_p6, certify_p5):
        ok, msgs = verify_document(json.loads(
            document_to_json(certificate_to_document(certify()))))
        assert ok, msgs

    def has_moves(key) -> bool:
        return isinstance(key, MoveSystem) or (
            isinstance(key, tuple) and any(map(has_moves, key)))

    for tag in ("p6", "p5"):
        P = builtin_subject(tag).P
        for name, value in vars(P).items():
            assert not (isinstance(value, dict) and any(map(has_moves, value))), name


def test_a_plan_that_misses_a_class_is_an_internal_error(monkeypatch, cert_p5, tmp_path,
                                                         capsys):
    """The plan is checked where it is built to cover each face x state
    exactly once, for the prover and the checker alike: a `_plan_rows`
    that drops one inherited-In class of a proper face makes `certify p5`
    and `verify` of a good p5 report both exit 3, naming the face."""
    import morsecert.kernel

    report = tmp_path / "p5.json"
    report.write_text(document_to_json(certificate_to_document(cert_p5)))
    rows, dropped = morsecert.kernel._plan_rows, []

    def dropping(S):
        plan = list(rows(S))
        i = next(i for i, p in enumerate(plan)
                 if p.witness is None and p.F.codim and len(p.states) < len(S.states))
        dropped.append(plan.pop(i).face)
        return iter(plan)

    monkeypatch.setattr(morsecert.kernel, "_plan_rows", dropping)
    builtin_subject.cache_clear()
    try:
        codes = [main(argv) for argv in (["certify", "p5"], ["verify", str(report)])]
    finally:
        builtin_subject.cache_clear()
    assert codes == [3, 3]
    assert len(dropped) == 2 and dropped[0] == dropped[1]
    assert capsys.readouterr().err == (
        f"internal error: verdict plan does not cover each state once at face {dropped[0]}\n" * 2)


_CUBE_IDS = ["x0", "x1", "y0", "y1", "z0", "z1"]
_CUBE = {"name": "cube", "dimension": 3, "facets": [{"id": f} for f in _CUBE_IDS],
         "adjacency": [[a, b] for i, a in enumerate(_CUBE_IDS) for b in _CUBE_IDS[i + 1:]
                       if a[0] != b[0]]}
_CUBE_MOVES = [["x0", "x1"], ["y0", "y1"], ["z0", "z1"]]


def _cube_report(S, state) -> str:
    inputs = {"polytope": _CUBE, "moves": _CUBE_MOVES, "state": state}
    cert = run_pipeline(S, subject="generic", mode="fibration",
                        inputs_digest=_inputs_digest("generic", inputs), generic_inputs=inputs)
    assert cert.passed, cert.failures
    return document_to_json(certificate_to_document(cert))


def test_one_polytope_keeps_a_plan_per_orbit():
    """Two subjects on one cube and one move system, from two initial
    states in different orbits (one of each opposite pair In; both x
    facets In): each keeps its own plan, and each writes the report that
    `certify_generic` writes from a freshly built cube."""
    states = [{f: "I" if f[1] == "0" else "O" for f in _CUBE_IDS},
              {f: "I" if f[0] == "x" or f[1] == "0" else "O" for f in _CUBE_IDS}]
    P = polytope_from_doc(_CUBE)
    m = moves_from_doc(_CUBE_MOVES)
    subjects = [generic_subject(P, m, state_from_doc(state, P)) for state in states]
    kept = [_cube_report(S, state) for S, state in zip(subjects, states)]
    for state, got in zip(states, kept):
        cert = certify_generic({"polytope": _CUBE, "moves": _CUBE_MOVES, "state": state},
                               mode="fibration")
        assert got == document_to_json(certificate_to_document(cert))
    assert kept[0] != kept[1]
    assert subjects[0].states != subjects[1].states
    assert subjects[0].plan is not subjects[1].plan
    assert [S.plan is vars(S)["plan"] for S in subjects] == [True, True]


# -- the verdicts section, written from the subject's kept text -----------------


def _dict_document(cert, include_timings: bool) -> dict:
    """The report as a dict document, its verdicts the rows that
    `verdict_row` makes (`oracles.verdict_rows`) and the plan's good
    witnesses."""
    witnesses = [p.witness for p in cert.S.plan if p.witness is not None]
    return {**certificate_to_document(cert, include_timings=include_timings),
            "verdicts": {"rows": list(verdict_rows(cert)), "witness_moves": witnesses}}


# The cube's facet ids, renamed to ids that JSON must escape: a quote, a
# backslash, a non-ASCII letter, a slash and a control character.
_ESCAPED = {"x0": 'x"0', "x1": "x\\1", "y0": "y\u00e90", "y1": "y/1", "z0": "z\x070", "z1": "z1"}


def _escaped_cube():
    pol, moves, state = cube_inputs()
    pol = {**pol, "facets": [{"id": _ESCAPED[f["id"]]} for f in pol["facets"]],
           "adjacency": [[_ESCAPED[a], _ESCAPED[b]] for a, b in pol["adjacency"]]}
    return (pol, [[_ESCAPED[f] for f in block] for block in moves],
            {_ESCAPED[f]: v for f, v in state.items()})


def test_the_structured_report_is_json_dumps_of_the_rows(cert_p5, cert_p6):
    """For p5 and p6, with and without timings, the generic 3-cube, the
    failing generic report with an Unknown row and the cube with facet ids
    that JSON escapes, the structured report is `json.dumps` of the dict
    document with the writer's settings, and its verdicts section parses to
    the rows `verdict_row` makes."""
    stuck, escaped = _certify_inputs(*_stuck_inputs()), _certify_inputs(*_escaped_cube())
    assert not stuck.passed and "Unknown" in {r["verdict"] for r in verdict_rows(stuck)}
    cases = [(cert_p5, False), (cert_p5, True), (cert_p6, False), (cert_p6, True),
             (_certify_inputs(*cube_inputs()), False), (stuck, False), (escaped, False)]
    for cert, timings in cases:
        text = emit_report(cert, "structured", include_timings=timings)
        want = _dict_document(cert, timings)
        assert text == json.dumps(want, separators=(",", ":"), ensure_ascii=True) + "\n"
        section = certificate_to_document(cert, include_timings=timings)["verdicts"]
        assert json.loads(section) == want["verdicts"]
    assert escaped.passed and any(r["verdict"] == "Regular" and "evidence" in r
                                  for r in verdict_rows(escaped))
    text = emit_report(escaped, "structured")
    for written in ('"x\\"0"', '"x\\\\1"', '"y\\u00e90"', '"y/1"', '"z\\u00070"'):
        assert written in text
    ok, msgs = verify_document(json.loads(text))
    assert ok, msgs


def test_an_edited_document_is_written_as_json_dumps_writes_it(cert_p5):
    """A document read back and edited holds no written section: it is
    written as `json.dumps` with the writer's settings writes it."""
    doc = json.loads(emit_report(cert_p5, "structured"))
    doc["verdicts"]["rows"][0]["face"] = ["é"]
    doc["extra"] = {"b": 1, "a": [True, None, 0.5]}
    assert document_to_json(doc) == json.dumps(doc, separators=(",", ":")) + "\n"


def test_a_warm_structured_write_builds_no_row(monkeypatch):
    """A warm `certify p6` or `p5` and its structured write build no row dict
    and make the same number of document-encoder calls, two per top-level
    key less the written verdicts section, whatever the number of rows, and
    no content-id encoding: the prover does not import the row writer."""
    import morsecert.certify

    assert not hasattr(morsecert.certify, "verdict_row")
    for certify in (certify_p6, certify_p5):
        emit_report(certify(), "structured")  # warm: the subject's text is kept
    rows = _counting(monkeypatch, report, "verdict_row")
    encodes = _counting(monkeypatch, report._DOC, "encode")
    ids = _counting(monkeypatch, report._CANONICAL, "encode")
    counts = []
    for certify in (certify_p6, certify_p5):
        cert = certify()
        encodes.clear()
        ids.clear()
        text = emit_report(cert, "structured")
        counts.append((len(encodes), len(ids)))
    assert rows == []
    top = len(json.loads(text))
    assert counts == [(2 * top - 1, 0)] * 2


def test_the_kept_text_is_built_once_per_subject_by_a_structured_write(monkeypatch, tmp_path):
    """From a cleared subject cache, a text certify builds no kept text; a
    structured certify of p6 builds it once; a verify, as a fresh process
    does, builds it once, and the verifies and certifies after it none; a
    structured certify of p5 builds p5's."""
    frames = _counting(monkeypatch, report, "verdict_frame")
    builtin_subject.cache_clear()
    try:
        path = tmp_path / "p6.json"
        codes = [main(["certify", "p6"])]
        codes.append(main(["certify", "p6", "--format", "structured", "--output", str(path)]))
        assert frames == [(builtin_subject("p6"),)]
        frames.clear()
        builtin_subject.cache_clear()
        codes += [main(["verify", str(path)]), main(["verify", str(path)])]
        assert frames == [(builtin_subject("p6"),)]
        codes += [main(["certify", "p6", "--format", "structured"]),
                  main(["certify", "p5", "--format", "structured"])]
        S5 = builtin_subject("p5")
    finally:
        builtin_subject.cache_clear()
    assert codes == [0] * 6
    assert frames[1:] == [(S5,)]


def test_the_kept_text_goes_with_its_subject():
    """The report keeps each subject's text under a weak reference: a
    generic subject's goes when the subject does, so a process that
    certifies many inputs keeps no text of the subjects it dropped."""
    import gc
    import weakref

    pol = {"name": "square", "dimension": 2, "facets": [{"id": f} for f in "abcd"],
           "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
    cert = certify_generic({"polytope": pol, "moves": [["a", "c"], ["b", "d"]],
                            "state": {"a": "I", "b": "I", "c": "O", "d": "O"}}, mode="fibration")
    document_to_json(certificate_to_document(cert))
    S, kept = weakref.ref(cert.S), len(report._FRAMES)
    assert S() in report._FRAMES
    del cert
    gc.collect()
    assert S() is None and len(report._FRAMES) == kept - 1
