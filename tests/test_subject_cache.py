"""The built-in subjects and the canonical link graphs are kept per process,
and each `Subject` keeps its verdict plan and cusp tables.

They are built from the code's own tables and shared by every run in the
process, so no run may change them, and no report may reach them: a
tampered report verified between two good ones fails alone, and a generic
report is checked against its own embedded inputs only.  What a run finds,
its dismantling orders and cone apexes, is found again by every run.
Nothing is kept on a polytope under a move system.  A subject keeps the
report's text of its verdict rows around what a run finds, built by its
first structured write: the report is the bytes `json.dumps` writes of the
rows `verdict_row` makes, with no row built and no encoder call per row."""

import json

import pytest

from morsecert.certify import certify_generic, certify_p5, certify_p6, run_pipeline
from morsecert.cli import main
from morsecert.io import moves_from_doc, polytope_from_doc, state_from_doc
from morsecert.kernel import (
    MoveSystem,
    balanced_states_p5,
    balanced_states_p6,
    builtin_subject,
    canonical_pairs_graphs,
    generic_subject,
    move_system_p5,
    move_system_p6,
)
from morsecert.polytopes import build_p5, build_p6
from morsecert import report
from morsecert.report import (
    _inputs_digest,
    certificate_to_document,
    document_to_json,
    emit_report,
)
from morsecert.verify import verify_document

from test_certify import cube_inputs
from test_dismantling import _certify_inputs, _stuck_inputs


def _fresh(tag):
    """A fresh subject equal to the built-in one: built from fresh tables,
    as the orbit of the first balanced state."""
    if tag == "p6":
        P = build_p6()
        return generic_subject(P, move_system_p6(), balanced_states_p6(P)[0])
    P = build_p5()
    return generic_subject(P, move_system_p5(P), balanced_states_p5(P)[0])


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


def test_builtin_subject_checks_its_states(monkeypatch):
    """A built-in balanced state that is not compatible is a transcription
    bug: `builtin_subject` refuses it, naming the subject, the state and the
    adjacent same-move pair."""
    import morsecert.kernel
    from morsecert.errors import StructuralError
    from morsecert.kernel import State, is_compatible

    S = _fresh("p5")
    P, m, states = S.P, S.m, S.states
    s = states[3]
    bad = State(s.universe, s.in_facets - {min(s.in_facets)})
    ok, pair = is_compatible(P, m, bad)
    assert not ok
    monkeypatch.setattr(morsecert.kernel, "balanced_states_p5",
                        lambda P: states[:3] + (bad,) + states[4:])
    builtin_subject.cache_clear()
    try:
        with pytest.raises(StructuralError) as info:
            builtin_subject("p5")
    finally:
        builtin_subject.cache_clear()
    assert str(info.value) == f"p5 state 3 is incompatible: adjacent same-move pair {pair!r}"


def test_builtin_subject_checks_its_orbit(monkeypatch):
    """Built-in states that are not the orbit of the first, in canonical
    order, are a transcription bug: `builtin_subject` refuses them, naming
    the subject."""
    import morsecert.kernel
    from morsecert.errors import StructuralError

    states = _fresh("p5").states
    for edited in (states[:-1], states[1:] + states[:1]):
        monkeypatch.setattr(morsecert.kernel, "balanced_states_p5", lambda P: edited)
        builtin_subject.cache_clear()
        try:
            with pytest.raises(StructuralError) as info:
                builtin_subject("p5")
        finally:
            builtin_subject.cache_clear()
        assert str(info.value) == "p5 states are not the orbit of the first"


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
    import morsecert.kernel
    from morsecert.errors import StructuralError

    report = tmp_path / "p6.json"
    report.write_text(document_to_json(certificate_to_document(cert_p6)))
    monkeypatch.setitem(morsecert.kernel.CENSUS, "p6", census)
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


def test_p5_is_built_from_the_kept_p6(monkeypatch):
    import morsecert.kernel

    calls = []
    monkeypatch.setattr(morsecert.kernel, "build_p6", lambda: calls.append(1) or build_p6())
    builtin_subject.cache_clear()
    try:
        P5 = builtin_subject("p5").P
        P6 = builtin_subject("p6").P
    finally:
        builtin_subject.cache_clear()
    assert calls == [1]
    assert P5.name == "P5" and P6.name == "P6"


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
    P = polytope_from_doc(pol)
    cert = certify_generic(P, moves_from_doc(moves, P), state_from_doc(state, P),
                           mode="fibration",
                           generic_inputs={"polytope": pol, "moves": moves, "state": state})
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
    """P5 is built from the kept P6's polytope, but building the p5 subject
    builds neither P6's verdict plan nor a cusp table of P6, and a p5
    certify and verify build only P5's."""
    import morsecert.kernel

    plans = _counting(monkeypatch, morsecert.kernel, "_plan_rows")
    tables = _counting(monkeypatch, morsecert.kernel, "cusp_incidence")
    builtin_subject.cache_clear()
    try:
        S5 = builtin_subject("p5")
        assert (plans, tables) == ([], [])
        ok, msgs = verify_document(json.loads(
            document_to_json(certificate_to_document(certify_p5()))))
        S6 = builtin_subject("p6")
    finally:
        builtin_subject.cache_clear()
    assert ok, msgs
    assert plans == [(S5,)]
    assert tables == [(S5.P, iv.id) for iv in S5.P.ideal_vertices]
    assert "plan" not in vars(S6) and "cusps" not in vars(S6)


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
    m = moves_from_doc(_CUBE_MOVES, P)
    subjects = [generic_subject(P, m, state_from_doc(state, P)) for state in states]
    kept = [_cube_report(S, state) for S, state in zip(subjects, states)]
    for state, got in zip(states, kept):
        fresh = polytope_from_doc(_CUBE)
        cert = certify_generic(fresh, moves_from_doc(_CUBE_MOVES, fresh),
                               state_from_doc(state, fresh), mode="fibration",
                               generic_inputs={"polytope": _CUBE, "moves": _CUBE_MOVES,
                                               "state": state})
        assert got == document_to_json(certificate_to_document(cert))
    assert kept[0] != kept[1]
    assert subjects[0].states != subjects[1].states
    assert subjects[0].plan is not subjects[1].plan
    assert [S.plan is vars(S)["plan"] for S in subjects] == [True, True]


# -- the verdicts section, written from the subject's kept text -----------------


def _dict_document(cert, include_timings: bool) -> dict:
    """The report as a dict document, its verdicts the rows that
    `verdict_row` makes (`Certificate.verdict_rows`) and the plan's good
    witnesses."""
    witnesses = [p.witness for p in cert.S.plan if p.witness is not None]
    return {**certificate_to_document(cert, include_timings=include_timings),
            "verdicts": {"rows": list(cert.verdict_rows), "witness_moves": witnesses}}


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
    assert not stuck.passed and "Unknown" in {r["verdict"] for r in stuck.verdict_rows}
    cases = [(cert_p5, False), (cert_p5, True), (cert_p6, False), (cert_p6, True),
             (_certify_inputs(*cube_inputs()), False), (stuck, False), (escaped, False)]
    for cert, timings in cases:
        text = emit_report(cert, "structured", include_timings=timings)
        want = _dict_document(cert, timings)
        assert text == json.dumps(want, separators=(",", ":"), ensure_ascii=True) + "\n"
        section = certificate_to_document(cert, include_timings=timings)["verdicts"]
        assert json.loads(section) == want["verdicts"]
    assert escaped.passed and any(r["verdict"] == "Regular" and "evidence" in r
                                  for r in escaped.verdict_rows)
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
    """From a cleared subject cache, a text certify and a verify build no
    kept text, and two structured certifies of p6 and one of p5 build one
    per subject."""
    frames = _counting(monkeypatch, report, "verdict_frame")
    builtin_subject.cache_clear()
    try:
        path = tmp_path / "p6.json"
        codes = [main(["certify", "p6"])]
        codes.append(main(["certify", "p6", "--format", "structured", "--output", str(path)]))
        assert frames == [(builtin_subject("p6"),)]
        frames.clear()
        codes.append(main(["verify", str(path)]))
        assert frames == []
        codes += [main(["certify", "p6", "--format", "structured"]),
                  main(["certify", "p5", "--format", "structured"])]
        S5 = builtin_subject("p5")
    finally:
        builtin_subject.cache_clear()
    assert codes == [0] * 5
    assert frames == [(S5,)]


def test_the_kept_text_goes_with_its_subject():
    """The report keeps each subject's text under a weak reference: a
    generic subject's goes when the subject does, so a process that
    certifies many inputs keeps no text of the subjects it dropped."""
    import gc
    import weakref

    pol = {"name": "square", "dimension": 2, "facets": [{"id": f} for f in "abcd"],
           "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
    P = polytope_from_doc(pol)
    cert = certify_generic(P, moves_from_doc([["a", "c"], ["b", "d"]], P),
                           state_from_doc({"a": "I", "b": "I", "c": "O", "d": "O"}, P),
                           mode="fibration")
    document_to_json(certificate_to_document(cert))
    S, kept = weakref.ref(cert.S), len(report._FRAMES)
    assert S() in report._FRAMES
    del cert
    gc.collect()
    assert S() is None and len(report._FRAMES) == kept - 1
