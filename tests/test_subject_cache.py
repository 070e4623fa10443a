"""The built-in subjects and the canonical link graphs are kept per process,
and each polytope keeps its verdict plans and cusp tables.

They are built from the code's own tables and shared by every run in the
process, so no run may change them, and no report may reach them: a
tampered report verified between two good ones fails alone, and a generic
report is checked against its own embedded inputs only.  What a run finds,
its dismantling orders and cone apexes, is found again by every run."""

import json

import pytest

from morsecert.certify import certify_generic, certify_p5, certify_p6
from morsecert.cli import main
from morsecert.io import moves_from_doc, polytope_from_doc, state_from_doc
from morsecert.links import canonical_pairs_graphs, cusp_table
from morsecert.polytopes import build_p5, build_p6
from morsecert.report import certificate_to_document, document_to_json, verdict_plan
from morsecert.states import (
    balanced_states_p5,
    balanced_states_p6,
    builtin_subject,
    face_table,
    move_system_p5,
    move_system_p6,
)
from morsecert.verify import verify_document


def _fresh(tag):
    if tag == "p6":
        P = build_p6()
        return P, move_system_p6(), balanced_states_p6(P)
    P = build_p5()
    return P, move_system_p5(P), balanced_states_p5(P)


def _fingerprint(P, m, states):
    table = face_table(P, m)
    return (P.name, P.facet_ids, P.ranked_graph(), P.ideal_vertices, m.blocks,
            [s.serial() for s in states], table.masks, table.witnesses, table.bad,
            verdict_plan(P, m, states), [cusp_table(P, m, iv.id) for iv in P.ideal_vertices])


@pytest.mark.parametrize("tag", ["p6", "p5"])
def test_builtin_subject_is_built_once(tag):
    first = builtin_subject(tag)
    assert all(a is b for a, b in zip(first, builtin_subject(tag), strict=True))


def test_builtin_subject_checks_its_states(monkeypatch):
    """A built-in balanced state that is not compatible is a transcription
    bug: `builtin_subject` refuses it, naming the subject, the state and the
    adjacent same-move pair."""
    import morsecert.states
    from morsecert.errors import StructuralError
    from morsecert.states import State, is_compatible

    P, m, states = _fresh("p5")
    s = states[3]
    bad = State(s.universe, s.in_facets - {min(s.in_facets)})
    ok, pair = is_compatible(P, m, bad)
    assert not ok
    monkeypatch.setattr(morsecert.states, "balanced_states_p5",
                        lambda P: states[:3] + (bad,) + states[4:])
    builtin_subject.cache_clear()
    try:
        with pytest.raises(StructuralError) as info:
            builtin_subject("p5")
    finally:
        builtin_subject.cache_clear()
    assert str(info.value) == f"p5 state 3 is incompatible: adjacent same-move pair {pair!r}"


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
    import morsecert.states
    from morsecert.errors import StructuralError

    report = tmp_path / "p6.json"
    report.write_text(document_to_json(certificate_to_document(cert_p6)))
    monkeypatch.setitem(morsecert.states.CENSUS, "p6", census)
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
    import morsecert.states

    calls = []
    monkeypatch.setattr(morsecert.states, "build_p6", lambda: calls.append(1) or build_p6())
    builtin_subject.cache_clear()
    try:
        P5, _, _ = builtin_subject("p5")
        P6, _, _ = builtin_subject("p6")
    finally:
        builtin_subject.cache_clear()
    assert calls == [1]
    assert P5.name == "P5" and P6.name == "P6"


def test_runs_leave_the_kept_subjects_as_built():
    """Certify and verify of both subjects change nothing in what they
    share: each kept subject still equals a freshly built one, facet ids,
    facet graph, ideal vertices, moves, states, face table, verdict plan
    and cusp tables alike, and the canonical link graphs equal a fresh
    build."""
    for certify in (certify_p6, certify_p5):
        cert = certify()
        assert cert.passed, cert.failures
        ok, msgs = verify_document(json.loads(document_to_json(certificate_to_document(cert))))
        assert ok, msgs
    for tag in ("p6", "p5"):
        assert _fingerprint(*builtin_subject(tag)) == _fingerprint(*_fresh(tag))
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
    kept on P6; each certify still finds every cone apex itself."""
    import morsecert.links
    import morsecert.report

    plans = _counting(monkeypatch, morsecert.report, "_plan_rows")
    tables = _counting(monkeypatch, morsecert.links, "cusp_incidence")
    apexes = _counting(monkeypatch, morsecert.links, "cone_apex")
    builtin_subject.cache_clear()
    try:
        docs, found = [], []
        for _ in range(2):
            docs.append(document_to_json(certificate_to_document(certify_p6())))
            found.append(len(apexes))
            apexes.clear()
        ok, msgs = verify_document(json.loads(docs[0]))
        P = builtin_subject("p6")[0]
    finally:
        builtin_subject.cache_clear()
    assert ok, msgs
    assert docs[0] == docs[1]
    assert len(plans) == 1
    assert [cusp for _, cusp in tables] == [iv.id for iv in P.ideal_vertices]
    assert len(tables) == 27
    assert found[0] == found[1] == 2 * 2688


def test_a_plan_that_misses_a_class_is_an_internal_error(monkeypatch, cert_p5, tmp_path,
                                                         capsys):
    """The plan is checked where it is built to cover each face x state
    exactly once, for the prover and the checker alike: a `_plan_rows`
    that drops one inherited-In class of a proper face makes `certify p5`
    and `verify` of a good p5 report both exit 3, naming the face."""
    import morsecert.report

    report = tmp_path / "p5.json"
    report.write_text(document_to_json(certificate_to_document(cert_p5)))
    rows, dropped = morsecert.report._plan_rows, []

    def dropping(P, m, states):
        plan = list(rows(P, m, states))
        i = next(i for i, p in enumerate(plan)
                 if p.witness is None and p.F.codim and len(p.states) < len(states))
        dropped.append(plan.pop(i).face)
        return iter(plan)

    monkeypatch.setattr(morsecert.report, "_plan_rows", dropping)
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


def _cube_report(P, m, state) -> str:
    cert = certify_generic(P, m, state_from_doc(state, P), mode="fibration",
                           generic_inputs={"polytope": _CUBE, "moves": _CUBE_MOVES,
                                           "state": state})
    assert cert.passed, cert.failures
    return document_to_json(certificate_to_document(cert))


def test_one_polytope_keeps_a_plan_per_orbit():
    """`certify_generic` on one cube and one move system, from two initial
    states in different orbits (one of each opposite pair In; both x
    facets In), writes for each the report that a freshly built cube
    writes, and the cube keeps one plan per orbit."""
    states = [{f: "I" if f[1] == "0" else "O" for f in _CUBE_IDS},
              {f: "I" if f[0] == "x" or f[1] == "0" else "O" for f in _CUBE_IDS}]
    P = polytope_from_doc(_CUBE)
    m = moves_from_doc(_CUBE_MOVES, P)
    kept = [_cube_report(P, m, state) for state in states]
    for state, got in zip(states, kept):
        fresh = polytope_from_doc(_CUBE)
        assert got == _cube_report(fresh, moves_from_doc(_CUBE_MOVES, fresh), state)
    assert kept[0] != kept[1]
    assert len(P._verdict_plans) == 2
