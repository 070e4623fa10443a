"""The built-in subjects and the canonical link graphs are kept per process.

They are built from the code's own tables and shared by every run in the
process, so no run may change them, and no report may reach them: a
tampered report verified between two good ones fails alone, and a generic
report is checked against its own embedded inputs only."""

import json

import pytest

from morsecert.certify import certify_generic, certify_p5, certify_p6
from morsecert.cli import main
from morsecert.io import moves_from_doc, polytope_from_doc, state_from_doc
from morsecert.links import canonical_pairs_graphs
from morsecert.polytopes import build_p5, build_p6
from morsecert.report import certificate_to_document, document_to_json
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
            [s.serial() for s in states], table.masks, table.witnesses, table.bad)


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
    facet graph, ideal vertices, moves, states and face table alike, and
    the canonical link graphs equal a fresh build."""
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
