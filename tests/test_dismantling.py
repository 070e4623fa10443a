"""Dismantling orders: the finder, the checker and its elementary fallback,
the kernel oracle that expands each order into elementary collapses, and
tampered reports whose ids are re-hashed, so that only the dismantling check
can catch them."""

import json
import sys

import pytest

from morsecert import complexes
from morsecert.certify import _eid, certify_p5
from morsecert.cli import main
from morsecert.complexes import (
    cone_collapse_pairs,
    from_maximal_faces,
    full_subcomplex,
    remove_open_star,
    replay_collapse,
    star_collapse_pairs,
    try_collapse,
    vertex_link,
)
from morsecert.polytopes import Facet, FaceHandle, Polytope, dual_complex
from morsecert.report import certificate_to_document, document_to_json
from morsecert.states import (
    State,
    certificate_problem,
    cone_apex,
    dismantling_order,
    legality,
)
from morsecert.verify import verify_document

# A flag complex with no dominated vertex that greedy-lex search collapses.
STUCK_FACES = [
    "0237", "0378", "0389", "058", "123", "1348", "1458",
    "267", "3478", "3489", "456", "467", "469",
]


def _items(evidence):
    """(id, face, side, vertices, order) for both parts of every legality item."""
    for eid, ev in sorted(evidence.items()):
        if ev["kind"] == "legality":
            for side in ("out", "in"):
                yield (eid, FaceHandle(frozenset(ev["face"])), side,
                       ev[f"{side}_vertices"], ev[f"{side}_sequence"])


def _expand(K, order):
    """Elementary collapses of K that delete each dominated vertex v of the
    order by collapsing its star onto its link, a cone on its dominator w."""
    sequence = []
    for v, w in order:
        sequence += star_collapse_pairs(K, v, cone_collapse_pairs(vertex_link(K, v), w), w)
        K = remove_open_star(K, v)
    return sequence


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_dismantling_orders_expand_to_elementary_collapses(request, subject):
    P = request.getfixturevalue(subject.upper())
    cert = request.getfixturevalue(f"cert_{subject}")
    n_steps = 0
    for eid, F, side, vertices, order in _items(cert.evidence):
        assert all(isinstance(v, str) and isinstance(w, str) for v, w in order), eid
        K = full_subcomplex(dual_complex(P, F), vertices)
        core = replay_collapse(K, _expand(K, order))
        assert len(core.vertices) == 1, (eid, side)
        n_steps += len(order)
    assert n_steps == {"p5": 480, "p6": 4176}[subject]


def _report(cert):
    return json.loads(document_to_json(certificate_to_document(cert)))


def _rehash(doc, eid, edit):
    """Edit item `eid`, store it under the hash of its new content and
    repoint every row that cited it; returns the new id."""
    ev = doc["evidence"].pop(eid)
    edit(ev)
    new = _eid(ev)
    doc["evidence"][new] = ev
    for row in doc["verdicts"]["rows"]:
        if row["evidence"] == eid:
            row["evidence"] = new
    return new


def _non_dominator(P, doc):
    """(id, step index, vertex) where the vertex is live at that step of an
    out_sequence but does not dominate the step's deleted vertex."""
    closed = lambda v: {v} | set(P.neighbors(v))
    for eid, _, side, vertices, order in _items(doc["evidence"]):
        live = set(vertices)
        for i, (v, w) in enumerate(order if side == "out" else ()):
            for u in sorted(live - {v, w}):
                if not (closed(v) & live) <= closed(u):
                    return eid, i, u
            live.remove(v)
    raise AssertionError("every live vertex dominates")


def _first_item(doc, min_steps=1):
    return next(
        eid for eid, _, side, _, order in _items(doc["evidence"])
        if side == "out" and len(order) >= min_steps
    )


def _set_step(i, value):
    def edit(ev):
        ev["out_sequence"][i] = value
    return edit


@pytest.mark.parametrize("tamper, message", [
    ("non-dominator", "does not dominate"),
    ("drop-last-step", "does not reach a point"),
    ("vertex-outside-part", "is not a live vertex of the part"),
    ("elementary-step", "mixes elementary and dismantling steps"),
    ("self-dominator", "cannot dominate itself"),
    ("no-pair", "neither a vertex pair nor an elementary pair"),
])
def test_rehashed_tampers_are_rejected(P5, cert_p5, tmp_path, capsys, tamper, message):
    doc = _report(cert_p5)
    if tamper == "non-dominator":
        eid, i, u = _non_dominator(P5, doc)
        v = doc["evidence"][eid]["out_sequence"][i][0]
        new = _rehash(doc, eid, _set_step(i, [v, u]))
    elif tamper == "drop-last-step":
        new = _rehash(doc, _first_item(doc), lambda ev: ev["out_sequence"].pop())
    elif tamper == "vertex-outside-part":
        eid = next(eid for eid, _, side, _, order in _items(doc["evidence"])
                   if side == "out" and order and doc["evidence"][eid]["in_vertices"])
        v = doc["evidence"][eid]["out_sequence"][0][0]
        stranger = doc["evidence"][eid]["in_vertices"][0]
        new = _rehash(doc, eid, _set_step(0, [v, stranger]))
    else:
        eid = _first_item(doc, min_steps=2)
        v, w = doc["evidence"][eid]["out_sequence"][1]
        step = {"elementary-step": [[v], [v, w]], "self-dominator": [v, v],
                "no-pair": [v]}[tamper]
        new = _rehash(doc, eid, _set_step(1, step))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert any(new in line and message in line for line in out.splitlines()), out


def test_unbound_and_repeated_entries_are_named(cert_p5):
    doc = _report(cert_p5)
    orphan = "e" + "f" * 16
    doc["evidence"][orphan] = {"kind": "legality", "junk": [1, 2, 3]}
    row = next(r for r in doc["cusps"]["rows"] if r["checked"])
    face = row["checked"][0][0]
    row["checked"].insert(0, [face, ["NOT-A-VERTEX", None]])
    ok, msgs = verify_document(doc)
    assert not ok
    assert any(orphan in m and "bound to no claim" in m for m in msgs), msgs
    twice = f"cusp {row['cusp']} state {row['state']}: face {tuple(face)} is checked twice"
    assert twice in msgs, msgs


def _stuck_polytope():
    """The flag complex of STUCK_FACES as the dual of a polytope's own
    face P, plus a facet `x` adjacent to none of its facets."""
    K = from_maximal_faces(STUCK_FACES)
    edges = {frozenset(e) for e in K.simplices() if len(e) == 2}
    facets = [Facet(v, v) for v in list(K.vertices) + ["x"]]
    return K, Polytope(4, facets, edges, name="stuck")


def test_fallback_for_a_part_that_does_not_dismantle():
    K, P = _stuck_polytope()
    whole = FaceHandle(frozenset())
    # the facet graph's clique complex is K itself plus the isolated x
    assert full_subcomplex(dual_complex(P, whole), K.vertices) == K
    assert dismantling_order(P, K.vertices) is None
    assert cone_apex(P, K.vertices) is None
    searched = try_collapse(K, restarts=0)
    assert searched.success and len(searched.sequence) == 36
    state = State(tuple(sorted(P.facet_ids)), frozenset(K.vertices))
    rec = legality(P, whole, state)
    assert rec.totally_legal
    assert rec.out_sequence == []  # the one-vertex part {x}
    assert len(rec.in_sequence) == 36
    assert all(isinstance(f, list) and isinstance(c, list) for f, c in rec.in_sequence)
    assert certificate_problem(P, whole, K.vertices, rec.in_sequence) is None
    assert certificate_problem(P, whole, K.vertices, rec.in_sequence[:-1]) == (
        "does not reach a point")
    mixed = rec.in_sequence[:1] + [["0", "3"]]
    assert certificate_problem(P, whole, K.vertices, mixed) == (
        "step 1: mixes dismantling and elementary steps")


def test_elementary_fallback_item_verifies(P5, cert_p5):
    doc = _report(cert_p5)
    eid, F, _, vertices, _ = next(
        item for item in _items(doc["evidence"])
        if item[2] == "out" and len(item[3]) >= 3
    )
    K = full_subcomplex(dual_complex(P5, F), vertices)
    searched = try_collapse(K)
    elementary = [[sorted(f), sorted(c)] for f, c in searched.sequence]
    _rehash(doc, eid, lambda ev: ev.update(out_sequence=elementary))
    ok, msgs = verify_document(doc)
    assert ok, msgs


def test_p5_runs_no_search_and_builds_no_part(monkeypatch):
    """p5 has no critical item, so certify and verify use only dismantling
    orders and cone apexes: no collapse search, no replay, no part built."""
    import morsecert.cli  # noqa: F401  (loads every module that imports them)

    def stub(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return raising

    for name in ("try_collapse", "replay_collapse", "full_subcomplex"):
        original = getattr(complexes, name)
        for modname, mod in list(sys.modules.items()):
            if modname == "morsecert" or modname.startswith("morsecert."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, stub(name))
    cert = certify_p5()
    assert cert.passed, cert.failures
    ok, msgs = verify_document(_report(cert))
    assert ok, msgs
