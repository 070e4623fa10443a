"""Certificates of flag complexes: the one finder `flag_certificate` and
the one checker `certificate_problem` of dismantling orders, a part and a
face link with no order left not certified, elementary sequences rejected,
the clique complexes against independent constructions, the kernel oracle
that expands each order into elementary collapses, and tampered reports
whose ids are re-hashed, so that only the dismantling check can catch them.
Both kinds of certificate are covered: legality parts, reduced to one
vertex, and the shared critical item's face links, reduced to their
cross-polytope cores."""

import json
import sys

import pytest

from morsecert import complexes
from morsecert.certify import certify_generic, certify_p5, certify_p6
from morsecert.cli import main
from morsecert.complexes import (
    full_subcomplex,
    order_complex,
    replay_collapse,
    try_collapse,
)
from morsecert.errors import InputError
from morsecert.io import builtin_subject, moves_from_doc, state_from_doc
from morsecert.kernel import (
    State,
    all_pairs_index,
    canonical_pairs_graphs,
    face_contains,
    generic_subject,
    pairs_core_elements,
)
from morsecert.links import (
    CriticalLinkCertifier,
    canonical_pairs_transform,
    certify_boundary_cube,
    classify_link,
    face_links_oracle,
)
from morsecert.polytopes import (
    Facet, FaceHandle, Polytope, clique_complex, dual_complex, polytope_from_doc,
)
from morsecert.report import (
    _eid,
    certificate_to_document,
    document_to_json,
    row_branch,
)
from morsecert.states import (
    cone_apex,
    dismantle,
    flag_certificate,
    legality,
    split_legality,
)
from morsecert.verify import verify_document

from construction import neighbors
from oracles import (
    build_cube_model,
    cone_collapse_pairs,
    from_maximal_faces,
    sequence_json,
    star_collapse_pairs,
    synthetic_pairs_lift,
    verdict_rows,
    vertex_link,
)

from test_certify import square_inputs

# A flag complex with no dominated vertex that greedy-lex search collapses.
STUCK_FACES = [
    "0237", "0378", "0389", "058", "123", "1348", "1458",
    "267", "3478", "3489", "456", "467", "469",
]


def _items(P, doc):
    """(id, face, side, vertices, order) for both parts of every legality item
    of P's report `doc`, once per item: the face and the parts are those of
    the first verdict row that cites it, as the verdict plan splits them."""
    labels, seen = P.ranked_graph().labels, set()
    for p, row in zip(builtin_subject(P.name.lower()).plan, doc["verdicts"]["rows"]):
        eid = row.get("evidence")
        if eid not in doc["evidence"] or eid in seen:
            continue
        seen.add(eid)
        dual, inn = p.masks
        for side, part in (("out", dual & ~inn), ("in", inn)):
            yield eid, p.F, side, labels(part), doc["evidence"][eid][f"{side}_sequence"]


def _expand(K, order):
    """Elementary collapses of K that delete each dominated vertex v of the
    order by collapsing its star onto its link, a cone on its dominator w.
    What is left of K is its full subcomplex on the live vertices."""
    live = set(K.vertices)
    sequence = []
    for v, w in order:
        live.remove(v)
        link = vertex_link(K, v)
        link = full_subcomplex(link, live.intersection(link.vertices))
        sequence += star_collapse_pairs(K, v, cone_collapse_pairs(link, w), w)
    return sequence


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_dismantling_orders_expand_to_elementary_collapses(request, subject):
    P = request.getfixturevalue(subject.upper())
    cert = request.getfixturevalue(f"cert_{subject}")
    n_steps = 0
    for eid, F, side, vertices, order in _items(P, _report(cert)):
        assert all(isinstance(v, str) and isinstance(w, str) for v, w in order), eid
        K = full_subcomplex(dual_complex(P, F), vertices)
        core = replay_collapse(K, _expand(K, order))
        assert len(core.vertices) == 1, (eid, side)
        n_steps += len(order)
    assert n_steps == {"p5": 480, "p6": 4176}[subject]


@pytest.mark.parametrize("kind", ["asc", "desc"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_shared_orders_expand_to_elementary_collapses(ell, kind):
    """The kernel replays each shared order, expanded into elementary
    collapses, from the face link built as a complex to exactly the
    order complex of the core."""
    cert = CriticalLinkCertifier().certificate(ell)
    order = {"asc": cert.asc_sequence, "desc": cert.desc_sequence}[kind]
    lift = synthetic_pairs_lift(ell)
    K = face_links_oracle(lift)[kind == "desc"]
    core = pairs_core_elements(ell, kind)
    assert len(K.vertices) - len(order) == len(core)
    want = order_complex(core, lambda a, b: face_contains(lift.k, a, b))
    assert replay_collapse(K, _expand(K, order)) == want


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
        if row.get("evidence") == eid:
            row["evidence"] = new
    return new


def _non_dominator(P, doc):
    """(id, step index, vertex) where the vertex is live at that step of an
    out_sequence but does not dominate the step's deleted vertex."""
    closed = lambda v: {v} | set(neighbors(P, v))
    for eid, _, side, vertices, order in _items(P, doc):
        live = set(vertices)
        for i, (v, w) in enumerate(order if side == "out" else ()):
            for u in sorted(live - {v, w}):
                if not (closed(v) & live) <= closed(u):
                    return eid, i, u
            live.remove(v)
    raise AssertionError("every live vertex dominates")


def _first_item(P, doc, min_steps=1):
    return next(
        eid for eid, _, side, _, order in _items(P, doc)
        if side == "out" and len(order) >= min_steps
    )


def _set_step(i, value):
    def edit(ev):
        ev["out_sequence"][i] = value
    return edit


# (tamper, message): a step that breaks the schema, its message a path from
# the sequence key, is malformed (2); any other tamper is rejected (1)
@pytest.mark.parametrize("tamper, message", [
    ("non-dominator", "does not dominate"),
    ("drop-last-step", "does not reach a point"),
    ("vertex-outside-part", "is not a live vertex of the part"),
    pytest.param("elementary-step", "out_sequence[1][0]: expected a str, got list",
                 id="elementary-step-malformed"),
    ("self-dominator", "cannot dominate itself"),
    pytest.param("no-pair", "out_sequence[1]: expected a pair of strs, got a list of 1",
                 id="no-pair-malformed"),
    pytest.param("three-labels", "out_sequence[1]: expected a pair of strs, got a list of 3",
                 id="three-labels-malformed"),
])
def test_rehashed_tampers_are_rejected(P5, cert_p5, tmp_path, capsys, tamper, message):
    doc = _report(cert_p5)
    if tamper == "non-dominator":
        eid, i, u = _non_dominator(P5, doc)
        v = doc["evidence"][eid]["out_sequence"][i][0]
        new = _rehash(doc, eid, _set_step(i, [v, u]))
    elif tamper == "drop-last-step":
        new = _rehash(doc, _first_item(P5, doc), lambda ev: ev["out_sequence"].pop())
    elif tamper == "vertex-outside-part":
        parts = {(eid, side): vertices for eid, _, side, vertices, _ in _items(P5, doc)}
        eid = next(eid for eid, _, side, _, order in _items(P5, doc)
                   if side == "out" and order and parts[eid, "in"])
        v = doc["evidence"][eid]["out_sequence"][0][0]
        stranger = parts[eid, "in"][0]
        new = _rehash(doc, eid, _set_step(0, [v, stranger]))
    else:
        eid = _first_item(P5, doc, min_steps=2)
        v, w = doc["evidence"][eid]["out_sequence"][1]
        step = {"elementary-step": [[v], [v, w]], "self-dominator": [v, v],
                "no-pair": [v], "three-labels": [v, w, v]}[tamper]
        new = _rehash(doc, eid, _set_step(1, step))
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    if message.startswith("out_sequence"):
        assert code == 2 and f"input error: evidence.{new}.{message}\n" in err, err
    else:
        assert code == 1
        assert any(new in line and message in line for line in out.splitlines()), out


def test_unbound_and_repeated_entries_are_named(P5, cert_p5):
    """An item that no claim cites is named by its id, and a face's apex
    list with a pair more than the face has In parts by its cusp and face,
    which the list's position gives."""
    doc = _report(cert_p5)
    orphan = "e" + "f" * 16
    doc["evidence"][orphan] = dict(next(iter(doc["evidence"].values())))
    c, i = next((c, i) for c, faces in enumerate(doc["cusps"]["apexes"])
                for i, pairs in enumerate(faces) if pairs)
    pairs = doc["cusps"]["apexes"][c][i]
    pairs.insert(0, pairs[0])
    ok, msgs = verify_document(doc)
    assert not ok
    assert any(orphan in m and "bound to no claim" in m for m in msgs), msgs
    face = builtin_subject("p5").cusps[c].bad[i][0]
    twice = (f"cusp {P5.ideal_vertices[c].id}: face {face}: {len(pairs)} apex pairs, "
             f"want one per In part ({len(pairs) - 1})")
    assert twice in msgs, msgs


def test_legal_row_citing_another_rows_item_is_named(P5, cert_p5):
    """A legality item names no face and no part, so one item may serve
    several rows; a row pointed at another row's item, whose sequences
    dismantle other parts, is rejected, naming the item's id."""
    doc = _report(cert_p5)
    legal = [r for r in doc["verdicts"]["rows"] if row_branch(r) == "inherited-totally-legal"]
    row, other = next((a, b) for a in legal for b in legal if a["evidence"] != b["evidence"])
    row["evidence"] = other["evidence"]
    ok, msgs = verify_document(doc)
    assert not ok
    cited = f"face {tuple(row['face'])}: evidence {other['evidence']}: "
    assert any(m.startswith(cited) and "_sequence" in m for m in msgs), msgs


def _stuck_polytope():
    """The flag complex of STUCK_FACES as the dual of a polytope's own
    face P, plus a facet `x` adjacent to none of its facets."""
    K = from_maximal_faces(STUCK_FACES)
    edges = {frozenset(e) for e in K.simplices() if len(e) == 2}
    facets = [Facet(v, v) for v in list(K.vertices) + ["x"]]
    return K, Polytope(4, facets, edges, name="stuck")


def _oracle_link(ell, kind):
    """The `kind` face link of the canonical all-pairs 2l-cube as the order
    complex that `face_links_oracle` walks, and its full subcomplex on the
    core."""
    K = face_links_oracle(synthetic_pairs_lift(ell))[kind == "desc"]
    return K, full_subcomplex(K, pairs_core_elements(ell, kind))


@pytest.mark.parametrize("kind", ["asc", "desc"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_clique_complex_matches_the_order_complex_walk(ell, kind):
    """`clique_complex`, the builder behind `dual_complex`, on a face link's
    comparability graph gives the link as `face_links_oracle` walks it, and
    on the core mask that link's full subcomplex on the core."""
    G, core = canonical_pairs_graphs(ell)[kind == "desc"]
    K, K_core = _oracle_link(ell, kind)
    assert clique_complex(G, (1 << len(G.ids)) - 1) == K
    assert clique_complex(G, G.mask(core)) == K_core


def _stuck_inputs():
    """Generic inputs on the `stuck` polytope: one move holding every facet,
    and the state whose In facets are the flag complex of STUCK_FACES, so
    that the whole polytope's In part is that complex."""
    K, P = _stuck_polytope()
    polytope = {"name": "stuck", "dimension": 4, "facets": [{"id": f} for f in P.facet_ids],
                "adjacency": sorted(sorted(e) for e in K.simplices() if len(e) == 2)}
    state = {f: "I" if f in K.vertices else "O" for f in P.facet_ids}
    return polytope, [sorted(P.facet_ids)], state


def test_fallback_for_a_part_that_does_not_dismantle():
    """A part with no dismantling order is not certified, though a searched
    collapse exists: its face's row is Unknown, and the report neither
    passes nor verifies.  The verifier names each Unknown row once, as
    unverifiable, and not also as a verdict the mode does not allow."""
    K, P = _stuck_polytope()
    whole, G = FaceHandle(frozenset()), P.ranked_graph()
    part = G.mask(K.vertices)
    # the facet graph's clique complex is K itself plus the isolated x
    assert full_subcomplex(dual_complex(P, whole), K.vertices) == K == clique_complex(G, part)
    assert dismantle(G.N, live=part) is None
    assert cone_apex(P, part) is None
    assert try_collapse(K, restarts=0).success
    state = State(tuple(sorted(P.facet_ids)), frozenset(K.vertices))
    rec = legality(P, whole, state)
    assert rec.totally_legal is None
    assert rec.out_sequence == []  # the one-vertex part {x}
    assert rec.in_sequence is None
    cert = _certify_inputs(*_stuck_inputs())
    assert not cert.passed
    assert verdict_rows(cert)[0] == {"face": [], "verdict": "Unknown", "states": [0]}
    assert cert.failures[0].startswith("Unknown verdict at face () states [0]: bad face, "
                                       "not totally legal")
    ok, msgs = verify_document(_report(cert))
    assert not ok
    assert "face (): bad face, unverifiable verdict 'Unknown'" in msgs
    # face () has an Unknown row per state, and each is named once
    rows = [row for row in verdict_rows(cert) if row["face"] == []]
    assert [row["verdict"] for row in rows] == ["Unknown", "Unknown"]
    assert [msg for msg in msgs if msg.startswith("face ():")] == [
        "face (): bad face, unverifiable verdict 'Unknown'"] * len(rows)
    assert not [msg for msg in msgs if "is not allowed in" in msg]


def _certify_inputs(polytope, moves, state):
    """`certify_generic` of input documents, embedded in the certificate."""
    return certify_generic({"polytope": polytope, "moves": moves, "state": state})


def test_elementary_fallback_item_verifies(P5, cert_p5, tmp_path, capsys):
    """An elementary collapse sequence in place of a dismantling order is
    malformed, named by the path to its first step, although it collapses
    the part: a dismantling order is the one form of certificate."""
    doc = _report(cert_p5)
    eid, F, _, vertices, _ = next(
        item for item in _items(P5, doc)
        if item[2] == "out" and len(item[3]) >= 3
    )
    K = full_subcomplex(dual_complex(P5, F), vertices)
    searched = try_collapse(K)
    assert searched.success
    elementary = [[sorted(f), sorted(c)] for f, c in searched.sequence]
    new = _rehash(doc, eid, lambda ev: ev.update(out_sequence=elementary))
    path = tmp_path / "elementary.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"evidence.{new}.out_sequence[0][0]: expected a str, got list" in err, err


def _rebind(monkeypatch, original, replacement):
    """Bind every morsecert name bound to `original` to `replacement`."""
    import morsecert.cli  # noqa: F401  (loads every module that imports it)

    for modname, mod in list(sys.modules.items()):
        if modname == "morsecert" or modname.startswith("morsecert."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def _raising(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return raising


def _forbid(monkeypatch, functions):
    """Make every morsecert name bound to one of `functions` raise."""
    for original in functions:
        _rebind(monkeypatch, original, _raising(original.__name__))


def _count(monkeypatch, original) -> list:
    """Record the arguments of every call of `original` made through a
    morsecert name; returns the list of them."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, counting)
    return calls


def test_p5_runs_no_search_and_builds_no_part(monkeypatch):
    """p5 has no critical item, so certify and verify use only dismantling
    orders and cone apexes: no collapse search, no replay, no part built."""
    _forbid(monkeypatch, (complexes.try_collapse, complexes.replay_collapse,
                          complexes.full_subcomplex))
    cert = certify_p5()
    assert cert.passed, cert.failures
    ok, msgs = verify_document(_report(cert))
    assert ok, msgs


def test_p6_runs_no_search_and_builds_no_link(monkeypatch):
    """p6's shared critical item is a pair of dismantling orders, so certify
    and verify run no collapse search and no replay, and build neither a
    part nor a face link as a complex."""
    _forbid(monkeypatch, (complexes.try_collapse, complexes.replay_collapse,
                          complexes.full_subcomplex, face_links_oracle))
    cert = certify_p6()
    assert cert.passed, cert.failures
    ok, msgs = verify_document(_report(cert))
    assert ok, msgs


def test_verify_runs_no_finder(monkeypatch, cert_p6, cert_p5):
    """The verifier checks the certificates a report gives and finds none
    again: no dismantling order, cone apex, legality record, boundary cube,
    critical certificate, link classification, cube model, canonical
    transform or collapse search.  `build_cube_model` is in
    `tests/oracles.py`, which the package cannot import: for it the
    guarantee is structural, and its rebinding here finds no name."""
    docs = [_report(cert) for cert in (cert_p6, cert_p5)]
    _forbid(monkeypatch, (dismantle, cone_apex, flag_certificate, split_legality,
                          certify_boundary_cube, classify_link, build_cube_model,
                          canonical_pairs_transform, try_collapse))
    monkeypatch.setattr(CriticalLinkCertifier, "certificate",
                        _raising("CriticalLinkCertifier.certificate"))
    for doc in docs:
        ok, msgs = verify_document(doc)
        assert ok, msgs


def test_critical_rows_build_no_cube_model(monkeypatch):
    """By the all-pairs lemma a critical row is decided by its face alone:
    one p6 certify and two verifies of its report call neither
    `build_cube_model` nor `canonical_pairs_transform`.  The first is in
    `tests/oracles.py`, which the package cannot import, so for it the
    count holds by structure."""
    calls = [_count(monkeypatch, f) for f in (build_cube_model, canonical_pairs_transform)]
    cert = certify_p6()
    assert cert.passed, cert.failures
    assert calls == [[], []]
    doc = _report(cert)
    for _ in range(2):
        ok, msgs = verify_document(doc)
        assert ok, msgs
        assert calls == [[], []]


def test_each_legality_part_is_dismantled_once_per_run(monkeypatch):
    """The 536 bad rows of p6 split into 1,072 parts, 865 of them distinct:
    each `certify_p6()` dismantles every distinct part once, plus the two
    link certificates of the critical item, and the next run does it all
    again."""
    from morsecert import states

    plan = [p for p in builtin_subject("p6").plan if p.witness is None]
    parts = [part for p in plan for part in (p.masks[0] & ~p.masks[1], p.masks[1])]
    assert (len(plan), len(parts), len(set(parts))) == (536, 1072, 865)
    calls = _count(monkeypatch, states.dismantle)
    for _ in range(2):
        assert certify_p6().passed
        assert len(calls) == 867
        calls.clear()


def test_cusp_condition_is_fixed_by_the_plan(monkeypatch, cert_p5):
    """The subject's cusp tables fix each cusp condition and each bad
    face's In parts once: a warm p5 certify finds the apex pairs of each of
    the 10 cusps in one `certify_boundary_cube` call on its kept table, and
    neither it nor the verify of its report evaluates the condition."""
    from morsecert import kernel

    calls = _count(monkeypatch, kernel.check_cusp_condition)
    cubes = _count(monkeypatch, certify_boundary_cube)
    assert certify_p5().passed
    assert (len(calls), len(cubes)) == (0, 10)
    assert [table for _, table in cubes] == list(builtin_subject("p5").cusps)
    ok, msgs = verify_document(_report(cert_p5))
    assert ok, msgs
    assert (len(calls), len(cubes)) == (0, 10)


def test_structure_built_once_per_process(monkeypatch):
    """From a cleared subject cache, a p6 certify builds exactly one clique
    census, P6's; the verify of its report and a second certify build none,
    as they share the kept P6.  None of them builds a cusp section or lists
    faces as handles: the verdict plan and the cusp tables read their faces
    from P6's face table, which holds a handle for each bad face only."""
    from morsecert.polytopes import build_cusp_section, enumerate_faces

    built = []
    census = Polytope._build_census

    def counting(self):
        built.append(self)
        return census(self)

    monkeypatch.setattr(Polytope, "_build_census", counting)
    listed = _count(monkeypatch, enumerate_faces)
    sections = _count(monkeypatch, build_cusp_section)
    builtin_subject.cache_clear()
    cert = certify_p6()
    assert cert.passed, cert.failures
    assert [P.name for P in built] == ["P6"]
    assert built[0] is builtin_subject("p6").P
    del built[:]
    ok, msgs = verify_document(_report(cert))
    assert ok, msgs
    assert certify_p6().passed
    assert built == []
    assert listed == []
    assert sections == []


def test_second_cli_certify_builds_no_subject_and_no_parser(monkeypatch, tmp_path):
    """A second `certify p5` in one process reuses the subjects and the
    parser that the first one left: it calls neither `build_p6` nor
    `build_p5`, and constructs no argument parser."""
    import argparse

    from morsecert.polytopes import build_p5, build_p6

    argv = ["certify", "p5", "--format", "structured", "--output", str(tmp_path / "r.json")]
    assert main(argv) == 0
    calls = [_count(monkeypatch, f) for f in (build_p6, build_p5)]
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0
    assert calls == [[], []]
    assert parsers == []


def test_critical_row_with_a_later_state_first_is_rejected(cert_p6):
    """A critical row's states must ascend, as the plan lists them: the
    row's last state moved to the front no longer binds, and the failure
    names the face."""
    doc = _report(cert_p6)
    row = next(r for r in doc["verdicts"]["rows"] if row_branch(r) == "critical-pairs")
    tampered = json.loads(json.dumps(doc))
    target = next(r for r in tampered["verdicts"]["rows"] if r["face"] == row["face"])
    target["states"] = row["states"][-1:] + row["states"][:-1]
    ok, msgs = verify_document(tampered)
    assert not ok
    assert any(f"face {tuple(row['face'])}" in msg for msg in msgs)


# -- the shared critical item ------------------------------------------------


def _rehash_shared(doc, edit):
    """Edit the one shared item, store it under the hash of its new content,
    and repoint the critical rows that cite it; returns its new id."""
    (sid, ev), = doc["shared_evidence"].items()
    del doc["shared_evidence"][sid]
    edit(ev)
    new = _eid(ev)
    doc["shared_evidence"][new] = ev
    for row in doc["verdicts"]["rows"]:
        if row.get("evidence") == sid:
            row["evidence"] = new
    return new


def _graph_non_dominator(G, v):
    """The first vertex of G other than v that does not dominate v while
    every vertex is live."""
    closed = lambda x: G.N[G.rank[x]]
    return next(u for u in G.ids if u != v and closed(v) & ~closed(u))


# (tamper, key, message): each edits the order under `key`, and the verifier
# must name the re-hashed item, the key and the message; a label that is no
# int breaks the schema, its message a path from the key's step
SHARED_TAMPERS = [
    ("drop-step", "desc_sequence", "step 180: 3888 does not dominate 2848"),
    ("duplicate-step", "asc_sequence", "step 1: 449 is not a live vertex of the link"),
    ("swap-steps", "desc_sequence", "step 0: 195 does not dominate 130"),
    ("non-dominator", "asc_sequence", "step 0: 194 does not dominate 449"),
    ("outside-poset", "desc_sequence", "step 0: 0 is not a live vertex of the link"),
    ("core-deleted", "asc_sequence", "step 360: 193 is a core vertex"),
    ("string-label", "desc_sequence", "[0][0]: expected an int, got str"),
    ("bool-label", "asc_sequence", "[0][0]: expected an int, got bool"),
    ("float-label", "desc_sequence", "[0][0]: expected an int, got float"),
    ("nested-label", "asc_sequence", "[0][0]: expected an int, got list"),
    ("mixed-shapes", "desc_sequence", "[0][0]: expected an int, got list"),
]


@pytest.mark.parametrize(
    "tamper, key, message", SHARED_TAMPERS, ids=[t[0] for t in SHARED_TAMPERS]
)
def test_rehashed_shared_tampers_are_rejected(cert_p6, tmp_path, capsys, tamper, key,
                                              message):
    doc = _report(cert_p6)
    (ev,) = doc["shared_evidence"].values()
    G, core = canonical_pairs_graphs(ev["ell"])[key == "desc_sequence"]
    v, w = ev[key][0]

    def edit(ev):
        order = ev[key]
        if tamper == "drop-step":
            del order[len(order) // 2]
        elif tamper == "duplicate-step":
            order.insert(1, order[0])
        elif tamper == "swap-steps":
            order[0], order[-1] = order[-1], order[0]
        elif tamper == "core-deleted":
            order.append([core[0], core[-1]])
        else:
            order[0] = {
                "non-dominator": [v, _graph_non_dominator(G, v)],
                "outside-poset": [0, w],  # the cube is no proper face
                "string-label": [str(v), w],
                "bool-label": [True, w],
                "float-label": [float(v), w],
                "nested-label": [[v], w],
                "mixed-shapes": [[v], [v, w]],
            }[tamper]

    new = _rehash_shared(doc, edit)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    if message.startswith("["):
        assert code == 2 and f"input error: shared_evidence.{new}.{key}{message}\n" in err, err
    else:
        assert code == 1
        assert any(new in line and f"{key} {message}" in line for line in out.splitlines()), out


def test_shared_item_key_failure_is_named_once(cert_p6):
    """An unknown key in the shared item, re-hashed and cited by all 8
    critical rows, makes the report malformed, named once, by the item's
    path, not once per citing row."""
    doc = _report(cert_p6)
    new = _rehash_shared(doc, lambda ev: ev.update(note=0))
    with pytest.raises(InputError) as exc:
        verify_document(doc)
    assert str(exc.value) == f"shared_evidence.{new}: unknown key 'note'"


def test_certifier_falls_back_to_elementary_collapses(monkeypatch):
    """A face link with no dismantling order onto its core gets no
    certificate and no searched collapse in its place: the shared
    certificate fails, and an all-pairs face whose link it is comes out
    Unknown, not Critical."""
    import morsecert.states as states

    pol, moves, state = _squares_inputs()
    P = polytope_from_doc(pol)
    S = generic_subject(P, moves_from_doc(moves), state_from_doc(state, P))
    F = next(F for F in S.table.bad if all_pairs_index(S, F) == 2)
    assert classify_link(S, F, certifier=CriticalLinkCertifier()).verdict == "Critical"
    orders = states.dismantle
    monkeypatch.setattr(states, "dismantle", lambda N, keep=0, live=None: (
        None if len(N) == 48 else orders(N, keep, live)))
    cert = CriticalLinkCertifier().certificate(2)
    assert not cert.success
    assert cert.asc_sequence is not None and cert.desc_sequence is None
    lc = classify_link(S, F, certifier=CriticalLinkCertifier())
    assert (lc.verdict, lc.index) == ("Unknown", None)
    assert lc.note == "no dismantling order found on the canonical all-pairs cube"


def _generic_inputs():
    """The sparse square, a fibration; the square with adjacent moves, whose
    perfect-Morse identity honestly fails; and the product of two squares,
    whose all-pairs vertices have ℓ = 2."""
    pol, _, state = square_inputs()
    return [square_inputs(), (pol, [["a", "b"], ["c", "d"]], state), _squares_inputs()]


def test_builtin_subjects_build_no_complex(monkeypatch):
    """Certify and verify of p5, p6 and the generic inputs build no
    simplicial complex: their parts and face links are dismantled on
    graphs, and the critical cores are checked on the comparability graph.
    A generic part with no dismantling order would not be searched either."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a simplicial complex was built")

    monkeypatch.setattr(complexes.SimplicialComplex, "__init__", refuse)
    for certify in (certify_p5, certify_p6):
        cert = certify()
        assert cert.passed, cert.failures
        ok, msgs = verify_document(_report(cert))
        assert ok, msgs
    passed = []
    for inputs in _generic_inputs():
        cert = _certify_inputs(*inputs)
        passed.append(cert.passed)
        assert verify_document(_report(cert))[0] == cert.passed
    assert passed == [True, False, False]


def test_ell_4_certificate_verifies():
    """For l = 4, beyond the polytopes built here, the certifier finds
    dismantling orders of both face links onto their cores, each core
    checked on its graph; the verifier accepts them and names a descending
    order cut short by one step."""
    from morsecert.certify import critical_shared_payload
    from morsecert.verify import _Verifier

    cert = CriticalLinkCertifier().certificate(4)
    assert (len(cert.asc_sequence), len(cert.desc_sequence)) == (4080, 2320)
    ev = critical_shared_payload(cert)
    assert dict(_Verifier({})._core_problems(4, ev)) == {
        "asc_sequence": None, "desc_sequence": None}
    ev["desc_sequence"] = ev["desc_sequence"][:-1]
    assert dict(_Verifier({})._core_problems(4, ev)) == {
        "asc_sequence": None, "desc_sequence": "does not reach its core"}


def _squares_inputs():
    """Generic inputs whose all-pairs vertices have ℓ = 2: the product of
    two squares, each move a pair of adjacent facets."""
    facets = ("abcd", "efgh")
    adjacency = [[sq[i], sq[(i + 1) % 4]] for sq in facets for i in range(4)]
    adjacency += [[x, y] for x in facets[0] for y in facets[1]]
    polytope = {"name": "two-squares", "dimension": 4,
                "facets": [{"id": f} for f in "abcdefgh"], "adjacency": adjacency}
    moves = [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]]
    state = {f: "I" if f in "abef" else "O" for f in "abcdefgh"}
    return polytope, moves, state


def test_elementary_shared_item_verifies():
    """Searched elementary collapses of the face links in place of either of
    the shared item's dismantling orders are malformed, named by the path
    to the item's first step under that key, though they replay on the
    links."""
    cert = _certify_inputs(*_squares_inputs())
    assert [ev["ell"] for ev in _report(cert)["shared_evidence"].values()] == [2]
    for key, kind in (("asc_sequence", "asc"), ("desc_sequence", "desc")):
        K, core = _oracle_link(2, kind)
        out = try_collapse(K, target=core)
        assert out.success and replay_collapse(K, out.sequence) == core
        doc = _report(cert)
        new = _rehash_shared(doc, lambda ev: ev.update({key: sequence_json(out.sequence)}))
        with pytest.raises(InputError) as exc:
            verify_document(doc)
        assert str(exc.value) == f"shared_evidence.{new}.{key}[0][0]: expected an int, got list"


def test_each_bad_row_gets_one_legality_check(monkeypatch):
    """A p6 certify checks the legality of each bad row's split once: a row
    that is not totally legal is classified with the record already made."""
    from morsecert.states import split_legality

    rows = [p for p in builtin_subject("p6").plan if p.witness is None]
    calls = _count(monkeypatch, split_legality)
    assert certify_p6().passed
    assert len(calls) == len(rows) == 536
