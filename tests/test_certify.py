import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import morsecert.certify
from morsecert.certify import MAX_PARALLEL, certify_generic, certify_p5, certify_p6
from morsecert.cli import main
from morsecert.errors import InputError
from morsecert.io import (
    builtin_inputs,
    builtin_subject,
    load_document,
    moves_from_doc,
    state_from_doc,
    subject_from_inputs,
    write_json,
)
from morsecert.kernel import MAX_MOVES, check_cusp_condition, generic_subject
from morsecert.links import certify_boundary_cube
from morsecert.polytopes import FaceHandle, build_cusp_section, polytope_from_doc
from morsecert.report import (
    REPORT_VERSION,
    _inputs_digest,
    certificate_to_document,
    document_to_json,
    emit_report,
    euler_identity,
    row_branch,
    verdict_allowed,
)
from morsecert.schema import MOVES, POLYTOPE, STATE
from morsecert.states import inherited_state
from morsecert.verify import verify_document

from construction import restrict
from oracles import state_parts, verdict_rows


def p6_input_documents():
    """The shipped p6 inputs (polytope, moves, state), a copy to edit."""
    inputs = copy.deepcopy(builtin_inputs("p6")[0])
    return inputs["polytope"], inputs["moves"], inputs["state"]


def square_inputs():
    """A right-angled square with a sparse move system (a 2-torus fibration)."""
    polytope = {
        "name": "square",
        "dimension": 2,
        "facets": [{"id": f} for f in "abcd"],
        "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
    }
    moves = [["a", "c"], ["b", "d"]]
    state = {"a": "I", "b": "I", "c": "O", "d": "O"}
    return polytope, moves, state


def cube_inputs(z1="I"):
    """The 3-cube, opposite facets not adjacent, with the moves {x0, x1} and
    {y0, y1, z0, z1}.  Its state is compatible with z1 In; with z1 Out the
    adjacent same-move facets y0 and z1 differ."""
    ids = ["x0", "x1", "y0", "y1", "z0", "z1"]
    polytope = {
        "name": "cube",
        "dimension": 3,
        "facets": [{"id": f} for f in ids],
        "adjacency": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if a[0] != b[0]],
    }
    moves = [["x0", "x1"], ["y0", "y1", "z0", "z1"]]
    state = {"x0": "I", "x1": "O", "y0": "I", "y1": "I", "z0": "I", "z1": z1}
    return polytope, moves, state


# -- euler identity ------------------------------------------------------------


def test_euler_identity_p6(S6):
    rec = euler_identity(S6)
    assert rec.chi_per_copy == Fraction(-1, 8)
    assert rec.critical_count == 8
    assert rec.critical_per_copy == Fraction(8, 64)
    assert rec.passed


def test_euler_identity_p5(S5):
    rec = euler_identity(S5)
    assert rec.chi_per_copy == 0
    assert rec.critical_count == 0
    assert rec.passed


def test_euler_identity_sparse_square():
    pol, moves, state = square_inputs()
    P = polytope_from_doc(pol)
    m = moves_from_doc(moves)
    rec = euler_identity(generic_subject(P, m, state_from_doc(state, P)))
    assert rec.chi_per_copy == 0 and rec.critical_count == 0 and rec.passed


# -- pipelines -------------------------------------------------------------------


def test_certify_p5_properties(cert_p5):
    assert cert_p5.passed
    assert cert_p5.subject == "P5_fibration"
    assert len(cert_p5.orbit_serials) == 16
    assert all(r["verdict"] == "Regular" for r in verdict_rows(cert_p5))
    assert len(cert_p5.cusp_rows) == 160
    assert all(r["ok"] and r["all_regular"] for r in cert_p5.cusp_rows)


def test_certify_p6_properties(cert_p6):
    assert cert_p6.passed
    assert cert_p6.subject == "P6_perfect_morse"
    assert len(cert_p6.orbit_serials) == 32
    verdicts = {r["verdict"] for r in verdict_rows(cert_p6)}
    assert verdicts == {"Regular", "Critical(3)"}
    crit = [r for r in verdict_rows(cert_p6) if r["verdict"] == "Critical(3)"]
    assert len(crit) == 8
    assert all(len(r["states"]) == 32 for r in crit)


def test_certify_generic_sparse_square(tmp_path):
    pol, moves, state = square_inputs()
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="fibration")
    assert cert.passed
    assert cert.S.bad_faces == {}  # sparse moves: no bad proper faces
    assert len(cert.orbit_serials) == 4
    ok, msgs = verify_document(json.loads(emit_report(cert, "structured")))
    assert ok, msgs


def test_certify_generic_incompatible_state():
    pol, moves, _ = square_inputs()
    pol["adjacency"].append(["a", "c"])  # make the same-move pair adjacent
    state = {"a": "I", "b": "I", "c": "O", "d": "O"}
    with pytest.raises(InputError, match="incompatible"):
        certify_generic({"polytope": pol, "moves": moves, "state": state})


def _input_files(tmp_path, inputs) -> list:
    """`certify generic` arguments naming `inputs` written to files."""
    argv = []
    for key, doc in zip(("polytope", "moves", "state"), inputs):
        write_json(tmp_path / f"{key}.json", doc)
        argv += [f"--{key}", str(tmp_path / f"{key}.json")]
    return argv


def test_verify_rejects_an_incompatible_embedded_state(tmp_path, capsys, monkeypatch):
    """A generic report whose embedded state is not compatible is an input
    error to `verify`, naming the pair, as `certify generic` refuses the
    same files.  The forged report is made with the check bypassed on the
    certify side only.  The compatible twin certifies and verifies in both
    modes."""
    import morsecert.kernel

    files = _input_files(tmp_path, cube_inputs("O"))
    report = str(tmp_path / "report.json")
    with monkeypatch.context() as mp:
        mp.setattr(morsecert.kernel, "is_compatible", lambda P, m, s: (True, None))
        assert main(["certify", "generic", *files, "--format", "structured",
                     "--output", report]) == 0
    capsys.readouterr()
    assert main(["verify", report]) == 2
    assert ("input error: embedded inputs: initial state is incompatible: adjacent same-move "
            "pair ('y0', 'z1')") in capsys.readouterr().err
    assert main(["certify", "generic", *files]) == 2
    assert "adjacent same-move pair ('y0', 'z1')" in capsys.readouterr().err
    twin = _input_files(tmp_path, cube_inputs("I"))
    for mode in ("fibration", "perfect"):
        assert main(["certify", "generic", *twin, "--mode", mode, "--format", "structured",
                     "--output", report]) == 0
        assert main(["verify", report]) == 0


def test_parallel_matches_serial():
    serial = certify_p5()
    parallel = certify_p5(parallel=2)
    assert certificate_to_document(serial) == certificate_to_document(parallel)


def test_parallel_matches_serial_p6(cert_p6):
    """p6 has critical rows, whose transforms the workers validate with the
    memo of the certifier they inherit."""
    parallel = certify_p6(parallel=2)
    assert document_to_json(certificate_to_document(cert_p6)) == document_to_json(
        certificate_to_document(parallel))


# -- reports ---------------------------------------------------------------------


def test_summary_lines(cert_p6, cert_p5):
    assert cert_p6.summary_line() == (
        "P6: PERFECT MORSE CERTIFIED (all links Regular or Critical(3))"
    )
    assert cert_p5.summary_line() == "P5: FIBRATION CERTIFIED (all links Regular)"


def test_the_summary_line_names_only_allowed_verdicts():
    """In perfect mode an odd dimension admits no Critical verdict, so the
    3-cube's line names Regular links alone; the square's names Critical(1)."""
    pol, moves, state = cube_inputs()
    cube = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="perfect")
    assert cube.passed, cube.failures
    assert not verdict_allowed("perfect", 3, "Critical(1)")
    assert cube.summary_line() == "GENERIC: PERFECT MORSE CERTIFIED (all links Regular)"
    pol, moves, state = square_inputs()
    square = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="perfect")
    assert square.summary_line() == (
        "GENERIC: PERFECT MORSE CERTIFIED (all links Regular or Critical(1))")


def test_text_report_sections(cert_p6):
    text = emit_report(cert_p6, "text")
    assert "PERFECT MORSE CERTIFIED" in text
    assert "-- consistency identity --" in text
    assert "chi per copy = -1/8" in text
    assert "result: CERTIFIED" in text


# SHA-256 of the whole text reports of seed 0, which carry no timings, and
# their verdict sections, whose "via" counts are read off each row's witness key
TEXT_REPORTS = {
    "p5": ("8d9d76d3e07a33b46949e0c9925ac80acfe71471e64a712a12a7d76bdac63f32",
           "coverage: 393 faces x 16 states = 6288 pairs in 464 classes\n"
           "  Regular: 464 classes\n"
           "  via good-face: 384\n"
           "  via inherited-totally-legal: 80\n"),
    "p6": ("9bd085e06b2a398206331006d0d6f2650d61ce2fbcdc5b2a50b504dde05a5cfd",
           "coverage: 2764 faces x 32 states = 88448 pairs in 3235 classes\n"
           "  Critical(3): 8 classes\n"
           "  Regular: 3227 classes\n"
           "  via critical-pairs: 8\n"
           "  via good-face: 2699\n"
           "  via inherited-totally-legal: 528\n"),
}


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_text_report_pinned(request, subject):
    text = emit_report(request.getfixturevalue(f"cert_{subject}"), "text")
    digest, verdicts = TEXT_REPORTS[subject]
    assert text.split("-- verdicts --\n")[1].split("\n-- cusps")[0] == verdicts
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_text_report_has_timings_only_when_asked(cert_p5, capsys):
    """`--timings` adds the timings section to a text report, one line per
    stage and the total, before the result; without it there is none."""
    text = emit_report(cert_p5, "text", include_timings=True)
    head, timings = text.split("\n-- timings (seconds) --\n")
    assert head + "\n" + timings.split("\n\n")[1] == emit_report(cert_p5, "text")
    assert [line.split(":")[0] for line in timings.split("\n\n")[0].splitlines()] == [
        "  bad_faces", "  coverage", "  cusps", "  euler", "  f_vector", "  orbit", "  total",
        "  verdicts"]
    assert main(["certify", "p5", "--timings"]) == 0
    assert "\n-- timings (seconds) --\n" in capsys.readouterr().out
    assert main(["certify", "p5"]) == 0
    assert "-- timings" not in capsys.readouterr().out


def test_structured_report_fields(cert_p6):
    doc = certificate_to_document(cert_p6)
    for key in (
        "version", "subject", "inputs_digest", "f_vector", "bad_faces",
        "verdicts", "cusps", "euler", "seeds", "timings",
    ):
        assert key in doc
    assert doc["timings"] is None  # byte-reproducible by default
    assert doc["euler"]["chi_per_copy"] == [-1, 8]
    with_t = certificate_to_document(cert_p6, include_timings=True)
    assert isinstance(with_t["timings"], dict)


def test_structured_report_deterministic():
    a = document_to_json(certificate_to_document(certify_p5()))
    b = document_to_json(certificate_to_document(certify_p5()))
    assert a == b


# SHA-256 and byte count of the seed-0 structured reports of each report
# version: a change to the report's bytes must come with a new version
REPORT_BYTES = {
    "10": {
        "P6_perfect_morse": (
            "7de15244336c64a69b29064478d9cad568750ad7b8f60bd27456afc1295f15b1", 708_524),
        "P5_fibration": (
            "ceb4b3d22fb8a6c6af6e71504b79d275d4077b3c4bddb89729e25b4673f492f1", 85_221),
    },
    "9": {
        "P6_perfect_morse": (
            "71c275b5bdfc7831adbc30b41621a471da317f0d4f2883358c0ee6bd8f17b229", 708_523),
        "P5_fibration": (
            "aeb1f097c7fa4541b8b5d62761fc3a73920d36ec63faca2db0bdee12ce60f500", 85_220),
    },
    "8": {
        "P6_perfect_morse": (
            "1559912f5c0cf83cbd9885d18b79f30ccf432a26d7d5411c4c459e9bf4ae6135", 842_129),
        "P5_fibration": (
            "0c52e12a2b22d9a797a527ca103ab43082ca8f6195454e9e251deff3b5c9edbd", 97_235),
    },
    "7": {
        "P6_perfect_morse": (
            "9f9fee6a38e9d479528b99f0f6f46819269688f3e3e433177a5253332ebb027d", 842_490),
        "P5_fibration": (
            "2d14ace0266bbfc3b0ffd24ef0c401d8ad3f276e5956032e64265b505f65486d", 97_235),
    },
    "6": {
        "P6_perfect_morse": (
            "d23e4d8f5612775169c82d35fcbcb0f5b954071a7c8344a990eb11799904034d", 1_346_998),
        "P5_fibration": (
            "ab8ff8bf7ebbfa9746dad88213babeee8950a739ba6f3a60ac921bc17b0ab4a2", 160_095),
    },
}


def test_report_bytes_pinned_to_version(cert_p5, cert_p6):
    for cert in (cert_p5, cert_p6):
        text = emit_report(cert, "structured").encode()
        assert (hashlib.sha256(text).hexdigest(), len(text)) == \
            REPORT_BYTES[REPORT_VERSION][cert.subject]


def test_report_json_roundtrip(cert_p5):
    """The document reads back as it was assembled, its verdicts section,
    written already, as the rows `verdict_row` makes and the witness moves."""
    doc = certificate_to_document(cert_p5)
    back = json.loads(document_to_json(doc))
    assert back == {**doc, "verdicts": json.loads(doc["verdicts"])}
    witnesses = [p.witness for p in cert_p5.S.plan if p.witness is not None]
    assert back["verdicts"] == {"rows": list(verdict_rows(cert_p5)), "witness_moves": witnesses}


# -- verify ----------------------------------------------------------------------


def test_verify_passing_reports(cert_p5, cert_p6):
    for cert in (cert_p5, cert_p6):
        ok, msgs = verify_document(
            json.loads(document_to_json(certificate_to_document(cert)))
        )
        assert ok, msgs


def test_verify_detects_tampered_sequence(cert_p5):
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    for eid, ev in doc["evidence"].items():
        if ev["kind"] == "legality" and ev["out_sequence"]:
            ev["out_sequence"] = ev["out_sequence"][:-1]  # drop the last step
            break
    ok, msgs = verify_document(doc)
    assert not ok
    assert any("replay" in m or "reach a point" in m for m in msgs)


DROP = object()


def _set(obj, key, value=DROP):
    if value is DROP:
        del obj[key]
    else:
        obj[key] = value


def _row(doc, branch, where=lambda row: True):
    """The first verdict row of `branch`, by its witness key, for which
    `where` holds."""
    return next(r for r in doc["verdicts"]["rows"] if row_branch(r) == branch and where(r))


def _witness_moves(doc):
    return doc["verdicts"]["witness_moves"]


def _shift_witness(doc):
    moves = _witness_moves(doc)
    moves[0] = (moves[0] + 1) % len(doc["moves"])


def _swap_unequal(values):
    """Swap the first two unequal neighbours of the list `values`."""
    i = next(i for i in range(len(values) - 1) if values[i] != values[i + 1])
    _swap(values, i, i + 1)


def apex_entries(S, apexes):
    """((cusp, face, pair) positions, face ids, apex pair, the face's Out
    and In parts) of every pair of the apex lists `apexes` of subject S's
    report: each face list the bad face of its position in its cusp's
    table, each pair the In part of its position among the face's distinct
    In parts, in order of first occurrence over the states where the cusp
    condition holds, and its parts rebuilt from the cusp's section and the
    state inherited on the face from the first state that selects it."""
    P, m = S.P, S.m
    for c, (iv, table, faces) in enumerate(zip(P.ideal_vertices, S.cusps, apexes)):
        H = build_cusp_section(P, iv.id)
        mH = restrict(m, H.facet_ids)
        held = [s for s, s_in in zip(S.states, S.in_masks)
                if check_cusp_condition(table.pairs, s_in)]
        for i, ((ids, _, _), pairs) in enumerate(zip(table.bad, faces)):
            F = FaceHandle(frozenset(ids))
            first = {}
            for s in held:
                inherited = inherited_state(H, mH, s, F)
                first.setdefault(inherited.in_facets, inherited)
            for j, (pair, inherited) in enumerate(zip(pairs, first.values())):
                yield (c, i, j), ids, pair, state_parts(H, F, inherited)


def _cusp_entry_parts(doc):
    """(face ids, apex pair, the face's Out and In parts) of every apex
    pair of the p5 report."""
    for _, ids, pair, parts in apex_entries(builtin_subject("p5"), doc["cusps"]["apexes"]):
        yield ids, pair, parts


def _wrong_apex(doc):
    """Set an Out apex to a vertex of the Out part that some maximal face
    misses, so the part is no cone on it."""
    for _, pair, (out, _) in _cusp_entry_parts(doc):
        for v in out.vertices:
            if any(v not in f for f in out.maximal_faces):
                pair[0] = v
                return
    raise AssertionError("every Out part is a simplex")


def _apex_not_a_vertex(doc):
    """Set an Out apex to one of the face's own defining facets."""
    ids, pair, _ = next(e for e in _cusp_entry_parts(doc) if e[0])
    pair[0] = ids[0]


def _apex_position(doc, where=lambda pairs: True):
    """(cusp, face) of the first face list of the p5 report for which
    `where` holds."""
    return next((c, i) for c, faces in enumerate(doc["cusps"]["apexes"])
                for i, pairs in enumerate(faces) if where(pairs))


def _pairs_of_some_face(doc, where=lambda pairs: True):
    c, i = _apex_position(doc, lambda pairs: pairs and where(pairs))
    return doc["cusps"]["apexes"][c][i]


def _move_pair(doc):
    """Move a pair of a face list to the next face list of its cusp."""
    c, i = _apex_position(doc, lambda pairs: len(pairs) > 1)
    faces = doc["cusps"]["apexes"][c]
    faces[(i + 1) % len(faces)].append(faces[i].pop())


def _add_key(doc):
    ev = next(ev for ev in doc["evidence"].values() if ev["kind"] == "legality")
    ev["note"] = "edited"


def _reorder_critical_states(doc):
    """Swap a critical row's last two states; its first state stays in
    place."""
    states = _row(doc, "critical-pairs")["states"]
    states[-2:] = states[:-3:-1]


def _swap(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _split_legal_class(doc):
    """Split a legal class of several states into two rows that cite the
    same item."""
    rows = doc["verdicts"]["rows"]
    i, row = next((i, r) for i, r in enumerate(rows)
                  if row_branch(r) == "inherited-totally-legal" and len(r["states"]) > 1)
    rows.insert(i + 1, dict(row, states=row["states"][1:]))
    row["states"] = row["states"][:1]


def _second_apex(doc):
    """Name a part's second cone apex, a vertex in every maximal face of the
    part, where the pair holds the first."""
    for _, pair, parts in _cusp_entry_parts(doc):
        for side, part in enumerate(parts):
            apexes = sorted(v for v in part.vertices
                            if all(v in f for f in part.maximal_faces))
            if len(apexes) > 1:
                assert pair[side] == apexes[0]
                pair[side] = apexes[1]
                return
    raise AssertionError("no part has two cone apexes")


def _replace_in_states(row, old, new):
    row["states"][row["states"].index(old)] = new


def _as_critical(doc):
    """Claim a legal row Critical(2), citing its legality item."""
    _row(doc, "inherited-totally-legal")["verdict"] = "Critical(2)"


# (name, edit of the report, exit codes allowed[, subject]), the subject p5
# unless named; an edit either changes the document in place or returns the
# document to write instead
REPORT_EDITS = [
    # malformed: an input error, never a traceback
    ("no-verdicts", lambda d: _set(d, "verdicts"), {2}),
    ("no-cusps", lambda d: _set(d, "cusps"), {2}),
    ("face-int", lambda d: _set(d["verdicts"]["rows"][0], "face", 7), {2}),
    ("evidence-list", lambda d: _set(d, "evidence", []), {2}),
    ("polytope-null", lambda d: _set(d, "polytope", None), {2}),
    ("evidence-no-host", lambda d: _set(next(iter(d["evidence"].values())), "host"), {2}),
    ("top-level-list", lambda d: [d], {2}),
    # well formed but false: rejected
    ("wrong-witness", _shift_witness, {1}),
    ("null-witness", lambda d: _set(_witness_moves(d), 0, None), {2}),
    ("version-0", lambda d: _set(d, "version", "0"), {1}),
    # a good row moved onto the polytope itself, which is a bad face
    ("good-row-on-polytope", lambda d: _set(_row(d, "good-face"), "face", []), {1}),
    # a good row that claims a verdict its mode allows but the plan does not
    ("good-row-claimed-critical",
     lambda d: _set(_row(d, "good-face"), "verdict", "Critical(3)"), {1}, "p6"),
    ("missing-row", lambda d: _set(d["verdicts"]["rows"], -1), {1}),
    ("pass-false", lambda d: _set(d, "pass", False), {1}),
    # cusp apexes that are no cone apex of their part, and apex lists that
    # do not hold one pair per In part of each bad face of the cusp's table
    ("cusp-entry-wrong-apex", _wrong_apex, {1}),
    ("cusp-entry-apex-not-a-vertex", _apex_not_a_vertex, {1}),
    ("cusp-checked-extra-pair", lambda d: _pairs_of_some_face(d).insert(0, ["a", None]), {1}),
    ("cusp-checked-missing-pair", lambda d: _set(_pairs_of_some_face(d), -1), {1}),
    ("cusp-pair-repeated",
     lambda d: (lambda pairs: pairs.append(pairs[-1]))(_pairs_of_some_face(d)), {1}),
    ("cusp-pairs-swapped",
     lambda d: _swap_unequal(_pairs_of_some_face(d, lambda p: len(set(map(tuple, p))) > 1)),
     {1}),
    ("cusp-pair-moved", _move_pair, {1}),
    ("cusp-apex-null", lambda d: _set(_pairs_of_some_face(d)[0], 1, None), {1}),
    ("cusp-apex-from-other-part",
     lambda d: (lambda pair: _set(pair, 0, pair[1]))(_pairs_of_some_face(d)[0]), {1}),
    ("cusp-row-ok-false", lambda d: _set(d["cusps"]["rows"][3], "ok", False), {1}),
    ("cusp-row-all-regular-false",
     lambda d: _set(d["cusps"]["rows"][-1], "all_regular", False), {1}),
    ("cusp-face-list-missing", lambda d: _set(d["cusps"]["apexes"][0], -1), {1}),
    ("cusp-list-missing", lambda d: _set(d["cusps"]["apexes"], -1), {1}),
    ("cusp-apexes-missing", lambda d: _set(d["cusps"], "apexes"), {2}),
    # the good faces' witness moves, one list in plan order
    ("witness-moves-one-short", lambda d: _set(_witness_moves(d), -1), {1}),
    ("witness-moves-one-extra", lambda d: _witness_moves(d).append(0), {1}),
    ("witness-moves-swapped", lambda d: _swap_unequal(_witness_moves(d)), {1}),
    ("witness-move-minus-one",
     lambda d: _set(_witness_moves(d), -1, _witness_moves(d)[-1] - 1), {1}),
    ("witness-moves-missing", lambda d: _set(d["verdicts"], "witness_moves"), {2}),
    ("good-row-carries-witness-move",
     lambda d: _set(_row(d, "good-face"), "witness_move", _witness_moves(d)[0]), {2}),
    # evidence edited without a new id, or cited by a row that needs none
    ("evidence-extra-key", _add_key, {2}),
    ("orphan-evidence-item",
     lambda d: _set(d["evidence"], "e" + "f" * 16, dict(next(iter(d["evidence"].values())))),
     {1}),
    ("good-row-cites-evidence",
     lambda d: _set(_row(d, "good-face"), "evidence",
                    _row(d, "inherited-totally-legal")["evidence"]), {1}),
    ("mode-perfect", lambda d: _set(d, "mode", "perfect"), {1}),
    ("legal-row-not-regular",
     lambda d: _set(_row(d, "inherited-totally-legal"), "verdict", "Critical(2)"), {1}),
    # recomputed tables: each section has one writer, which the verifier reruns
    ("inputs-digest", lambda d: _set(d, "inputs_digest", "0" * 64), {1}),
    ("polytope-name", lambda d: _set(d["polytope"], "name", "P6"), {1}),
    ("polytope-dimension", lambda d: _set(d["polytope"], "dimension", 4), {1}),
    ("f-vector-degree",
     lambda d: _set(d["f_vector"]["degrees"], 0, d["f_vector"]["degrees"][0] + 1), {1}),
    # values of another type: the tables are compared by canonical JSON
    ("polytope-dimension-float",
     lambda d: _set(d["polytope"], "dimension", float(d["polytope"]["dimension"])), {1}, "p6"),
    ("euler-pass-int", lambda d: _set(d["euler"], "pass", 1), {1}, "p6"),
    ("f-vector-degree-float",
     lambda d: _set(d["f_vector"]["degrees"], 0, float(d["f_vector"]["degrees"][0])), {1},
     "p6"),
    ("euler-critical-count-float",
     lambda d: _set(d["euler"], "critical_count", float(d["euler"]["critical_count"])), {1},
     "p6"),
    # and in the rows, whose every value the schema types: of another type
    # they are malformed
    ("good-row-witness-true",
     lambda d: _set(_witness_moves(d), _witness_moves(d).index(1), True), {2}),
    ("legal-row-state-true",
     lambda d: _replace_in_states(_row(d, "inherited-totally-legal", lambda r: 1 in r["states"]),
                                  1, True), {2}),
    ("cusp-ok-int", lambda d: _set(d["cusps"]["rows"][0], "ok", 1), {2}),
    # a pass lists no failures, and every object carries exactly its keys
    ("failures-under-pass", lambda d: _set(d, "failures", ["none"]), {1}),
    ("unknown-key-report", lambda d: _set(d, "note", 0), {2}),
    ("unknown-key-verdicts", lambda d: _set(d["verdicts"], "n_faces", 0), {2}),
    ("unknown-key-row", lambda d: _set(_row(d, "good-face"), "codim", 1), {2}),
    ("unknown-key-cusp-row", lambda d: _set(d["cusps"]["rows"][0], "note", 0), {2}),
    # the first state represents a row, so the states must ascend
    ("critical-states-reordered", _reorder_critical_states, {1}, "p6"),
    # well-formed rows that are not the planned rows: the verdict and cusp
    # rows must be the plan's, in its order, and equal their writers' rows
    ("legal-row-no-states",
     lambda d: _set(_row(d, "inherited-totally-legal"), "states", []), {1}),
    ("verdict-state-999",
     lambda d: _set(_row(d, "inherited-totally-legal")["states"], 0, 999), {1}),
    ("cusp-rows-one-short", lambda d: _set(d["cusps"]["rows"], -1), {1}),
    ("cusp-rows-one-extra", lambda d: d["cusps"]["rows"].append(d["cusps"]["rows"][-1]), {1}),
    ("legal-class-split", _split_legal_class, {1}),
    ("verdict-rows-swapped", lambda d: _swap(d["verdicts"]["rows"], 0, 1), {1}),
    # p5's cusp rows are all alike, so the cusps' order is bound by their
    # apex lists
    ("cusp-rows-reversed", lambda d: d["cusps"]["apexes"].reverse(), {1}),
    # (a list whose reversal differs: the pairs of a face may repeat)
    ("cusp-checked-reversed",
     lambda d: _pairs_of_some_face(d, lambda p: p != p[::-1]).reverse(), {1}),
]


@pytest.mark.parametrize(
    "edit, codes, subject",
    [(e[1], e[2], e[3] if len(e) > 3 else "p5") for e in REPORT_EDITS],
    ids=[e[0] for e in REPORT_EDITS],
)
def test_verify_rejects_edited_report(request, tmp_path, edit, codes, subject):
    cert = request.getfixturevalue(f"cert_{subject}")
    doc = json.loads(document_to_json(certificate_to_document(cert)))
    replaced = edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    assert main(["verify", str(path)]) in codes


# (name, edit of a bad row's outcome, subject, what a message must say):
# edits that keep the verdicts section in the frame's form, so a copy
# written as certify writes is read through the frame from its bytes, and
# one written by `json.dumps` through the frame once it is parsed
OUTCOME_EDITS = [
    ("legal-as-critical-2",
     lambda d: _set(_row(d, "inherited-totally-legal"), "verdict", "Critical(2)"), "p5",
     ": not an all-pairs top vertex"),
    ("legal-as-maybe", lambda d: _set(_row(d, "inherited-totally-legal"), "verdict", "Maybe"),
     "p5", ": bad face, unverifiable verdict 'Maybe'"),
    ("legal-no-evidence", lambda d: _set(_row(d, "inherited-totally-legal"), "evidence"), "p5",
     ": bad face, Regular row cites no evidence"),
    ("legal-as-critical-3",
     lambda d: _set(_row(d, "inherited-totally-legal"), "verdict", "Critical(3)"), "p6",
     ": not an all-pairs top vertex"),
    ("critical-as-critical-2",
     lambda d: _set(_row(d, "critical-pairs"), "verdict", "Critical(2)"), "p6",
     ": row verdict does not match its recomputation"),
]


@pytest.mark.parametrize("edit, subject, named", [e[1:] for e in OUTCOME_EDITS],
                         ids=[e[0] for e in OUTCOME_EDITS])
def test_both_readers_reject_an_outcome_edit_alike(request, tmp_path, monkeypatch, edit,
                                                   subject, named):
    """A bad row's edited outcome is rejected with the same messages whether
    its file is read through the frame from its bytes or parsed whole: the
    parsed section is read through the same frame, and one check decides
    the outcome for both reads."""
    from morsecert import verify

    cert = request.getfixturevalue(f"cert_{subject}")
    doc = json.loads(document_to_json(certificate_to_document(cert)))
    edit(doc)
    reads, read = [], verify.read_verdicts
    monkeypatch.setattr(verify, "read_verdicts",
                        lambda *args: reads.append(read(*args)) or reads[-1])
    results = []
    for write in (document_to_json, json.dumps):
        path = tmp_path / f"{write.__name__}.json"
        path.write_text(write(doc))
        reads.clear()
        results.append((verify.verify_report_file(path), [r is not None for r in reads]))
    (framed, framed_reads), (parsed, parsed_reads) = results
    # the `json.dumps` bytes depart from the frame; the parsed section does not
    assert (framed_reads, parsed_reads) == ([True], [False, True])
    assert framed == parsed and not framed[0], results
    assert any(named in message for message in framed[1]), framed


def _apex_edits(doc, S):
    """(name, edit, what `verify` must say) of edits of the p5 report's apex
    lists, at the first face list holding two unequal pairs: each names the
    cusp and the face, or the cusp whose list of face lists is short, or the
    count of cusp lists."""
    c, i = _apex_position(doc, lambda pairs: len(set(map(tuple, pairs))) > 1)
    faces = doc["cusps"]["apexes"][c]
    cusp, n = S.P.ideal_vertices[c].id, len(faces[i])
    at = f"cusp {cusp}: face {S.cusps[c].bad[i][0]}"
    last = f"cusp {cusp}: face {S.cusps[c].bad[-1][0]}"
    nxt = f"cusp {cusp}: face {S.cusps[c].bad[(i + 1) % len(faces)][0]}"
    return [
        ("dropped", lambda: faces[i].pop(), f"{at}: {n - 1} apex pairs, want one per In part ({n})"),
        ("added", lambda: faces[i].append(faces[i][0]),
         f"{at}: {n + 1} apex pairs, want one per In part ({n})"),
        ("swapped", lambda: _swap_unequal(faces[i]), f"{at}: pair "),
        ("moved", lambda: faces[(i + 1) % len(faces)].append(faces[i].pop()),
         f"{nxt}: "),
        ("nulled", lambda: _set(faces[i][0], 1, None),
         f"{at}: pair 0: in apex None is no cone apex of its part"),
        ("other-part", lambda: _set(faces[i][0], 0, faces[i][0][1]),
         f"{at}: pair 0: out apex {faces[i][0][1]!r} is no cone apex of its part"),
        ("face-list-missing", lambda: faces.pop(),
         f"cusp {cusp}: {len(faces) - 1} face lists, want one per bad face of its table "
         f"({len(faces)})"),
        ("cusp-list-missing", lambda: doc["cusps"]["apexes"].pop(),
         f"cusps: {len(doc['cusps']['apexes']) - 1} apex lists, want one per cusp "
         f"({len(doc['cusps']['apexes'])})"),
    ], (at, last)


def test_verify_names_the_cusp_and_face_of_an_apex_edit(cert_p5, S5, tmp_path, capsys):
    """Each edit of an apex list exits 1 and names what is wrong by its cusp
    and face.  The rows of the states whose In parts select an unproved pair
    are then not all Regular, a consequence of the cause named, so no row
    is named by its cusp and state."""
    text = document_to_json(certificate_to_document(cert_p5))
    for k in range(8):
        doc = json.loads(text)
        edits, _ = _apex_edits(doc, S5)
        name, edit, message = edits[k]
        edit()
        write_json(tmp_path / "r.json", doc)
        assert main(["verify", str(tmp_path / "r.json")]) == 1, name
        out = capsys.readouterr().out
        assert f"FAIL: {message}" in out, (name, out)
        assert not [line for line in out.splitlines()
                    if line.startswith("FAIL: cusp ") and " state " in line], (name, out)


def test_verify_names_the_good_face_of_a_witness_edit(cert_p5, S5, tmp_path, capsys):
    """An edit of the good faces' witness moves exits 1 and names each entry
    that differs by its good face and position, or the count."""
    text = document_to_json(certificate_to_document(cert_p5))
    good = [p.face for p in S5.plan if p.witness is not None]
    j = next(j for j in range(len(good) - 1)
             if json.loads(text)["verdicts"]["witness_moves"][j:j + 2] == [0, 1])

    def named(*positions):
        return "".join(f"FAIL: face {good[k]}: witness_moves[{k}] does not match its "
                       f"recomputation\n" for k in positions)

    edits = [
        (lambda w: w.pop(), f"FAIL: verdicts.witness_moves: {len(good) - 1} entries, want one "
                            f"per good face ({len(good)})\n"),
        (lambda w: w.append(0), f"FAIL: verdicts.witness_moves: {len(good) + 1} entries, want "
                                f"one per good face ({len(good)})\n"),
        (lambda w: _swap(w, j, j + 1), named(j, j + 1)),
        (lambda w: _set(w, j + 1, 0), named(j + 1)),
    ]
    for edit, message in edits:
        doc = json.loads(text)
        edit(doc["verdicts"]["witness_moves"])
        write_json(tmp_path / "r.json", doc)
        assert main(["verify", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().out == message


def test_p6_report_lists_each_apex_pair_once(cert_p6, S6):
    """The p6 report proves its 27 x 32 boundary cubes all Regular with
    2,688 apex pairs, one per distinct (cusp, bad face, In part), for the
    7,008 (cusp, state, bad face) triples its rows cover."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p6)))
    apexes = doc["cusps"]["apexes"]
    assert sum(len(pairs) for faces in apexes for pairs in faces) == 2688
    assert sum(len(table.bad) for table in S6.cusps) * len(S6.states) == 7008
    assert len(doc["cusps"]["rows"]) == 27 * 32


def test_a_second_cone_apex_verifies(cert_p5):
    """Any apex that dominates its part proves the part a cone, so a pair
    naming a part's second cone apex, where certify names the first,
    verifies."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    _second_apex(doc)
    assert verify_document(doc) == (True, [])


def test_seeds_back_no_claim(cert_p5):
    """`seeds` and `timings` are the only fields that back no claim: the
    seed steers nothing, so the p5 reports of seeds 0 and 12345 differ in
    `seeds.root` alone, and an edited `seeds.root` still verifies."""
    report = document_to_json(certificate_to_document(cert_p5))
    other = document_to_json(certificate_to_document(certify_p5(seed=12345)))
    assert other != report
    assert other.replace('"seeds":{"root":12345}', '"seeds":{"root":0}') == report
    doc = json.loads(report)
    doc["seeds"]["root"] += 12345
    assert verify_document(doc) == (True, [])


# (edit of the p5 report, what `verify` must say of it, its exit code): a
# well-formed report that proves no claim is rejected (1), and one of the
# wrong shape is malformed (2), named by its JSON path
NAMED_REJECTIONS = [
    (lambda d: _set(_row(d, "inherited-totally-legal"), "evidence", "e" + "0" * 16),
     ": evidence e0000000000000000 is missing", 1),
    (_as_critical, "not an all-pairs top vertex", 1),
    (lambda d: _set(d, "subject", "nope"), "unknown subject 'nope'", 1),
    # a built-in subject's inputs are the shipped ones, which the report
    # does not carry, even unchanged
    (lambda d: _set(d, "inputs", copy.deepcopy(builtin_inputs("p5")[0])),
     "P5_fibration report embeds inputs", 1),
    (_add_key, "input error: evidence.{item}: unknown key 'note'\n", 2),
    # the schema lets a row omit `evidence`; the plan says a bad face needs it
    (lambda d: _set(_row(d, "inherited-totally-legal"), "evidence"),
     "bad face, Regular row cites no evidence", 1),
]


@pytest.mark.parametrize("edit, message, code", NAMED_REJECTIONS,
                         ids=["absent-evidence", "legal-row-as-critical", "unknown-subject",
                              "builtin-embeds-inputs", "evidence-unknown-key",
                              "legal-row-no-evidence"])
def test_verify_names_what_it_rejects(cert_p5, tmp_path, capsys, edit, message, code):
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    message = message.format(item=next(iter(doc["evidence"])))
    edit(doc)
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == code
    out, err = capsys.readouterr()
    assert message in (out if code == 1 else err)


def test_verify_names_the_item_of_a_renamed_sequence_key(cert_p5, tmp_path, capsys):
    """An evidence item with a sequence key renamed is malformed, and the
    message names the item's id and the missing key by their path."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    row = _row(doc, "inherited-totally-legal")
    item = doc["evidence"][row["evidence"]]
    item["in_sequenc"] = item.pop("in_sequence")
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 2
    assert (f"input error: evidence.{row['evidence']}: missing key in_sequence\n"
            in capsys.readouterr().err)


def test_verify_names_the_item_of_a_sequence_that_is_not_a_list(cert_p5, tmp_path, capsys):
    """An evidence item whose sequence is null is malformed, and the message
    names the item's id and the key by their path."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    row = _row(doc, "inherited-totally-legal")
    doc["evidence"][row["evidence"]]["out_sequence"] = None
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 2
    assert (f"input error: evidence.{row['evidence']}.out_sequence: expected a list of pairs "
            f"of strs, got null\n" in capsys.readouterr().err)


def _rename_key(row, key):
    """Rename `key` of `row` by cutting its last character."""
    row[key[:-1]] = row.pop(key)


def _legal_row_index(doc):
    return next(i for i, r in enumerate(doc["verdicts"]["rows"])
                if row_branch(r) == "inherited-totally-legal")


# (edit of the p5 report, the input error that names where it is): a row
# that lacks a key, carries an unknown one, holds a value of the wrong kind
# or is no object is malformed, and the message names its JSON path, which
# gives a row's position; so is a section of the wrong type
ROW_KEY_EDITS = [
    (lambda d: _rename_key(d["verdicts"]["rows"][3], "states"),
     "verdicts.rows[3]: missing key states"),
    (lambda d: _rename_key(d["verdicts"]["rows"][3], "face"),
     "verdicts.rows[3]: missing key face"),
    (lambda d: _rename_key(d["verdicts"]["rows"][3], "verdict"),
     "verdicts.rows[3]: missing key verdict"),
    (lambda d: _rename_key(d["verdicts"]["rows"][_legal_row_index(d)], "evidence"),
     "verdicts.rows[{legal}]: unknown key 'evidenc'"),
    (lambda d: _set(d["verdicts"]["rows"], 3, [0]),
     "verdicts.rows[3]: expected an object, got list"),
    (lambda d: _rename_key(d["cusps"], "apexes"), "cusps: missing key apexes"),
    (lambda d: _set(d["cusps"]["rows"], 5, None), "cusps.rows[5]: expected an object, got null"),
    (lambda d: _set(d, "shared_evidence", []), "shared_evidence: expected an object, got list"),
    (lambda d: _set(d, "shared_evidence", ""), "shared_evidence: expected an object, got str"),
    (lambda d: _set(d, "shared_evidence", 0), "shared_evidence: expected an object, got int"),
    (lambda d: _set(d, "shared_evidence", None), "shared_evidence: expected an object, got null"),
    (lambda d: _set(d, "evidence", []), "evidence: expected an object, got list"),
    (lambda d: _set(d["cusps"], "rows", 5), "cusps.rows: expected a list of objects, got int"),
    (lambda d: _set(d["verdicts"], "rows", None),
     "verdicts.rows: expected a list of objects, got null"),
    (lambda d: _set(d["verdicts"]["rows"][3], "face", 5),
     "verdicts.rows[3].face: expected a list of strs, got int"),
    (lambda d: _set(d["verdicts"]["rows"][3], "states", None),
     "verdicts.rows[3].states: expected a list of ints, got null"),
    (lambda d: _set(d["verdicts"]["rows"][_legal_row_index(d)], "evidence", [1]),
     "verdicts.rows[{legal}].evidence: expected a str, got list"),
    (lambda d: _set(d["verdicts"]["rows"][3], "verdict", 5),
     "verdicts.rows[3].verdict: expected a str, got int"),
]


@pytest.mark.parametrize("edit, message", ROW_KEY_EDITS,
                         ids=["verdict-states", "verdict-face", "verdict-verdict",
                              "legal-evidence", "verdict-row-list", "cusp-checked",
                              "cusp-row-null", "shared-evidence-list", "shared-evidence-str",
                              "shared-evidence-int", "shared-evidence-null", "evidence-list",
                              "cusp-rows-int", "verdict-rows-null", "verdict-face-int",
                              "verdict-states-null", "legal-evidence-list", "verdict-int"])
def test_verify_names_a_row_that_lacks_a_key(cert_p5, tmp_path, capsys, edit, message):
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    message = message.format(legal=_legal_row_index(doc))
    edit(doc)
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err


# (the repeated key, an edit of the seed-0 p6 report's bytes): copies that
# a reader keeping the last value of a repeated key takes for the report
REPEATED_KEYS = [
    ("verdicts", lambda text: '{"verdicts":{"rows":[]},' + text[1:]),
    ("pass", lambda text: text[:-2] + ',"pass":true}\n'),
    ("seeds", lambda text: text[:-2] + ',"seeds":{"root":0}}\n'),
    ("version", lambda text: '{"version":"7",' + text[1:]),
]


@pytest.mark.parametrize("key, edit", REPEATED_KEYS, ids=[key for key, _ in REPEATED_KEYS])
def test_verify_refuses_a_repeated_key(cert_p6, tmp_path, capsys, key, edit):
    """`verify` reads each object with its keys once: a copy of the report
    that repeats a key is an input error naming the key, though the last
    value of each key is the report's own."""
    text = document_to_json(certificate_to_document(cert_p6))
    copy = edit(text)
    assert json.loads(copy) == json.loads(text)
    path = tmp_path / "r.json"
    path.write_text(copy)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: repeated key {key!r}\n"


def test_certify_refuses_an_input_with_a_repeated_key(tmp_path, capsys):
    """The generic readers read each object with its keys once: an input
    document that repeats a key, in a facet or at its top level, is an
    input error naming the file and the key."""
    pol, moves, state = square_inputs()
    texts = {
        "polytope": json.dumps(pol).replace('{"id": "b"}', '{"id": "b", "id": "x"}'),
        "state": '{"a": "O", ' + json.dumps(state)[1:],
    }
    for name, text in texts.items():
        docs = {"polytope": json.dumps(pol), "moves": json.dumps(moves),
                "state": json.dumps(state), name: text}
        argv = ["certify", "generic"]
        for key, doc in docs.items():
            (tmp_path / f"{key}.json").write_text(doc)
            argv += [f"--{key}", str(tmp_path / f"{key}.json")]
        assert main(argv) == 2
        key = "id" if name == "polytope" else "a"
        assert (capsys.readouterr().err
                == f"input error: {tmp_path / name}.json: repeated key {key!r}\n")


def _failing_cusp_report():
    """Ideal vertex x of the square on facets a and c, which share a move:
    they never differ in status, so the cusp condition fails in every state
    and no boundary cube is all Regular.  The certificate and its report,
    edited to pass."""
    pol, moves, _ = square_inputs()
    pol["ideal_vertices"] = [{"label": "x", "incident": ["a", "c"]}]
    state = {"a": "I", "b": "O", "c": "I", "d": "O"}
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="fibration")
    assert [f for f in cert.failures if f.startswith("cusp ")] == [
        "cusp cusp:x: cusp condition fails"]
    doc = json.loads(emit_report(cert, "structured"))
    doc["pass"], doc["failures"] = True, []
    return cert, doc


def test_verify_rejects_a_boundary_cube_that_is_not_all_regular(tmp_path, capsys):
    """A report edited to pass is rejected at the cusp whose condition
    fails, named once, not once per state."""
    cert, doc = _failing_cusp_report()
    # the condition fails, so the plan lists no In part and the cusp no pair
    table = cert.S.cusps[0]
    assert not table.held and table.parts == ((),) * len(table.bad)
    assert doc["cusps"]["apexes"] == [[[]] * len(table.bad)] and table.bad
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL: cusp ")] == [
        "FAIL: cusp cusp:x: cusp condition fails"]


def test_verify_names_a_stray_apex_pair_on_a_cusp_whose_condition_fails(tmp_path, capsys):
    """The cusp plan lists no In part where the condition fails, so an apex
    pair there is one too many, and it is named by its cusp and face."""
    _, doc = _failing_cusp_report()
    doc["cusps"]["apexes"][0][0].append(["a", "c"])
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 1
    assert ("cusp cusp:x: face (): 1 apex pairs, want one per In part (0)"
            in capsys.readouterr().out)


def test_a_part_without_a_cone_apex_is_named_once_by_certify_and_verify(
        tmp_path, capsys, monkeypatch):
    """On a cusp whose condition holds, a part that the finder leaves with
    no apex fails the p5 certification with one failure, which `verify` of
    the report it writes gives in the same words, once; no row is named by
    its state."""
    S5, found = builtin_subject("p5"), certify_boundary_cube

    def no_first_in_apex(P, table):
        faces = found(P, table)
        if table is S5.cusps[0]:
            faces[0][0][1] = None
        return faces

    monkeypatch.setattr(morsecert.certify, "certify_boundary_cube", no_first_in_apex)
    message = (f"cusp {S5.P.ideal_vertices[0].id}: face {S5.cusps[0].bad[0][0]}: pair 0: "
               f"in apex None is no cone apex of its part")
    report = tmp_path / "r.json"
    assert main(["certify", "p5", "--format", "structured", "--output", str(report)]) == 1
    assert json.loads(report.read_text())["failures"] == [message]
    assert capsys.readouterr().out.endswith(f"CERTIFICATION FAILED ({message})\n")
    assert main(["verify", str(report)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL: cusp ")] == [
        f"FAIL: {message}"]


@pytest.fixture(scope="module")
def p5_report(cert_p5, tmp_path_factory):
    text = document_to_json(certificate_to_document(cert_p5))
    return text, tmp_path_factory.mktemp("tamper") / "report.json"


def _scalar_paths(value, path=()):
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return [path]
    return [p for k, child in children for p in _scalar_paths(child, path + (k,))]


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return f"{value}x"


MUTATIONS = (
    "scalar", "drop-step", "duplicate-step", "swap-steps",
    "drop-key", "add-key", "repoint", "apex",
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_verify_rejects_any_tampered_evidence(S5, p5_report, data):
    """One mutation of one evidence item, one claim->evidence reference or
    one cusp apex; the verifier must reject it (1) or call it malformed (2)."""
    text, path = p5_report
    doc = json.loads(text)
    items = doc["evidence"]
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if mutation == "repoint":
        rows = [row for row in doc["verdicts"]["rows"] if "evidence" in row]
        row = data.draw(st.sampled_from(rows), label="row")
        others = sorted(set(items) - {row["evidence"]}) + ["e" + "0" * 16]
        row["evidence"] = data.draw(st.sampled_from(others), label="new id")
    elif mutation == "apex":
        faces = [(c, i) for c, cusp in enumerate(doc["cusps"]["apexes"])
                 for i, pairs in enumerate(cusp) if pairs]
        c, i = data.draw(st.sampled_from(faces), label="face")
        pairs = doc["cusps"]["apexes"][c][i]
        j = data.draw(st.integers(0, len(pairs) - 1), label="pair")
        apexes, face = pairs[j], list(S5.cusps[c].bad[i][0])
        side = data.draw(st.integers(0, 1), label="side")
        # no cone apex of the part: none, a label that is no vertex, the
        # other part's apex (the parts are disjoint) or a defining facet
        wrong = [None, _changed(apexes[side]), apexes[1 - side]] + face
        apexes[side] = data.draw(st.sampled_from(wrong), label="new apex")
    elif mutation.endswith(("-step", "-steps")):
        seqs = [
            ev[key] for _, ev in sorted(items.items())
            for key in ("out_sequence", "in_sequence") if len(ev[key]) >= 2
        ]
        seq = data.draw(st.sampled_from(seqs), label="sequence")
        i = data.draw(st.integers(0, len(seq) - 1), label="step")
        if mutation == "drop-step":
            del seq[i]
        elif mutation == "duplicate-step":
            seq.insert(i, seq[i])
        else:
            j = data.draw(st.sampled_from([k for k in range(len(seq)) if k != i]))
            seq[i], seq[j] = seq[j], seq[i]
    else:
        ev = items[data.draw(st.sampled_from(sorted(items)), label="item")]
        if mutation == "scalar":
            *parent, last = data.draw(st.sampled_from(_scalar_paths(ev)), label="field")
            holder = ev
            for key in parent:
                holder = holder[key]
            holder[last] = _changed(holder[last])
        elif mutation == "drop-key":
            del ev[data.draw(st.sampled_from(sorted(ev)), label="key")]
        else:
            ev["note"] = 0
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) in (1, 2)


def _cite_as_shared(doc, row, eid):
    """Point critical `row` at a hollow shared item stored under `eid`."""
    doc["shared_evidence"][eid] = {
        "kind": "critical-shared", "ell": doc["shared_evidence"][row["evidence"]]["ell"],
        "asc_sequence": [], "desc_sequence": [],
    }
    row["evidence"] = eid


def test_verify_binds_critical_transforms(cert_p6):
    """A critical row cites the shared item of its ℓ, which the verifier
    binds and replays whatever the id: a legality item cited in its place
    fails.  P6 is certified as perfect, and a fibration has no Critical
    row."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p6)))
    row = _row(doc, "critical-pairs")
    legal = _row(doc, "inherited-totally-legal")["evidence"]
    # an id that passed as a legality item must still be bound and replayed
    # when it is cited as a shared item
    _cite_as_shared(doc, row, legal)
    doc["mode"] = "fibration"
    ok, msgs = verify_document(doc)
    assert not ok
    assert any("'fibration'" in m and "Critical(3)" in m for m in msgs)
    assert any(m.startswith("mode 'fibration'") for m in msgs)
    forged = f"face {tuple(row['face'])}: evidence {legal}"
    assert any(m.startswith(forged) and "hash" in m for m in msgs)
    assert any(m.startswith(forged) and "reach its core" in m for m in msgs)


# -- io --------------------------------------------------------------------------


def test_polytope_file_roundtrip(tmp_path, P6):
    pol, moves, state = p6_input_documents()
    write_json(tmp_path / "p.json", pol)
    write_json(tmp_path / "m.json", moves)
    write_json(tmp_path / "s.json", state)
    docs = [load_document(tmp_path / f"{key}.json", schema)
            for key, schema in (("p", POLYTOPE), ("m", MOVES), ("s", STATE))]
    assert docs == [pol, moves, state]
    S = subject_from_inputs(dict(zip(("polytope", "moves", "state"), docs)))
    assert S.P.facet_ids == P6.facet_ids
    assert S.P.adjacency_pairs == P6.adjacency_pairs
    assert len(S.P.ideal_vertices) == 27
    assert tuple(len(b) for b in S.m.blocks) == (6, 6, 6, 6, 3)
    assert len(S.states[0].universe) == 27


def test_polytope_doc_vector_adjacency_conflict():
    pol, _, _ = p6_input_documents()
    pol["adjacency"] = pol["adjacency"][:-1]  # remove one true pair
    with pytest.raises(InputError, match="disagrees"):
        polytope_from_doc(pol)


def test_polytope_doc_requires_adjacency_or_vectors():
    with pytest.raises(InputError, match="vectors or an adjacency"):
        polytope_from_doc(
            {"dimension": 2, "facets": [{"id": "a"}, {"id": "b"}]}
        )


def test_state_doc_validation():
    pol, _, _ = square_inputs()
    P = polytope_from_doc(pol)
    with pytest.raises(InputError, match="missing"):
        state_from_doc({"a": "I"}, P)
    with pytest.raises(InputError, match="'I' or 'O'"):
        state_from_doc({"a": "I", "b": "X", "c": "O", "d": "O"}, P)


def test_moves_doc_partition_check():
    pol, _, state = square_inputs()
    with pytest.raises(InputError, match="move system does not partition the facet set"):
        subject_from_inputs({"polytope": pol, "moves": [["a", "b"]], "state": state})


def _p6_shape(which, path, value):
    """The p6 input document `which` as JSON bytes, with the entry at `path`
    set to `value`: well-formed JSON of the wrong shape."""
    doc = entry = dict(zip(("polytope", "moves", "state"), p6_input_documents()))[which]
    *head, last = path
    for key in head:
        entry = entry[key]
    entry[last] = value
    return json.dumps(doc).encode()


# (id, file, path, value): one entry of a p6 input file given the wrong shape
SHAPE_ERRORS = [
    ("facet-int", "polytope", ("facets", 0), 5),
    ("coordinate-str", "polytope", ("facets", 0, "vector", 0), "a"),
    ("facets-int", "polytope", ("facets",), 5),
    ("adjacency-entry-int", "polytope", ("adjacency", 0), 5),
    ("ideal-vertex-int", "polytope", ("ideal_vertices", 0), 5),
    ("incident-int", "polytope", ("ideal_vertices", 0, "incident"), 5),
    ("block-holds-list", "moves", (0, 0), ["A"]),
    ("facet-id-list", "polytope", ("facets", 0, "id"), ["A"]),
    ("dimension-true", "polytope", ("dimension",), True),
    ("adjacency-entry-null", "polytope", ("adjacency", 0), None),
    ("facet-id-null", "polytope", ("facets", 0, "id"), None),
]


@pytest.mark.parametrize(
    "content, verify_code, json_path",
    [(lambda: b"\xff\xfe{}", 2, None), (lambda: b"[" * 200000 + b"]" * 200000, 2, None),
     # past the interpreter's digit limit for integer literals
     (lambda: b'{"version": "8", "seeds": {"root": ' + b"7" * 5000 + b"}}", 2, None)]
    # given to verify, an input object is a report of no version, a list no report
    + [(lambda e=e: _p6_shape(*e[1:]), 2 if e[1] == "moves" else 1, e[2]) for e in SHAPE_ERRORS],
    ids=["not-utf8", "nested-too-deep", "integer-too-long"] + [e[0] for e in SHAPE_ERRORS],
)
def test_cli_undecodable_input_is_an_input_error(tmp_path, capsys, content, verify_code,
                                                 json_path):
    """A file that does not decode, or that decodes to a document of the
    wrong shape, is an input error naming the file, whichever input it is
    given as; given as its own input, a document of the wrong shape is named
    by the JSON path of the value that breaks the input's schema."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content())
    assert main(["verify", str(bad)]) == verify_code
    pol, moves, state = square_inputs()
    files = {"polytope": pol, "moves": moves, "state": state}
    for name, doc in files.items():
        write_json(tmp_path / f"{name}.json", doc)
    for name in files:
        argv = ["certify", "generic"]
        for other in files:
            path = bad if other == name else tmp_path / f"{other}.json"
            argv += [f"--{other}", str(path)]
        assert main(argv) == 2, name
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(bad) in err
    assert "malformed document:" not in err
    if json_path is not None:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in json_path)
        assert f"{bad}: {where.lstrip('.')}: expected " in err, err


def test_parse_error_is_position_annotated(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2,,}')
    with pytest.raises(InputError, match=r":1:\d+:"):
        load_document(bad, POLYTOPE)


# -- cli -------------------------------------------------------------------------


def test_cli_info():
    assert main(["info", "p5"]) == 0


def test_cli_certify_verify_roundtrip(tmp_path, capsys):
    report = tmp_path / "p5.json"
    code = main([
        "certify", "p5", "--format", "structured", "--output", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "FIBRATION CERTIFIED" in out
    assert main(["verify", str(report)]) == 0


@pytest.mark.parametrize("name", ["missing/p5.json", "."], ids=["missing-directory", "directory"])
def test_cli_unwritable_output_is_an_input_error(tmp_path, capsys, name):
    """A report path that cannot be written, in a missing directory or a
    directory itself, is an input error naming the path."""
    path = tmp_path / name
    assert main(["certify", "p5", "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(path) in err


def test_cli_generic_and_exit_codes(tmp_path, capsys):
    pol, moves, state = square_inputs()
    write_json(tmp_path / "p.json", pol)
    write_json(tmp_path / "m.json", moves)
    write_json(tmp_path / "s.json", state)
    code = main([
        "certify", "generic",
        "--polytope", str(tmp_path / "p.json"),
        "--moves", str(tmp_path / "m.json"),
        "--state", str(tmp_path / "s.json"),
        "--mode", "fibration",
    ])
    assert code == 0
    # incompatible state: exit code 2 with the violating pair on stderr
    write_json(tmp_path / "p2.json", {
        "name": "sq",
        "dimension": 2,
        "facets": [{"id": f} for f in "abcd"],
        "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]],
    })
    code = main([
        "certify", "generic",
        "--polytope", str(tmp_path / "p2.json"),
        "--moves", str(tmp_path / "m.json"),
        "--state", str(tmp_path / "s.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "'c'" in err
    # unreadable report: exit code 2
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_verify_requires_the_consistency_identity(tmp_path, capsys):
    """The generic square with moves [a,b] [c,d] has chi 0 per copy against
    -1/2 from its two all-pairs vertices; a report edited to claim a pass
    must still be rejected for the identity."""
    pol, _, state = square_inputs()
    moves = [["a", "b"], ["c", "d"]]
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="perfect")
    doc = json.loads(emit_report(cert, "structured"))
    assert doc["euler"]["pass"] is False
    doc["pass"], doc["failures"] = True, []
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 1
    out = capsys.readouterr().out
    assert "consistency identity fails: chi 0 per copy, 2 critical vertices" in out


def test_verify_embedded_polytope_census_failure_is_an_input_error(tmp_path, capsys):
    """A generic report whose embedded square gains a diagonal has a clique
    of size 3, which no polytope of dimension 2 has: `verify` recomputes the
    face census and calls the report malformed, with no traceback.  The
    embedded state is made all In, so that it stays compatible with the
    same-move pair the diagonal joins and the census is what fails."""
    pol, moves, state = square_inputs()
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="fibration")
    doc = json.loads(emit_report(cert, "structured"))
    doc["inputs"]["polytope"]["adjacency"].append(["a", "c"])
    doc["inputs"]["state"] = dict.fromkeys("abcd", "I")
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 2
    assert "no cliques of size 3" in capsys.readouterr().err


def test_generic_structural_failures_are_input_errors(tmp_path, capsys):
    """A triangle breaks the face census, and a square's cusp with three
    incident facets the cube structure of its section.  On generic inputs
    both are input errors naming the census line or the cusp, in `certify`
    and in `verify` of a report that embeds them, never internal errors:
    `verify` refuses the subject where it builds it, before any row is read."""
    pol, moves, state = square_inputs()
    cusped = dict(pol, ideal_vertices=[{"label": "x", "incident": ["a", "b", "c"]}])
    triangle = {"name": "triangle", "dimension": 2, "facets": [{"id": f} for f in "abc"],
                "adjacency": [["a", "b"], ["b", "c"], ["a", "c"]]}
    cases = [
        ((triangle, [["a"], ["b"], ["c"]], {"a": "I", "b": "O", "c": "O"}),
         "no cliques of size 3"),
        ((cusped, moves, state), "cusp cusp:x: 3 incident facets"),
    ]
    for docs, named in cases:
        paths = [tmp_path / f"{key}.json" for key in ("p", "m", "s")]
        for path, doc in zip(paths, docs):
            write_json(path, doc)
        capsys.readouterr()
        assert main(["certify", "generic", "--polytope", str(paths[0]),
                     "--moves", str(paths[1]), "--state", str(paths[2])]) == 2
        assert named in capsys.readouterr().err
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="fibration")
    doc = json.loads(emit_report(cert, "structured"))
    doc["inputs"]["polytope"] = cusped
    doc["cusps"] = {"apexes": [[]], "rows": [{"ok": True, "all_regular": True}
                                             for _ in doc["orbit"]]}
    write_json(tmp_path / "r.json", doc)
    assert main(["verify", str(tmp_path / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert "input error: embedded inputs: cusp cusp:x: 3 incident facets" in err
    assert "FAIL:" not in out


def test_a_subject_past_the_move_limit_is_refused_before_its_orbit(tmp_path, capsys,
                                                                   monkeypatch):
    """The 8-cube with each of its 16 facets its own move has an orbit of
    2^16 states.  `certify generic` of it, and `verify` of a report that
    embeds it, each exit 2 within 1 s, naming the limit and the count,
    without listing the orbit."""
    import morsecert.kernel

    ids = [f"{axis}{side}" for axis in "abcdefgh" for side in "01"]
    pol = {"name": "8-cube", "dimension": 8, "facets": [{"id": f} for f in ids],
           "adjacency": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if a[0] != b[0]]}
    inputs = (pol, [[f] for f in ids], {f: "I" if f[1] == "0" else "O" for f in ids})
    files = _input_files(tmp_path, inputs)
    cube, moves, state = cube_inputs()
    doc = json.loads(emit_report(certify_generic(
        {"polytope": cube, "moves": moves, "state": state}), "structured"))
    doc["inputs"] = dict(zip(("polytope", "moves", "state"), inputs))
    write_json(tmp_path / "r.json", doc)
    monkeypatch.setattr(morsecert.kernel, "orbit", None)  # a call would be a TypeError
    message = f"16 moves, past the limit of {MAX_MOVES}: the orbit would have 2^16 states"
    for argv in (["certify", "generic", *files], ["verify", str(tmp_path / "r.json")]):
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - t0 < 1.0, argv
        assert f"input error: {'embedded inputs: ' * (argv[0] == 'verify')}{message}" in (
            capsys.readouterr().err)


# (id, change to the square's polytope document, the message naming it): a
# polytope document that describes no polytope, though its schema holds
NOT_A_POLYTOPE = [
    # the second x is no cube section, but a lookup by id finds the first
    ("repeated-ideal-label", {"ideal_vertices": [{"label": "x", "incident": ["a", "c"]},
                                                 {"label": "x", "incident": ["a", "b"]}]},
     "duplicate ideal vertex id 'cusp:x'"),
    # the census and the identity loop up to the dimension, which no cusp
    # section's size bounds here
    ("dimension-past-facets", {"dimension": 10 ** 6, "ideal_vertices": []},
     "dimension 1000000 must be a positive integer at most the facet count, 4"),
    ("self-adjacent-pair", {"adjacency": square_inputs()[0]["adjacency"] + [["a", "a"]]},
     "adjacency must be irreflexive: 'a'"),
]


@pytest.mark.parametrize("change, message", [e[1:] for e in NOT_A_POLYTOPE],
                         ids=[e[0] for e in NOT_A_POLYTOPE])
def test_a_polytope_document_that_describes_no_polytope_is_rejected(tmp_path, change,
                                                                     message):
    """`certify generic` of such a document, and `verify` of a report that
    embeds it, each end at once with an input error (exit 2) naming what is
    wrong, `verify` as one of the embedded inputs, and never accept.
    The report is the square's with one cusp x on a and c, given the changed
    document, x's cusp rows once per ideal vertex it lists and the digest of
    its inputs: a verifier that looked each cusp up by id would pass it."""
    pol, moves, state = square_inputs()
    pol["ideal_vertices"] = [{"label": "x", "incident": ["a", "c"]}]
    doc = json.loads(emit_report(certify_generic(
        {"polytope": pol, "moves": moves, "state": state}), "structured"))
    assert doc["pass"]
    doc["inputs"]["polytope"] = dict(pol, **change)
    for key in ("apexes", "rows"):
        doc["cusps"][key] *= len(doc["inputs"]["polytope"]["ideal_vertices"])
    doc["inputs_digest"] = _inputs_digest("generic", doc["inputs"])
    paths = {key: tmp_path / f"{key}.json" for key in ("polytope", "moves", "state", "r")}
    for key, value in (*doc["inputs"].items(), ("r", doc)):
        write_json(paths[key], value)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, named in (
        (["certify", "generic"] + [a for key in ("polytope", "moves", "state")
                                   for a in (f"--{key}", str(paths[key]))], message),
        (["verify", str(paths["r"])], f"input error: embedded inputs: {message}"),
    ):
        proc = subprocess.run([sys.executable, "-m", "morsecert", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (argv[0], proc.stdout, proc.stderr)
        assert named in proc.stderr, (argv[0], proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("parallel, message", [
    (0, f"0 worker processes, want from 1 to {MAX_PARALLEL}"),
    (-1, f"-1 worker processes, want from 1 to {MAX_PARALLEL}"),
    (MAX_PARALLEL + 1, f"{MAX_PARALLEL + 1} worker processes, past the limit of {MAX_PARALLEL}"),
], ids=["zero", "negative", "past-the-limit"])
def test_a_parallel_out_of_range_starts_no_process(tmp_path, monkeypatch, capsys, parallel,
                                                   message):
    """`--parallel` below 1 or past `MAX_PARALLEL` is an input error naming
    the value, refused before any worker starts: a call to `get_context`
    would fail."""
    import multiprocessing

    def no_pool(*args):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    for argv in (["certify", "p5"], ["certify", "generic", *_input_files(tmp_path, cube_inputs())]):
        assert main([*argv, "--parallel", str(parallel)]) == 2, argv
        assert capsys.readouterr().err == f"input error: {message}\n"
    assert MAX_PARALLEL >= 2  # the benchmark runs `--parallel 2`


# (id, document, its replacement, message): a document of the square that
# its schema admits and its reader refuses
REFUSED_BY_A_READER = [
    # vectors on one facet: never checked nor used, were they accepted
    ("polytope-vector-on-one-facet", "polytope",
     dict(square_inputs()[0], facets=[{"id": "a", "vector": [9] * 7}, {"id": "b"},
                                      {"id": "c"}, {"id": "d"}]),
     "facet 'b' has no vector: vectors must be given for every facet or for none"),
    ("polytope-short-vector-on-one-facet", "polytope",
     dict(square_inputs()[0], facets=[{"id": "a", "vector": [1, 2, 3]}, {"id": "b"},
                                      {"id": "c"}, {"id": "d"}]),
     "facet 'b' has no vector: vectors must be given for every facet or for none"),
    # a vector error names its facet, not its row
    ("polytope-short-vector", "polytope",
     dict(square_inputs()[0], facets=[{"id": f, "vector": [1, 2, 3] if f == "c" else [1] + [0] * 6}
                                      for f in "abcd"]),
     "facet 'c': expected 7 coordinates, got 3"),
    ("polytope-vector-not-unit", "polytope",
     dict(square_inputs()[0], facets=[{"id": f, "vector": [9] * 7 if f == "c" else [1] + [0] * 6}
                                      for f in "abcd"]),
     "facet 'c': vector (9, 9, 9, 9, 9, 9, 9) has self-product 405, expected 1"),
    ("moves-not-a-partition", "moves", [["a", "c"]],
     "move system does not partition the facet set"),
    ("moves-empty-block", "moves", [["a", "c"], ["b", "d"], []], "move block 2 is empty"),
    ("moves-overlap", "moves", [["a", "c"], ["b", "c", "d"]], "move blocks are not disjoint"),
    ("state-missing-facet", "state", {"a": "I", "b": "I", "c": "O"},
     "state missing facets: ['d']"),
    ("state-unknown-facet", "state", {"a": "I", "b": "I", "c": "O", "d": "O", "e": "I"},
     "state names unknown facets: ['e']"),
    ("state-not-in-or-out", "state", {"a": "I", "b": "X", "c": "O", "d": "O"},
     "state of 'b' must be 'I' or 'O', got 'X'"),
]


@pytest.mark.parametrize("key, doc, message", [e[1:] for e in REFUSED_BY_A_READER],
                         ids=[e[0] for e in REFUSED_BY_A_READER])
def test_an_input_a_reader_refuses_is_the_same_input_error_on_both_sides(
        tmp_path, capsys, key, doc, message):
    """`certify generic` of such a document, and `verify` of the square's
    report embedding it with the digest of its inputs, both exit 2 with the
    reader's message, `verify`'s as one of the embedded inputs."""
    inputs = dict(zip(("polytope", "moves", "state"), square_inputs()))
    report = json.loads(emit_report(certify_generic(inputs, mode="fibration"), "structured"))
    inputs[key] = report["inputs"][key] = doc
    report["inputs_digest"] = _inputs_digest("generic", inputs)
    write_json(tmp_path / "r.json", report)
    files = _input_files(tmp_path, inputs.values())
    for argv, named in ((["certify", "generic", *files], message),
                        (["verify", str(tmp_path / "r.json")], f"embedded inputs: {message}")):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"input error: {named}\n")


def test_a_generic_report_embeds_its_files_as_parsed(tmp_path):
    """The report of `certify generic` embeds the three documents as read
    from their files, and nothing else under `inputs`."""
    files = _input_files(tmp_path, cube_inputs())
    out = tmp_path / "r.json"
    assert main(["certify", "generic", *files, "--format", "structured",
                 "--output", str(out)]) == 0
    want = {key: json.loads((tmp_path / f"{key}.json").read_text())
            for key in ("polytope", "moves", "state")}
    assert json.loads(out.read_text())["inputs"] == want


def test_cli_parallel_flag(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert main(["certify", "p5", "--format", "structured", "--output", str(r1)]) == 0
    assert main(["certify", "p5", "--parallel", "2",
                 "--format", "structured", "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_detects_wrong_critical_index(cert_p6):
    doc = json.loads(document_to_json(certificate_to_document(cert_p6)))
    eid = _row(doc, "critical-pairs")["evidence"]
    doc["shared_evidence"][eid]["ell"] = 2
    ok, msgs = verify_document(doc)
    assert not ok
    assert any("does not match" in m or "mismatch" in m for m in msgs)


def test_certify_generic_honest_failure(tmp_path):
    """Non-sparse moves on the square: two index-1 classes per copy but zero
    Euler characteristic, so the perfect-Morse identity honestly fails."""
    pol = {
        "name": "square",
        "dimension": 2,
        "facets": [{"id": f} for f in "abcd"],
        "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
    }
    moves = [["a", "b"], ["c", "d"]]  # adjacent same-move pairs
    state = {"a": "I", "b": "I", "c": "O", "d": "O"}  # compatible
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="perfect")
    assert not cert.passed
    assert cert.euler.chi_per_copy == 0 and cert.euler.critical_count == 2
    assert any("identity" in f for f in cert.failures)
    crit = [r for r in verdict_rows(cert) if r["verdict"] == "Critical(1)"]
    assert len(crit) == 2  # the two monochromatic vertices
    # a failing certificate is not verifiable
    ok, _ = verify_document(json.loads(emit_report(cert, "structured")))
    assert not ok
    # CLI path: certification failure exits 1
    write_json(tmp_path / "p.json", pol)
    write_json(tmp_path / "m.json", moves)
    write_json(tmp_path / "s.json", state)
    code = main([
        "certify", "generic",
        "--polytope", str(tmp_path / "p.json"),
        "--moves", str(tmp_path / "m.json"),
        "--state", str(tmp_path / "s.json"),
        "--mode", "perfect",
    ])
    assert code == 1
