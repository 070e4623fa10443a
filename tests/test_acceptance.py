"""Acceptance suite: one test per criterion, every tolerance exact.

Criteria 1-9 cover the full certification pipelines, structural counts,
the bad-face census, oracle agreement, the cusp suite, the consistency
identity, certificate replay/determinism, and the explicit collapse-order
regression.  Each test prints a PASS line for the record.
"""

import json
import time

from morsecert.certify import certify_generic
from morsecert.complexes import full_subcomplex, replay_collapse
from morsecert.polytopes import FaceHandle, dual_complex, enumerate_faces
from morsecert.report import (
    certificate_to_document, document_to_json, emit_report, euler_identity,
)
from morsecert.states import cone_apex, inherited_state
from morsecert.verify import verify_document

from oracles import (
    build_cube_model,
    coface_membership_oracle,
    cone_collapse_pairs,
    monochromatic_factor_mins,
    out_facets,
    remove_open_star,
    star_collapse_pairs,
    star_vertex_apexes,
    verdict_rows,
    vertex_link,
)
from test_certify import p6_input_documents

REFERENCE_OUT_12 = frozenset({
    "1", "1-i+j-k", "1+i+j-k",
    "i", "1+i+j+k", "-1+i+j+k",
    "j", "-1-i+j+k", "-1-i+j-k",
    "k", "1-i-j+k", "1-i+j+k",
})


def test_criterion_1_p6_perfect_morse(cert_p6):
    """All clique faces x 32 balanced states: Regular or Critical(3)."""
    t0 = time.perf_counter()
    assert cert_p6.passed, cert_p6.failures
    assert len(cert_p6.orbit_serials) == 32
    verdicts = {r["verdict"] for r in verdict_rows(cert_p6)}
    assert verdicts == {"Regular", "Critical(3)"}
    assert not any(r["verdict"] == "Unknown" for r in verdict_rows(cert_p6))
    # full coverage: 2764 faces (including the 72 vertices) x 32 states
    faces = {tuple(r["face"]) for r in verdict_rows(cert_p6)}
    assert len(faces) == 2764
    assert len([f for f in faces if len(f) == 6]) == 72
    per_face = {}
    for r in verdict_rows(cert_p6):
        per_face.setdefault(tuple(r["face"]), []).extend(r["states"])
    assert all(sorted(v) == list(range(32)) for v in per_face.values())
    # a good row carries its face, verdict and states alone, its witness
    # being in the one list of witness moves; every bad-face row cites
    # replayable evidence and carries nothing else: a critical row the
    # shared item of its ℓ, a Regular row a legality item
    good = 0
    for r in verdict_rows(cert_p6):
        if r.keys() == {"face", "verdict", "states"}:
            assert r["verdict"] == "Regular" and r["states"] == list(range(32))
            good += 1
            continue
        assert r.keys() == {"face", "verdict", "states", "evidence"}
        shared = r["verdict"].startswith("Critical(")
        assert r["evidence"] in (cert_p6.shared_evidence if shared else cert_p6.evidence)
    report = json.loads(emit_report(cert_p6, "structured"))
    assert good == len(report["verdicts"]["witness_moves"]) == 2699
    runtime = cert_p6.timings["total"]
    assert runtime < 300, f"pipeline took {runtime:.0f}s, budget 300s"
    print(f"\nPASS criterion 1: P6 perfect Morse certified "
          f"(pipeline {runtime:.1f}s, check {time.perf_counter() - t0:.1f}s)")


def test_criterion_2_p5_fibration(cert_p5):
    """Zero Critical verdicts across the full 16-state orbit."""
    assert cert_p5.passed, cert_p5.failures
    assert len(cert_p5.orbit_serials) == 16
    assert all(r["verdict"] == "Regular" for r in verdict_rows(cert_p5))
    runtime = cert_p5.timings["total"]
    assert runtime < 60, f"pipeline took {runtime:.0f}s, budget 60s"
    print(f"\nPASS criterion 2: P5 fibration certified ({runtime:.1f}s)")


def test_criterion_3_structural_counts(P6, P5):
    assert len(P6.facets) == 27
    assert all(P6.degree(f) == 16 for f in P6.facet_ids)
    assert P6.clique_count(6) == 72
    assert P6.clique_count(7) == 0
    assert len(P6.ideal_vertices) == 27
    assert all(len(iv.incident) == 10 for iv in P6.ideal_vertices)
    assert len(P5.facets) == 16
    assert P5.clique_count(5) == 16
    print("\nPASS criterion 3: structural counts exact "
          "(27/16-regular/72/0/27x10; 16/16)")


def test_criterion_4_bad_face_classification(cert_p6):
    sigs = set(cert_p6.S.bad_faces)
    assert sigs == {(2,), (3,), (2, 2), (2, 2, 2)}
    assert all(sum(sig) != 5 for sig in sigs)
    print("\nPASS criterion 4: bad-face signatures exactly "
          "{(2),(3),(2,2),(2,2,2)}, none at codimension 5")


def test_criterion_5_oracle_equivalence(P6, M6, BAL6):
    """Face-link membership matches the monochromatic factor rule, and the
    coface oracle matches the inherited-status rule, for every face and one
    representative state per inherited class."""
    t0 = time.perf_counter()
    n_models = n_faces_checked = n_cofacets = 0
    for codim in range(0, 7):
        for F in enumerate_faces(P6, codim):
            groups = {}
            for idx, s in enumerate(BAL6):
                serial = inherited_state(P6, M6, s, F).serial()
                groups.setdefault(serial, []).append(idx)
            D = dual_complex(P6, F)
            for serial in sorted(groups):
                s = BAL6[groups[serial][0]]
                if codim >= 1:
                    model = build_cube_model(P6, M6, s, F)
                    lift = model.lift
                    n_models += 1
                    for fid in lift.proper_faces():
                        oracle_asc = lift.lift_of_face(fid).base > 0
                        fast_asc = not all(monochromatic_factor_mins(lift, fid))
                        assert oracle_asc == fast_asc, (F, fid)
                        n_faces_checked += 1
                out = out_facets(inherited_state(P6, M6, s, F))
                for g in D.vertices:
                    F2 = FaceHandle(F.defining | {g})
                    want_asc = g in out
                    got = coface_membership_oracle(P6, M6, s, F, F2)
                    assert got == want_asc, (F, g)
                    n_cofacets += 1
    dt = time.perf_counter() - t0
    assert dt < 600, f"sweep took {dt:.0f}s, budget 600s"
    print(f"\nPASS criterion 5: oracle equivalence on {n_models} cube models "
          f"({n_faces_checked} face memberships, {n_cofacets} cofacet "
          f"memberships) in {dt:.0f}s")


def test_criterion_6_cusp_suite(cert_p6, S6):
    rows = cert_p6.cusp_rows
    assert len(rows) == 27 * 32
    assert all(r["ok"] for r in rows)
    assert all(r["all_regular"] for r in rows)
    # one apex list per bad face of the cusp's section, holding one pair per
    # distinct In part of the face over the 32 states, in order of first
    # occurrence; rows in (cusp, state) order
    assert [len(faces) for faces in cert_p6.cusp_apexes] == [len(t.bad) for t in S6.cusps]
    for faces, table in zip(cert_p6.cusp_apexes, S6.cusps):
        for pairs, (_, dual, free) in zip(faces, table.bad):
            parts = list(dict.fromkeys(free & s_in for s_in in S6.in_masks))
            assert len(pairs) == len(parts)
            for (out_apex, in_apex), inn in zip(pairs, parts):
                assert out_apex == cone_apex(S6.P, dual & ~inn)
                assert in_apex == cone_apex(S6.P, inn)
    print("\nPASS criterion 6: all 27 cusps x 32 states satisfy the "
          "two-facet condition; all boundary 5-cubes certify Regular")


def test_criterion_7_euler_identity(S6, S5):
    rec6 = euler_identity(S6)
    assert rec6.passed
    assert rec6.chi_per_copy == -rec6.critical_per_copy
    rec5 = euler_identity(S5)
    assert rec5.chi_per_copy == 0
    print(f"\nPASS criterion 7: chi per copy {rec6.chi_per_copy} == "
          f"-{rec6.critical_per_copy} for P6; chi per copy 0 for P5")


def test_criterion_8_replay_and_determinism(cert_p6):
    """`verify` re-validates every certificate without search; reports are
    byte-identical across runs with a fixed seed."""
    t0 = time.perf_counter()
    text = document_to_json(certificate_to_document(cert_p6))
    ok, msgs = verify_document(json.loads(text))
    assert ok, msgs[:5]
    # a fresh run with the same seed yields the same bytes
    from morsecert.certify import certify_p6 as rerun

    again = document_to_json(certificate_to_document(rerun()))
    assert text == again
    print(f"\nPASS criterion 8: full replay + byte-identical reports "
          f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_9_explicit_collapse_order(P6, BAL6):
    """The explicit collapse order for the distinguished balanced state
    replays as valid elementary collapses: A, B, C collapse onto cone links,
    then one more vertex onto the cone on j, then the cone on 1+i+j+k."""
    D = dual_complex(P6, FaceHandle(frozenset()))
    sigma_15 = full_subcomplex(D, REFERENCE_OUT_12 | {"A", "B", "C"})
    sigma_12 = full_subcomplex(D, REFERENCE_OUT_12)

    sequence = []
    K = sigma_15
    for v, apex in (("A", "1-i+j+k"), ("B", "1+i+j+k"), ("C", "j")):
        link = vertex_link(K, v)
        assert apex in star_vertex_apexes(link), (v, apex)
        sequence += star_collapse_pairs(K, v, cone_collapse_pairs(link, apex), apex)
        K = remove_open_star(K, v)
    assert replay_collapse(sigma_15, sequence) == sigma_12

    sequence2 = []
    link = vertex_link(sigma_12, "-1-i+j-k")
    assert set(link.vertices) == {
        "j", "1-i+j-k", "-1-i+j+k", "1+i+j-k", "-1+i+j+k", "1-i+j+k"
    }
    assert "j" in star_vertex_apexes(link)
    sequence2 += star_collapse_pairs(
        sigma_12, "-1-i+j-k", cone_collapse_pairs(link, "j"), "j"
    )
    K = remove_open_star(sigma_12, "-1-i+j-k")
    assert "1+i+j+k" in star_vertex_apexes(K)
    sequence2 += cone_collapse_pairs(K, "1+i+j+k")
    core = replay_collapse(sigma_12, sequence2)
    assert core.vertices == ("1+i+j+k",)
    print("\nPASS criterion 9: the recorded collapse order replays "
          f"({len(sequence)} + {len(sequence2)} elementary collapses)")


def test_roundtrip_generic_matches_builtin(cert_p6, tmp_path):
    """Serialising the built-in inputs through the generic path reproduces
    the same verdict, cusp, orbit and evidence tables."""
    pol, moves, state = p6_input_documents()
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state}, mode="perfect")
    assert cert.passed
    a = certificate_to_document(cert_p6)
    b = certificate_to_document(cert)
    for key in ("verdicts", "cusps", "euler", "moves", "orbit",
                "evidence", "shared_evidence"):
        assert a[key] == b[key], key
    assert a["f_vector"]["clique_counts"] == b["f_vector"]["clique_counts"]
    assert a["bad_faces"]["signatures"] == b["bad_faces"]["signatures"]
    ok, msgs = verify_document(json.loads(emit_report(cert, "structured")))
    assert ok, msgs[:3]
    print("\nPASS round-trip: generic pipeline reproduces the built-in tables")
