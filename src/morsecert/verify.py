"""Standalone re-validation of structured reports, with zero search.

Every combinatorial table is recomputed from the deterministic constructions
and compared, and every collapse sequence and isomorphism witness is replayed
step by step.  Nothing here invokes a collapse search, so verification cost
is a small multiple of replay cost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .complexes import betti_mod2, full_subcomplex, replay_collapse
from .errors import InputError
from .io import load_json, moves_from_doc, polytope_from_doc, state_from_doc
from .links import (
    build_cube_model,
    canonical_pairs_links,
    canonical_pairs_transform,
    check_cusp_condition,
)
from .polytopes import (
    FaceHandle,
    Polytope,
    build_cusp_section,
    build_p5,
    build_p6,
    dual_complex,
    enumerate_faces,
)
from .report import REPORT_VERSION
from .states import (
    all_pairs_index,
    balanced_states_p5,
    balanced_states_p6,
    classify_bad_faces,
    good_witness,
    inherited_state,
    is_good_face,
    move_system_p5,
    move_system_p6,
    orbit,
)


def _seq_from_json(seq, as_int: bool) -> list:
    out = []
    for face, cof in seq:
        conv = (lambda v: v) if not as_int else int
        out.append((frozenset(map(conv, face)), frozenset(map(conv, cof))))
    return out


class _Verifier:
    def __init__(self, doc: dict):
        self.doc = doc
        self.messages: List[str] = []
        self._legality_ok: Dict[str, bool] = {}
        self._shared_ok: Dict[str, bool] = {}
        self._sections: Dict[str, Polytope] = {}

    def fail(self, msg: str):
        self.messages.append(msg)

    # -- context ------------------------------------------------------------

    def build_context(self):
        subject = self.doc.get("subject")
        if subject == "P6_perfect_morse":
            P = build_p6()
            m = move_system_p6()
            states = balanced_states_p6(P)
        elif subject == "P5_fibration":
            P = build_p5()
            m = move_system_p5(P)
            states = balanced_states_p5(P)
        elif subject == "generic":
            inputs = self.doc.get("inputs")
            if not inputs:
                raise InputError("generic report carries no embedded inputs")
            P = polytope_from_doc(inputs["polytope"])
            m = moves_from_doc(inputs["moves"], P)
            s0 = state_from_doc(inputs["state"], P)
            states = orbit(s0, m)
        else:
            raise InputError(f"unknown subject {subject!r}")
        self.P, self.m, self.states = P, m, states

    # -- cheap table recomputation -------------------------------------------

    def check_tables(self):
        doc, P, m = self.doc, self.P, self.m
        if list(doc["polytope"]["facets"]) != list(P.facet_ids):
            self.fail("facet list mismatch")
        if [sorted(b) for b in self.m.blocks] != doc["moves"]:
            self.fail("move blocks mismatch")
        if [s.serial() for s in self.states] != doc["orbit"]:
            self.fail("orbit serialisation mismatch")
        counts = [P.clique_count(k) for k in range(1, P.dimension + 2)]
        if counts != doc["f_vector"]["clique_counts"]:
            self.fail("clique counts mismatch")
        bad = classify_bad_faces(P, m)
        got = {
            ",".join(map(str, sig)): [sorted(F.defining) for F in faces]
            for sig, faces in bad.items()
        }
        want = {
            k: [list(f) for f in v]
            for k, v in doc["bad_faces"]["signatures"].items()
        }
        if got != want:
            self.fail("bad-face table mismatch")
        from .certify import euler_identity

        e = euler_identity(P, m)
        ed = doc["euler"]
        if (
            [e.chi_per_copy.numerator, e.chi_per_copy.denominator]
            != ed["chi_per_copy"]
            or e.critical_count != ed["critical_count"]
            or e.passed != ed["pass"]
        ):
            self.fail("consistency identity mismatch")

    # -- evidence replay -----------------------------------------------------

    def _host_polytope(self, host: dict) -> Polytope:
        if host["type"] == "ambient":
            return self.P
        cusp = host["cusp"]
        H = self._sections.get(cusp)
        if H is None:
            H = build_cusp_section(self.P, cusp)
            self._sections[cusp] = H
        return H

    def replay_legality(self, eid: str) -> bool:
        ok = self._legality_ok.get(eid)
        if ok is not None:
            return ok
        ev = self.doc["evidence"].get(eid)
        ok = False
        if ev is None or ev.get("kind") != "legality":
            self.fail(f"evidence {eid} missing or wrong kind")
        else:
            ok = self._replay_legality_payload(eid, ev)
        self._legality_ok[eid] = ok
        return ok

    def _replay_legality_payload(self, eid: str, ev: dict) -> bool:
        host = self._host_polytope(ev["host"])
        D = dual_complex(host, FaceHandle(frozenset(ev["face"])))
        out_ids, in_ids = ev["out_vertices"], ev["in_vertices"]
        if sorted(out_ids + in_ids) != list(D.vertices):
            self.fail(f"evidence {eid}: vertex split does not match the dual")
            return False
        ok = True
        for ids, seq_key, betti_key in (
            (out_ids, "out_sequence", "betti_out"),
            (in_ids, "in_sequence", "betti_in"),
        ):
            sigma = full_subcomplex(D, ids)
            if list(betti_mod2(sigma, max(D.dim, 0))) != ev[betti_key]:
                self.fail(f"evidence {eid}: Betti numbers do not match")
                ok = False
            try:
                core = replay_collapse(sigma, _seq_from_json(ev[seq_key], False))
            except InputError as exc:
                self.fail(f"evidence {eid}: {seq_key} does not replay: {exc}")
                ok = False
                continue
            if len(core.vertices) != 1:
                self.fail(f"evidence {eid}: {seq_key} does not reach a point")
                ok = False
        return ok

    def replay_critical_shared(self, sid: str) -> bool:
        ok = self._shared_ok.get(sid)
        if ok is not None:
            return ok
        sp = self.doc["shared_evidence"].get(sid)
        ok = True
        if sp is None or sp.get("kind") != "critical-shared":
            self.fail(f"shared evidence {sid} missing or wrong kind")
            ok = False
        else:
            for (K, target), name, seq_key in zip(
                canonical_pairs_links(sp["ell"]),
                ("ascending", "descending"),
                ("asc_sequence", "desc_sequence"),
            ):
                try:
                    core = replay_collapse(K, _seq_from_json(sp[seq_key], True))
                except InputError as exc:
                    self.fail(f"shared {sid}: {name} sequence invalid: {exc}")
                    ok = False
                    continue
                if core != target:
                    self.fail(
                        f"shared {sid}: {name} core is not the subdivided "
                        "cross-polytope boundary"
                    )
                    ok = False
        self._shared_ok[sid] = ok
        return ok

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        doc, P, m, states = self.doc, self.P, self.m, self.states
        rows = doc["verdicts"]["rows"]
        coverage: Dict[Tuple[str, ...], list] = {}
        want_faces = set()
        for codim in range(0, P.dimension + 1):
            for F in enumerate_faces(P, codim):
                want_faces.add(F.sorted_ids())
        for row in rows:
            face = tuple(row["face"])
            coverage.setdefault(face, []).extend(row["states"])
            if face not in want_faces:
                self.fail(f"verdict row for unknown face {face}")
                continue
            F = FaceHandle(frozenset(face))
            branch = row["branch"]
            if branch == "good-face":
                witness = good_witness(m, F)
                if witness is None:
                    self.fail(f"face {face} claimed good but is not")
                elif row["witness_move"] != witness:
                    self.fail(f"good face {face}: witness move "
                              f"{row['witness_move']!r} != {witness}")
                elif row["verdict"] != "Regular":
                    self.fail(f"good face {face} must be Regular")
            elif branch == "inherited-totally-legal":
                serial = row["class"].split(":", 1)[1]
                for idx in row["states"]:
                    if inherited_state(P, m, states[idx], F).serial() != serial:
                        self.fail(
                            f"face {face}: state {idx} not in inherited class"
                        )
                        break
                if not self.replay_legality(row["evidence"]):
                    self.fail(f"face {face}: legality evidence failed")
                ev = doc["evidence"].get(row["evidence"], {})
                inh = inherited_state(P, m, states[row["states"][0]], F)
                if sorted(ev.get("out_vertices", [])) != sorted(inh.out_facets):
                    self.fail(f"face {face}: evidence split != inherited state")
            elif branch == "critical-pairs":
                ell = all_pairs_index(P, m, F)
                if ell is None:
                    self.fail(f"face {face} is not an all-pairs top vertex")
                    continue
                ev = doc["evidence"].get(row["evidence"])
                if ev is None:
                    self.fail(f"face {face}: missing critical evidence")
                    continue
                if ev["ell"] != ell:
                    self.fail(f"face {face}: evidence index {ev['ell']} does "
                              f"not match the {ell}-pair signature")
                    continue
                if row["verdict"] != f"Critical({ev['ell']})":
                    self.fail(f"face {face}: verdict/index mismatch")
                if not self.replay_critical_shared(ev["shared"]):
                    self.fail(f"face {face}: shared certificates failed")
                for idx in row["states"]:
                    try:
                        canonical_pairs_transform(
                            build_cube_model(P, m, states[idx], F)
                        )
                    except Exception as exc:
                        self.fail(
                            f"face {face}: state {idx} does not match the "
                            f"canonical cube: {exc}"
                        )
                        break
            else:
                self.fail(f"face {face}: unverifiable branch {branch!r}")
        if set(coverage) != want_faces:
            self.fail("verdict table does not cover every face")
        n_states = len(states)
        for face, idxs in coverage.items():
            if sorted(idxs) != list(range(n_states)):
                self.fail(f"face {face}: states covered {len(idxs)} != {n_states}")
                break

    # -- cusps -------------------------------------------------------------------

    def check_cusps(self):
        doc, P, m, states = self.doc, self.P, self.m, self.states
        rows = doc["cusps"]["rows"]
        want = {(iv.id, idx) for iv in P.ideal_vertices for idx in range(len(states))}
        got = {(r["cusp"], r["state"]) for r in rows}
        if want != got:
            self.fail("cusp table does not cover every (cusp, state) pair")
        goodness: Dict[str, dict] = {}
        for row in rows:
            cusp, idx = row["cusp"], row["state"]
            cond = check_cusp_condition(P, states[idx], cusp, m)
            if not cond.ok:
                self.fail(f"cusp {cusp} state {idx}: condition does not hold")
                continue
            if not row["ok"] or row["move"] != cond.move_index or tuple(
                row["pair"]
            ) != cond.pair:
                self.fail(f"cusp {cusp} state {idx}: recorded witness mismatch")
            if not row["all_regular"]:
                self.fail(f"cusp {cusp} state {idx}: not all Regular")
                continue
            H = self._host_polytope({"type": "cusp", "cusp": cusp})
            gd = goodness.get(cusp)
            if gd is None:
                mH = m.restrict(H.facet_ids)
                gd = {"moves": mH, "good": {}, "n": 0}
                for codim in range(0, H.dimension + 1):
                    for F in enumerate_faces(H, codim):
                        gd["good"][F.sorted_ids()] = is_good_face(mH, F)
                        gd["n"] += 1
                goodness[cusp] = gd
            checked = {tuple(face): (branch, eid) for face, branch, eid in row["checked"]}
            non_good = {f for f, g in gd["good"].items() if not g}
            if set(checked) != non_good:
                self.fail(f"cusp {cusp} state {idx}: checked faces != bad faces")
                continue
            if row["n_faces"] != gd["n"] or row["n_good"] != gd["n"] - len(non_good):
                self.fail(f"cusp {cusp} state {idx}: face counts mismatch")
            mH = gd["moves"]
            sH = states[idx].restrict(H.facet_ids)
            for face, (branch, eid) in sorted(checked.items()):
                if branch != "inherited-totally-legal" or eid is None:
                    self.fail(
                        f"cusp {cusp} state {idx}: face {face} branch {branch}"
                    )
                    continue
                if not self.replay_legality(eid):
                    self.fail(f"cusp {cusp} state {idx}: evidence {eid} failed")
                    continue
                ev = doc["evidence"][eid]
                inh = inherited_state(H, mH, sH, FaceHandle(frozenset(face)))
                if sorted(ev["out_vertices"]) != sorted(inh.out_facets) or list(
                    ev["face"]
                ) != list(face):
                    self.fail(
                        f"cusp {cusp} state {idx}: face {face} evidence does "
                        "not match the inherited state"
                    )

    def run(self) -> Tuple[bool, List[str]]:
        if self.doc.get("version") != REPORT_VERSION:
            self.fail(f"unsupported report version {self.doc.get('version')!r}")
            return False, self.messages
        try:
            self.build_context()
        except InputError as exc:
            self.fail(str(exc))
            return False, self.messages
        self.check_tables()
        self.check_verdicts()
        self.check_cusps()
        if self.doc.get("pass") is not True:
            self.fail("report does not claim a passing certification")
        return not self.messages, self.messages


def verify_document(doc: dict) -> Tuple[bool, List[str]]:
    """Re-validate a structured report; returns (ok, failure messages).

    A document that is not an object, or whose fields have the wrong shape
    for the checks, raises InputError.
    """
    if not isinstance(doc, dict):
        raise InputError("report must be a JSON object")
    try:
        return _Verifier(doc).run()
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def verify_report_file(path) -> Tuple[bool, List[str]]:
    return verify_document(load_json(path))
