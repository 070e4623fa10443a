"""Standalone re-validation of structured reports, with zero search.

Every deterministic table is recomputed and compared with what its one
writer, `certify.report_tables`, makes of the recomputation.  Every
dismantling order is checked step by step on adjacency masks: the facet
graph for a legality part, the comparability graph of the face poset for a
shared critical link.  A cusp's cone apex stands for a one-round order,
which holds exactly when the apex is in the part and the part in its closed
neighbourhood.  Every elementary collapse sequence, a fallback that the
built-in subjects never use, and every isomorphism witness is replayed.
Nothing here invokes a collapse search, so verification cost is a small
multiple of replay cost.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Dict, List, Tuple

from .certify import (
    SEQUENCE_KEYS,
    _eid,
    _inputs_digest,
    euler_identity,
    legality_header,
    report_tables,
    shared_header,
    verdict_allowed,
)
from .complexes import replay_collapse
from .errors import InputError, InternalError, StructuralError
from .io import load_json, moves_from_doc, polytope_from_doc, state_from_doc
from .links import (
    canonical_pairs_graphs,
    canonical_pairs_links,
    check_cusp_condition,
    critical_transform,
    cusp_table,
)
from .polytopes import (
    FaceHandle,
    build_p5,
    build_p6,
    enumerate_faces,
    f_vector_check,
)
from .report import CUSP_ROW_KEYS, REPORT_KEYS, REPORT_VERSION, ROW_KEYS
from .states import (
    State,
    all_pairs_index,
    balanced_states_p5,
    balanced_states_p6,
    certificate_problem,
    classify_bad_faces,
    dismantling_problem,
    face_masks,
    facet_mask,
    good_witness,
    is_cone_apex,
    move_system_p5,
    move_system_p6,
    orbit,
    sequence_form,
    split_state,
)

# The row fields that only some branches use; every other branch must leave
# them null.
BRANCH_FIELDS = {
    "good-face": ("witness_move",),
    "inherited-totally-legal": ("evidence",),
    "critical-pairs": ("evidence", "transform"),
}
ROW_FIELDS = ("witness_move", "evidence", "transform")


class _Verifier:
    def __init__(self, doc: dict):
        self.doc = doc
        self.messages: List[str] = []
        self._evidence_ok: Dict[Tuple[str, str], bool] = {}
        # this run's `critical_transform` memo
        self._transforms: dict = {}

    def fail(self, msg: str):
        self.messages.append(msg)

    def _keys(self, obj: dict, keys: frozenset, where: str):
        """`obj` must carry exactly `keys`: a missing key makes the report
        malformed, an unknown one is rejected."""
        if obj.keys() == keys:
            return
        missing = sorted(keys - obj.keys())
        if missing:
            raise InputError(f"{where}: missing key {', '.join(missing)}")
        unknown = sorted(obj.keys() - keys)
        if unknown:
            self.fail(f"{where}: unknown key {', '.join(map(repr, unknown))}")

    # -- context ------------------------------------------------------------

    def build_context(self):
        subject, mode = self.doc.get("subject"), self.doc.get("mode")
        modes, inputs = ("perfect", "fibration"), None
        if subject == "P6_perfect_morse":
            P = build_p6()
            m = move_system_p6()
            states = balanced_states_p6(P)
            modes, tag = ("perfect",), "p6"
        elif subject == "P5_fibration":
            P = build_p5()
            m = move_system_p5(P)
            states = balanced_states_p5(P)
            modes, tag = ("fibration",), "p5"
        elif subject == "generic":
            inputs, tag = self.doc.get("inputs"), "generic"
            if not inputs:
                raise InputError("generic report carries no embedded inputs")
            P = polytope_from_doc(inputs["polytope"])
            m = moves_from_doc(inputs["moves"], P)
            s0 = state_from_doc(inputs["state"], P)
            states = orbit(s0, m)
        else:
            raise InputError(f"unknown subject {subject!r}")
        if mode not in modes:
            self.fail(f"mode {mode!r}: subject {subject} must be certified in "
                      f"{' or '.join(modes)} mode")
        self.P, self.m, self.states, self.mode = P, m, states, mode
        self.digest = _inputs_digest(tag, inputs)

    # -- cheap table recomputation -------------------------------------------

    def check_tables(self):
        P, m = self.P, self.m
        try:
            fv = f_vector_check(P)
        except StructuralError as exc:
            raise InputError(f"polytope: {exc}") from exc
        e = euler_identity(P, m)
        tables = report_tables(P, m, self.states, fv, classify_bad_faces(P, m), e, self.digest)
        for key, want in tables.items():
            if type(self.doc[key]) is not type(want):
                raise InputError(f"{key} is not a {type(want).__name__}")
            if self.doc[key] != want:
                self.fail(f"{key} does not match its recomputation")
        if not e.passed:
            self.fail(f"consistency identity fails: chi {e.chi_per_copy} per copy, "
                      f"{e.critical_count} critical vertices "
                      f"(-{e.critical_per_copy} per copy)")

    # -- evidence binding and replay ---------------------------------------

    def _evidence(self, section: str, eid, header: dict, where: str, check=None):
        """Bind the evidence item `eid` to the claim at `where` that cites it.

        The item must be exactly `header`, which the caller rebuilt from the
        claim, plus the sequences of its kind, and `eid` must be the hash of
        the item's content.  Once per section and id, `check(item)`
        then checks its sequences against what the claim built, yielding each
        key with what is wrong with its sequence, or None.  Returns the item
        when all of this holds, else None.
        """
        where = f"{where}: evidence {eid}"
        ev = self.doc[section].get(eid)
        if ev is None:
            self.fail(f"{where} is missing")
            return None
        seq_keys = SEQUENCE_KEYS[header["kind"]]
        wrong = [k for k, v in header.items() if ev[k] != v]
        if len(ev) != len(header) + len(seq_keys):
            wrong.append("keys")
        if wrong:
            self.fail(f"{where} does not match the claim ({', '.join(wrong)})")
            return None
        ok = self._evidence_ok.get((section, eid))
        if ok is None:
            ok = _eid(ev) == eid
            if not ok:
                self.fail(f"{where}: id is not the hash of the content")
            for key, problem in check(ev) if check else ():
                if problem is not None:
                    self.fail(f"{where}: {key} {problem}")
                    ok = False
            self._evidence_ok[section, eid] = ok
        elif not ok:
            self.fail(f"{where} failed")
        return ev if ok else None

    def _legality(self, eid, F: FaceHandle, split: State, where: str):
        """Bind legality item `eid` to the claim that both parts of F's dual
        complex, split by `split`, collapse to a point."""
        header = legality_header(
            {"type": "ambient"}, F.sorted_ids(), split.out_facets, split.in_facets
        )
        self._evidence("evidence", eid, header, where, lambda ev: [
            (key, certificate_problem(self.P, F, part, ev[key]))
            for key, part in (("out_sequence", split.out_facets),
                              ("in_sequence", split.in_facets))
        ])

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        doc, P, m, states = self.doc, self.P, self.m, self.states
        self._keys(doc["verdicts"], frozenset({"rows"}), "verdicts")
        rows = doc["verdicts"]["rows"]
        in_masks = [facet_mask(P, s.in_facets) for s in states]
        coverage: Dict[Tuple[str, ...], list] = {}
        want_faces = {F.sorted_ids() for codim in range(0, P.dimension + 1)
                      for F in enumerate_faces(P, codim)}
        for row in rows:
            face = tuple(row["face"])
            where = f"face {face}"
            self._keys(row, ROW_KEYS, where)
            idxs = row["states"]
            coverage.setdefault(face, []).extend(idxs)
            # the first state represents the row
            if not all(map(operator.lt, idxs, idxs[1:])):
                self.fail(f"{where}: states {idxs} are not strictly ascending")
            if face not in want_faces:
                self.fail(f"verdict row for unknown face {face}")
                continue
            F = FaceHandle(frozenset(face))
            branch = row["branch"]
            stray = [k for k in ROW_FIELDS
                     if k not in BRANCH_FIELDS.get(branch, ()) and row[k] is not None]
            if stray:
                self.fail(f"{where}: {branch} row carries {', '.join(stray)}")
            if not verdict_allowed(self.mode, P.dimension, row["verdict"]):
                self.fail(f"{where}: verdict {row['verdict']!r} is not allowed "
                          f"in {self.mode!r} mode")
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
                if row["verdict"] != "Regular":
                    self.fail(f"face {face}: totally legal class must be Regular")
                dual, free = face_masks(P, m, F)
                inn = free & in_masks[idxs[0]]
                for idx in idxs:
                    if free & in_masks[idx] != inn:
                        self.fail(f"face {face}: state {idx} not in the inherited "
                                  f"class of state {idxs[0]}")
                        break
                self._legality(row["evidence"], F, split_state(P, dual, inn), where)
            elif branch == "critical-pairs":
                self._check_critical(row, F, where)
            else:
                self.fail(f"face {face}: unverifiable branch {branch!r}")
        if set(coverage) != want_faces:
            self.fail("verdict table does not cover every face")
        n_states = len(states)
        for face, idxs in coverage.items():
            if sorted(idxs) != list(range(n_states)):
                self.fail(f"face {face}: states covered {len(idxs)} != {n_states}")
                break

    def _check_critical(self, row: dict, F: FaceHandle, where: str):
        """Bind a critical row to the shared item it cites, for its ℓ, and
        its transform to that of its first state; every other state's
        transform must exist."""
        P, m, states = self.P, self.m, self.states
        eid = row["evidence"]
        ell = all_pairs_index(P, m, F)
        if ell is None:
            self.fail(f"{where}: evidence {eid}: not an all-pairs top vertex")
            return
        if row["verdict"] != f"Critical({ell})":
            self.fail(f"{where}: evidence {eid}: verdict {row['verdict']!r} "
                      f"does not match the {ell}-pair signature")
        rep = row["states"][0]
        transforms = {}
        for idx in row["states"]:
            try:
                transforms[idx] = critical_transform(
                    P, m, states[idx], F, self._transforms
                )
            except (InputError, InternalError) as exc:
                self.fail(f"{where}: evidence {eid}: state {idx} does not match "
                          f"the canonical cube: {exc}")
                return
        _, perm, delta = transforms[rep]
        if row["transform"] != {"perm": list(perm), "delta": delta}:
            self.fail(f"{where}: evidence {eid}: row transform does not match "
                      f"the transform of state {rep}")
        self._evidence("shared_evidence", eid, shared_header(ell), where,
                       lambda ev: self._core_problems(ell, ev))

    def _core_problems(self, ell: int, ev: dict):
        """Check the shared item's sequences against the face links of the
        canonical all-pairs cube; each must end exactly at its
        cross-polytope core.  A dismantling order is checked on the link
        poset's comparability graph; only elementary steps are replayed, on
        the link built as a complex."""
        links = None
        graphs = canonical_pairs_graphs(ell)
        for i, (key, (G, core)) in enumerate(zip(SEQUENCE_KEYS["critical-shared"], graphs)):
            steps = ev[key]
            form, problem = sequence_form(steps)
            if form == "dismantling":
                problem = dismantling_problem(G, steps, core, what="link")
            elif form == "elementary":
                links = links or canonical_pairs_links(ell)
                K, target = links[i]
                try:
                    got = replay_collapse(K, steps)
                    problem = None if got == target else "does not reach its core"
                except InputError as exc:
                    problem = f"does not replay: {exc}"
            yield key, problem

    # -- cusps -------------------------------------------------------------------

    def check_cusps(self):
        doc, P, m, states = self.doc, self.P, self.m, self.states
        self._keys(doc["cusps"], frozenset({"rows"}), "cusps")
        rows = doc["cusps"]["rows"]
        want = {(iv.id, idx) for iv in P.ideal_vertices for idx in range(len(states))}
        got = {(r["cusp"], r["state"]) for r in rows}
        if want != got:
            self.fail("cusp table does not cover every (cusp, state) pair")
        tables: Dict[str, tuple] = {}
        for row in rows:
            cusp, idx = row["cusp"], row["state"]
            where = f"cusp {cusp} state {idx}"
            self._keys(row, CUSP_ROW_KEYS, where)
            if cusp not in tables:
                tables[cusp] = cusp_table(P, m, cusp)
            H, n_faces, bad = tables[cusp]
            cond = check_cusp_condition(P, states[idx], cusp, m)
            if not cond.ok:
                self.fail(f"{where}: condition does not hold")
                continue
            witness = (cond.move_index, cond.pair)
            if not row["ok"] or (row["move"], tuple(row["pair"])) != witness:
                self.fail(f"{where}: recorded witness mismatch")
            if not row["all_regular"]:
                self.fail(f"{where}: not all Regular")
                continue
            checked = [(tuple(face), apexes) for face, apexes in row["checked"]]
            faces = [face for face, _ in checked]
            twice = [face for face, n in Counter(faces).items() if n > 1]
            if twice:
                self.fail(f"{where}: face {twice[0]} is checked twice")
                continue
            if set(faces) != set(bad):
                self.fail(f"{where}: checked faces != bad faces")
                continue
            if row["n_faces"] != n_faces or row["n_good"] != n_faces - len(bad):
                self.fail(f"{where}: face counts mismatch")
            s_in = facet_mask(H, states[idx].in_facets)
            for face, (out_apex, in_apex) in checked:
                dual, free = bad[face]
                inn = free & s_in
                for side, part, apex in (("Out", dual & ~inn, out_apex),
                                         ("In", inn, in_apex)):
                    if not is_cone_apex(H, part, apex):
                        self.fail(f"{where}: face {face}: {side} apex {apex!r} "
                                  "is no cone apex of the part")

    def check_bound(self):
        """Every evidence item must be bound to some claim that cites it."""
        for section in ("evidence", "shared_evidence"):
            unbound = sorted(set(self.doc[section]) - {
                eid for sec, eid in self._evidence_ok if sec == section
            })
            if unbound:
                self.fail(f"{section} items bound to no claim: {', '.join(unbound)}")

    def run(self) -> Tuple[bool, List[str]]:
        if self.doc.get("version") != REPORT_VERSION:
            self.fail(f"unsupported report version {self.doc.get('version')!r}")
            return False, self.messages
        # only a generic report embeds inputs; build_context rejects one without
        generic = self.doc.get("subject") == "generic" and "inputs" in self.doc
        self._keys(self.doc, REPORT_KEYS | {"inputs"} if generic else REPORT_KEYS, "report")
        try:
            self.build_context()
        except InputError as exc:
            self.fail(str(exc))
            return False, self.messages
        self.check_tables()
        self.check_verdicts()
        self.check_cusps()
        self.check_bound()
        if self.doc["pass"] is not True:
            self.fail("report does not claim a passing certification")
        if self.doc["failures"] != []:
            self.fail("report lists failures")
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
