"""Standalone re-validation of structured reports, with zero search.

Every table and every row is recomputed and compared whole with what its
one writer makes of the recomputation: `certify.report_tables` for the
tables, by their canonical JSON, so that a value of another type (1 for
true, 81.0 for 81) differs; `certify.verdict_plan`, in order, and its
branch's row writer for each verdict row; `certify.cusp_row` for the cusp
rows, one per (cusp, state) in order, whose cone apexes are
`states.cone_apex`'s first apex of each part.  Every dismantling order that
a row cites is checked step by step on adjacency masks: the facet graph for
a legality part, the comparability graph of the face poset for a shared
critical link, whose core is checked on that graph to be the subdivided
cross-polytope boundary.  Every elementary collapse sequence, a fallback
that the built-in subjects never use, is replayed.  Nothing here invokes a
collapse search, so verification cost is a small multiple of replay cost.
Only `timings` and `seeds` back no claim: the verifier requires their keys
and checks nothing in them, and the seed steers only the elementary search.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from .certify import (
    SEQUENCE_KEYS,
    PlannedRow,
    _eid,
    _inputs_digest,
    canonical_json,
    critical_row,
    cusp_row,
    euler_identity,
    good_row,
    legal_row,
    legality_header,
    report_tables,
    shared_header,
    verdict_allowed,
    verdict_plan,
)
from .complexes import replay_collapse
from .errors import InputError, InternalError, StructuralError
from .io import load_json, moves_from_doc, polytope_from_doc, state_from_doc
from .links import (
    canonical_pairs_graphs,
    canonical_pairs_links,
    critical_transform,
    cusp_table,
)
from .polytopes import FaceHandle, build_p5, build_p6, f_vector_check
from .report import CUSP_ROW_KEYS, REPORT_KEYS, REPORT_VERSION, ROW_KEYS
from .states import (
    all_pairs_index,
    balanced_states_p5,
    balanced_states_p6,
    certificate_problem,
    classify_bad_faces,
    dismantling_problem,
    move_system_p5,
    move_system_p6,
    orbit,
    sequence_form,
)


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
        e = euler_identity(P, m)
        tables = report_tables(P, m, self.states, f_vector_check(P), classify_bad_faces(P, m),
                               e, self.digest)
        for key, want in tables.items():
            if type(self.doc[key]) is not type(want):
                raise InputError(f"{key} is not a {type(want).__name__}")
            if canonical_json(self.doc[key]) != canonical_json(want):
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

    def _legality(self, eid, F: FaceHandle, dual: int, inn: int, where: str):
        """Bind legality item `eid` to the claim that both parts of F's dual
        complex, the rank mask `dual` split into Out and In = `inn`,
        collapse to a point."""
        labels, out = self.P.ranked_graph().labels, dual & ~inn
        header = legality_header({"type": "ambient"}, F.sorted_ids(), labels(out), labels(inn))
        self._evidence("evidence", eid, header, where, lambda ev: [
            (key, certificate_problem(self.P, F, part, ev[key]))
            for key, part in (("out_sequence", out), ("in_sequence", inn))
        ])

    # -- rows ------------------------------------------------------------------

    def _plan_order(self, table: str, got: list, want: list, name):
        """Fail, naming the first row whose key in `got` is not the plan's in `want`."""
        for i, (g, w) in enumerate(zip_longest(got, want)):
            if g != w:
                g, w = ("no row" if k is None else name(*k) for k in (g, w))
                self.fail(f"{table} row {i}: {g} where the plan has {w}")
                return

    def _same_row(self, row: dict, want: dict, where: str):
        """`row` must equal `want`; a failure names the fields that differ."""
        wrong = [k for k, v in want.items() if row[k] != v]
        if wrong:
            self.fail(f"{where}: row {', '.join(wrong)} does not match its recomputation")

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        doc, P = self.doc, self.P
        self._keys(doc["verdicts"], frozenset({"rows"}), "verdicts")
        rows = doc["verdicts"]["rows"]
        plan = {(p.face, p.states): p for p in verdict_plan(P, self.m, self.states)}
        got = [(tuple(row["face"]), tuple(row["states"])) for row in rows]
        self._plan_order("verdict", got, list(plan),
                         lambda face, idxs: f"face {face} states {list(idxs)}")
        for row, key in zip(rows, got):
            where = f"face {key[0]}"
            self._keys(row, ROW_KEYS, where)
            p = plan.get(key)
            if p is None:
                continue
            if not verdict_allowed(self.mode, P.dimension, row["verdict"]):
                self.fail(f"{where}: verdict {row['verdict']!r} is not allowed "
                          f"in {self.mode!r} mode")
            want = self._claimed_row(p, row, where)
            if want is not None:
                cited = f": evidence {row['evidence']}" if row["evidence"] else ""
                self._same_row(row, want, where + cited)

    def _claimed_row(self, p: PlannedRow, row: dict, where: str) -> Optional[dict]:
        """The row of planned row `p` for the branch `row` claims, with the
        evidence it cites bound; None when no such row exists."""
        branch, eid = row["branch"], row["evidence"]
        if p.witness is not None:
            return good_row(p)
        if branch == "inherited-totally-legal":
            self._legality(eid, p.F, *p.masks, where)
            return legal_row(p, eid)
        if branch == "critical-pairs":
            return self._critical_row(p, eid, where)
        self.fail(f"{where}: bad face, unverifiable branch {branch!r}")
        return None

    def _critical_row(self, p: PlannedRow, eid, where: str) -> Optional[dict]:
        """The critical row citing `eid` for p's ℓ, with its first state's
        transform; every state's transform is validated, the shared item bound."""
        P, m, states = self.P, self.m, self.states
        ell = all_pairs_index(P, m, p.F)
        if ell is None:
            self.fail(f"{where}: evidence {eid}: not an all-pairs top vertex")
            return None
        transforms = []
        for idx in p.states:
            try:
                transforms.append(critical_transform(P, m, states[idx], p.F, self._transforms))
            except (InputError, InternalError) as exc:
                self.fail(f"{where}: evidence {eid}: state {idx} does not match "
                          f"the canonical cube: {exc}")
                return None
        self._evidence("shared_evidence", eid, shared_header(ell), where,
                       lambda ev: self._core_problems(ell, ev))
        return critical_row(p, ell, eid, transforms[0])

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
        want = [(iv.id, idx) for iv in P.ideal_vertices for idx in range(len(states))]
        got = [(row["cusp"], row["state"]) for row in rows]
        self._plan_order("cusp", got, want, lambda cusp, idx: f"cusp {cusp} state {idx}")
        wanted, tables = set(want), {}
        for row, (cusp, idx) in zip(rows, got):
            where = f"cusp {cusp} state {idx}"
            self._keys(row, CUSP_ROW_KEYS, where)
            if (cusp, idx) not in wanted:
                continue
            if cusp not in tables:
                tables[cusp] = cusp_table(P, m, cusp)
            expect = cusp_row(P, m, states[idx], idx, tables[cusp])
            self._same_row(row, expect, where)
            if not expect["all_regular"]:
                self.fail(f"{where}: boundary cube is not all Regular")

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

    A document that is not an object, whose fields have the wrong shape for
    the checks, or whose embedded generic inputs break a structural rule,
    raises InputError.
    """
    if not isinstance(doc, dict):
        raise InputError("report must be a JSON object")
    try:
        return _Verifier(doc).run()
    except InputError:
        raise
    except StructuralError as exc:
        # on a generic report's embedded inputs a structural rule is the
        # caller's data; on P5 and P6 it is a transcription bug
        if doc.get("subject") != "generic":
            raise
        raise InputError(f"embedded inputs: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def verify_report_file(path) -> Tuple[bool, List[str]]:
    return verify_document(load_json(path))
