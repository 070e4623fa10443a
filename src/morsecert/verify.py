"""Standalone re-validation of structured reports, with zero search.

Every table and every verdict row is recomputed and compared whole, values
and types (1 is not true, 81.0 is not 81), with what its one writer makes
of the recomputation: `certify.report_tables` for the tables, by their
canonical JSON; `certify.verdict_plan`, in order, and the row writer of the
branch that the plan and the row's verdict pick for each verdict row; and
`certify.cusp_row` for each cusp row, bound by position, one per (cusp,
state) in order, once each apex it gives is checked to dominate its part.
Every certificate that a row cites is a dismantling order, checked by one
rule, `states.certificate_problem`, step by step on a graph's adjacency
masks and a live mask: a legality part on the facet graph, a shared
critical link on the face poset's comparability graph down to its core,
which is checked on that graph to be the subdivided cross-polytope
boundary.  A step of any other shape is rejected.  Nothing here searches or
builds a complex, so verification costs a small multiple of reading the
report.  Only `timings` and `seeds` back no claim: the verifier requires
their keys and checks nothing in them, and the seed steers nothing.
A built-in subject and the canonical link graphs are built once per process
and shared by every report verified in it: nothing a report carries reaches
them, and a generic report's embedded inputs are rebuilt for each report.
A generic subject is built by `states.generic_orbit`, as certify builds it,
so an embedded initial state that is not compatible is rejected first,
naming the adjacent same-move pair, before any row is read.
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
from .complexes import replay_collapse  # not called here: pinned by perfbench
from .errors import InputError, InternalError, StructuralError
from .io import load_json, moves_from_doc, polytope_from_doc, state_from_doc
from .links import (
    canonical_pairs_graphs,
    check_cusp_condition,
    critical_transform,
    cusp_table,
)
from .polytopes import f_vector_check
from .report import REPORT_KEYS, REPORT_VERSION
from .states import (
    all_pairs_index,
    builtin_subject,
    certificate_problem,
    classify_bad_faces,
    generic_orbit,
)


def _same(got, want) -> bool:
    """`got` equals `want` with the same types throughout, so that true is
    not 1 and 81.0 is not 81.  A value is the same as itself, as a cusp
    row's `checked` is; other lists of `want` hold no lists or objects, so a
    list is compared whole and then its elements' types at once."""
    if got is want:
        return True
    if type(got) is not type(want):
        return False
    if type(want) is dict:
        return got.keys() == want.keys() and all(_same(got[k], v) for k, v in want.items())
    if type(want) is list:
        return got == want and list(map(type, got)) == list(map(type, want))
    return got == want


class _Verifier:
    def __init__(self, doc: dict):
        self.doc = doc
        self.messages: List[str] = []
        # whether each bound item's id is its hash, under (section, id)
        self._bound: Dict[Tuple[str, str], bool] = {}
        # whether an item's sequences certify what a claim citing it needs,
        # under (section, id, what the claim needs)
        self._checked: Dict[tuple, bool] = {}
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
            (P, m, states), modes, tag = builtin_subject("p6"), ("perfect",), "p6"
        elif subject == "P5_fibration":
            (P, m, states), modes, tag = builtin_subject("p5"), ("fibration",), "p5"
        elif subject == "generic":
            inputs, tag = self.doc.get("inputs"), "generic"
            if not inputs:
                raise InputError("generic report carries no embedded inputs")
            P = polytope_from_doc(inputs["polytope"])
            m = moves_from_doc(inputs["moves"], P)
            s0 = state_from_doc(inputs["state"], P)
            f_vector_check(P)  # inputs that break the census are malformed, whatever the state
            states = generic_orbit(P, m, s0)
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

    def _evidence(self, section: str, eid, header: dict, where: str, needs, check):
        """Bind the evidence item `eid` to the claim at `where` that cites it.

        The item must be exactly `header`, which the caller rebuilt from the
        claim, plus the sequences of its kind.  Once per section and id,
        `eid` must be the hash of the item's content.  Once per section, id
        and `needs`, what the claim needs its sequences to certify,
        `check(item)` yields each sequence key with what is wrong with its
        sequence, or None; a later claim with the same needs that cites a
        failed item fails, naming its id.
        """
        where = f"{where}: evidence {eid}"
        ev = self.doc[section].get(eid)
        if ev is None:
            self.fail(f"{where} is missing")
            return
        seq_keys = SEQUENCE_KEYS[header["kind"]]
        wrong = [k for k, v in header.items() if not _same(ev[k], v)]
        if len(ev) != len(header) + len(seq_keys):
            wrong.append("keys")
        if wrong:
            self.fail(f"{where} does not match the claim ({', '.join(wrong)})")
            return
        if (section, eid) not in self._bound:
            self._bound[section, eid] = _eid(ev) == eid
            if not self._bound[section, eid]:
                self.fail(f"{where}: id is not the hash of the content")
        ok = self._checked.get((section, eid, needs))
        if ok is None:
            ok = True
            for key, problem in check(ev):
                if problem is not None:
                    self.fail(f"{where}: {key} {problem}")
                    ok = False
            self._checked[section, eid, needs] = ok
        elif not ok:
            self.fail(f"{where} failed")

    def _legality(self, eid, p: PlannedRow, where: str):
        """Bind legality item `eid` to the claim of planned row `p` that both
        parts of its face's dual complex, the rank mask `dual` split into Out
        and In = `inn`, collapse to a point.  The item names no part, so
        several claims may cite it: its sequences are checked once for each
        (Out, In) pair of parts that cites it."""
        G, (dual, inn) = self.P.ranked_graph(), p.masks
        out = dual & ~inn
        self._evidence("evidence", eid, legality_header(), where, (out, inn),
                       lambda ev: [(key, certificate_problem(G, ev[key], part, what="part"))
                                   for key, part in (("out_sequence", out), ("in_sequence", inn))])

    # -- rows ------------------------------------------------------------------

    def _plan_order(self, got: list, want: list):
        """Fail, naming the first verdict row whose (face, states) in `got`
        is not the plan's in `want`."""
        for i, (g, w) in enumerate(zip_longest(got, want)):
            if g != w:
                g, w = ("no row" if k is None else f"face {k[0]} states {list(k[1])}"
                        for k in (g, w))
                self.fail(f"verdict row {i}: {g} where the plan has {w}")
                return

    def _same_row(self, row: dict, want: dict, where: str):
        """`row` must carry exactly `want`'s keys and equal it, types
        included; a failure names the unknown keys and the keys that differ."""
        if _same(row, want):
            return
        unknown = sorted(row.keys() - want.keys())
        if unknown:
            self.fail(f"{where}: unknown key {', '.join(map(repr, unknown))}")
        wrong = [k for k in want if k not in row or not _same(row[k], want[k])]
        if wrong:
            self.fail(f"{where}: row {', '.join(wrong)} does not match its recomputation")

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        doc, P = self.doc, self.P
        self._keys(doc["verdicts"], frozenset({"rows"}), "verdicts")
        rows = doc["verdicts"]["rows"]
        plan = {(p.face, p.states): p for p in verdict_plan(P, self.m, self.states)}
        got = [(tuple(row["face"]), tuple(row["states"])) for row in rows]
        self._plan_order(got, list(plan))
        for row, key in zip(rows, got):
            where = f"face {key[0]}"
            p = plan.get(key)
            if p is None:
                continue
            verdict = row["verdict"]
            if not verdict_allowed(self.mode, P.dimension, verdict):
                self.fail(f"{where}: verdict {verdict!r} is not allowed in {self.mode!r} mode")
            want = self._claimed_row(p, row, where)
            if want is not None:
                cited = f": evidence {row['evidence']}" if "evidence" in row else ""
                self._same_row(row, want, where + cited)

    def _claimed_row(self, p: PlannedRow, row: dict, where: str) -> Optional[dict]:
        """The row of planned row `p` for the branch that the plan and
        `row`'s verdict pick, with the evidence `row` cites bound: a good
        face's; for a bad face, a legal row when the verdict is Regular, a
        critical row when it is Critical.  None when no such row exists."""
        if p.witness is not None:
            return good_row(p)
        verdict = row["verdict"]
        if verdict == "Regular":
            self._legality(row["evidence"], p, where)
            return legal_row(p, row["evidence"])
        if type(verdict) is str and verdict.startswith("Critical("):
            return self._critical_row(p, row["evidence"], where)
        self.fail(f"{where}: bad face, unverifiable verdict {verdict!r}")
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
        self._evidence("shared_evidence", eid, shared_header(ell), where, ell,
                       lambda ev: self._core_problems(ell, ev))
        return critical_row(p, ell, eid, transforms[0])

    def _core_problems(self, ell: int, ev: dict):
        """Check the shared item's sequences on the comparability graphs of
        the face links of the canonical all-pairs cube: each must end
        exactly at its cross-polytope core."""
        return [(key, certificate_problem(G, ev[key], (1 << len(G.ids)) - 1, G.mask(core),
                                          what="link"))
                for key, (G, core) in zip(SEQUENCE_KEYS["critical-shared"],
                                          canonical_pairs_graphs(ell))]

    # -- cusps -------------------------------------------------------------------

    def check_cusps(self):
        """One row per (cusp, state), cusps in the polytope's order and
        states in the orbit's, bound by position.  Its `checked` must hold
        one [out apex, in apex] pair per bad face of the cusp's table where
        the recomputed cusp condition holds, none where it fails, each apex
        a vertex of its part that dominates the part, which proves the part
        a cone.  The row must then be `cusp_row`'s of the recomputed
        condition and its `checked`, and its boundary cube all Regular."""
        doc, P, m, states = self.doc, self.P, self.m, self.states
        self._keys(doc["cusps"], frozenset({"rows"}), "cusps")
        rows = doc["cusps"]["rows"]
        if len(rows) != len(P.ideal_vertices) * len(states):
            self.fail(f"cusps: {len(rows)} rows, want one per (cusp, state): "
                      f"{len(P.ideal_vertices)} x {len(states)}")
        in_masks = [P.ranked_graph().mask(s.in_facets) for s in states]
        rows = iter(rows)
        for iv in P.ideal_vertices:
            table = cusp_table(P, m, iv.id)
            for (idx, s_in), row in zip(enumerate(in_masks), rows):
                where = f"cusp {iv.id} state {idx}"
                ok = check_cusp_condition(table, s_in) is not None
                proved = self._apexes(row["checked"], table.bad if ok else (), s_in, where)
                if proved:
                    self._same_row(row, cusp_row(ok, row["checked"]), where)
                if not (ok and proved):
                    self.fail(f"{where}: boundary cube is not all Regular")

    def _apexes(self, checked, bad, s_in: int, where: str) -> bool:
        """Whether `checked` holds one pair [out apex, in apex] per bad face
        of a cusp table in `bad`, each apex a facet of the part the face's
        split by the In mask `s_in` gives it that is adjacent to every other
        one: apex ∈ part and part ⊆ N[apex], the rule `cone_apex` scans
        with.  A failure names the face and the apex."""
        if type(checked) is not list or len(checked) != len(bad):
            self.fail(f"{where}: checked does not hold one apex pair per bad face "
                      f"({len(bad)})")
            return False
        _, rank, N = self.P.ranked_graph()
        good = True
        for (ids, dual, free), pair in zip(bad, checked):
            if type(pair) is not list or len(pair) != 2:
                self.fail(f"{where}: face {ids}: {pair!r} is not an apex pair")
                good = False
                continue
            inn = free & s_in
            for side, part, apex in (("out", dual & ~inn, pair[0]), ("in", inn, pair[1])):
                r = rank.get(apex) if type(apex) is str else None
                if r is None or not part >> r & 1 or part & ~N[r]:
                    self.fail(f"{where}: face {ids}: {side} apex {apex!r} is no cone apex "
                              f"of its part")
                    good = False
        return good

    def check_bound(self):
        """Every evidence item must be bound to some claim that cites it."""
        for section in ("evidence", "shared_evidence"):
            unbound = sorted(set(self.doc[section]) - {
                eid for sec, eid in self._bound if sec == section
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
