"""Standalone re-validation of structured reports, with zero search.

The checker imports nothing from `certify`, the prover: both read the
format of `report`, which holds every writer and table they agree on.

A report is parsed against `schema.REPORT` once: a document of the wrong
shape is malformed, named by its JSON path, and every check after the parse
reads values whose JSON kinds the schema fixes.  Every table and every
verdict row is recomputed and compared whole with what its one writer
makes of the recomputation: `report.report_tables` for the tables, by their
canonical JSON; `report.verdict_plan`, checked where it is built to cover
each face x state once, in one pass beside the rows, and
`report.verdict_row` for the branch the plan and the row's verdict pick,
a critical row once its face is an all-pairs top vertex (the all-pairs
lemma, README); and `report.cusp_row` for each cusp row, bound by position,
one per (cusp, state) in order, once each apex it gives is checked to
dominate its part.
Every certificate that a row cites is a dismantling order, checked by one
rule, `states.certificate_problem`, step by step on a graph's adjacency
masks and a live mask: a legality part on the facet graph, a shared
critical link on the face poset's comparability graph down to its core,
which is checked on that graph to be the subdivided cross-polytope
boundary.  Nothing here searches or builds a complex, and failure text is
made only on a failure: warm and in-process on a 2-core VM, verifying the
seed-0 p6 report, `json.loads` included, takes about 27 ms against about
18 ms for `certify_p6()`, 1.5 times as long (the prover gains more from
the kept plan and cusp tables).  Only `timings` and `seeds`
back no claim: the schema requires their keys, nothing checks what is in
them, and the seed steers nothing.
A built-in subject, its census audited where `states.builtin_subject`
builds it, the verdict plan and cusp tables its polytope keeps, and the
canonical link graphs are built once per process and shared by every
report verified in it: nothing a report carries reaches them, and a
generic report's embedded inputs are rebuilt for each report.
A generic subject is built by `states.generic_orbit`, as certify builds it:
embedded inputs that break a rule, an initial state that is not compatible
included, are an input error before any row is read, as they are to certify.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from .complexes import replay_collapse  # not called here: pinned by perfbench
from .errors import InputError, StructuralError
from .io import load_json, moves_from_doc, polytope_from_doc, state_from_doc
from .links import (
    canonical_pairs_graphs,
    check_cusp_condition,
    cusp_table,
)
from .polytopes import f_vector_check
from .report import (
    BUILTIN_SUBJECTS, MODES, REPORT_VERSION, PlannedRow, _eid, _inputs_digest, canonical_json,
    cusp_row, euler_identity, good_row, legality_header, report_tables, shared_header,
    verdict_allowed, verdict_plan, verdict_row,
)
from .schema import REPORT, SEQUENCE_KEYS, parse
from .states import (
    all_pairs_index,
    builtin_subject,
    certificate_problem,
    classify_bad_faces,
    generic_orbit,
)


class _Verifier:
    def __init__(self, doc: dict):
        self.doc = doc
        self.messages: List[str] = []
        # whether each bound item's id is its hash, under (section, id)
        self._bound: Dict[Tuple[str, str], bool] = {}
        # whether an item's sequences certify what a claim citing it needs,
        # under (section, id, what the claim needs)
        self._checked: Dict[tuple, bool] = {}

    def fail(self, msg: str):
        self.messages.append(msg)

    # -- context ------------------------------------------------------------

    def build_context(self) -> bool:
        """Build the report's subject; False, the report rejected, if it names
        none.  Embedded inputs that break a rule are an input error."""
        # a built-in subject's report embeds no inputs: any it carries
        # change the digest it is compared with
        subject, mode, inputs = self.doc["subject"], self.doc["mode"], self.doc.get("inputs")
        tag, *modes = BUILTIN_SUBJECTS.get(subject, ("generic", *MODES))  # modes it allows
        if subject in BUILTIN_SUBJECTS:
            P, m, states = builtin_subject(tag)
        elif subject == "generic" and inputs is not None:
            try:
                P = polytope_from_doc(inputs["polytope"])
                m = moves_from_doc(inputs["moves"], P)
                s0 = state_from_doc(inputs["state"], P)
                f_vector_check(P)  # inputs that break the census are malformed, whatever the state
                states = generic_orbit(P, m, s0)
            except InputError as exc:
                raise InputError(f"embedded inputs: {exc}") from exc
        else:
            self.fail("generic report carries no embedded inputs" if subject == "generic"
                      else f"unknown subject {subject!r}")
            return False
        if mode not in modes:
            self.fail(f"mode {mode!r}: subject {subject} must be certified in "
                      f"{' or '.join(modes)} mode")
        self.P, self.m, self.states, self.mode = P, m, states, mode
        self.digest = _inputs_digest(tag, inputs)
        return True

    # -- cheap table recomputation -------------------------------------------

    def check_tables(self):
        P, m = self.P, self.m
        e = euler_identity(P, m)
        tables = report_tables(P, m, self.states, f_vector_check(P), classify_bad_faces(P, m),
                               e, self.digest)
        for key, want in tables.items():
            if canonical_json(self.doc[key]) != canonical_json(want):
                self.fail(f"{key} does not match its recomputation")
        if not e.passed:
            self.fail(e.failure())

    # -- evidence binding and replay ---------------------------------------

    def _evidence(self, section: str, eid, header: dict, face, needs, check):
        """Bind the evidence item `eid` to the claim of the row of `face`
        that cites it.

        Once per section and id, `eid` must be the hash of the item's
        content.  The item must equal `header`, which the caller rebuilt
        from the claim, on its keys.  Once per section, id and `needs`, what
        the claim needs its sequences to certify, `check(item)` yields each
        sequence key with what is wrong with its sequence, or None; a later
        claim with the same needs that cites a failed item fails, naming
        its id.
        """
        def fail(what: str):  # names the row and the item only on a failure
            self.fail(f"face {face}: evidence {eid}{what}")

        ev = self.doc[section].get(eid)
        if ev is None:
            fail(" is missing")
            return
        if (section, eid) not in self._bound:
            self._bound[section, eid] = _eid(ev) == eid
            if not self._bound[section, eid]:
                fail(": id is not the hash of the content")
        wrong = [k for k, v in header.items() if ev[k] != v]
        if wrong:
            fail(f" does not match the claim ({', '.join(wrong)})")
            return
        ok = self._checked.get((section, eid, needs))
        if ok is None:
            ok = True
            for key, problem in check(ev):
                if problem is not None:
                    fail(f": {key} {problem}")
                    ok = False
            self._checked[section, eid, needs] = ok
        elif not ok:
            fail(" failed")

    def _legality(self, eid, p: PlannedRow):
        """Bind legality item `eid` to the claim of planned row `p` that both
        parts of its face's dual complex, the rank mask `dual` split into Out
        and In = `inn`, collapse to a point.  The item names no part, so
        several claims may cite it: its sequences are checked once for each
        (Out, In) pair of parts that cites it."""
        G, (dual, inn) = self.P.ranked_graph(), p.masks
        out = dual & ~inn
        self._evidence("evidence", eid, legality_header(), p.face, (out, inn),
                       lambda ev: [(key, certificate_problem(G, ev[key], part, what="part"))
                                   for key, part in (("out_sequence", out), ("in_sequence", inn))])

    # -- rows ------------------------------------------------------------------

    def _same_row(self, row: dict, want: dict, where: str):
        """Fail, naming the keys in which `row` and `want`, unequal, differ,
        a key that one of them lacks included (no row value is null)."""
        wrong = sorted(k for k in row.keys() | want.keys() if row.get(k) != want.get(k))
        self.fail(f"{where}: row {', '.join(wrong)} does not match its recomputation")

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        """One pass over the plan and the rows: each row must be the planned
        row of its position, for the branch the plan and its verdict pick.
        Of the rows out of place, the first is named and none is checked."""
        mode, dim, departed = self.mode, self.P.dimension, False
        plan = verdict_plan(self.P, self.m, self.states)
        for i, (row, p) in enumerate(zip_longest(self.doc["verdicts"]["rows"], plan)):
            if p is not None and p.witness is not None and row == good_row(p):
                continue
            got = None if row is None else (tuple(row["face"]), tuple(row["states"]))
            planned = None if p is None else (p.face, p.states)
            if got != planned:
                if not departed:
                    g, w = ("no row" if k is None else f"face {k[0]} states {list(k[1])}"
                            for k in (got, planned))
                    self.fail(f"verdict row {i}: {g} where the plan has {w}")
                departed = True
                continue
            verdict = row["verdict"]
            if not verdict_allowed(mode, dim, verdict):
                self.fail(f"face {p.face}: verdict {verdict!r} is not allowed in {mode!r} mode")
            want = self._claimed_row(p, row)
            if want is not None and row != want:
                self._same_row(row, want, f"face {p.face}" + (
                    f": evidence {row['evidence']}" if "evidence" in row else ""))

    def _claimed_row(self, p: PlannedRow, row: dict) -> Optional[dict]:
        """The row of planned row `p` for the branch that the plan and the
        verdict of `row` pick, with the evidence `row` cites bound, if any: a
        good face's; for a bad face, a legal row if Regular, a critical row
        if Critical.  None when no such row exists."""
        if p.witness is not None:
            return good_row(p)
        verdict, eid = row["verdict"], row.get("evidence")
        critical = verdict.startswith("Critical(")
        if verdict != "Regular" and not critical:
            self.fail(f"face {p.face}: bad face, unverifiable verdict {verdict!r}")
            return None
        if eid is None:
            self.fail(f"face {p.face}: bad face, {verdict} row cites no evidence")
            return None
        if critical:
            return self._critical_row(p, eid)
        self._legality(eid, p)
        return verdict_row(p, verdict, evidence=eid)

    def _critical_row(self, p: PlannedRow, eid) -> Optional[dict]:
        """The critical row citing `eid`, the shared item of p's ℓ, once the
        item is bound: by the all-pairs lemma the face alone decides the
        row, as a good face's witness does."""
        ell = all_pairs_index(self.P, self.m, p.F)
        if ell is None:
            self.fail(f"face {p.face}: evidence {eid}: not an all-pairs top vertex")
            return None
        self._evidence("shared_evidence", eid, shared_header(ell), p.face, ell,
                       lambda ev: self._core_problems(ell, ev))
        return verdict_row(p, f"Critical({ell})", evidence=eid)

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
        a cone: apex ∈ part and part ⊆ N[apex], the rule `cone_apex` scans
        with.  The row must then be `cusp_row`'s of the recomputed condition
        and its `checked`, and its boundary cube all Regular."""
        P, m, states, rows = self.P, self.m, self.states, self.doc["cusps"]["rows"]
        if len(rows) != len(P.ideal_vertices) * len(states):
            self.fail(f"cusps: {len(rows)} rows, want one per (cusp, state): "
                      f"{len(P.ideal_vertices)} x {len(states)}")
        G = P.ranked_graph()
        in_masks, rank, N = [G.mask(s.in_facets) for s in states], G.rank, G.N
        rows = iter(rows)
        for iv in P.ideal_vertices:
            table = cusp_table(P, m, iv.id)
            for (idx, s_in), row in zip(enumerate(in_masks), rows):
                ok = check_cusp_condition(table, s_in) is not None
                checked, bad = row["checked"], table.bad if ok else ()
                proved = len(checked) == len(bad)
                for (_, dual, free), (out_apex, in_apex) in zip(bad, checked):
                    inn = free & s_in
                    r, q = rank.get(out_apex), rank.get(in_apex)
                    if (r is None or q is None or not (dual & ~inn) >> r & 1
                            or dual & ~inn & ~N[r] or not inn >> q & 1 or inn & ~N[q]):
                        proved = False
                        break
                if not proved:
                    self._apexes(checked, bad, s_in, f"cusp {iv.id} state {idx}")
                elif row != cusp_row(ok, checked):
                    self._same_row(row, cusp_row(ok, checked), f"cusp {iv.id} state {idx}")
                if not (ok and proved):
                    self.fail(f"cusp {iv.id} state {idx}: boundary cube is not all Regular")

    def _apexes(self, checked, bad, s_in: int, where: str):
        """Name what is wrong with `checked` as one [out apex, in apex] pair
        of cone apexes per bad face in `bad`, of the parts of each face's
        split by the In mask `s_in`: the count, or each apex and its face."""
        if len(checked) != len(bad):
            self.fail(f"{where}: checked does not hold one apex pair per bad face "
                      f"({len(bad)})")
            return
        _, rank, N = self.P.ranked_graph()
        for (ids, dual, free), pair in zip(bad, checked):
            inn = free & s_in
            for side, part, apex in (("out", dual & ~inn, pair[0]), ("in", inn, pair[1])):
                r = rank.get(apex)
                if r is None or not part >> r & 1 or part & ~N[r]:
                    self.fail(f"{where}: face {ids}: {side} apex {apex!r} is no cone apex "
                              f"of its part")

    def check_bound(self):
        """Every evidence item must be bound to some claim that cites it."""
        for section in ("evidence", "shared_evidence"):
            unbound = sorted(set(self.doc[section]) - {
                eid for sec, eid in self._bound if sec == section
            })
            if unbound:
                self.fail(f"{section} items bound to no claim: {', '.join(unbound)}")

    def run(self) -> Tuple[bool, List[str]]:
        # the version first: a document of another version, or an input
        # document, is not a report of this format
        if type(self.doc) is dict and self.doc.get("version") != REPORT_VERSION:
            self.fail(f"unsupported report version {self.doc.get('version')!r}")
            return False, self.messages
        parse(REPORT, self.doc, "report")
        if not self.build_context():
            return False, self.messages
        self.check_tables()
        self.check_verdicts()
        self.check_cusps()
        self.check_bound()
        if not self.doc["pass"]:
            self.fail("report does not claim a passing certification")
        if self.doc["failures"]:
            self.fail("report lists failures")
        return not self.messages, self.messages


def verify_document(doc: dict) -> Tuple[bool, List[str]]:
    """Re-validate a structured report; returns (ok, failure messages).

    A document that breaks the report schema, named by its JSON path, or
    whose embedded generic inputs break a structural rule, raises
    InputError.
    """
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
