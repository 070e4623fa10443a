"""Standalone re-validation of structured reports, with zero search.

The checker imports the rules of `kernel`, the format of `report`, which
holds every writer and table the prover (`certify`) and the checker agree
on, and the readers of `schema` and `io`: no finder module, only the
`complexes` import that perfbench pins.

A report file in the bytes certify writes for a built-in subject is read
once (`verify_report_file`): the top level key by key with the json
module's scanner, and the verdicts section through the subject's kept
frame (`report.read_verdicts`), which matches every good row, face,
`states` list and witness move as bytes and reads only the bad rows'
outcomes.  Any other file (a generic report, whose inputs follow its
verdicts, another spelling, or text that departs from the frame) is read
whole by `io.load_json`, and its verdicts section through the same frame
in the bytes certify writes of it: one reader accepts every section, and
both reads give a document the same exit and the same messages.
A report is parsed against its schema once: a document of the wrong
shape is malformed, named by its JSON path, and every check after the parse
reads values whose JSON kinds the schema fixes.  Every table is compared,
by canonical JSON, with what its one writer, `report.report_tables`, makes
of the recomputation.  The verdict rows must be the subject's plan
(`kernel.Subject.plan`), checked where it is built to cover each face x
state once, in the bytes the frame lays out: a section that departs checks
no claim, and `_Verifier._departed` names where.  A bad row's claim is its
outcome, its verdict and the evidence id it cites, which one check decides
(`_Verifier._check_outcome`): Regular binds its legality item, Critical(ℓ)
the shared item of ℓ once its face is an all-pairs top vertex (the
all-pairs lemma, README).  The cusp rows, one per (cusp, state) in order,
bound by position, are compared as one list with `report.cusp_rows`', once
each apex pair, one per In part of the subject's cusp plan
(`kernel.CuspTable`), is checked to dominate its part.
Every certificate that a row cites is a dismantling order, checked by one
rule, `kernel.certificate_problem`, step by step on a graph's adjacency
masks and a live mask: a legality part on the facet graph, a shared
critical link on the face poset's comparability graph down to its core,
which is checked on that graph to be the subdivided cross-polytope
boundary.  Nothing here searches or builds a complex, and failure text is
made only on a failure.  Only `timings` and `seeds` back no claim: the
schema requires their keys, nothing checks what is in them, and the seed
steers nothing.
Every subject is built from input documents, as certify builds it, by
`io.subject_from_inputs`: a generic report's embedded ones, for each
report, or a built-in subject's shipped ones (`io.builtin_subject`), which
with its plan, cusp tables and kept frame, and the canonical link graphs,
is built once per process and shared: nothing a report carries reaches
them.  Embedded inputs that break a rule, a polytope past a limit or a
cusp whose section is no cube included, are an input error before any row
is read, as they are to certify.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from .complexes import replay_collapse  # not called here: pinned by perfbench
from .errors import InputError
from .io import (
    builtin_inputs, builtin_subject, load_json, read_object, read_text, subject_from_inputs,
)
from .kernel import (
    PlannedRow, Subject, all_pairs_index, canonical_pairs_graphs, certificate_problem,
)
from .report import (
    BUILTINS, MODES, REPORT_VERSION, TAGS, _eid, _inputs_digest, canonical_json, cusp_rows,
    document_to_json, euler_identity, legality_header, read_verdicts, report_tables,
    shared_header, verdict_allowed, verdict_row,
)
from .schema import READ_REPORT, REPORT, SEQUENCE_KEYS, parse


def _subject(name, inputs: Optional[dict]) -> Optional[Tuple[Subject, str, Tuple[str, ...]]]:
    """The subject of a report that names `name` and embeds `inputs` (None:
    none), its inputs digest and the modes it may be certified in: a
    built-in subject's, kept per process with its digest, or a generic
    report's, built from the inputs as certify builds it; None when the
    report names no subject.  Embedded inputs that break a rule are an
    input error."""
    tag = TAGS.get(name) if type(name) is str else None
    if tag is not None and inputs is None:
        return builtin_subject(tag), builtin_inputs(tag)[1], (BUILTINS[tag].mode,)
    if name != "generic" or inputs is None:
        return None
    try:
        S = subject_from_inputs(inputs)
    except InputError as exc:
        raise InputError(f"embedded inputs: {exc}") from exc
    return S, _inputs_digest("generic", inputs), MODES


class _Verifier:
    def __init__(self, doc: dict):
        self.doc = doc
        # the bad rows' outcomes, as `report.read_verdicts` read the verdicts
        # section: from the report's bytes here, or in `check_verdicts`
        verdicts = doc.get("verdicts") if type(doc) is dict else None
        self.outcomes = verdicts if type(verdicts) is tuple else None
        self.messages: List[str] = []
        # whether each bound item's id is its hash, under (section, id)
        self._bound: Dict[Tuple[str, str], bool] = {}
        # whether an item's sequences certify what a claim citing it needs,
        # under (section, id, what the claim needs)
        self._checked: Dict[tuple, bool] = {}

    def fail(self, msg: str):
        self.messages.append(msg)

    # -- cheap table recomputation -------------------------------------------

    def check_tables(self):
        e = euler_identity(self.S)
        tables = report_tables(self.S, e, self.digest)
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
        G, (dual, inn) = self.S.P.ranked_graph(), p.masks
        out = dual & ~inn
        self._evidence("evidence", eid, legality_header(), p.face, (out, inn),
                       lambda ev: [(key, certificate_problem(G, ev[key], part, what="part"))
                                   for key, part in (("out_sequence", out), ("in_sequence", inn))])

    # -- rows ------------------------------------------------------------------

    def _same_row(self, row: dict, want: dict, where: str):
        """Fail, naming the keys in which `row` and `want`, unequal, differ,
        a key that one of them lacks included (no row value is null), or
        else their order."""
        wrong = sorted(k for k in row.keys() | want.keys() if row.get(k) != want.get(k))
        self.fail(f"{where}: row {', '.join(wrong) or 'key order'} does not match its "
                  f"recomputation")

    # -- verdict table ---------------------------------------------------------

    def check_verdicts(self):
        """Each bad row's outcome, `_check_outcome`, as the subject's kept
        frame reads the section (`report.read_verdicts`) from the report's
        bytes or, parsed, from the bytes certify writes of it.  The read
        matches the rest, every good row, face, `states` and witness move,
        with the plan's text; one that departs checks no outcome."""
        if self.outcomes is None:
            text = document_to_json(self.doc["verdicts"])
            read = read_verdicts(self.S, text, 0)
            if read is None:
                return self._departed()
            self.outcomes = read[0]
        bad = (p for p in self.S.plan if p.witness is None)
        for p, (verdict, eid) in zip(bad, self.outcomes):
            self._check_outcome(p, verdict, eid)

    def _departed(self):
        """Name where a parsed section departs from the frame: each row that
        is not its planned row, a bad one with its own outcome, key order
        counting, up to the first row out of place, which is named by its
        position; with every row in place, the witness moves, and else the
        section's key order."""
        named = len(self.messages)
        for i, (row, p) in enumerate(zip_longest(self.doc["verdicts"]["rows"], self.S.plan)):
            got = None if row is None else (tuple(row["face"]), tuple(row["states"]))
            planned = None if p is None else (p.face, p.states)
            if got != planned:
                g, w = ("no row" if k is None else f"face {k[0]} states {list(k[1])}"
                        for k in (got, planned))
                return self.fail(f"verdict row {i}: {g} where the plan has {w}")
            want = (verdict_row(p, "Regular") if p.witness is not None else
                    verdict_row(p, row["verdict"], row.get("evidence")))
            if list(row.items()) != list(want.items()):
                self._same_row(row, want, f"face {p.face}" + (
                    f": evidence {row['evidence']}" if "evidence" in row else ""))
        self._witness_moves()
        if len(self.messages) == named:
            self.fail("verdicts: key order does not match its recomputation")

    def _witness_moves(self):
        """Name what is wrong with the report's witness moves: their count,
        or each entry that is not the plan's, by its good face."""
        got = self.doc["verdicts"]["witness_moves"]
        good = [p for p in self.S.plan if p.witness is not None]
        if len(got) != len(good):
            self.fail(f"verdicts.witness_moves: {len(got)} entries, want one per good face "
                      f"({len(good)})")
            return
        for j, p in enumerate(good):
            if got[j] != p.witness:
                self.fail(f"face {p.face}: witness_moves[{j}] does not match its recomputation")

    def _check_outcome(self, p: PlannedRow, verdict: str, eid: Optional[str]):
        """The outcome of bad planned row `p`, `verdict` citing evidence
        `eid` (None: none): Regular, binding its legality item, or Critical,
        binding the shared item of p's ℓ once the face is an all-pairs top
        vertex, and allowed by the mode; any other is named once.  By the
        all-pairs lemma the face alone decides a critical row, as a good
        face's witness does, so its verdict must be Critical(ℓ)."""
        critical = verdict.startswith("Critical(")
        if verdict != "Regular" and not critical:
            return self.fail(f"face {p.face}: bad face, unverifiable verdict {verdict!r}")
        if not verdict_allowed(self.mode, self.S.P.dimension, verdict):
            self.fail(f"face {p.face}: verdict {verdict!r} is not allowed in {self.mode!r} mode")
        if eid is None:
            self.fail(f"face {p.face}: bad face, {verdict} row cites no evidence")
        elif not critical:
            self._legality(eid, p)
        elif (ell := all_pairs_index(self.S, p.F)) is None:
            self.fail(f"face {p.face}: evidence {eid}: not an all-pairs top vertex")
        else:
            self._evidence("shared_evidence", eid, shared_header(ell), p.face, ell,
                           lambda ev: self._core_problems(ell, ev))
            if verdict != f"Critical({ell})":
                self.fail(f"face {p.face}: evidence {eid}: row verdict does not match its "
                          f"recomputation")

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
        """The apexes: one list per cusp, cusps in the polytope's order, of
        one list per bad face of its table, of one [out apex, in apex] pair
        per In part that its plan lists.  Each pair is tested once: each
        apex a vertex of its part that dominates the part, which proves the
        part a cone: apex ∈ part and part ⊆ N[apex], the rule `cone_apex`
        scans with.  The rows: one per (cusp, state), in the orbit's order,
        bound by position, compared as one list with `cusp_rows`' of the
        plan and the unproved parts; and each boundary cube must be all
        Regular."""
        S, cusps = self.S, self.doc["cusps"]
        P, apexes = S.P, cusps["apexes"]
        if len(apexes) != len(P.ideal_vertices):
            self.fail(f"cusps: {len(apexes)} apex lists, want one per cusp "
                      f"({len(P.ideal_vertices)})")
        _, rank, N = P.ranked_graph()
        want: List[dict] = []
        for c, (iv, table) in enumerate(zip(P.ideal_vertices, S.cusps)):
            faces = apexes[c] if c < len(apexes) else []
            if len(faces) != len(table.bad):
                self.fail(f"cusp {iv.id}: {len(faces)} face lists, want one per bad face "
                          f"of its table ({len(table.bad)})")
            unproved = {}  # face position -> the In parts whose pair is not proved
            for i, ((_, dual, _), parts) in enumerate(zip(table.bad, table.parts)):
                pairs = faces[i] if i < len(faces) else []
                failed = set() if len(pairs) == len(parts) else set(parts)
                for inn, (out_apex, in_apex) in zip(parts, pairs):
                    r, q = rank.get(out_apex), rank.get(in_apex)
                    if (r is None or q is None or not (dual & ~inn) >> r & 1
                            or dual & ~inn & ~N[r] or not inn >> q & 1 or inn & ~N[q]):
                        failed.add(inn)
                if failed:
                    unproved[i] = failed
                if failed or len(pairs) != len(parts):
                    self._apexes(iv.id, table.bad[i], pairs, parts)
            want += cusp_rows(table, S.in_masks, unproved)
        rows = cusps["rows"]
        if len(rows) != len(want):
            self.fail(f"cusps: {len(rows)} rows, want one per (cusp, state): "
                      f"{len(P.ideal_vertices)} x {len(S.states)}")
        elif rows != want:
            for k, (row, w) in enumerate(zip(rows, want)):
                if row != w:
                    self._same_row(row, w, self._cusp_state(k))
        for k, w in enumerate(want):
            if not w["all_regular"]:
                self.fail(f"{self._cusp_state(k)}: boundary cube is not all Regular")

    def _cusp_state(self, k: int) -> str:
        """The (cusp, state) of cusp row `k`."""
        cusp, idx = divmod(k, len(self.S.states))
        return f"cusp {self.S.P.ideal_vertices[cusp].id} state {idx}"

    def _apexes(self, cusp: str, face, pairs: list, parts: tuple):
        """Name what is wrong with `pairs` as the apex pairs of the bad face
        `face`, (sorted ids, dual, free) of its cusp's table, one per In part
        in `parts`: the count, or each apex that is no cone apex of its part."""
        ids, dual, _ = face
        where = f"cusp {cusp}: face {ids}"
        if len(pairs) != len(parts):
            self.fail(f"{where}: {len(pairs)} apex pairs, want one per In part "
                      f"({len(parts)})")
            return
        _, rank, N = self.S.P.ranked_graph()
        for j, (inn, pair) in enumerate(zip(parts, pairs)):
            for side, part, apex in (("out", dual & ~inn, pair[0]), ("in", inn, pair[1])):
                r = rank.get(apex)
                if r is None or not part >> r & 1 or part & ~N[r]:
                    self.fail(f"{where}: pair {j}: {side} apex {apex!r} is no cone apex "
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
        parse(REPORT if self.outcomes is None else READ_REPORT, self.doc, "report")
        subject, mode = self.doc["subject"], self.doc["mode"]
        resolved = _subject(subject, self.doc.get("inputs"))
        if resolved is None:
            self.fail("generic report carries no embedded inputs" if subject == "generic" else
                      f"{subject} report embeds inputs" if subject in TAGS else
                      f"unknown subject {subject!r}")
            return False, self.messages
        self.S, self.digest, modes = resolved
        self.mode = mode
        if mode not in modes:
            self.fail(f"mode {mode!r}: subject {subject} must be certified in "
                      f"{' or '.join(modes)} mode")
        self.check_tables()
        self.check_verdicts()
        self.check_cusps()
        if self.outcomes is not None:  # a section that departs read no claim
            self.check_bound()
        if not self.doc["pass"]:
            self.fail("report does not claim a passing certification")
        if self.doc["failures"]:
            self.fail("report lists failures")
        return not self.messages, self.messages


def verify_document(doc: dict) -> Tuple[bool, List[str]]:
    """Re-validate a structured report; returns (ok, failure messages).

    A document that breaks the report schema, named by its JSON path, or
    whose embedded generic inputs break a rule, raises InputError.
    """
    try:
        return _Verifier(doc).run()
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise InputError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def verify_report_file(path) -> Tuple[bool, List[str]]:
    """Re-validate the structured report at `path`, as `verify_document`.

    A built-in subject's verdicts section, in the bytes certify writes, is
    read through the subject's kept frame (`report.read_verdicts`), and the
    rest of the report key by key (`io.read_object`); any other document,
    or text that departs from that reading, is read whole by `load_json`,
    and its verdicts section through the same frame, `check_verdicts`."""
    text = read_text(path)

    def verdicts(pairs: list, pos: int):
        resolved = _subject(dict(pairs).get("subject"), None)
        return None if resolved is None else read_verdicts(resolved[0], text, pos)

    doc = read_object(text, "verdicts", verdicts)
    return verify_document(load_json(path, text) if doc is None else doc)
