"""The report format, whose shape is `schema.REPORT`: all that the prover
(`certify`) and the checker (`verify`) agree on, each importing it and not
the other.  The one writer of each row of a `kernel.Subject`'s verdict
plan, the evidence headers and ids, the tables with the consistency
identity, each mode's verdict rule, the built-in subjects and the
`Certificate` certify fills.

Rendering: text and a canonical structured document (stable key order,
exact integers, rationals as [num, den] pairs), both without timings unless
include_timings=True, so that two runs are byte-identical.  Text reports
count the verdict rows from the plan and the outcomes, and name each kind
of row's branch by `row_branch`.  The structured verdicts
section is spliced from its subject's kept text and each bad row's
outcome: the bytes `json.dumps` writes of `verdict_row`'s rows.
`read_verdicts`, its mirror, reads those bytes back through the same text.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.decoder import scanstring
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import CuspTable, PlannedRow, Subject, all_pairs_index

REPORT_VERSION = "10"

MODES = ("perfect", "fibration")  # each with its verdict rule, `verdict_allowed`

# The built-in subjects under their report names: the `io.builtin_subject`
# key, which also tags the inputs digest and the summary line, and the one
# mode each is certified in.
BUILTIN_SUBJECTS = {"P6_perfect_morse": ("p6", "perfect"), "P5_fibration": ("p5", "fibration")}


# one encoder for every content id and one for every document, `_DOC`:
# `json.dumps` with these settings would build a new one on each call; only
# trees reach them, what the writers build or parsed JSON, so no cycle check
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_DOC = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def _eid(payload: dict) -> str:
    return "e" + hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _inputs_digest(tag: str, inputs: Optional[dict]) -> str:
    """The digest of a subject's inputs: a built-in subject's shipped ones
    under its key, or a generic report's embedded ones under "generic"."""
    return hashlib.sha256(canonical_json({"tag": tag, "inputs": inputs}).encode()).hexdigest()


# Evidence headers: the fields of an evidence item that the claim citing it
# determines.  An item is its header plus its sequences, and its id is the
# hash of its content; the verifier rebuilds each header from the claim.
# A legality item names no face and no part: the claim citing it gives both,
# so one item serves every claim whose parts its sequences certify.


def legality_header() -> dict:
    return {"kind": "legality", "host": {"type": "ambient"}}


def shared_header(ell: int) -> dict:
    return {"kind": "critical-shared", "ell": ell}


# ---------------------------------------------------------------------------
# Euler identity


@dataclass(frozen=True)
class EulerRecord:
    chi_per_copy: Fraction
    critical_count: int
    critical_per_copy: Fraction
    passed: bool

    def failure(self) -> str:
        """The one message of an identity that fails."""
        return (f"consistency identity fails: chi {self.chi_per_copy} per copy, "
                f"{self.critical_count} critical vertices "
                f"(-{self.critical_per_copy} per copy)")


def euler_identity(S: Subject) -> EulerRecord:
    """Two independent censuses: alternating clique-count sum versus the
    all-pairs bad vertices, each per copy of the polytope.

    chi = sum_k (-1)^k N_k / 2^k with N_k the number of codim-k clique faces;
    the identity asserts chi == -(number of all-pairs vertices) / 2^dim.
    """
    P = S.P
    chi = sum(
        Fraction((-1) ** k * P.clique_count(k), 2 ** k) for k in range(P.dimension + 1)
    )
    n_crit = sum(1 for F in S.table.bad if all_pairs_index(S, F) is not None)
    crit = Fraction(n_crit, 2 ** P.dimension)
    return EulerRecord(chi, n_crit, crit, chi == -crit)


# ---------------------------------------------------------------------------
# The certificate and its tables


@dataclass
class Certificate:
    subject: str
    mode: str
    passed: bool
    seed: int
    S: Subject  # its census, bad faces and plan, which fixes all but the `outcomes`
    outcomes: Tuple[Tuple[str, Optional[str]], ...]  # per bad planned row: verdict, evidence id
    evidence: Dict[str, dict]
    shared_evidence: Dict[str, dict]
    cusp_apexes: Tuple[list, ...]  # per cusp, per bad face, the apex pairs
    cusp_rows: Tuple[dict, ...]  # report rows, by `cusp_rows`
    euler: EulerRecord
    failures: Tuple[str, ...]
    timings: Dict[str, float]
    tables: dict  # `report_tables`: polytope, moves, orbit and the rest
    generic_inputs: Optional[dict] = None

    @property
    def orbit_serials(self) -> Tuple[str, ...]:
        return tuple(self.tables["orbit"])

    @property
    def verdict_rows(self) -> Tuple[dict, ...]:
        """The verdict rows, by `verdict_row`, built on each read."""
        outcomes = iter(self.outcomes)
        return tuple(verdict_row(p, *next(outcomes)) if p.witness is None else
                     verdict_row(p, "Regular") for p in self.S.plan)

    def summary_line(self) -> str:
        tag = BUILTIN_SUBJECTS.get(self.subject, ("generic",))[0].upper()
        if self.passed:
            if self.mode == "perfect":
                idx = self.tables["polytope"]["dimension"] // 2
                return (
                    f"{tag}: PERFECT MORSE CERTIFIED "
                    f"(all links Regular or Critical({idx}))"
                )
            return f"{tag}: FIBRATION CERTIFIED (all links Regular)"
        first = self.failures[0] if self.failures else "unspecified failure"
        return f"{tag}: CERTIFICATION FAILED ({first})"


def verdict_allowed(mode: str, dimension: int, verdict: str) -> bool:
    """The verdict rule of a mode: a fibration has only Regular links; a
    perfect Morse function may also have Critical(dim/2) links, dim even."""
    if verdict == "Regular":
        return True
    return (
        mode == "perfect" and dimension % 2 == 0
        and verdict == f"Critical({dimension // 2})"
    )


def report_tables(S: Subject, euler: EulerRecord, inputs_digest: str) -> dict:
    """The deterministic sections of a report, in report order, from the
    subject and what the caller already computed.  The pipeline's
    certificate carries them to the report, and the verifier compares a
    report's sections with this function applied to its own subject, so
    each section has this one writer."""
    P, fv, chi = S.P, S.f_vector, euler.chi_per_copy
    return {
        "inputs_digest": inputs_digest,
        "polytope": {"name": P.name, "dimension": P.dimension, "facets": list(P.facet_ids)},
        "moves": [sorted(b) for b in S.m.blocks],
        "orbit": [s.serial() for s in S.states],
        "f_vector": {"clique_counts": list(fv.clique_counts), "degrees": list(fv.degrees)},
        "bad_faces": {"signatures": {
            ",".join(map(str, sig)): [list(F.sorted_ids()) for F in faces]
            for sig, faces in S.bad_faces.items()
        }},
        "euler": {
            "chi_per_copy": [chi.numerator, chi.denominator],
            "critical_count": euler.critical_count,
            "pass": euler.passed,
        },
    }


# ---------------------------------------------------------------------------
# The one writer of each row


# The one writer of a verdict row, from `Subject.plan`: the verifier compares
# each row with it, and `verdict_frame` lays rows out as it does.  A bad
# face's row carries the `evidence` id it cites, a legality item when Regular
# and the shared item of its ℓ when Critical(ℓ), none when Unknown.  A good
# face's row carries no witness: the good faces' witness moves are one list,
# `verdicts.witness_moves`, in plan order.  `states` ascend.


def verdict_row(p: PlannedRow, verdict: str, evidence: Optional[str] = None) -> dict:
    row = {"face": list(p.face), "verdict": verdict, "states": list(p.states)}
    return row if evidence is None else {**row, "evidence": evidence}


def cusp_rows(table: CuspTable, in_masks: Sequence[int], unproved: dict) -> List[dict]:
    """The one writer of a cusp's rows, for certify and verify alike, one per
    state of In rank mask in `in_masks`: `ok`, the plan's `held`, and
    `all_regular`, whether it holds and every apex pair that the state's In
    parts select is proved; `unproved` maps the position of a bad face of
    the table to the In parts whose pairs are not.  A row names neither its
    cusp nor its state: its position does."""
    held = table.held
    if not unproved:
        return [{"ok": held, "all_regular": held} for _ in in_masks]
    failed = [(table.bad[i][2], parts) for i, parts in unproved.items()]
    return [{"ok": held, "all_regular": held and not any(free & s_in in parts
                                                         for free, parts in failed)}
            for s_in in in_masks]


# ---------------------------------------------------------------------------
# Rendering


def row_branch(row: dict) -> str:
    """The branch of a verdict row, by its evidence key and its verdict: a
    Regular row without evidence is a good face's."""
    if "evidence" not in row:
        return "good-face" if row["verdict"] == "Regular" else "unknown"
    return "critical-pairs" if row["verdict"].startswith("Critical(") else "inherited-totally-legal"


class _Written(str):
    """A document section that is canonical JSON already."""


# each subject's `verdict_frame`, kept while the subject lives
_FRAMES: "weakref.WeakKeyDictionary[Subject, tuple]" = weakref.WeakKeyDictionary()


def verdict_frame(S: Subject) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(fixed, tails): S's verdicts section around what a run finds, bad row
    k's verdict, then `tails[k]` (its `states`), then its evidence id, then
    `fixed[k + 1]`; rows laid out as `verdict_row` lays them out, good ones
    whole.  Each facet label and each distinct `states` is encoded once.
    A structured write, or a verify that reads S's verdicts through it,
    builds it once per subject, in `_FRAMES` (`_kept_frame`)."""
    label = {i: _DOC.encode(i) for i in S.P.facet_ids}
    states, fixed, tails, run = {}, [], [], ['{"rows":[']  # states: its text, by tuple
    for i, p in enumerate(S.plan):
        if p.states not in states:
            states[p.states] = '","states":' + _DOC.encode(p.states)
        run.append(f'{"," * bool(i)}{{"face":[{",".join([label[x] for x in p.face])}],"verdict":"')
        if p.witness is not None:
            run.append(f"Regular{states[p.states]}}}")
            continue
        fixed.append("".join(run))
        tails.append(states[p.states])
        run = []
    witnesses = _DOC.encode([p.witness for p in S.plan if p.witness is not None])
    return (*fixed, "".join(run) + '],"witness_moves":' + witnesses + "}"), tuple(tails)


def _kept_frame(S: Subject) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    return _FRAMES.get(S) or _FRAMES.setdefault(S, verdict_frame(S))


_EVIDENCE = ',"evidence":"'  # a bad row's evidence key, up to its id


def _verdicts_section(cert: Certificate) -> _Written:
    """The verdicts section, from its subject's kept frame and the outcomes,
    whose verdicts and evidence ids ("e", 16 hex digits) need no encoding."""
    fixed, tails = _kept_frame(cert.S)
    out = [fixed[0]]
    for (verdict, eid), tail, text in zip(cert.outcomes, tails, fixed[1:]):
        out += (verdict, tail, "}" if eid is None else f'{_EVIDENCE}{eid}"}}', text)
    return _Written("".join(out))


def read_verdicts(S: Subject, text: str, pos: int) -> Optional[Tuple[tuple, int]]:
    """The mirror of `_verdicts_section`: the outcomes of S's bad rows, as
    `Certificate.outcomes` holds them, read from the verdicts section at
    `pos` in `text`, and the position after the section; None at the first
    byte that departs from S's kept frame.  Each verdict and evidence id is
    read as the json module reads a string, so a section read is JSON whose
    rows are `verdict_row`'s of its outcomes, and its witness moves S's."""
    fixed, tails = _kept_frame(S)
    if not text.startswith(fixed[0], pos):
        return None
    pos, outcomes = pos + len(fixed[0]), []
    try:
        for tail, after in zip(tails, fixed[1:]):
            verdict, pos = scanstring(text, pos)  # from after the frame's opening quote
            if not text.startswith(tail, pos - 1):  # from its closing quote
                return None
            eid, pos = None, pos - 1 + len(tail)
            if text.startswith(_EVIDENCE, pos):
                eid, pos = scanstring(text, pos + len(_EVIDENCE))
            if not (text.startswith("}", pos) and text.startswith(after, pos + 1)):
                return None
            outcomes.append((verdict, eid))
            pos += 1 + len(after)
    except ValueError:  # a verdict or an id that is no JSON string
        return None
    return tuple(outcomes), pos


def certificate_to_document(cert: Certificate, *, include_timings: bool = False) -> dict:
    """The structured report: the claim and its provenance, the tables of
    `report_tables` that the verifier recomputes, the verdict rows with the
    good faces' witness moves and the evidence the rows cite, which it
    replays, and the cusps' apex pairs and rows.  Its verdicts section is
    text already: read it back through `document_to_json`."""
    doc = {
        "version": REPORT_VERSION,
        "subject": cert.subject,
        "mode": cert.mode,
        "pass": cert.passed,
        "seeds": {"root": cert.seed},
        **cert.tables,
        "verdicts": _verdicts_section(cert),
        "evidence": {k: cert.evidence[k] for k in sorted(cert.evidence)},
        "shared_evidence": {k: cert.shared_evidence[k] for k in sorted(cert.shared_evidence)},
        "cusps": {"apexes": list(cert.cusp_apexes), "rows": list(cert.cusp_rows)},
        "failures": list(cert.failures),
        "timings": ({k: round(v, 6) for k, v in sorted(cert.timings.items())}
                    if include_timings else None),
    }
    if cert.generic_inputs is not None:
        doc["inputs"] = cert.generic_inputs
    return doc


def document_to_json(doc: dict) -> str:
    """Compact and canonical, keys in assembly order, a section at a time,
    a `_Written` one as it is: bytes as `json.dumps` writes a document."""
    if type(doc) is dict:
        return "{" + ",".join(f"{_DOC.encode(k)}:{v if type(v) is _Written else _DOC.encode(v)}"
                              for k, v in doc.items()) + "}\n"
    return _DOC.encode(doc) + "\n"


def render_text(cert: Certificate, *, include_timings: bool = False) -> str:
    lines = []
    add = lines.append
    add(f"subject: {cert.subject}")
    add(cert.summary_line())
    add("")
    add("-- structure --")
    polytope, moves = cert.tables["polytope"], cert.tables["moves"]
    add(f"polytope: {polytope['name']}, dimension {polytope['dimension']}, "
        f"{len(polytope['facets'])} facets")
    add(f"clique counts by size: {list(cert.S.f_vector.clique_counts)}")
    degs = set(cert.S.f_vector.degrees)
    add(f"facet degrees: {sorted(degs)}")
    add("")
    add("-- moves and orbit --")
    add(f"moves: {len(moves)} blocks, sizes {[len(b) for b in moves]}")
    add(f"orbit size: {len(cert.orbit_serials)}")
    add("")
    add("-- bad faces --")
    if cert.S.bad_faces:
        for sig, faces in sorted(cert.S.bad_faces.items()):
            add(f"  signature ({','.join(map(str, sig))}): {len(faces)} faces")
    else:
        add("  none")
    add("")
    add("-- verdicts --")
    # from the plan, which covers every face, and the bad rows' outcomes
    n_faces, n_states = len(cert.S.table.masks), len(cert.orbit_serials)
    add(f"coverage: {n_faces} faces x {n_states} states = {n_faces * n_states} "
        f"pairs in {len(cert.S.plan)} classes")
    kinds = Counter((verdict, eid is not None) for verdict, eid in cert.outcomes)
    kinds["Regular", False] += len(cert.S.plan) - len(cert.outcomes)  # the good rows
    hist, branches = Counter(), Counter()
    for (verdict, cites), n in (+kinds).items():
        hist[verdict] += n
        branches[row_branch({"verdict": verdict, **({"evidence": ""} if cites else {})})] += n
    for verdict in sorted(hist):
        add(f"  {verdict}: {hist[verdict]} classes")
    for branch in sorted(branches):
        add(f"  via {branch}: {branches[branch]}")
    add("")
    add("-- cusps --")
    if cert.cusp_rows:
        ok = sum(1 for r in cert.cusp_rows if r["ok"])
        reg = sum(1 for r in cert.cusp_rows if r["all_regular"])
        add(f"condition holds: {ok}/{len(cert.cusp_rows)} (cusp, state) pairs")
        add(f"boundary cubes all Regular: {reg}/{len(cert.cusp_rows)}")
    else:
        add("  no ideal vertices")
    add("")
    add("-- consistency identity --")
    e = cert.euler
    add(f"chi per copy = {e.chi_per_copy}; "
        f"critical vertices = {e.critical_count} "
        f"(per copy {e.critical_per_copy}); "
        f"identity {'holds' if e.passed else 'FAILS'}")
    if cert.failures:
        add("")
        add("-- failures --")
        for f in cert.failures:
            add("  " + f)
    if include_timings:
        add("")
        add("-- timings (seconds) --")
        for k, v in sorted(cert.timings.items()):
            add(f"  {k}: {v:.2f}")
    add("")
    add(f"result: {'CERTIFIED' if cert.passed else 'NOT CERTIFIED'}")
    return "\n".join(lines) + "\n"


def emit_report(
    cert: Certificate, format: str = "text", *, include_timings: bool = False
) -> str:
    """Render a certificate; `format` is "text" or "structured" (JSON)."""
    if format == "text":
        return render_text(cert, include_timings=include_timings)
    if format == "structured":
        return document_to_json(certificate_to_document(cert, include_timings=include_timings))
    raise ValueError(f"unknown format {format!r}")
