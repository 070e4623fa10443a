"""The report format, whose shape is `schema.REPORT`: all that the prover
(`certify`) and the checker (`verify`) agree on, each importing it and not
the other.  The one writer of each row of a `states.Subject`'s verdict
plan, the evidence headers and ids, the tables with the consistency
identity, each mode's verdict rule, the built-in subjects and the
`Certificate` certify fills.

Rendering: text and a canonical structured document (stable key order,
exact integers, rationals as [num, den] pairs), both without timings unless
include_timings=True, so that two runs are byte-identical.  Text reports
name each verdict row's branch by `row_branch`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .polytopes import FaceHandle, FVectorReport, TABLE_G6
from .states import R_TABLE, PlannedRow, Subject, all_pairs_index

REPORT_VERSION = "9"

MODES = ("perfect", "fibration")  # each with its verdict rule, `verdict_allowed`

# The built-in subjects under their report names: the `states.builtin_subject`
# key, which also tags the inputs digest and the summary line, and the one
# mode each is certified in.
BUILTIN_SUBJECTS = {"P6_perfect_morse": ("p6", "perfect"), "P5_fibration": ("p5", "fibration")}


# one encoder for every content id: `json.dumps` with these settings would
# build a new one on each call; only trees reach it, payloads the writers
# build or parsed JSON, so no cycle check is needed
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def _eid(payload: dict) -> str:
    return "e" + hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _inputs_digest(tag: str, extra: Optional[dict] = None) -> str:
    data = {
        "tag": tag,
        "table": [[lbl, list(vec)] for lbl, vec in TABLE_G6],
        "r_table": [[r, list(row)] for r, row in R_TABLE],
    }
    if extra is not None:
        data["inputs"] = extra
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


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
    f_vector: FVectorReport
    bad_faces: Dict[Tuple[int, ...], Tuple[FaceHandle, ...]]
    verdict_rows: Tuple[dict, ...]  # report rows, by `verdict_row`
    witness_moves: Tuple[int, ...]  # the good faces' witnesses, in plan order
    evidence: Dict[str, dict]
    shared_evidence: Dict[str, dict]
    cusp_apexes: Tuple[list, ...]  # per cusp, per bad face, the apex pairs
    cusp_rows: Tuple[dict, ...]  # report rows, by `cusp_row`
    euler: EulerRecord
    failures: Tuple[str, ...]
    timings: Dict[str, float]
    tables: dict  # `report_tables`: polytope, moves, orbit and the rest
    generic_inputs: Optional[dict] = None

    @property
    def orbit_serials(self) -> Tuple[str, ...]:
        return tuple(self.tables["orbit"])

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


# The one writer of a verdict row, from `Subject.plan`: the pipeline writes its
# rows with it, and the verifier compares each row with it.  A bad face's row
# carries the `evidence` id it cites, a legality item when Regular and the
# shared item of its ℓ when Critical(ℓ), none when Unknown.  A good face's
# row carries no witness: the good faces' witness moves are one list of the
# report, `verdicts.witness_moves`, in plan order.  `states` ascend.


def verdict_row(p: PlannedRow, verdict: str, **witness) -> dict:
    return {"face": list(p.face), "verdict": verdict, "states": list(p.states), **witness}


def good_row(p: PlannedRow) -> dict:
    return verdict_row(p, "Regular")


def cusp_row(ok: bool, all_regular: bool) -> dict:
    """The one writer of a cusp row, for certify and verify alike: `ok`,
    whether the cusp condition holds, and `all_regular`, whether it holds
    and every apex pair that the state's In parts select is proved.  The
    pairs are the cusp's `cusps.apexes` lists, one per bad face of its
    table; the row names neither its cusp nor its state: its position does."""
    return {"ok": ok, "all_regular": all_regular}


# ---------------------------------------------------------------------------
# Rendering


def row_branch(row: dict) -> str:
    """The branch of a verdict row, by its evidence key and its verdict: a
    Regular row without evidence is a good face's."""
    if "evidence" not in row:
        return "good-face" if row["verdict"] == "Regular" else "unknown"
    return "critical-pairs" if row["verdict"].startswith("Critical(") else "inherited-totally-legal"


def certificate_to_document(cert: Certificate, *, include_timings: bool = False) -> dict:
    """The structured report: the claim and its provenance, the tables of
    `report_tables` that the verifier recomputes, the verdict rows with the
    good faces' witness moves and the evidence the rows cite, which it
    replays, and the cusps' apex pairs and rows."""
    doc = {
        "version": REPORT_VERSION,
        "subject": cert.subject,
        "mode": cert.mode,
        "pass": cert.passed,
        "seeds": {"root": cert.seed},
        **cert.tables,
        "verdicts": {"rows": list(cert.verdict_rows),
                     "witness_moves": list(cert.witness_moves)},
        "evidence": {k: cert.evidence[k] for k in sorted(cert.evidence)},
        "shared_evidence": {
            k: cert.shared_evidence[k] for k in sorted(cert.shared_evidence)
        },
        "cusps": {"apexes": list(cert.cusp_apexes), "rows": list(cert.cusp_rows)},
        "failures": list(cert.failures),
        "timings": (
            {k: round(v, 6) for k, v in sorted(cert.timings.items())}
            if include_timings
            else None
        ),
    }
    if cert.generic_inputs is not None:
        doc["inputs"] = cert.generic_inputs
    return doc


def document_to_json(doc: dict) -> str:
    # compact and canonical: fixed key order from document assembly; the
    # document is a tree the writers build, so no cycle check is needed
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True,
                      check_circular=False) + "\n"


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
    add(f"clique counts by size: {list(cert.f_vector.clique_counts)}")
    degs = set(cert.f_vector.degrees)
    add(f"facet degrees: {sorted(degs)}")
    add("")
    add("-- moves and orbit --")
    add(f"moves: {len(moves)} blocks, sizes {[len(b) for b in moves]}")
    add(f"orbit size: {len(cert.orbit_serials)}")
    add("")
    add("-- bad faces --")
    if cert.bad_faces:
        for sig, faces in sorted(cert.bad_faces.items()):
            add(f"  signature ({','.join(map(str, sig))}): {len(faces)} faces")
    else:
        add("  none")
    add("")
    add("-- verdicts --")
    n_faces = len({tuple(r["face"]) for r in cert.verdict_rows})
    n_states = len(cert.orbit_serials)
    add(f"coverage: {n_faces} faces x {n_states} states = {n_faces * n_states} "
        f"pairs in {len(cert.verdict_rows)} classes")
    hist = Counter(r["verdict"] for r in cert.verdict_rows)
    for verdict in sorted(hist):
        add(f"  {verdict}: {hist[verdict]} classes")
    branches = Counter(map(row_branch, cert.verdict_rows))
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
        return document_to_json(
            certificate_to_document(cert, include_timings=include_timings)
        )
    raise ValueError(f"unknown format {format!r}")
