"""Rendering of certificates: human-readable text and a canonical structured
document (stable key order, exact integers, rationals as [num, den] pairs).

Timing values are stripped from the structured form by default so that two
runs produce byte-identical reports; pass include_timings=True to embed
wall-clock data.  Text reports name each verdict row's branch by
`row_branch`, from its witness key and verdict.
"""

from __future__ import annotations

import json
from collections import Counter
from .certify import Certificate

# The format's shape is `schema.REPORT`.
REPORT_VERSION = "8"


def row_branch(row: dict) -> str:
    """The branch of a verdict row, by its witness key and, for a bad
    face's row citing evidence, its verdict."""
    if "witness_move" in row:
        return "good-face"
    if "evidence" not in row:
        return "unknown"
    return "critical-pairs" if row["verdict"].startswith("Critical(") else "inherited-totally-legal"


def certificate_to_document(cert: Certificate, *, include_timings: bool = False) -> dict:
    """The structured report: the claim and its provenance, the tables of
    `certify.report_tables` that the verifier recomputes, and the verdict
    and cusp rows with the evidence they cite, which it replays."""
    doc = {
        "version": REPORT_VERSION,
        "subject": cert.subject,
        "mode": cert.mode,
        "pass": cert.passed,
        "seeds": {"root": cert.seed},
        **cert.tables,
        "verdicts": {"rows": list(cert.verdict_rows)},
        "evidence": {k: cert.evidence[k] for k in sorted(cert.evidence)},
        "shared_evidence": {
            k: cert.shared_evidence[k] for k in sorted(cert.shared_evidence)
        },
        "cusps": {"rows": list(cert.cusp_rows)},
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


def render_text(cert: Certificate) -> str:
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
    if cert.timings:
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
        return render_text(cert)
    if format == "structured":
        return document_to_json(
            certificate_to_document(cert, include_timings=include_timings)
        )
    raise ValueError(f"unknown format {format!r}")
