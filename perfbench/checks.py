"""Output checks against the paper's known answers, and tampered report copies.

Every function here returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

# The paper's answers for the two built-in subjects.
EXPECTED = {
    "p6": {
        "subject": "P6_perfect_morse",
        "verdicts": {"Regular", "Critical(3)"},
        "n_faces": 2764,
        "n_states": 32,
        "critical_faces": 8,
        "chi_per_copy": [-1, 8],
        "n_cusps": 27,
    },
    "p5": {
        "subject": "P5_fibration",
        "verdicts": {"Regular"},
        "n_faces": 393,
        "n_states": 16,
        "critical_faces": 0,
        "chi_per_copy": [0, 1],
        "n_cusps": 10,
    },
}

VERIFIED_LINE = "report verified: all certificates replay"


def check_certify(subject: str, rc: int, stdout: str, doc: Optional[dict]) -> List[str]:
    """Problems with one `certify <subject>` run and the report it wrote;
    `doc` is None when the report is byte-identical to one already checked."""
    want = EXPECTED[subject]
    problems = []
    if rc != 0:
        problems.append(f"certify {subject} exited {rc}")
    if "CERTIFIED" not in stdout or "NOT CERTIFIED" in stdout:
        problems.append(f"certify {subject} printed no certified summary")
    if doc is None:
        return problems
    if doc.get("subject") != want["subject"] or doc.get("pass") is not True:
        problems.append(f"report does not claim a passing {want['subject']}")
    if doc.get("failures"):
        problems.append(f"report lists failures: {doc['failures'][:3]}")
    rows = doc["verdicts"]["rows"]
    verdicts = {r["verdict"] for r in rows}
    if verdicts != want["verdicts"]:
        problems.append(f"verdicts {sorted(verdicts)} != {sorted(want['verdicts'])}")
    coverage: Dict[tuple, Counter] = {}
    for r in rows:
        coverage.setdefault(tuple(r["face"]), Counter()).update(r["states"])
    full = Counter(range(want["n_states"]))
    if len(coverage) != want["n_faces"]:
        problems.append(f"{len(coverage)} faces covered, want {want['n_faces']}")
    uncovered = sum(1 for c in coverage.values() if c != full)
    if uncovered:
        problems.append(f"{uncovered} faces not covered exactly once per state")
    critical = {tuple(r["face"]) for r in rows if r["verdict"].startswith("Critical")}
    if len(critical) != want["critical_faces"]:
        problems.append(f"{len(critical)} critical faces, want {want['critical_faces']}")
    euler = doc["euler"]
    if euler["chi_per_copy"] != want["chi_per_copy"] or euler["pass"] is not True:
        problems.append(f"chi per copy {euler['chi_per_copy']} != {want['chi_per_copy']}")
    cusps = doc["cusps"]["rows"]
    if len(cusps) != want["n_cusps"] * want["n_states"]:
        problems.append(f"{len(cusps)} cusp rows, want {want['n_cusps'] * want['n_states']}")
    if not all(r["ok"] and r["all_regular"] for r in cusps):
        problems.append("a cusp row is not ok and all Regular")
    return problems


def check_verify(rc: int, stdout: str) -> List[str]:
    if rc == 0 and VERIFIED_LINE in stdout:
        return []
    return [f"verify exited {rc}: {stdout.strip()[:200]}"]


def _drop_last_step(sequence: list) -> None:
    if not sequence:
        raise ValueError("cannot tamper an empty sequence")
    sequence.pop()


def tamper(doc: dict, seed: int, *, shared: bool) -> Tuple[dict, List[str]]:
    """Edit report `doc` in place so that a sound verifier must reject it.

    Drops the last step of the `out_sequence` of one ambient legality
    evidence item, chosen from the seed.  With `shared`, also drops the last
    step of the shared critical `desc_sequence`.  Returns the edited report
    and the evidence ids whose failure the verifier must name.
    """
    bad = doc
    ambient = sorted(
        eid for eid, ev in bad["evidence"].items()
        if ev["kind"] == "legality" and ev["host"]["type"] == "ambient"
        and ev["out_sequence"]
    )
    eid = random.Random(seed).choice(ambient)
    _drop_last_step(bad["evidence"][eid]["out_sequence"])
    named = [eid]
    if shared:
        sid = sorted(bad["shared_evidence"])[0]
        _drop_last_step(bad["shared_evidence"][sid]["desc_sequence"])
        named.append(sid)
    return bad, named


def check_rejected(rc: int, stdout: str, named: List[str]) -> List[str]:
    """Problems with the verifier's answer on a tampered copy."""
    problems = []
    if rc != 1:
        problems.append(f"tampered report: verify exited {rc}, want 1")
    for eid in named:
        if eid not in stdout:
            problems.append(f"tampered report: verify did not name {eid}")
    return problems


def report_sections(doc: dict) -> Dict[str, int]:
    """Compact JSON bytes of the report sections, and sequence steps."""
    sizes = {
        key: len(json.dumps(doc[key], separators=(",", ":")))
        for key in ("evidence", "shared_evidence", "verdicts", "cusps")
    }
    sizes["sequence_steps"] = sum(
        len(value)
        for section in ("evidence", "shared_evidence")
        for item in doc[section].values()
        for key, value in item.items()
        if key.endswith("_sequence")
    )
    return sizes
