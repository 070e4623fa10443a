"""End-to-end certification pipelines with replayable evidence tables.

A certificate covers every clique face of the polytope crossed with every
state of the orbit, in the rows of `verdict_plan`: one per good face and one
per (bad face, inherited In class), each written by `verdict_row`; a bad
face's row cites its legality item or the shared item of its ℓ.  A
Critical(ℓ) row is decided by its face alone, as a good row is, by the
all-pairs lemma (README), so no cube is built.  Evidence
blobs are content-addressed, which also deduplicates them across states.  Cusp
boundary cubes are certified by the cone apexes of their parts, recorded
inline in rows that `cusp_row`, their one writer, makes and the verifier
compares whole.  Every certificate is found by a deterministic rule, so
reports are reproducible byte for byte; the root seed is only recorded.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, StructuralError
from .links import (
    CriticalLinkCertifier,
    certify_boundary_cube,
    classify_link,
    cusp_table,
)
from .polytopes import (
    FaceHandle,
    FVectorReport,
    Polytope,
    f_vector_check,
    TABLE_G6,
)
from .states import (
    MoveSystem,
    State,
    R_TABLE,
    all_pairs_index,
    builtin_subject,
    classify_bad_faces,
    face_masks,
    face_table,
    generic_orbit,
    orbit,
    split_legality,
)


def canonical_json(obj) -> str:
    # only trees reach here: payloads the writers build, or parsed JSON
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _eid(payload: dict) -> str:
    return "e" + hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


# Evidence headers: the fields of an evidence item that the claim citing it
# determines.  An item is its header plus its sequences, and its id is the
# hash of its content; the verifier rebuilds each header from the claim.
# A legality item names no face and no part: the claim citing it gives both,
# so one item serves every claim whose parts its sequences certify.


def legality_header() -> dict:
    return {"kind": "legality", "host": {"type": "ambient"}}


def shared_header(ell: int) -> dict:
    return {"kind": "critical-shared", "ell": ell}


def legality_evidence_payload(rec) -> dict:
    """A legality item: its header and the certificates of both parts, which
    `states.flag_certificate` already gives in report form."""
    return {
        **legality_header(),
        "out_sequence": rec.out_sequence,
        "in_sequence": rec.in_sequence,
    }


def critical_shared_payload(cert) -> dict:
    """The shared item: its header and the certificates of both face links,
    which `links.CriticalLinkCertifier` already gives in report form."""
    return {
        **shared_header(cert.ell),
        "asc_sequence": cert.asc_sequence,
        "desc_sequence": cert.desc_sequence,
    }


@dataclass(frozen=True)
class EulerRecord:
    chi_per_copy: Fraction
    critical_count: int
    critical_per_copy: Fraction
    passed: bool


@dataclass
class Certificate:
    subject: str
    mode: str
    passed: bool
    seed: int
    f_vector: FVectorReport
    bad_faces: Dict[Tuple[int, ...], Tuple[FaceHandle, ...]]
    verdict_rows: Tuple[dict, ...]  # report rows, by `verdict_row`
    evidence: Dict[str, dict]
    shared_evidence: Dict[str, dict]
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
        tag = {"P6_perfect_morse": "P6", "P5_fibration": "P5"}.get(
            self.subject, "GENERIC"
        )
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


# ---------------------------------------------------------------------------
# Euler identity


def euler_identity(P: Polytope, m: MoveSystem) -> EulerRecord:
    """Two independent censuses: alternating clique-count sum versus the
    all-pairs bad vertices, each per copy of the polytope.

    chi = sum_k (-1)^k N_k / 2^k with N_k the number of codim-k clique faces;
    the identity asserts chi == -(number of all-pairs vertices) / 2^dim.
    """
    chi = sum(
        Fraction((-1) ** k * P.clique_count(k), 2 ** k) for k in range(P.dimension + 1)
    )
    n_crit = sum(1 for F in face_table(P, m).bad if all_pairs_index(P, m, F) is not None)
    crit = Fraction(n_crit, 2 ** P.dimension)
    return EulerRecord(chi, n_crit, crit, chi == -crit)


def report_tables(
    P: Polytope, m: MoveSystem, states: Sequence[State], fv: FVectorReport,
    bad: Dict[Tuple[int, ...], Tuple[FaceHandle, ...]], euler: EulerRecord,
    inputs_digest: str,
) -> dict:
    """The deterministic sections of a report, in report order, from what the
    caller already computed.  The pipeline's certificate carries them to the
    report, and the verifier compares a report's sections with this function
    applied to its own recomputation, so each section has this one writer."""
    chi = euler.chi_per_copy
    return {
        "inputs_digest": inputs_digest,
        "polytope": {"name": P.name, "dimension": P.dimension, "facets": list(P.facet_ids)},
        "moves": [sorted(b) for b in m.blocks],
        "orbit": [s.serial() for s in states],
        "f_vector": {"clique_counts": list(fv.clique_counts), "degrees": list(fv.degrees)},
        "bad_faces": {"signatures": {
            ",".join(map(str, sig)): [list(F.sorted_ids()) for F in faces]
            for sig, faces in sorted(bad.items())
        }},
        "euler": {
            "chi_per_copy": [chi.numerator, chi.denominator],
            "critical_count": euler.critical_count,
            "pass": euler.passed,
        },
    }


# ---------------------------------------------------------------------------
# Verdict sweep


class PlannedRow(NamedTuple):
    """A verdict row as `verdict_plan` fixes it: its face's sorted ids, the
    states it covers, and what its branch rests on, the face table's good
    witness of a good face or, for a bad face, its handle `F` and the
    (dual, in) rank masks of its inherited-In class."""

    F: Optional[FaceHandle]
    face: Tuple[str, ...]
    states: Tuple[int, ...]
    witness: Optional[int] = None
    masks: Optional[Tuple[int, int]] = None


def verdict_plan(P: Polytope, m: MoveSystem, states: Sequence[State]) -> Iterator[PlannedRow]:
    """The verdict rows in report order: every face in canonical order, a
    good face as one row over all states, a bad face as one row per
    inherited-In class, classes in order of their states.  The pipeline
    fills this plan, and the verifier requires a report's rows to be it.
    Only a bad face gets a handle, the face table's, in the same order."""
    all_states, G, table = tuple(range(len(states))), P.ranked_graph(), face_table(P, m)
    in_masks = [G.mask(s.in_facets) for s in states]
    bad = iter(table.bad)
    for f, witness in zip(table.masks, table.witnesses):
        ids = G.labels(f)
        if witness is not None:
            yield PlannedRow(None, ids, all_states, witness=witness)
            continue
        F = next(bad)
        dual, free = face_masks(P, m, F)
        classes: Dict[int, List[int]] = {}
        for idx, s_in in enumerate(in_masks):
            classes.setdefault(free & s_in, []).append(idx)
        for inn, members in classes.items():
            yield PlannedRow(F, ids, tuple(members), masks=(dual, inn))


# The one writer of a verdict row, from the plan: the pipeline writes its
# rows with it, and the verifier compares each row with it.  A row carries
# only the witness of its branch: a good face's `witness_move`; for a bad
# face, the `evidence` id it cites, a legality item when Regular and the
# shared item of its ℓ when Critical(ℓ), none when Unknown.  `states` ascend.


def verdict_row(p: PlannedRow, verdict: str, **witness) -> dict:
    return {"face": list(p.face), "verdict": verdict, "states": list(p.states), **witness}


def good_row(p: PlannedRow) -> dict:
    return verdict_row(p, "Regular", witness_move=p.witness)


def _classify_group(
    P: Polytope,
    m: MoveSystem,
    p: PlannedRow,
    *,
    certifier: CriticalLinkCertifier,
    shared_ids: Dict[int, str],
):
    """Classify the planned row of a bad face: totally legal when both
    parts of its masks' split are certified, else Critical or Unknown by
    `classify_link` on its face, a Critical(ℓ) row citing `shared_ids[ℓ]`;
    returns (row, evidence, failure-or-None)."""
    rec = split_legality(P, *p.masks)
    if rec.totally_legal:
        payload = legality_evidence_payload(rec)
        eid = _eid(payload)
        return verdict_row(p, "Regular", evidence=eid), {eid: payload}, None
    lc = classify_link(P, m, p.F, certifier=certifier)
    if lc.verdict == "Critical":
        return verdict_row(p, f"Critical({lc.index})", evidence=shared_ids[lc.index]), {}, None
    failure = f"Unknown verdict at face {p.face} states {list(p.states)}: {lc.note}"
    return verdict_row(p, "Unknown"), {}, failure


_WORKER_CTX: dict = {}


def _worker_init(P, m, certifier, shared_ids):
    _WORKER_CTX["args"] = (P, m)
    _WORKER_CTX["kwargs"] = {"certifier": certifier, "shared_ids": shared_ids}


def _worker_classify(task):
    return _classify_group(*_WORKER_CTX["args"], task, **_WORKER_CTX["kwargs"])


def _verdict_sweep(
    P: Polytope,
    m: MoveSystem,
    states: Sequence[State],
    *,
    certifier: CriticalLinkCertifier,
    failures: List[str],
    parallel: int = 1,
):
    """Fill `verdict_plan` in order: a good face's row directly, a bad
    face's rows by classifying them."""
    rows: List[dict] = []
    evidence: Dict[str, dict] = {}
    plan = list(verdict_plan(P, m, states))
    tasks = [p for p in plan if p.witness is None]

    # one shared item per ℓ, built before any fork so that workers inherit
    # the certificates and cite each item by its id in `shared_ids`
    shared_items: Dict[str, dict] = {}
    shared_ids: Dict[int, str] = {}
    for ell in sorted({all_pairs_index(P, m, p.F) for p in tasks} - {None}):
        payload = critical_shared_payload(certifier.certificate(ell))
        shared_ids[ell] = _eid(payload)
        shared_items[shared_ids[ell]] = payload

    if parallel > 1 and tasks:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(
            parallel, initializer=_worker_init,
            initargs=(P, m, certifier, shared_ids),
        ) as pool:
            results = pool.map(_worker_classify, tasks, chunksize=8)
    else:
        results = [_classify_group(P, m, p, certifier=certifier, shared_ids=shared_ids)
                   for p in tasks]
    results = iter(results)
    for p in plan:
        if p.witness is not None:
            rows.append(good_row(p))
            continue
        row, ev, failure = next(results)
        rows.append(row)
        evidence.update(ev)
        if failure:
            failures.append(failure)
    cited = {row.get("evidence") for row in rows}
    shared = {sid: item for sid, item in shared_items.items() if sid in cited}
    return tuple(rows), evidence, shared


# ---------------------------------------------------------------------------
# Cusp suite


def cusp_row(ok: bool, checked: list) -> dict:
    """The one writer of a cusp row, for certify and verify alike: `ok`,
    whether the cusp condition holds; `checked`, the [out apex, in apex]
    pair of each bad face of the cusp's table, in its order, none where the
    condition fails; and `all_regular`, derived: the condition holds and
    every part has an apex.  The row names neither its cusp nor its state:
    its position does."""
    return {"ok": ok, "all_regular": ok and all(None not in pair for pair in checked),
            "checked": checked}


def _cusp_suite(
    P: Polytope, m: MoveSystem, states: Sequence[State], failures: List[str]
) -> Tuple[dict, ...]:
    """One row per (cusp, state), cusps in the polytope's order, states in
    the orbit's."""
    rows: List[dict] = []
    in_masks = [P.ranked_graph().mask(s.in_facets) for s in states]
    for iv in P.ideal_vertices:
        table = cusp_table(P, m, iv.id)
        for idx, s_in in enumerate(in_masks):
            row = cusp_row(*certify_boundary_cube(P, s_in, table))
            rows.append(row)
            if not row["ok"]:
                failures.append(f"cusp condition fails at {iv.id} state {idx}")
            for (face_ids, _, _), apexes in zip(table.bad, row["checked"]):
                if None in apexes:
                    failures.append(
                        f"boundary cube at {iv.id} state {idx}: face {tuple(face_ids)} "
                        f"not certified, a part is not a cone (apexes {tuple(apexes)})"
                    )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Shared pipeline


def _inputs_digest(tag: str, extra: Optional[dict] = None) -> str:
    data = {
        "tag": tag,
        "table": [[lbl, list(vec)] for lbl, vec in TABLE_G6],
        "r_table": [[r, list(row)] for r, row in R_TABLE],
    }
    if extra is not None:
        data["inputs"] = extra
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def run_pipeline(
    P: Polytope,
    m: MoveSystem,
    states: Sequence[State],
    *,
    subject: str,
    mode: str,
    seed: int = 0,
    inputs_digest: str = "",
    generic_inputs: Optional[dict] = None,
    parallel: int = 1,
) -> Certificate:
    """Full face-by-state classification, cusp suite and consistency identity.
    `states` are compatible, as the all-pairs lemma needs, and a built-in
    subject's census is the paper's: `builtin_subject` or `generic_orbit`
    checked both when the subject was built.

    With parallel > 1 the independent (face, class) groups fan out to a
    process pool; results merge in canonical key order, so reports are
    identical to a sequential run.
    """
    if mode not in ("perfect", "fibration"):
        raise InputError(f"unknown mode {mode!r}")
    failures: List[str] = []
    timings: Dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    if not m.covers(P.facet_ids):
        raise InputError("move system does not partition the facet set")
    fv = f_vector_check(P)
    timings["f_vector"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    orb = orbit(states[0], m)
    if set(orb) != set(states):
        failures.append("supplied states are not the orbit of the first state")
    timings["orbit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bad = classify_bad_faces(P, m)
    timings["bad_faces"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    certifier = CriticalLinkCertifier()
    rows, evidence, shared = _verdict_sweep(
        P, m, states,
        certifier=certifier,
        failures=failures,
        parallel=parallel,
    )
    timings["verdicts"] = time.perf_counter() - t0

    # coverage: every face x state exactly once
    t0 = time.perf_counter()
    per_face: Dict[Tuple[str, ...], list] = {}
    for row in rows:
        per_face.setdefault(tuple(row["face"]), []).extend(row["states"])
    n_faces = len(face_table(P, m).masks)
    if len(per_face) != n_faces:
        failures.append("verdict table does not cover every face")
    for face, idxs in per_face.items():
        if sorted(idxs) != list(range(len(states))):
            failures.append(f"verdict table does not cover all states at {face}")
            break
    timings["coverage"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cusp_rows = _cusp_suite(P, m, states, failures)
    timings["cusps"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    euler = euler_identity(P, m)
    if not euler.passed:
        failures.append(
            f"consistency identity fails: chi {euler.chi_per_copy} vs "
            f"-{euler.critical_per_copy}"
        )
    timings["euler"] = time.perf_counter() - t0

    for row in rows:
        # Unknown rows were already recorded as failures
        verdict = row["verdict"]
        if verdict != "Unknown" and not verdict_allowed(mode, P.dimension, verdict):
            failures.append(f"verdict {verdict} at {tuple(row['face'])} not allowed in {mode} mode")

    timings["total"] = time.perf_counter() - t_total
    passed = not failures
    return Certificate(
        subject=subject,
        mode=mode,
        passed=passed,
        seed=seed,
        f_vector=fv,
        bad_faces=bad,
        verdict_rows=rows,
        evidence=evidence,
        shared_evidence=shared,
        cusp_rows=cusp_rows,
        euler=euler,
        failures=tuple(failures),
        timings=timings,
        tables=report_tables(P, m, states, fv, bad, euler, inputs_digest),
        generic_inputs=generic_inputs,
    )


def certify_p6(*, seed: int = 0, parallel: int = 1) -> Certificate:
    """Certify the 27-facet 6-polytope: every link Regular or Critical(3)."""
    return run_pipeline(*builtin_subject("p6"), subject="P6_perfect_morse", mode="perfect",
                        seed=seed, inputs_digest=_inputs_digest("p6"), parallel=parallel)


def certify_p5(*, seed: int = 0, parallel: int = 1) -> Certificate:
    """Certify the 16-facet 5-polytope: a fibration, all links Regular."""
    return run_pipeline(*builtin_subject("p5"), subject="P5_fibration", mode="fibration",
                        seed=seed, inputs_digest=_inputs_digest("p5"), parallel=parallel)


def certify_generic(
    P: Polytope,
    m: MoveSystem,
    initial_state: State,
    *,
    mode: str = "perfect",
    seed: int = 0,
    generic_inputs: Optional[dict] = None,
    parallel: int = 1,
) -> Certificate:
    """Pipeline over the orbit closure of a user-supplied initial state,
    which `generic_orbit` checks compatible first."""
    states = generic_orbit(P, m, initial_state)
    digest = _inputs_digest("generic", generic_inputs)
    try:
        return run_pipeline(
            P, m, states,
            subject="generic",
            mode=mode,
            seed=seed,
            inputs_digest=digest,
            generic_inputs=generic_inputs,
            parallel=parallel,
        )
    except StructuralError as exc:
        # user data that breaks the face census or a cusp's cube structure
        raise InputError(str(exc)) from exc
