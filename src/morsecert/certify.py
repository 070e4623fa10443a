"""The prover: the pipelines that fill the report format of `report`,
which the verifier checks and which imports nothing from here.

A certificate covers every clique face of the polytope crossed with every
state of the orbit, in the rows of its `kernel.Subject`'s plan.  The plan
fixes a good face's row; the sweep finds each bad row's outcome, its verdict
and the evidence id it cites: a legality item, the shared item of its ℓ
when the all-pairs lemma (README) makes it Critical(ℓ), or none when
Unknown; the structured report splices the outcomes into the subject's kept
text of its rows.  Evidence is content-addressed, so states share it.  Cusp
boundary cubes are certified by the cone apexes of their parts, one pair
per In part that the subject's cusp plan lists, beside the rows that
`report.cusp_rows` writes.  Every certificate is found by a deterministic
rule on every run, so reports are reproducible byte for byte; the root seed
is only recorded.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .errors import InputError
from .io import builtin_inputs, builtin_subject, subject_from_inputs
from .kernel import PlannedRow, Subject, all_pairs_index
from .links import CriticalLinkCertifier, certify_boundary_cube, classify_link
from .report import (
    BUILTINS, MODES, Certificate, _eid, _inputs_digest, cusp_rows, euler_identity,
    legality_header, report_tables, shared_header, verdict_allowed,
)
from .states import split_legality


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


# ---------------------------------------------------------------------------
# Verdict sweep


def _classify_group(
    S: Subject,
    p: PlannedRow,
    *,
    certifier: CriticalLinkCertifier,
    shared_ids: Dict[int, str],
    parts: Optional[dict] = None,
):
    """Classify the planned row of a bad face: totally legal when both
    parts of its masks' split are certified, else Critical or Unknown by
    `classify_link` on its face, a Critical(ℓ) row citing `shared_ids[ℓ]`;
    returns ((verdict, evidence id or None), evidence, failure-or-None).
    `parts` keeps the run's part certificates (`split_legality`)."""
    rec = split_legality(S.P, *p.masks, parts)
    if rec.totally_legal:
        payload = legality_evidence_payload(rec)
        eid = _eid(payload)
        return ("Regular", eid), {eid: payload}, None
    lc = classify_link(S, p.F, certifier=certifier)
    if lc.verdict == "Critical":
        return (f"Critical({lc.index})", shared_ids[lc.index]), {}, None
    failure = f"Unknown verdict at face {p.face} states {list(p.states)}: {lc.note}"
    return ("Unknown", None), {}, failure


_WORKER_CTX: dict = {}


def _worker_init(S, certifier, shared_ids, parts):
    _WORKER_CTX["args"] = (S,)
    _WORKER_CTX["kwargs"] = {"certifier": certifier, "shared_ids": shared_ids, "parts": parts}


def _worker_classify(task):
    return _classify_group(*_WORKER_CTX["args"], task, **_WORKER_CTX["kwargs"])


def _verdict_sweep(
    S: Subject,
    *,
    certifier: CriticalLinkCertifier,
    failures: List[str],
    parallel: int = 1,
):
    """Classify the bad rows of S's plan in order, each part of a split
    dismantled once: (outcomes, evidence, shared items), an outcome per
    bad row.  A good row's verdict the plan fixes."""
    outcomes: List[Tuple[str, Optional[str]]] = []
    evidence: Dict[str, dict] = {}
    tasks = [p for p in S.plan if p.witness is None]
    parts: Dict[int, Optional[list]] = {}  # part mask -> its certificate, for this run

    # one shared item per ℓ, built before any fork so that workers inherit
    # the certificates and cite each item by its id in `shared_ids`
    shared_items: Dict[str, dict] = {}
    shared_ids: Dict[int, str] = {}
    for ell in sorted({all_pairs_index(S, p.F) for p in tasks} - {None}):
        payload = critical_shared_payload(certifier.certificate(ell))
        shared_ids[ell] = _eid(payload)
        shared_items[shared_ids[ell]] = payload

    if parallel > 1 and tasks:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(
            parallel, initializer=_worker_init,
            initargs=(S, certifier, shared_ids, parts),
        ) as pool:
            results = pool.map(_worker_classify, tasks, chunksize=8)
    else:
        results = [_classify_group(S, p, certifier=certifier, shared_ids=shared_ids,
                                   parts=parts) for p in tasks]
    for outcome, ev, failure in results:
        outcomes.append(outcome)
        evidence.update(ev)
        if failure:
            failures.append(failure)
    cited = {eid for _, eid in outcomes}
    shared = {sid: item for sid, item in shared_items.items() if sid in cited}
    return tuple(outcomes), evidence, shared


# ---------------------------------------------------------------------------
# Cusp suite


def _cusp_suite(S: Subject, failures: List[str]) -> Tuple[tuple, tuple]:
    """(apexes, rows): for each cusp in the polytope's order, the apex pairs
    of each bad face of its table, one per In part its plan lists; and one
    row per (cusp, state), states in the orbit's order, by `cusp_rows`."""
    apexes: List[list] = []
    rows: List[dict] = []
    for iv, table in zip(S.P.ideal_vertices, S.cusps):
        found = certify_boundary_cube(S.P, table)
        unproved = {i: {inn: pair for inn, pair in zip(parts, pairs) if None in pair}
                    for i, (parts, pairs) in enumerate(zip(table.parts, found))
                    if any(None in pair for pair in pairs)}  # face position -> {In part: pair}
        apexes.append(found)
        rows += cusp_rows(table, S.in_masks, unproved)
        for idx, s_in in enumerate(S.in_masks):
            if not table.held:
                failures.append(f"cusp condition fails at {iv.id} state {idx}")
            for i, pairs in unproved.items():
                ids, _, free = table.bad[i]
                if free & s_in in pairs:
                    failures.append(f"boundary cube at {iv.id} state {idx}: face {tuple(ids)} "
                                    f"not certified, a part is not a cone "
                                    f"(apexes {tuple(pairs[free & s_in])})")
    return tuple(apexes), tuple(rows)


# ---------------------------------------------------------------------------
# Shared pipeline

# The most worker processes a run may fork for its verdict sweep, checked
# before any starts.
MAX_PARALLEL = 16


def run_pipeline(
    S: Subject,
    *,
    subject: str,
    mode: str,
    inputs_digest: str,
    seed: int = 0,
    generic_inputs: Optional[dict] = None,
    parallel: int = 1,
) -> Certificate:
    """Full face-by-state classification, cusp suite and consistency identity
    on S, whose states are compatible, as the all-pairs lemma needs, and
    whose census, orbit and cusp sections were checked where it was built.
    The f_vector, orbit, bad_faces and coverage stages read S; coverage
    builds its plan on first use.

    `parallel` is from 1 to `MAX_PARALLEL`; above 1, the independent
    (face, class) groups fan out to a process pool; results merge in
    canonical key order, so reports are identical to a sequential run.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if parallel < 1:
        raise InputError(f"{parallel} worker processes, want from 1 to {MAX_PARALLEL}")
    if parallel > MAX_PARALLEL:
        raise InputError(f"{parallel} worker processes, past the limit of {MAX_PARALLEL}")
    failures: List[str] = []
    timings: Dict[str, float] = {}
    t_total = time.perf_counter()
    for stage, part in (("f_vector", "f_vector"), ("orbit", "states"),
                        ("bad_faces", "bad_faces"), ("coverage", "plan")):
        t0 = time.perf_counter()
        getattr(S, part)
        timings[stage] = time.perf_counter() - t0

    t0 = time.perf_counter()
    certifier = CriticalLinkCertifier()
    outcomes, evidence, shared = _verdict_sweep(
        S, certifier=certifier, failures=failures, parallel=parallel)
    timings["verdicts"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cusp_apexes, cusp_rows = _cusp_suite(S, failures)
    timings["cusps"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    euler = euler_identity(S)
    if not euler.passed:
        failures.append(euler.failure())
    timings["euler"] = time.perf_counter() - t0

    # a good row is Regular; Unknown rows were already recorded as failures
    for p, (verdict, _) in zip((p for p in S.plan if p.witness is None), outcomes):
        if verdict != "Unknown" and not verdict_allowed(mode, S.P.dimension, verdict):
            failures.append(f"verdict {verdict} at {p.face} not allowed in {mode} mode")

    timings["total"] = time.perf_counter() - t_total
    passed = not failures
    return Certificate(
        subject=subject,
        mode=mode,
        passed=passed,
        seed=seed,
        S=S,
        outcomes=outcomes,
        evidence=evidence,
        shared_evidence=shared,
        cusp_apexes=cusp_apexes,
        cusp_rows=cusp_rows,
        euler=euler,
        failures=tuple(failures),
        timings=timings,
        tables=report_tables(S, euler, inputs_digest),
        generic_inputs=generic_inputs,
    )


def _certify_builtin(tag: str, seed: int, parallel: int) -> Certificate:
    """The pipeline on the built-in subject `tag`, under its report name
    and in its mode."""
    b = BUILTINS[tag]
    return run_pipeline(builtin_subject(tag), subject=b.name, mode=b.mode, seed=seed,
                        inputs_digest=builtin_inputs(tag)[1], parallel=parallel)


def certify_p6(*, seed: int = 0, parallel: int = 1) -> Certificate:
    """Certify the 27-facet 6-polytope: every link Regular or Critical(3)."""
    return _certify_builtin("p6", seed, parallel)


def certify_p5(*, seed: int = 0, parallel: int = 1) -> Certificate:
    """Certify the 16-facet 5-polytope: a fibration, all links Regular."""
    return _certify_builtin("p5", seed, parallel)


def certify_generic(inputs: dict, *, mode: str = "perfect", seed: int = 0,
                    parallel: int = 1) -> Certificate:
    """Pipeline over the orbit closure of a user-supplied initial state, on
    the subject built from the documents {"polytope", "moves", "state"},
    each of the shape its schema gives, as `verify` builds it from the
    report, which embeds them."""
    return run_pipeline(subject_from_inputs(inputs), subject="generic", mode=mode, seed=seed,
                        inputs_digest=_inputs_digest("generic", inputs),
                        generic_inputs=inputs, parallel=parallel)
