"""The morsecert benchmark: certify and verify the paper's subjects the way a
user does, through `morsecert certify ... --format structured --output F` and
`morsecert verify F`, run in this process through `morsecert.cli.main`.

    python3 perfbench/run.py --workload p6-certify|p6-verify|p5-roundtrip \\
        --seed N --seconds S --trace 0|1

Load is a closed loop with one client: the next operation starts when the
previous one has returned, serially, until the operations have taken
`--seconds` seconds (at least one operation).  Every output is checked
against the paper's known answers (see checks.py).  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` the same operations run with every layer boundary wrapped
from outside (see spans.py) and the object holds the per-layer metrics.
README.md lists the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("p6-certify", "p6-verify", "p5-roundtrip")
SUBJECT = {"p6-certify": "p6", "p6-verify": "p6", "p5-roundtrip": "p5"}
# the calls that make up one operation of each workload
OP_PHASES = {
    "p6-certify": ("certify",),
    "p6-verify": ("verify",),
    "p5-roundtrip": ("certify", "verify"),
}
SETUP_REPEATS = 5  # set-up probes per run; setup_s is their median
P5_REFERENCE_OPS = 5  # untraced p5 round trips in a traced run
STAGES = ("f_vector", "orbit", "bad_faces", "verdicts", "coverage", "cusps", "euler")

sys.path[:0] = [str(HERE), str(SRC)]
from checks import (  # noqa: E402
    check_certify, check_rejected, check_verify, report_sections, tamper,
)
from spans import Tracer  # noqa: E402


def certify_argv(subject: str, path: Path, seed: int, *extra: str) -> List[str]:
    return ["certify", subject, "--seed", str(seed), "--format", "structured",
            "--output", str(path), *extra]


def tail(samples: List[float]):
    """Highest nearest-rank percentile with at least ten samples above it;
    the maximum when there are fewer than twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    q = (100 * (n - 10)) // n
    return f"p{q}", ordered[-(-q * n // 100) - 1]


def op_times(workload: str, samples: Dict[str, List[float]]) -> List[float]:
    """Seconds of each operation of `workload`, from per-call samples."""
    return [sum(t) for t in zip(*(samples[p] for p in OP_PHASES[workload]))]


class Bench:
    """State of one benchmark run: its operations, checks and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path):
        from morsecert.cli import main

        self.main = main
        self.workload = workload
        self.subject = SUBJECT[workload]
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.attempted = 0
        self.failed_ops = set()
        self.setup_problems: List[str] = []
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.tracer: Optional[Tracer] = None
        self.peak_rss_mb = 0.0
        self._good_reports = set()

    # -- running morsecert ----------------------------------------------------

    def call(self, argv: List[str]):
        """One untraced `morsecert` call in this process, after a collection
        that is not timed; returns (exit code, printed text, seconds)."""
        gc.collect()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = self.main(argv)
            seconds = time.perf_counter() - t0
        return rc, buf.getvalue(), seconds

    def op(self, phase: str, argv: List[str]):
        """One workload operation of kind `phase`, traced while tracing is
        on; its seconds join the samples."""
        if self.tracer is None:
            rc, out, seconds = self.call(argv)
        else:
            gc.collect()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc, seconds = self.tracer.op(phase, lambda: self.main(argv))
            out = buf.getvalue()
        self.samples.setdefault(phase, []).append(seconds)
        return rc, out, seconds

    def child(self, *args: str) -> dict:
        """Run perfbench/child.py in a fresh interpreter and wait for it."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:2]} failed: {proc.stderr.strip()[-500:]}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    # -- checks ----------------------------------------------------------------

    def loop_done(self) -> None:
        """Read the peak RSS as the timed loop ends, before the untimed
        checks that follow it parse and edit whole reports."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, index: int, problems: List[str]) -> None:
        """Record the output check of operation `index`."""
        if problems:
            self.failed_ops.add(index)
            self.problems.extend(f"operation {index}: {p}" for p in problems)

    def report_problems(self, rc: int, stdout: str, path: Path) -> List[str]:
        """Check one certify call; a report already checked is matched by digest."""
        if not path.is_file():
            return [f"certify exited {rc} and wrote no report"]
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest in self._good_reports:
            return check_certify(self.subject, rc, stdout, None)
        problems = check_certify(self.subject, rc, stdout, json.loads(data))
        if not problems:
            self._good_reports.add(digest)
        return problems

    def check_tamper(self, report: Path, *, shared: bool) -> None:
        """The verifier must reject a tampered copy of `report` (untimed)."""
        bad, named = tamper(json.loads(report.read_text()), self.seed, shared=shared)
        path = self.tmp / "tampered.json"
        path.write_text(json.dumps(bad))
        rc, out, _ = self.call(["verify", str(path)])
        self.check(0, check_rejected(rc, out, named))
        path.unlink()

    def setup_probe(self) -> float:
        """Median seconds for a fresh interpreter to import morsecert and
        build the subject: the part of set-up every workload shares."""
        walls = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.child("ready", self.subject)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)


# -- workloads ------------------------------------------------------------------
# Each runs the workload's operations and checks, and returns its set-up
# seconds (untraced runs only) and the report it checked.


def certify_loop(b: Bench, *, then_verify: bool) -> Path:
    """Certify until the operations have taken --seconds; with `then_verify`
    each operation also verifies the report it wrote.  Keeps the first report."""
    first = None
    spent = 0.0
    while first is None or spent < b.seconds:
        path = b.tmp / f"{b.subject}-{b.attempted}.json"
        rc, out, seconds = b.op("certify", certify_argv(b.subject, path, b.seed))
        spent += seconds
        problems = b.report_problems(rc, out, path)
        if then_verify:
            rc, out, seconds = b.op("verify", ["verify", str(path)])
            spent += seconds
            problems += check_verify(rc, out)
        b.check(b.attempted, problems)
        b.attempted += 1
        if first is None:
            first = path
        else:
            path.unlink(missing_ok=True)
    b.loop_done()
    return first


def verify_loop(b: Bench, report: Path) -> None:
    spent = 0.0
    while not b.attempted or spent < b.seconds:
        rc, out, seconds = b.op("verify", ["verify", str(report)])
        spent += seconds
        b.check(b.attempted, check_verify(rc, out))
        b.attempted += 1
    b.loop_done()


def run_p6_certify(b: Bench, trace: bool) -> dict:
    setup_s = None if trace else b.setup_probe()
    first = certify_loop(b, then_verify=False)
    if trace:
        # so that the verify-side layers are traced on this workload too
        rc, out, _ = b.op("verify", ["verify", str(first)])
        b.check(0, check_verify(rc, out))
    return {"setup_s": setup_s, "report": first}


def run_p6_verify(b: Bench, trace: bool) -> dict:
    setup_s = None if trace else b.setup_probe()
    # The report under test comes from this commit.  Untraced, a fresh
    # process writes it, so that this process's peak RSS is the verifier's.
    report = b.tmp / "p6.json"
    argv = certify_argv("p6", report, b.seed)
    if trace:
        rc, out, _ = b.op("certify", argv)
    else:
        t0 = time.perf_counter()
        res = b.child("cli", *argv)
        setup_s += time.perf_counter() - t0
        rc, out = res["rc"], res["stdout"]
    b.setup_problems += b.report_problems(rc, out, report)
    if b.setup_problems:
        return {}
    verify_loop(b, report)
    b.check_tamper(report, shared=True)
    return {"setup_s": setup_s, "report": report}


def run_p5_roundtrip(b: Bench, trace: bool) -> dict:
    setup_s = None if trace else b.setup_probe()
    first = certify_loop(b, then_verify=True)
    b.check_tamper(first, shared=False)
    return {"setup_s": setup_s, "report": first}


RUNNERS = {
    "p6-certify": run_p6_certify,
    "p6-verify": run_p6_verify,
    "p5-roundtrip": run_p5_roundtrip,
}


# -- the untraced references of a traced run --------------------------------------


def references(b: Bench) -> dict:
    """Untraced operations measured after the traced ones: the serial and
    parallel certify for the pool speed-up, the stage timings, and the
    untraced workload operation that the tracing overhead is taken against."""
    n = P5_REFERENCE_OPS if b.subject == "p5" else 1
    samples: Dict[str, List[float]] = {"certify": [], "verify": []}
    stages: Dict[str, List[float]] = {s: [] for s in STAGES}
    for i in range(n):
        path = b.tmp / f"reference-{i}.json"
        rc, out, seconds = b.call(certify_argv(b.subject, path, b.seed, "--timings"))
        samples["certify"].append(seconds)
        doc = json.loads(path.read_text())
        b.check(0, check_certify(b.subject, rc, out, doc))
        for stage in STAGES:
            stages[stage].append(doc["timings"][stage])
        if "verify" in OP_PHASES[b.workload]:
            rc, out, seconds = b.call(["verify", str(path)])
            samples["verify"].append(seconds)
            b.check(0, check_verify(rc, out))
        path.unlink()
    ref = {
        "certify_s": statistics.median(samples["certify"]),
        "op_s": statistics.median(op_times(b.workload, samples)),
        "stages": {s: statistics.median(v) for s, v in stages.items()},
    }

    import morsecert.certify

    fn = getattr(morsecert.certify, f"certify_{b.subject}")
    if "parallel" in inspect.signature(fn).parameters:
        par = []
        for i in range(n):
            path = b.tmp / f"parallel-{i}.json"
            rc, out, seconds = b.call(certify_argv(b.subject, path, b.seed, "--parallel", "2"))
            par.append(seconds)
            b.check(0, b.report_problems(rc, out, path))
            path.unlink()
        ref["par2_s"] = statistics.median(par)
    return ref


def layer_metrics(b: Bench, tr: Tracer, ref: dict, report: Path) -> Dict[str, tuple]:
    """Per-layer metrics: span figures per certify call plus per verify call."""
    per = tr.per_op
    m: Dict[str, tuple] = {}

    def span(name: str, *fields: str):
        for field in fields:
            unit = "s" if field.endswith("_s") else "count"
            m[f"{name}.{field}"] = (per(name, field), unit)

    span("complexes.try_collapse", "calls", "self_s", "simplices", "steps")
    calls = per("complexes.try_collapse", "calls")
    first = per("complexes.try_collapse", "first_pass")
    m["complexes.try_collapse.first_pass_share"] = (first / calls if calls else 0.0, "ratio")
    span("complexes.replay_collapse", "calls", "self_s", "steps")
    span("complexes.betti_mod2", "calls", "self_s")
    span("complexes.full_subcomplex", "self_s")
    span("complexes.order_complex", "self_s")
    span("polytopes.dual_complex", "calls", "self_s")
    span("polytopes.enumerate_faces", "calls", "self_s")
    span("polytopes.build", "self_s")
    span("states.legality", "calls", "self_s")
    span("states.inherited_state", "calls", "self_s")
    requests = per("states.legality", "cache_requests")
    searches = per("complexes.try_collapse", "legality_searches")
    m["states.collapse_cache.requests"] = (requests, "count")
    m["states.collapse_cache.hit_ratio"] = (
        (requests - searches) / requests if requests else 0.0, "ratio")
    span("links.classify_link", "calls", "self_s")
    span("links.critical_certificate", "calls", "builds", "self_s", "total_s")
    span("links.certify_boundary_cube", "calls", "self_s")
    span("links.face_links_oracle", "self_s")
    span("links.canonical_pairs_transform", "calls", "self_s")
    for stage, seconds in ref["stages"].items():
        m[f"certify.stage.{stage}_s"] = (seconds, "s")
    span("certify.critical_shared_payload", "calls", "self_s")
    span("certify.legality_evidence_payload", "calls", "self_s")
    if "par2_s" in ref:
        m["certify.pool.serial_s"] = (ref["certify_s"], "s")
        m["certify.pool.par2_s"] = (ref["par2_s"], "s")
        m["certify.pool.speedup_par2"] = (ref["certify_s"] / ref["par2_s"], "ratio")
    else:
        b.notes.append("certify no longer takes `parallel`: pool metrics absent")
    span("report.to_document", "self_s")
    span("report.to_json", "self_s")
    sections = report_sections(json.loads(report.read_text()))
    for key in ("evidence", "shared_evidence", "verdicts", "cusps"):
        m[f"report.bytes.{key}"] = (sections[key], "bytes")
    m["report.sequence_steps"] = (sections["sequence_steps"], "count")
    m["verify.parse_s"] = (per("verify.parse", "self_s"), "s")
    for check in ("tables", "verdicts", "cusps"):
        span(f"verify.check_{check}", "self_s")
    search = tr.get("verify", "complexes.try_collapse").calls
    m["verify.search_calls"] = (search, "count")
    if search:
        b.check(0, [f"verify ran {search} collapse searches; it must run none"])

    traced_op = statistics.median(op_times(b.workload, b.samples))
    m["trace.overhead"] = (traced_op / ref["op_s"], "ratio")
    roots = [tr.get(p, "op." + p) for p in tr.ops]
    m["trace.attributed_share"] = (
        1 - sum(r.self_s for r in roots) / sum(r.total_s for r in roots), "ratio")
    return m


def check_restored(b: Bench, tr: Tracer) -> None:
    """Every patched name must be the original function again."""
    left = [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in tr.patched
            if getattr(o, k) is not orig]
    for name, mod in list(sys.modules.items()):
        if name == "morsecert" or name.startswith("morsecert."):
            for key, value in vars(mod).items():
                if hasattr(value, "__perfbench_span__"):
                    left.append(f"{name}.{key}")
    if left:
        b.setup_problems.append(f"traced names not restored: {sorted(set(left))}")


# -- entry point ---------------------------------------------------------------------


def calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop.  On a shared machine the
    CPU speed changes with other tenants' load, which the load average does
    not show; this figure shows how fast the machine ran as the run started."""
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "morsecert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "calibration_s": calibration_s(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """One benchmark run; returns the result object and writes the run's
    record (metadata, samples, metrics, spans) to `out`."""
    meta = run_metadata(workload, seed, seconds, int(trace))
    out.mkdir(exist_ok=True)
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        b = Bench(workload, seed, seconds, tmp)
        if trace:
            with Tracer() as tr:
                b.tracer = tr
                try:
                    found = RUNNERS[workload](b, True)
                finally:
                    b.tracer = None
            check_restored(b, tr)
        else:
            found = RUNNERS[workload](b, False)
            tr = None
        if b.setup_problems:
            metrics = {}
        elif trace:
            metrics = layer_metrics(b, tr, references(b), found["report"])
        else:
            metrics = {
                "op_s": (statistics.fmean(op_times(workload, b.samples)), "s"),
                "report_bytes": (found["report"].stat().st_size, "bytes"),
                "peak_rss_mb": (b.peak_rss_mb, "MB"),
                "setup_s": (found["setup_s"], "s"),
            }
        correct = not b.failed_ops and not b.setup_problems
        result = {
            "correct": correct,
            "attempted": max(b.attempted, 1),
            "failed": len(b.failed_ops) if b.attempted else 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record = {
            "meta": meta,
            "result": result,
            "samples": b.samples,
            "problems": b.setup_problems + b.problems,
            "notes": b.notes,
        }
        name = f"{workload}-seed{seed}-trace{int(trace)}"
        (out / f"{name}.json").write_text(json.dumps(record, indent=1))
        if tr is not None:
            tr.write(out / f"{name}-spans.json")
        print_summary(meta, b, result)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def print_summary(meta: dict, b: Bench, result: dict) -> None:
    print("meta: " + json.dumps(meta))
    for phase, samples in sorted(b.samples.items()):
        label, value = tail(samples)
        print(f"{phase}: mean {statistics.fmean(samples):.4f} s, "
              f"median {statistics.median(samples):.4f} s, "
              f"{label} {value:.4f} s, n={len(samples)}")
    failed_share = result["failed"] / result["attempted"]
    print(f"failed_share: {failed_share:.4f} "
          f"({result['failed']}/{result['attempted']} operations)")
    for problem in b.setup_problems + b.problems:
        print("problem: " + problem)
    for note in b.notes:
        print("note: " + note)
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morsecert" / "__init__.py").is_file():
        print(f"error: no morsecert sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
