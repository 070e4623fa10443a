"""Tracing from outside: wrap morsecert's layer functions without editing it.

A `Tracer` replaces each traced function at every place morsecert can call
it from: the defining module and every module that imported the name.
Methods are replaced on their class.  Each wrapper times its call, keeps a
span stack so that a span's self time is its duration minus the time its
traced children took, and adds the result to per-phase totals.  `restore()`
puts every original function back.  Nothing under `src/` changes.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Spans at least this long are kept individually and written out at the end;
# a parent always lasts at least as long as its children, so the kept spans
# form a tree.  Shorter spans are only counted in the totals, which keeps the
# memory bounded on the hundreds of thousands of small calls a p6 run makes.
KEEP_SPAN_S = 0.001


class Stat:
    """Totals for one span name in one phase."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


# -- per-call hooks: extra counters measured at the layer boundary ------------
# A post-call hook gets (stat, args, kwargs, result, before, parent): `before`
# is what the optional pre-call hook returned, `parent` the enclosing span name.


def _try_collapse_after(stat, args, kwargs, out, before, parent):
    K = args[0]
    stat.add("simplices", K.n_simplices())
    stat.add("steps", len(out.sequence))
    if out.strategy == "greedy-lex":
        stat.add("first_pass")
    if parent == "states.legality":
        stat.add("legality_searches")


def _replay_after(stat, args, kwargs, out, before, parent):
    stat.add("steps", len(args[1]))


def _legality_after(stat, args, kwargs, rec, before, parent):
    if kwargs.get("collapse_cache") is not None:
        stat.add(
            "cache_requests",
            (rec.collapse_out is not None) + (rec.collapse_in is not None),
        )


def _certificate_before(args, kwargs):
    certifier, ell = args[0], args[1]
    return ell not in certifier._cache


def _certificate_after(stat, args, kwargs, out, before, parent):
    if before:
        stat.add("builds")


# (span name, module, attribute or "Class.method", pre-call hook, post-call hook)
TRACED: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("complexes.try_collapse", "morsecert.complexes", "try_collapse", None, _try_collapse_after),
    ("complexes.replay_collapse", "morsecert.complexes", "replay_collapse", None, _replay_after),
    ("complexes.betti_mod2", "morsecert.complexes", "betti_mod2", None, None),
    ("complexes.full_subcomplex", "morsecert.complexes", "full_subcomplex", None, None),
    ("complexes.order_complex", "morsecert.complexes", "order_complex", None, None),
    ("polytopes.dual_complex", "morsecert.polytopes", "dual_complex", None, None),
    ("polytopes.enumerate_faces", "morsecert.polytopes", "enumerate_faces", None, None),
    ("polytopes.build", "morsecert.polytopes", "build_p6", None, None),
    ("polytopes.build", "morsecert.polytopes", "build_p5", None, None),
    ("polytopes.build", "morsecert.polytopes", "build_cusp_section", None, None),
    ("states.legality", "morsecert.states", "legality", None, _legality_after),
    ("states.inherited_state", "morsecert.states", "inherited_state", None, None),
    ("links.classify_link", "morsecert.links", "classify_link", None, None),
    ("links.critical_certificate", "morsecert.links", "CriticalLinkCertifier.certificate",
     _certificate_before, _certificate_after),
    ("links.certify_boundary_cube", "morsecert.links", "certify_boundary_cube", None, None),
    ("links.face_links_oracle", "morsecert.links", "face_links_oracle", None, None),
    ("links.canonical_pairs_transform", "morsecert.links", "canonical_pairs_transform", None, None),
    ("certify.pipeline", "morsecert.certify", "certify_p6", None, None),
    ("certify.pipeline", "morsecert.certify", "certify_p5", None, None),
    ("certify.critical_shared_payload", "morsecert.certify", "critical_shared_payload", None, None),
    ("certify.legality_evidence_payload", "morsecert.certify", "legality_evidence_payload", None, None),
    ("report.to_document", "morsecert.report", "certificate_to_document", None, None),
    ("report.to_json", "morsecert.report", "document_to_json", None, None),
    ("cli.write_report", "morsecert.cli", "_emit", None, None),
    ("verify.parse", "morsecert.verify", "verify_report_file", None, None),
    ("verify.document", "morsecert.verify", "verify_document", None, None),
    ("verify.check_tables", "morsecert.verify", "_Verifier.check_tables", None, None),
    ("verify.check_verdicts", "morsecert.verify", "_Verifier.check_verdicts", None, None),
    ("verify.check_cusps", "morsecert.verify", "_Verifier.check_cusps", None, None),
)


def _morsecert_modules() -> List[object]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "morsecert" or name.startswith("morsecert."))
    ]


class Tracer:
    """Patches the TRACED functions while active; use as a context manager.

    Spans are grouped by phase, the kind of operation running ("certify" or
    "verify"), which `op(phase, ...)` sets around each operation.  Calls made
    outside an operation run untraced.
    """

    def __init__(self):
        self.stats: Dict[str, Dict[str, Stat]] = {}
        self.ops: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.patched: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self._phase: Optional[Dict[str, Stat]] = None
        self._next_id = 0

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        import morsecert.cli  # noqa: F401  (loads every module that imports a layer)

        modules = _morsecert_modules()
        for name, modname, attr, before, after in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, self._wrap(name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        return self

    def _replace(self, owner, key: str, wrapper) -> None:
        self.patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name: str, fn, before, after):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer._phase is None:  # outside an operation: not traced
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            frame = [0.0, name, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                stat = tracer._stat(name)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if duration >= KEEP_SPAN_S:
                    tracer.spans.append(
                        (frame[2], parent[2] if parent else None, name, t0, t1)
                    )
            if after is not None:
                after(stat, args, kwargs, out, token, parent[1] if parent else None)
            return out

        traced.__wrapped__ = fn
        traced.__perfbench_span__ = name
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _stat(self, name: str) -> Stat:
        got = self._phase.get(name)
        if got is None:
            got = self._phase[name] = Stat()
        return got

    # -- operations -----------------------------------------------------------

    def op(self, phase: str, run: Callable[[], object]):
        """Run one operation as a root span of `phase`; returns (result, seconds)."""
        self._phase = self.stats.setdefault(phase, {})
        frame = [0.0, "op." + phase, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = run()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            stat = self._stat("op." + phase)
            stat.calls += 1
            stat.total_s += t1 - t0
            stat.self_s += (t1 - t0) - frame[0]
            self.spans.append((frame[2], None, "op." + phase, t0, t1))
            self._phase = None
        self.ops.setdefault(phase, []).append(t1 - t0)
        return out, t1 - t0

    # -- results ----------------------------------------------------------------

    def get(self, phase: str, name: str) -> Stat:
        return self.stats.get(phase, {}).get(name) or Stat()

    def per_op(self, name: str, field: str) -> float:
        """`field` of span `name` per certify call plus per verify call.

        `field` is "calls", "total_s", "self_s" or a hook counter name.
        """
        value = 0.0
        for phase, durations in self.ops.items():
            stat = self.get(phase, name)
            if field in ("calls", "total_s", "self_s"):
                raw = getattr(stat, field)
            else:
                raw = stat.counts.get(field, 0)
            value += raw / len(durations)
        return value

    def write(self, path) -> None:
        """Write the totals and the kept spans as JSON."""
        doc = {
            "ops": self.ops,
            "stats": {
                phase: {
                    name: {"calls": s.calls, "total_s": s.total_s,
                           "self_s": s.self_s, "counts": s.counts}
                    for name, s in sorted(stats.items())
                }
                for phase, stats in self.stats.items()
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in sorted(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
