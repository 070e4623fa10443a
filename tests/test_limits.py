"""Declared limits on what a subject may cost, each checked before the work
it bounds: at most `polytopes.MAX_FACETS` facets in a polytope document,
checked before its vectors' quadratic adjacency, and at most
`polytopes.MAX_FACES` faces in a clique census, checked as the census runs
(the move limit, `kernel.MAX_MOVES`, is tested in test_certify).  An input
past a limit is an input error naming the limit and the count (exit 2), in
`certify generic` and in `verify` of a generic report that embeds it, and
the refusal costs under 1 s and 60 MB of peak RSS, measured around the
command's own process."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from morsecert.certify import certify_generic
from morsecert.errors import InputError
from morsecert.io import (
    builtin_subject, moves_from_doc, polytope_from_doc, state_from_doc, write_json,
)
from morsecert.polytopes import MAX_FACES, MAX_FACETS
from morsecert.report import _inputs_digest, emit_report

from test_certify import cube_inputs

ROOT = Path(__file__).resolve().parent.parent

# Run by a child process: the morsecert command given as arguments, run as
# its own child, so that RUSAGE_CHILDREN holds that command's peak alone.
_MEASURE = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.run([sys.executable, "-m", "morsecert", *sys.argv[1:]],
                      capture_output=True, text=True)
print(json.dumps({"code": proc.returncode, "seconds": time.perf_counter() - t0,
                  "peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                  "err": proc.stderr}))
"""


def _measured(argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def _cube(d: int):
    """The d-cube with two moves, one pair of opposite facets and the rest,
    and a compatible state: an orbit of 4 states over 3^d faces."""
    ids = [f"{axis}{side}" for axis in range(d) for side in "01"]
    pol = {"name": f"{d}-cube", "dimension": d, "facets": [{"id": f} for f in ids],
           "adjacency": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]
                         if a[:-1] != b[:-1]]}
    return pol, [ids[:2], ids[2:]], {f: "O" if f == ids[1] else "I" for f in ids}


def _vectors(n: int):
    """n distinct Lorentzian unit vectors (1, 0, 0, 0, 0, k, k), one facet
    each, about 40 bytes of document per facet."""
    ids = [f"f{k}" for k in range(n)]
    pol = {"name": f"{n} vectors", "dimension": 6,
           "facets": [{"id": f, "vector": [1, 0, 0, 0, 0, k, k]} for k, f in enumerate(ids)]}
    return pol, [ids], {f: "I" for f in ids}


def _polygon(n: int):
    """The n-gon, its sides in a cycle, one move."""
    ids = [f"s{k}" for k in range(n)]
    pol = {"name": f"{n}-gon", "dimension": 2, "facets": [{"id": f} for f in ids],
           "adjacency": [[ids[k], ids[(k + 1) % n]] for k in range(n)]}
    return pol, [ids], {f: "I" for f in ids}


# (id, inputs, the message naming the limit and the count)
PAST_A_LIMIT = [
    ("12-cube", lambda: _cube(12), f"face census past the limit of {MAX_FACES} faces: at least "),
    ("2000-vectors", lambda: _vectors(2000), f"2000 facets, past the limit of {MAX_FACETS}"),
    ("one-facet-over", lambda: _polygon(MAX_FACETS + 1),
     f"{MAX_FACETS + 1} facets, past the limit of {MAX_FACETS}"),
]


@pytest.mark.parametrize("inputs, message", [e[1:] for e in PAST_A_LIMIT],
                         ids=[e[0] for e in PAST_A_LIMIT])
def test_an_input_past_a_limit_is_refused_at_once(tmp_path, inputs, message):
    """`certify generic` of the inputs, and `verify` of the 3-cube's report
    given them as its embedded inputs and their digest, each exit 2 within
    1 s and under 60 MB of peak RSS, naming the limit and the count."""
    inputs = dict(zip(("polytope", "moves", "state"), inputs()))
    files = []
    for key, doc in inputs.items():
        write_json(tmp_path / f"{key}.json", doc)
        files += [f"--{key}", str(tmp_path / f"{key}.json")]
    pol, moves, state = cube_inputs()
    P = polytope_from_doc(pol)
    report = json.loads(emit_report(certify_generic(
        P, moves_from_doc(moves, P), state_from_doc(state, P),
        generic_inputs={"polytope": pol, "moves": moves, "state": state}), "structured"))
    report["inputs"], report["inputs_digest"] = inputs, _inputs_digest("generic", inputs)
    write_json(tmp_path / "r.json", report)
    for argv, named in ((["certify", "generic", *files], message),
                        (["verify", str(tmp_path / "r.json")], f"embedded inputs: {message}")):
        got = _measured(argv)
        assert got["code"] == 2, (argv[0], got["err"])
        assert named in got["err"] and "Traceback" not in got["err"], (argv[0], got["err"])
        assert got["seconds"] < 1.0, (argv[0], got)
        assert got["peak_kb"] < 60 * 1024, (argv[0], got)


def test_the_census_stops_inside_the_level_that_passes_its_limit():
    """The 12-cube's census passes the limit among its 59,136 cliques of
    size 6 and stops within one clique's extensions of it, at most one per
    facet past the limit, not at the end of the level."""
    P = polytope_from_doc(_cube(12)[0])
    with pytest.raises(InputError) as info:
        P.cliques(0)
    reached = int(re.search(r"at least (\d+)", str(info.value)).group(1))
    assert MAX_FACES < reached <= MAX_FACES + 24


def test_the_subjects_stay_under_the_limits():
    """P6, P5 and a polygon with `MAX_FACETS` sides are under both limits."""
    for tag, faces in (("p6", 2764), ("p5", 393)):
        P = builtin_subject(tag).P
        assert len(P.facets) <= MAX_FACETS
        assert sum(P.clique_count(k) for k in range(P.dimension + 2)) == faces <= MAX_FACES
    P = polytope_from_doc(_polygon(MAX_FACETS)[0])
    assert sum(P.clique_count(k) for k in range(P.dimension + 2)) == 1 + 2 * MAX_FACETS
