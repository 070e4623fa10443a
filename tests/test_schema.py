"""The schema cannot drift from the writers: every document the package
writes parses against `morsecert.schema`, and every path pattern of the
schema occurs in one of them, so no entry of it is unused.  A pattern is a
JSON path with list positions as "[*]" and the keys of an object keyed by
any str, the evidence ids and the state's facet ids, as "<id>"."""

import json
import random

from morsecert import schema
from morsecert.certify import certify_generic
from morsecert.errors import InputError
from morsecert.io import moves_from_doc, polytope_from_doc, state_from_doc
from morsecert.report import certificate_to_document, document_to_json

from oracles import schema_walk
from test_certify import cube_inputs, p6_input_documents
from test_dismantling import _certify_inputs, _stuck_inputs
from test_mutation_sweep import SWEEP_SEED, _mutants

EVERY = object()  # walk every pattern of a kind, not those a value fills


def _patterns(kind, value=EVERY, at=""):
    """The path patterns under `at` of `kind` that `value` fills."""
    yield at
    if isinstance(kind, schema.ListOf):
        for item in [EVERY] if value is EVERY else value:
            yield from _patterns(kind.item, item, at + "[*]")
    elif isinstance(kind, schema.Obj) and kind.each is not None:
        for item in [EVERY] if value is EVERY else value.values():
            yield from _patterns(kind.each, item, at + ".<id>")
    elif isinstance(kind, schema.Obj):
        for key, field in kind.fields.items():
            if value is EVERY or key in value:
                yield from _patterns(field, EVERY if value is EVERY else value[key],
                                     f"{at}.{key}".lstrip("."))


def _reports(cert_p5, cert_p6):
    """The seed-0 p5 (with timings) and p6 reports, the generic 3-cube's,
    and the failing generic report of a polytope whose whole face is
    Unknown, each as `verify` reads it."""
    pol, moves, state = cube_inputs()
    P = polytope_from_doc(pol)
    cube = certify_generic(P, moves_from_doc(moves, P), state_from_doc(state, P),
                           generic_inputs={"polytope": pol, "moves": moves, "state": state})
    stuck = _certify_inputs(*_stuck_inputs())
    assert not stuck.passed and {"face": [], "verdict": "Unknown", "states": [0]} in \
        stuck.verdict_rows
    docs = [certificate_to_document(cert_p5, include_timings=True)]
    docs += [certificate_to_document(cert) for cert in (cert_p6, cube, stuck)]
    return [json.loads(document_to_json(doc)) for doc in docs]


def test_every_written_document_parses_and_fills_the_schema(cert_p5, cert_p6):
    filled = set()
    for doc in _reports(cert_p5, cert_p6):
        assert schema.parse(schema.REPORT, doc) is doc
        generic = doc["subject"] == "generic"
        assert doc.keys() == schema.REPORT.required | ({"inputs"} if generic else set())
        filled.update(_patterns(schema.REPORT, doc))
    inputs = dict(zip(("polytope", "moves", "state"), p6_input_documents()))
    for key, kind in (("polytope", schema.POLYTOPE), ("moves", schema.MOVES),
                      ("state", schema.STATE)):
        assert schema.parse(kind, inputs[key]) is inputs[key]
    filled.update(_patterns(schema.REPORT.fields["inputs"], inputs, "inputs"))
    every = set(_patterns(schema.REPORT))
    assert every - filled == set()
    assert len(every) > 60, sorted(every)


def _message(kind, doc, root=""):
    """`schema.parse`'s message for `doc`, or None where it parses."""
    try:
        schema.parse(kind, doc, root)
    except InputError as exc:
        return str(exc)
    return None


def test_a_pair_of_the_wrong_length_is_named_by_its_length():
    pairs = schema.ListOf(schema.Pair(schema.STR))
    for bad, got in (([["a", "b"], ["a"]], "a list of 1"),
                     ([["a", "b"], ["a", "b", "c"]], "a list of 3"),
                     ([["a", "b"], "ab"], "str")):
        assert _message(pairs, bad) == f"[1]: expected a pair of strs, got {got}"
        assert _message(pairs, bad) == schema_walk(pairs, bad)
    assert _message(pairs, [["a", "b"], ["c", "d"]]) is None


def test_the_column_wise_parse_names_what_the_walk_names(cert_p5):
    """Every kind-change, key-drop and list-element mutant of the seed-0 p5
    report that the mutation sweep makes, three instances of each pattern
    by three seeds, is rejected by `schema.parse` with the message of the
    per-value walk, or parses where the walk finds nothing."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    assert _message(schema.REPORT, doc, "report") is None
    named, n = set(), 0
    for seed in (SWEEP_SEED, 1, 2):
        for path, what, edit in _mutants(doc, random.Random(seed), lambda pattern: True):
            undo = edit(doc)
            got = _message(schema.REPORT, doc, "report")
            assert got == schema_walk(schema.REPORT, doc, "report"), (path, what)
            named.add(got)
            undo()
            n += 1
    assert n > 600 and len(named) > 100, (n, len(named))
