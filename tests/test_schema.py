"""The schema cannot drift from the writers: every document the package
writes parses against `morsecert.schema`, and every path pattern of the
schema occurs in one of them, so no entry of it is unused.  A pattern is a
JSON path with list positions as "[*]" and the keys of an object keyed by
any str, the evidence ids and the state's facet ids, as "<id>"."""

import json

from morsecert import schema
from morsecert.certify import certify_generic
from morsecert.io import moves_from_doc, p6_input_documents, polytope_from_doc, state_from_doc
from morsecert.report import certificate_to_document, document_to_json

from test_certify import cube_inputs
from test_dismantling import _certify_inputs, _stuck_inputs

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
        assert doc.keys() == schema.REPORT_KEYS | ({"inputs"} if generic else set())
        filled.update(_patterns(schema.REPORT, doc))
    inputs = dict(zip(("polytope", "moves", "state"), p6_input_documents()))
    for key, kind in (("polytope", schema.POLYTOPE), ("moves", schema.MOVES),
                      ("state", schema.STATE)):
        assert schema.parse(kind, inputs[key]) is inputs[key]
    filled.update(_patterns(schema.REPORT.fields["inputs"], inputs, "inputs"))
    every = set(_patterns(schema.REPORT))
    assert every - filled == set()
    assert len(every) > 60, sorted(every)
