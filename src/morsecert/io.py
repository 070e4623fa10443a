"""File formats for certification inputs (JSON documents), and the one
path from them to a subject, `subject_from_inputs`, for every subject.

Their shapes are `schema.POLYTOPE`, `schema.MOVES` and `schema.STATE`, which
`load_document` parses before a reader here builds from the document.  A
polytope document lists at most `polytopes.MAX_FACETS` facets.  When
every facet carries a 7-coordinate vector the adjacency is derived from
zero Lorentzian products; an explicit adjacency list, if also present, must
agree.  Without vectors the explicit list is required.  The moves are a
partition of the facet ids into nonempty blocks, and the state maps every
facet id to "I" or "O".  The built-in subjects' inputs are shipped, as
`data/p6.json` and `data/p5.json`, and read under a pinned SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from json.decoder import scanstring
from pathlib import Path
from typing import Optional

from .errors import InputError, StructuralError
from .kernel import IN, OUT, MoveSystem, State, Subject, generic_subject
from .polytopes import (
    MAX_FACETS,
    Facet,
    IdealVertex,
    Polytope,
    adjacency_from_lorentz,
    f_vector_check,
)
from .schema import MOVES, POLYTOPE, STATE, parse


def _object(pairs: list) -> dict:
    """A JSON object, built once; a repeated key, of which `json.loads`
    would keep the last value unseen, is an input error naming the key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputError(f"repeated key {key!r}")
    return obj


def read_text(path) -> str:
    """The text of the file at `path`; one that cannot be read is an input
    error naming the file."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_json(path, text: Optional[str] = None) -> object:
    """The JSON document at `path`, each object with its keys once; `text`
    is the file's text where the caller has read it already."""
    path = Path(path)
    if text is None:
        text = read_text(path)
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: nested too deeply: {exc}") from exc
    except ValueError as exc:  # a repeated key, or an integer literal past the digit limit
        raise InputError(f"{path}: {exc}") from exc


# the json module's scanner, as `load_json` reads with it
_SCAN = json.JSONDecoder(object_pairs_hook=_object).scan_once
_SPACE = json.decoder.WHITESPACE.match


def read_object(text: str, key: str, read) -> Optional[dict]:
    """The JSON object that is all of `text`, read as `load_json` reads it,
    key by key, each value by the json module's scanner with `_object`'s
    rule, the object's own keys included; but the value of `key` is what
    `read(pairs, pos)` makes of the text at `pos`, given the pairs before
    it: (value, end), or None where it stops.  None for any text that
    departs from this reading: `load_json` then reads it whole and names
    what is wrong."""
    pairs, sep, pos = [], "{", _SPACE(text, 0).end()
    try:
        while text.startswith(sep, pos):
            pos = _SPACE(text, pos + 1).end()
            if not text.startswith('"', pos):
                return None
            name, pos = scanstring(text, pos + 1)
            pos = _SPACE(text, pos).end()
            if not text.startswith(":", pos):
                return None
            pos = _SPACE(text, pos + 1).end()
            got = read(pairs, pos) if name == key else _SCAN(text, pos)
            if got is None:
                return None
            pairs.append((name, got[0]))
            sep, pos = ",", _SPACE(text, got[1]).end()
        if sep == "," and text.startswith("}", pos) and _SPACE(text, pos + 1).end() == len(text):
            return _object(pairs)
    except (ValueError, StopIteration, RecursionError):  # `load_json` names it
        pass
    return None


# The readers take a document that its schema parsed: `load_document`'s,
# or the report's for the inputs a generic report embeds.


def polytope_from_doc(doc: dict) -> Polytope:
    if len(doc["facets"]) > MAX_FACETS:
        raise InputError(f"{len(doc['facets'])} facets, past the limit of {MAX_FACETS}")
    if not 1 <= doc["dimension"] <= len(doc["facets"]):
        raise InputError(f"dimension {doc['dimension']} must be a positive integer "
                         f"at most the facet count, {len(doc['facets'])}")
    facets = [Facet(e["id"], e.get("label", e["id"]),
                    tuple(e["vector"]) if "vector" in e else None) for e in doc["facets"]]
    adjacency = set(map(frozenset, doc["adjacency"])) if "adjacency" in doc else None
    if all(f.vector is not None for f in facets):
        derived = {frozenset((facets[i].id, facets[j].id))
                   for i, j in adjacency_from_lorentz([f.vector for f in facets])}
        if adjacency is not None and derived != adjacency:
            only_d = sorted(map(sorted, derived - adjacency))
            only_e = sorted(map(sorted, adjacency - derived))
            raise InputError(
                "explicit adjacency disagrees with Lorentzian vectors "
                f"(vector-only: {only_d[:3]}, list-only: {only_e[:3]})"
            )
        adjacency = derived
    elif adjacency is None:
        raise InputError("polytope document needs vectors or an adjacency list")
    ideal = [IdealVertex(f"cusp:{entry['label']}", entry["label"], frozenset(entry["incident"]))
             for entry in doc.get("ideal_vertices", [])]
    return Polytope(
        doc["dimension"], facets, adjacency, ideal, name=doc.get("name", "generic")
    )


def moves_from_doc(doc: list, P: Polytope) -> MoveSystem:
    m = MoveSystem(tuple(map(frozenset, doc)))  # which rejects an empty block
    if not m.covers(P.facet_ids):
        raise InputError("moves do not partition the facet set")
    return m


def state_from_doc(doc: dict, P: Polytope) -> State:
    missing = set(P.facet_ids) - set(doc)
    extra = set(doc) - set(P.facet_ids)
    if missing:
        raise InputError(f"state missing facets: {sorted(missing)[:5]}")
    if extra:
        raise InputError(f"state names unknown facets: {sorted(extra)[:5]}")
    for fid, status in doc.items():
        if status not in (IN, OUT):
            raise InputError(f"state of {fid!r} must be 'I' or 'O', got {status!r}")
    in_set = frozenset(fid for fid, status in doc.items() if status == IN)
    return State(tuple(sorted(P.facet_ids)), in_set)


def load_document(path, from_doc, *args):
    """The JSON document at `path`, read once and parsed against the schema
    of `from_doc`, and `from_doc` of it: a generic report embeds the very
    document it certified.  A document of the wrong shape is an input error
    naming the file and the JSON path, as one that does not parse is."""
    doc = load_json(path)
    try:
        return doc, from_doc(parse(_SCHEMAS[from_doc], doc), *args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise InputError(f"{path}: malformed document: {type(exc).__name__}: {exc}") from exc


_SCHEMAS = {polytope_from_doc: POLYTOPE, moves_from_doc: MOVES, state_from_doc: STATE}


# -- dumps -------------------------------------------------------------------


def polytope_to_doc(P: Polytope) -> dict:
    doc = {
        "name": P.name,
        "dimension": P.dimension,
        "facets": [
            {"id": f.id, "label": f.label}
            | ({"vector": list(f.vector)} if f.vector else {})
            for f in P.facets
        ],
        "adjacency": sorted(sorted(pair) for pair in P.adjacency_pairs),
    }
    if P.ideal_vertices:
        doc["ideal_vertices"] = [
            {"label": iv.label, "incident": sorted(iv.incident)}
            for iv in P.ideal_vertices
        ]
    return doc


def moves_to_doc(m: MoveSystem) -> list:
    return [sorted(b) for b in m.blocks]


def state_to_doc(s: State) -> dict:
    return {fid: (IN if fid in s.in_facets else OUT) for fid in s.universe}


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")


# -- subjects ----------------------------------------------------------------


def subject_from_inputs(inputs: dict) -> Subject:
    """`generic_subject` of the documents {"polytope", "moves", "state"},
    each of the shape its schema gives."""
    P = polytope_from_doc(inputs["polytope"])
    return generic_subject(P, moves_from_doc(inputs["moves"], P),
                           state_from_doc(inputs["state"], P))


# The shipped inputs of each built-in subject, `DATA`/<tag>.json, as
# `write_json` writes them, under their SHA-256.
DATA = Path(__file__).parent / "data"
SHIPPED = {
    "p6": "ce9afb42f1056f76681f547a8588ebc69d941050a7eee841e1ea4b09c67e1ac8",
    "p5": "c42ec4fd9e806377e8e54ea4a9cf6ce405c44de391938be44551033cb7479969",
}

# The paper's census of each built-in subject: clique counts by size, the
# uniform facet degree and the bad-face signatures (None: not declared).
CENSUS = {
    "p6": ({1: 27, 2: 216, 6: 72}, 16, {(2,), (3,), (2, 2), (2, 2, 2)}),
    "p5": ({1: 16, 5: 16}, None, None),
}


@cache
def builtin_inputs(tag: str) -> dict:
    """The shipped input documents of the built-in subject "p6" or "p5",
    read once per process and shared, so no caller edits them; a file
    whose bytes are not those `SHIPPED` pins is refused, naming it."""
    path = DATA / f"{tag}.json"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StructuralError(f"{path}: {exc.strerror}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if digest != SHIPPED[tag]:
        raise StructuralError(f"{path}: SHA-256 {digest} is not the pinned {SHIPPED[tag]}")
    return load_json(path, data.decode())


@cache
def builtin_subject(tag: str) -> Subject:
    """The built-in subject "p6" or "p5", built once per process from its
    shipped inputs, as any subject is, and audited against `CENSUS`; no
    report or generic input reaches it.  A failure is a transcription bug,
    a StructuralError naming the subject."""
    counts, degree, signatures = CENSUS[tag]
    try:
        S = subject_from_inputs(builtin_inputs(tag))
        f_vector_check(S.P, counts, degree)
    except (InputError, StructuralError) as exc:
        raise StructuralError(f"{tag} {exc}") from None
    if signatures is not None and set(S.bad_faces) != signatures:
        raise StructuralError(f"{tag} bad-face signatures {list(S.bad_faces)} "
                              f"!= expected {sorted(signatures)}")
    return S
