"""File formats for certification inputs (JSON documents), and the one
path from them to a subject, `subject_from_inputs`, for every subject.

Their shapes are `schema.POLYTOPE`, `schema.MOVES` and `schema.STATE`, which
`load_document` parses a file against; the readers build from the
documents, and only `subject_from_inputs` calls them.  The polytope's
reader is `polytopes.polytope_from_doc`: a document lists at most
`polytopes.MAX_FACETS` facets, and when every facet carries a 7-coordinate
vector the adjacency is derived from zero Lorentzian products; an explicit
adjacency list, if also present, must agree.  Without vectors the explicit
list is required, and vectors on some facets but not all are refused.  The
moves are a partition of the facet ids into nonempty blocks, and the state
maps every facet id to "I" or "O".  The built-in subjects' inputs are
shipped, as `data/p6.json` and `data/p5.json` (`polytopes.DATA`), and read
under a pinned SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from json.decoder import scanstring
from pathlib import Path
from typing import Optional, Tuple

from .errors import InputError, StructuralError
from .kernel import IN, OUT, MoveSystem, State, Subject, generic_subject
from .polytopes import DATA, Polytope, f_vector_check, polytope_from_doc
from .report import BUILTINS, _inputs_digest
from .schema import parse


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
# or the report's for the inputs a generic report embeds; the polytope's
# is `polytopes.polytope_from_doc`.


def moves_from_doc(doc: list) -> MoveSystem:
    """`MoveSystem` rejects an empty block and overlapping blocks;
    `generic_subject`, which every subject goes through, moves that do not
    partition the facets."""
    return MoveSystem(tuple(map(frozenset, doc)))


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


def load_document(path, schema) -> object:
    """The JSON document at `path`, read once and parsed against `schema`:
    one of the wrong shape is an input error naming the file and the JSON
    path, as one that does not parse is."""
    doc = load_json(path)
    try:
        return parse(schema, doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


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
    return generic_subject(P, moves_from_doc(inputs["moves"]),
                           state_from_doc(inputs["state"], P))


@cache
def builtin_inputs(tag: str) -> Tuple[dict, str]:
    """The shipped input documents of the built-in subject `tag` and their
    inputs digest, read and computed once per process and shared, so no
    caller edits them; a file whose bytes are not those its table entry
    pins is refused, naming it."""
    path, pinned = DATA / f"{tag}.json", BUILTINS[tag].sha256
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StructuralError(f"{path}: {exc.strerror}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if digest != pinned:
        raise StructuralError(f"{path}: SHA-256 {digest} is not the pinned {pinned}")
    inputs = load_json(path, data.decode())
    return inputs, _inputs_digest(tag, inputs)


@cache
def builtin_subject(tag: str) -> Subject:
    """The built-in subject `tag`, built once per process from its shipped
    inputs, as any subject is, and audited against the paper's census in
    its table entry; no report or generic input reaches it.  A failure is a
    transcription bug, a StructuralError naming the subject."""
    b = BUILTINS[tag]
    try:
        S = subject_from_inputs(builtin_inputs(tag)[0])
        f_vector_check(S.P, b.counts, b.degree)
    except (InputError, StructuralError) as exc:
        raise StructuralError(f"{tag} {exc}") from None
    if b.signatures is not None and set(S.bad_faces) != b.signatures:
        raise StructuralError(f"{tag} bad-face signatures {list(S.bad_faces)} "
                              f"!= expected {sorted(b.signatures)}")
    return S
