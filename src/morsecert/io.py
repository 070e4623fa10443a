"""File formats for user-supplied certification inputs (JSON documents).

Their shapes are `schema.POLYTOPE`, `schema.MOVES` and `schema.STATE`, which
`load_document` parses before a reader here builds from the document.  When
every facet carries a 7-coordinate vector the adjacency is derived from
zero Lorentzian products; an explicit adjacency list, if also present, must
agree.  Without vectors the explicit list is required.  The moves are a
partition of the facet ids into nonempty blocks, and the state maps every
facet id to "I" or "O".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple

from .errors import InputError
from .kernel import IN, OUT, MoveSystem, State, balanced_states_p6, move_system_p6
from .polytopes import (
    Facet,
    IdealVertex,
    Polytope,
    adjacency_from_lorentz,
    build_p6,
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


def load_json(path) -> object:
    """The JSON document at `path`, each object with its keys once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
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


# The readers take a document that its schema parsed: `load_document`'s,
# or the report's for the inputs a generic report embeds.


def polytope_from_doc(doc: dict) -> Polytope:
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


def p6_input_documents() -> Tuple[dict, list, dict]:
    """The built-in 27-facet inputs serialised to the generic file formats."""
    P = build_p6()
    m = move_system_p6()
    s0 = balanced_states_p6(P)[0]
    return polytope_to_doc(P), moves_to_doc(m), state_to_doc(s0)


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
