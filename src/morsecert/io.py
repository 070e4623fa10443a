"""File formats for user-supplied certification inputs (JSON documents).

Polytope: {"name"?, "dimension", "facets": [{"id", "label"?, "vector"?}],
           "adjacency"?: [[id, id]], "ideal_vertices"?: [{"label", "incident"}]}
When every facet carries a 7-coordinate vector the adjacency is derived from
zero Lorentzian products; an explicit adjacency list, if also present, must
agree.  Without vectors the explicit list is required.

Moves: a list of blocks, each a list of facet ids (a partition).
State: an object mapping every facet id to "I" or "O".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple

from .errors import InputError
from .polytopes import (
    Facet,
    IdealVertex,
    Polytope,
    adjacency_from_lorentz,
    build_p6,
)
from .states import IN, OUT, MoveSystem, State, balanced_states_p6, move_system_p6


def load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: nested too deeply: {exc}") from exc
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise InputError(f"{path}: {exc}") from exc


def polytope_from_doc(doc: dict) -> Polytope:
    if not isinstance(doc, dict):
        raise InputError("polytope document must be an object")
    for key in ("dimension", "facets"):
        if key not in doc:
            raise InputError(f"polytope document missing field {key!r}")
    dimension = doc["dimension"]
    if type(dimension) is not int or dimension < 1:
        raise InputError("dimension must be a positive integer")
    facets = []
    vectors = []
    for pos, entry in enumerate(doc["facets"]):
        if "id" not in entry:
            raise InputError(f"facet #{pos} has no id")
        fid = entry["id"]
        vec = entry.get("vector")
        if vec is not None:
            vec = tuple(vec)
            if any(type(x) is not int for x in vec):
                raise InputError(f"facet #{pos}: vector coordinates must be integers")
        facets.append(Facet(fid, entry.get("label", fid), vec))
        vectors.append(vec)
    ids = [f.id for f in facets]
    have_vectors = all(v is not None for v in vectors)
    derived = None
    if have_vectors:
        pairs_idx = adjacency_from_lorentz(vectors)
        derived = {frozenset((ids[i], ids[j])) for i, j in map(sorted, pairs_idx)}
    explicit = None
    if "adjacency" in doc:
        explicit = set()
        for pos, pair in enumerate(doc["adjacency"]):
            if len(pair) != 2:
                raise InputError(f"adjacency entry #{pos} is not a pair")
            explicit.add(frozenset(pair))
    if derived is not None and explicit is not None and derived != explicit:
        only_d = sorted(map(sorted, derived - explicit))
        only_e = sorted(map(sorted, explicit - derived))
        raise InputError(
            "explicit adjacency disagrees with Lorentzian vectors "
            f"(vector-only: {only_d[:3]}, list-only: {only_e[:3]})"
        )
    adjacency = derived if derived is not None else explicit
    if adjacency is None:
        raise InputError("polytope document needs vectors or an adjacency list")
    ideal = []
    for pos, entry in enumerate(doc.get("ideal_vertices", [])):
        if "label" not in entry or "incident" not in entry:
            raise InputError(f"ideal vertex #{pos} needs label and incident fields")
        ideal.append(
            IdealVertex(
                f"cusp:{entry['label']}",
                entry["label"],
                frozenset(entry["incident"]),
            )
        )
    return Polytope(
        dimension, facets, adjacency, ideal, name=doc.get("name", "generic")
    )


def moves_from_doc(doc, P: Polytope) -> MoveSystem:
    if not isinstance(doc, list):
        raise InputError("moves document must be a list of blocks")
    blocks = []
    for pos, block in enumerate(doc):
        if not isinstance(block, list) or not block:
            raise InputError(f"move #{pos} must be a nonempty list of facet ids")
        blocks.append(frozenset(block))
    m = MoveSystem(tuple(blocks))
    if not m.covers(P.facet_ids):
        raise InputError("moves do not partition the facet set")
    return m


def state_from_doc(doc, P: Polytope) -> State:
    if not isinstance(doc, dict):
        raise InputError("state document must map facet ids to 'I'/'O'")
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
    """The JSON document at `path`, read once, and `from_doc` of it: a
    generic report embeds the very document it certified.  A document of the
    wrong shape is an input error naming the file, as one that does not
    parse is."""
    doc = load_json(path)
    try:
        return doc, from_doc(doc, *args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise InputError(f"{path}: malformed document: {type(exc).__name__}: {exc}") from exc


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
