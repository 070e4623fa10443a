"""The facet census: the subject on each facet of a built-in subject.

A facet of a right-angled polytope is itself a right-angled polytope of one
dimension less: its facets are the facet's neighbours, two of them adjacent
in it exactly when they are adjacent in P, and its cusps are P's cusps at
the facet, cut to the neighbours.  The moves and the state restrict to the
neighbours, and a move that meets none of them goes.  So each facet's
input documents follow from the built-in subject's, as `io.builtin_inputs`
returns them, with no new data; `morsecert certify generic` takes them as
they are.
"""

from morsecert.io import builtin_inputs


def facet_inputs(inputs: dict, facet: str) -> dict:
    """The documents {"polytope", "moves", "state"} of the subject on
    `facet` of the subject of the documents `inputs`.  The facets keep
    their vectors when the document has them: a neighbour's vector is
    orthogonal to the facet's, so the products, and with them the adjacency
    that `polytopes.polytope_from_doc` derives and checks, are P's."""
    pol = inputs["polytope"]
    near = {b for pair in pol["adjacency"] for a, b in (pair, pair[::-1]) if a == facet}
    polytope = {
        "name": f"{pol['name']}/{facet}",
        "dimension": pol["dimension"] - 1,
        "facets": [f for f in pol["facets"] if f["id"] in near],
        "adjacency": [pair for pair in pol["adjacency"] if set(pair) <= near],
        "ideal_vertices": [{"label": iv["label"],
                            "incident": [f for f in iv["incident"] if f in near]}
                           for iv in pol.get("ideal_vertices", ()) if facet in iv["incident"]],
    }
    moves = [cut for block in inputs["moves"] if (cut := [f for f in block if f in near])]
    state = {f: status for f, status in inputs["state"].items() if f in near}
    return {"polytope": polytope, "moves": moves, "state": state}


def census(tag: str) -> dict:
    """Each facet's documents, by facet id in the document's order, for the
    built-in subject `tag`."""
    inputs = builtin_inputs(tag)[0]
    return {f["id"]: facet_inputs(inputs, f["id"]) for f in inputs["polytope"]["facets"]}
