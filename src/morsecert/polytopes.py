"""Right-angled polytope combinatorics: facets, adjacency, cliques, duals,
and the reader of a polytope document, `polytope_from_doc`.

Faces are realised as cliques of the facet adjacency graph, listed once per
polytope by its clique census (the flag property is asserted by
`f_vector_check`, not assumed silently).  The paper's P6 and P5 are shipped
documents under `DATA`, which every command reads through
`io.builtin_subject`; their construction from integer Lorentzian normals,
cross-validated against the quaternion labelling rules, is the tests'
(`tests/construction.py`), which check the shipped files against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .complexes import SimplicialComplex
from .errors import InputError, StructuralError

# The most facets a polytope document may list, checked before its vectors'
# quadratic adjacency, and the most faces (cliques of every size, the polytope
# itself included) a clique census may list, checked as it runs: P6 has 27
# facets and 2,764 faces, P5 16 and 393.
MAX_FACETS = 256
MAX_FACES = 50_000


def lorentz_product(u: Sequence[int], v: Sequence[int]) -> int:
    """Signature (+,+,+,+,+,+,-) product, exact integer arithmetic."""
    return sum(a * b for a, b in zip(u[:-1], v[:-1])) - u[-1] * v[-1]


def adjacency_from_lorentz(facets: Sequence[Facet]) -> set:
    """The pairs of facet ids whose vectors have zero Lorentzian product,
    each vector first checked to be a unit vector of 7 coordinates: one
    that is not is an InputError naming its facet."""
    for f in facets:
        v = f.vector
        if len(v) != 7:
            raise InputError(f"facet {f.id!r}: expected 7 coordinates, got {len(v)}")
        if lorentz_product(v, v) != 1:
            raise InputError(f"facet {f.id!r}: vector {v!r} has self-product "
                             f"{lorentz_product(v, v)}, expected 1")
    return {frozenset((a.id, b.id)) for i, a in enumerate(facets) for b in facets[i + 1:]
            if lorentz_product(a.vector, b.vector) == 0}


@dataclass(frozen=True)
class Facet:
    id: str
    label: str
    vector: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class IdealVertex:
    id: str
    label: str
    incident: FrozenSet[str]


class RankedGraph(NamedTuple):
    """A graph ranked by sorted label: `ids[r]` is the vertex of rank r,
    `rank` maps each vertex to its rank, and N[r] is the closed
    neighbourhood of rank r as a mask over ranks; a subgraph is a mask of
    live ranks.  A polytope's facet graph, on its facet ids, or a poset's
    comparability graph; the labels of one graph share a type."""

    ids: Tuple
    rank: Dict
    N: Tuple[int, ...]

    def mask(self, vertices: Iterable) -> int:
        """The rank mask of `vertices`, vertices of the graph."""
        return sum(1 << self.rank[v] for v in vertices)

    def labels(self, mask: int) -> Tuple:
        """The vertices of a rank mask, in sorted order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class FaceHandle:
    """A face of the polytope, identified by its set of defining facets.

    The empty set denotes the polytope itself; codimension = |defining|.
    """

    defining: FrozenSet[str]

    @property
    def codim(self) -> int:
        return len(self.defining)

    def sorted_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.defining))


class Polytope:
    """Combinatorial right-angled polytope: facets plus adjacency relation.

    Immutable by convention.  Ideal vertices are stored as incidence data and
    are never faces.  The facets are numbered once, by rank in sorted-id
    order (`ranked_graph`), and every facet mask of the polytope is over
    these ranks.
    """

    def __init__(
        self,
        dimension: int,
        facets: Sequence[Facet],
        adjacency: Iterable[FrozenSet[str]],
        ideal_vertices: Sequence[IdealVertex] = (),
        name: str = "",
    ):
        self.dimension = dimension
        self.facets = tuple(facets)
        self.name = name
        self.facet_ids = tuple(f.id for f in self.facets)
        if len(set(self.facet_ids)) != len(self.facet_ids):
            raise InputError("duplicate facet ids")
        ids = tuple(sorted(self.facet_ids))
        rank = {f: r for r, f in enumerate(ids)}
        N = [1 << r for r in range(len(ids))]
        pairs = set()
        for pair in adjacency:
            a, b = min(pair), max(pair)  # one facet, when a pair repeats it
            if a == b:
                raise InputError(f"adjacency must be irreflexive: {a!r}")
            if a not in rank or b not in rank:
                raise InputError(f"adjacency names unknown facet in {(a, b)!r}")
            pairs.add(frozenset((a, b)))
            N[rank[a]] |= 1 << rank[b]
            N[rank[b]] |= 1 << rank[a]
        self.adjacency_pairs = frozenset(pairs)
        self._ranked = RankedGraph(ids, rank, tuple(N))
        self.ideal_vertices = tuple(ideal_vertices)
        seen = set()
        for iv in self.ideal_vertices:
            unknown = iv.incident - set(self.facet_ids)
            if unknown:
                raise InputError(f"ideal vertex {iv.id!r} lists unknown facets")
            if iv.id in seen:
                raise InputError(f"duplicate ideal vertex id {iv.id!r}")
            seen.add(iv.id)
        self._dual_cache: dict = {}
        self._census: Optional[Tuple[Tuple[int, ...], ...]] = None  # filled by `cliques`
        self._face_cache: dict = {}

    def adjacent(self, a: str, b: str) -> bool:
        """Whether facets a and b are adjacent; False when either is no
        facet of this polytope."""
        G = self._ranked
        i, j = G.rank.get(a), G.rank.get(b)
        return i is not None and j is not None and i != j and bool(G.N[i] >> j & 1)

    def degree(self, a: str) -> int:
        return self._ranked.N[self._ranked.rank[a]].bit_count() - 1

    def ideal_vertex(self, iv_id: str) -> IdealVertex:
        for iv in self.ideal_vertices:
            if iv.id == iv_id:
                return iv
        raise InputError(f"unknown ideal vertex {iv_id!r}")

    def ranked_graph(self) -> RankedGraph:
        """The facet graph in sorted-id rank order, built with the polytope."""
        return self._ranked

    # -- clique census ------------------------------------------------------

    def _clique_levels(self) -> Iterator[Tuple[int, ...]]:
        """The cliques of the facet graph of each size 0, 1, 2, ... in turn,
        as rank masks in canonical order.  Each clique of one size is
        extended by each facet of higher rank that is adjacent to all of
        its facets; extending the cliques of one size in canonical order
        gives the next size in canonical order.  Once the cliques listed
        pass `MAX_FACES`, it stops at the clique being extended: an
        InputError naming the limit and the count reached."""
        ids, _, N = self._ranked
        n = len(ids)
        # per rank: its neighbours of higher rank, as a mask over ranks
        later = [N[r] >> (r + 1) << (r + 1) for r in range(n)]
        level = [(0, (1 << n) - 1)]  # (clique, the ranks that extend it)
        listed = 1
        while True:
            yield tuple(mask for mask, _ in level)
            nxt = []
            for mask, cand in level:
                while cand:
                    low = cand & -cand
                    r = low.bit_length() - 1
                    nxt.append((mask | low, cand & later[r]))
                    cand ^= low
                if listed + len(nxt) > MAX_FACES:
                    raise InputError(f"face census past the limit of {MAX_FACES} faces: "
                                     f"at least {listed + len(nxt)}")
            listed += len(nxt)
            level = nxt

    def _build_census(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(islice(self._clique_levels(), self.dimension + 2))

    def cliques(self, k: int) -> Tuple[int, ...]:
        """The cliques of size k as rank masks, in canonical order.  Sizes
        up to dimension + 1 come from the census, built once per polytope;
        a larger size is counted by extending past it."""
        if k < 0:
            return ()
        if self._census is None:
            self._census = self._build_census()
        if k < len(self._census):
            return self._census[k]
        return next(islice(self._clique_levels(), k, None))

    def clique_count(self, k: int) -> int:
        return len(self.cliques(k))


def enumerate_faces(P: Polytope, codim: int) -> Tuple[FaceHandle, ...]:
    """All codim-`codim` faces of P, realised as cliques, in canonical order."""
    if codim < 0 or codim > P.dimension:
        raise InputError(f"codim must be in 0..{P.dimension}")
    cached = P._face_cache.get(codim)
    if cached is None:
        cached = P._face_cache[codim] = tuple(face_of_mask(P, f) for f in P.cliques(codim))
    return cached


def dual_mask(P: Polytope, F: FaceHandle) -> int:
    """Mask, over the ranks of P's `ranked_graph`, of the facets adjacent to
    every defining facet of F."""
    _, rank, N = P.ranked_graph()
    allowed = (1 << len(N)) - 1
    for fid in F.defining:
        r = rank[fid]
        allowed &= N[r] ^ 1 << r
    return allowed


def face_of_mask(P: Polytope, mask: int) -> FaceHandle:
    """The face of P defined by the facets in `mask`, a rank mask."""
    return FaceHandle(frozenset(P.ranked_graph().labels(mask)))


def clique_complex(G: RankedGraph, live: int) -> SimplicialComplex:
    """The clique complex of G's full subgraph on the ranks in `live`, from
    its maximal cliques (Bron-Kerbosch with pivot), on G's labels; empty
    when `live` is."""
    masks = [x ^ 1 << r for r, x in enumerate(G.N)]
    maximal = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            maximal.append(r)
            return
        best, best_mask, pool = -1, 0, p | x
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            deg = bin(p & masks[v]).count("1")
            if deg > best:
                best, best_mask = deg, masks[v]
        cand = p & ~best_mask
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bk(r | (1 << v), p & masks[v], x & masks[v])
            p &= ~(1 << v)
            x |= 1 << v

    if live:
        bk(0, live, 0)
    return SimplicialComplex([frozenset(G.labels(m)) for m in maximal], _trusted=True)


def dual_complex(P: Polytope, F: FaceHandle) -> SimplicialComplex:
    """`clique_complex` on the facets adjacent to every defining facet of F,
    kept on P: for F = P (empty handle) the full dual boundary complex.
    Vertex labels are the originating facet ids."""
    got = P._dual_cache.get(F.defining)
    if got is None:
        got = P._dual_cache[F.defining] = clique_complex(P.ranked_graph(), dual_mask(P, F))
    return got


@dataclass(frozen=True)
class FVectorReport:
    clique_counts: Tuple[int, ...]  # counts of cliques of size 1..len
    degrees: Tuple[int, ...]


def f_vector_check(
    P: Polytope,
    expected_counts: Optional[Mapping[int, int]] = None,
    expected_degree: Optional[int] = None,
) -> FVectorReport:
    """Census of clique counts by size and of facet degrees, checked against
    declared expectations; a failure raises StructuralError naming each
    broken line.  Always checks there is no clique of size dimension+1 (the
    clique model of faces would otherwise be broken)."""
    counts = tuple(P.clique_count(k) for k in range(1, P.dimension + 2))
    degrees = tuple(P.degree(f) for f in P.facet_ids)
    failed = [f"no cliques of size {len(counts)} (got {counts[-1]})"] if counts[-1] else []
    for size, want in sorted((expected_counts or {}).items()):
        if P.clique_count(size) != want:
            failed.append(f"cliques of size {size}: {P.clique_count(size)} != {want}")
    if expected_degree is not None and any(d != expected_degree for d in degrees):
        failed.append(f"uniform facet degree {expected_degree}")
    if failed:
        raise StructuralError("face census failed: " + "; ".join(failed))
    return FVectorReport(counts, degrees)


# -- reading a polytope document -------------------------------------------------


def polytope_from_doc(doc: dict) -> Polytope:
    """The polytope of a document that `schema.POLYTOPE` parsed.  Its
    vectors, given for every facet or for none, make the adjacency, which
    an explicit list, if also given, must equal; without them the list is
    required."""
    if len(doc["facets"]) > MAX_FACETS:
        raise InputError(f"{len(doc['facets'])} facets, past the limit of {MAX_FACETS}")
    if not 1 <= doc["dimension"] <= len(doc["facets"]):
        raise InputError(f"dimension {doc['dimension']} must be a positive integer "
                         f"at most the facet count, {len(doc['facets'])}")
    facets = [Facet(e["id"], e.get("label", e["id"]),
                    tuple(e["vector"]) if "vector" in e else None) for e in doc["facets"]]
    adjacency = set(map(frozenset, doc["adjacency"])) if "adjacency" in doc else None
    bare = next((f.id for f in facets if f.vector is None), None)
    if bare is None:
        derived = adjacency_from_lorentz(facets)
        if adjacency is not None and derived != adjacency:
            only_d = sorted(map(sorted, derived - adjacency))
            only_e = sorted(map(sorted, adjacency - derived))
            raise InputError(
                "explicit adjacency disagrees with Lorentzian vectors "
                f"(vector-only: {only_d[:3]}, list-only: {only_e[:3]})"
            )
        adjacency = derived
    elif any(f.vector is not None for f in facets):
        raise InputError(f"facet {bare!r} has no vector: vectors must be given "
                         "for every facet or for none")
    elif adjacency is None:
        raise InputError("polytope document needs vectors or an adjacency list")
    ideal = [IdealVertex(f"cusp:{entry['label']}", entry["label"], frozenset(entry["incident"]))
             for entry in doc.get("ideal_vertices", [])]
    return Polytope(
        doc["dimension"], facets, adjacency, ideal, name=doc.get("name", "generic")
    )


# The shipped inputs of each built-in subject of `report.BUILTINS`,
# `DATA`/<tag>.json, as `io.write_json` writes them; every command reads
# them through `io.builtin_inputs`, which checks their pinned SHA-256.
DATA = Path(__file__).parent / "data"


# kept for perfbench, which times them by name; they read the shipped file
# afresh, unpinned, as no command does
def build_p6() -> Polytope:
    """P6, the right-angled hyperbolic 6-polytope with 27 facets."""
    return polytope_from_doc(json.loads((DATA / "p6.json").read_bytes())["polytope"])


def build_p5() -> Polytope:
    """P5, the facet of P6 with 16 facets."""
    return polytope_from_doc(json.loads((DATA / "p5.json").read_bytes())["polytope"])


def cusp_incidence(P: Polytope, iv: IdealVertex) -> int:
    """The rank mask of ideal vertex iv's incident facets, checked to be a
    cube's: 2(dim P - 1) facets, each adjacent to all others but one, its
    opposite; non-adjacency is symmetric, so opposition is an involution."""
    ids, _, N = G = P.ranked_graph()
    inc = G.mask(iv.incident)
    dim = P.dimension - 1
    if inc.bit_count() != 2 * dim:
        raise StructuralError(
            f"cusp {iv.id}: {inc.bit_count()} incident facets, expected {2 * dim}"
        )
    for r, a in enumerate(ids):
        non = (inc & ~N[r]).bit_count()
        if inc >> r & 1 and non != 1:
            raise StructuralError(
                f"cusp {iv.id}: facet {a} has {non} non-neighbours in the "
                "section, expected exactly 1 (cube structure)"
            )
    return inc


def build_cusp_section(P: Polytope, cusp_id: str) -> Polytope:
    """Horospherical section at an ideal vertex: a combinatorial cube, its
    facets the incident facets of the cusp, with their ids, checked by
    `cusp_incidence`."""
    ids = P.ranked_graph().labels(cusp_incidence(P, P.ideal_vertex(cusp_id)))
    pairs = {
        frozenset((a, b))
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if P.adjacent(a, b)
    }
    facets = [Facet(a, a, None) for a in ids]
    return Polytope(P.dimension - 1, facets, pairs, name=f"{P.name}/{cusp_id}")
