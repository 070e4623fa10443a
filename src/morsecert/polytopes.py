"""Right-angled polytope combinatorics: facets, adjacency, cliques, duals.

The 6-polytope with 27 facets is built from a hard-coded table of integer
Lorentzian normal vectors and cross-validated against an independent labelling
rule; any disagreement aborts, since transcription errors are the dominant
risk.  Faces are realised as cliques of the facet adjacency graph, listed
once per polytope by its clique census (the flag property is asserted by
`f_vector_check`, not assumed silently).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict, FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from . import labels as lb
from .complexes import SimplicialComplex
from .errors import InputError, StructuralError

# The most facets a polytope document may list, checked before its vectors'
# quadratic adjacency, and the most faces (cliques of every size, the polytope
# itself included) a clique census may list, checked as it runs: P6 has 27
# facets and 2,764 faces, P5 16 and 393.
MAX_FACETS = 256
MAX_FACES = 50_000

# One row per facet: (label, Lorentzian unit normal in 7 integer coordinates).
TABLE_G6: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("A", (0, 0, 0, 0, 0, -1, 0)),
    ("1+i+j+k", (0, 0, 0, 0, -1, 0, 0)),
    ("-1-i-j-k", (1, 1, 1, 1, 1, 0, 2)),
    ("1+i-j-k", (1, 1, 0, 0, 0, 0, 1)),
    ("1-i+j-k", (1, 0, 1, 0, 0, 0, 1)),
    ("1-i-j+k", (1, 0, 0, 1, 0, 0, 1)),
    ("1-i-j-k", (1, 0, 0, 0, 1, 0, 1)),
    ("-1+i+j-k", (0, 1, 1, 0, 0, 0, 1)),
    ("-1+i-j+k", (0, 1, 0, 1, 0, 0, 1)),
    ("-1+i-j-k", (0, 1, 0, 0, 1, 0, 1)),
    ("-1-i+j+k", (0, 0, 1, 1, 0, 0, 1)),
    ("-1-i+j-k", (0, 0, 1, 0, 1, 0, 1)),
    ("-1-i-j+k", (0, 0, 0, 1, 1, 0, 1)),
    ("-1+i+j+k", (-1, 0, 0, 0, 0, 0, 0)),
    ("1-i+j+k", (0, -1, 0, 0, 0, 0, 0)),
    ("1+i-j+k", (0, 0, -1, 0, 0, 0, 0)),
    ("1+i+j-k", (0, 0, 0, -1, 0, 0, 0)),
    ("1", (1, 0, 0, 0, 0, 1, 1)),
    ("-1", (0, 1, 1, 1, 1, 1, 2)),
    ("i", (0, 1, 0, 0, 0, 1, 1)),
    ("-i", (1, 0, 1, 1, 1, 1, 2)),
    ("j", (0, 0, 1, 0, 0, 1, 1)),
    ("-j", (1, 1, 0, 1, 1, 1, 2)),
    ("k", (0, 0, 0, 1, 0, 1, 1)),
    ("-k", (1, 1, 1, 0, 1, 1, 2)),
    ("C", (0, 0, 0, 0, 1, 1, 1)),
    ("B", (1, 1, 1, 1, 0, 1, 2)),
)


def lorentz_product(u: Sequence[int], v: Sequence[int]) -> int:
    """Signature (+,+,+,+,+,+,-) product, exact integer arithmetic."""
    return sum(a * b for a, b in zip(u[:-1], v[:-1])) - u[-1] * v[-1]


def adjacency_from_lorentz(vectors: Sequence[Sequence[int]]):
    """Pairs (i, j) with zero Lorentzian product; vectors must be unit."""
    for row, v in enumerate(vectors):
        if len(v) != 7:
            raise InputError(f"row {row}: expected 7 coordinates, got {len(v)}")
        if lorentz_product(v, v) != 1:
            raise InputError(
                f"row {row}: vector {tuple(v)!r} has self-product "
                f"{lorentz_product(v, v)}, expected 1"
            )
    pairs = set()
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if lorentz_product(vectors[i], vectors[j]) == 0:
                pairs.add(frozenset((i, j)))
    return pairs


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

    def __repr__(self):
        return (
            f"Polytope({self.name or 'unnamed'}, dim {self.dimension}, "
            f"{len(self.facets)} facets)"
        )

    def adjacent(self, a: str, b: str) -> bool:
        """Whether facets a and b are adjacent; False when either is no
        facet of this polytope."""
        G = self._ranked
        i, j = G.rank.get(a), G.rank.get(b)
        return i is not None and j is not None and i != j and bool(G.N[i] >> j & 1)

    def neighbors(self, a: str) -> Tuple[str, ...]:
        """The facets adjacent to a, in sorted order."""
        r = self._ranked.rank[a]
        return self._ranked.labels(self._ranked.N[r] ^ 1 << r)

    def degree(self, a: str) -> int:
        return self._ranked.N[self._ranked.rank[a]].bit_count() - 1

    def face(self, defining: Iterable[str]) -> FaceHandle:
        ids = frozenset(defining)
        unknown = ids - set(self.facet_ids)
        if unknown:
            raise InputError(f"unknown facets: {sorted(unknown)!r}")
        for a in ids:
            for b in ids:
                if a < b and not self.adjacent(a, b):
                    raise InputError(
                        f"defining facets must be pairwise adjacent: {a!r}, {b!r}"
                    )
        return FaceHandle(ids)

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


# ---------------------------------------------------------------------------
# The 6-polytope with 27 facets


def _validate_p6(P: Polytope):
    def rule(cond: bool, text: str):
        if not cond:
            raise StructuralError(f"labelling rule violated: {text}")

    for a in ("A", "B", "C"):
        for b in ("A", "B", "C"):
            if a < b:
                rule(not P.adjacent(a, b), f"{a} and {b} must be disjoint")
    for a in lb.T24_LABELS:
        for b in lb.T24_LABELS:
            if a < b:
                want = lb.t24_adjacent(a, b)
                rule(
                    P.adjacent(a, b) == want,
                    f"{a}, {b}: vector adjacency {P.adjacent(a, b)} vs "
                    f"4-product rule {want}",
                )
    rule(
        set(P.neighbors("A")) == set(lb.SIGN_LABELS),
        "A adjacent to exactly the sixteen sign-labelled facets",
    )
    for special, parity in (("B", 0), ("C", 1)):
        want = set(lb.UNIT_LABELS) | {
            t for t in lb.SIGN_LABELS if lb.minus_count(t) % 2 == parity
        }
        rule(
            set(P.neighbors(special)) == want,
            f"{special} adjacent to units and sign labels of parity {parity}",
        )
    for iv in P.ideal_vertices:
        rule(len(iv.incident) == 10, f"ideal vertex {iv.id} has 10 incident facets")
        opposed = iv.label
        closed = {opposed} | set(P.neighbors(opposed))
        rule(
            iv.incident == frozenset(P.facet_ids) - closed,
            f"ideal vertex {iv.id} incident exactly to non-neighbours of {opposed}",
        )


def build_p6() -> Polytope:
    """The right-angled hyperbolic 6-polytope with 27 facets.

    Facet normals are the hard-coded integer vectors; adjacency is zero
    Lorentzian product, cross-validated against the quaternion labelling
    rules.  One ideal vertex opposes each facet, incident to the 10 facets
    neither equal nor adjacent to it.
    """
    labels_ = [row[0] for row in TABLE_G6]
    vectors = [row[1] for row in TABLE_G6]
    pairs_idx = adjacency_from_lorentz(vectors)
    pairs = {
        frozenset((labels_[i], labels_[j])) for i, j in map(sorted, pairs_idx)
    }
    facets = [Facet(lbl, lbl, vec) for lbl, vec in TABLE_G6]
    ideal = [IdealVertex(f"cusp:{lbl}", lbl, frozenset(
        x for x in labels_ if x != lbl and frozenset((lbl, x)) not in pairs)) for lbl in labels_]
    P = Polytope(6, facets, pairs, ideal, name="P6")
    _validate_p6(P)
    return P


def build_p5(p6: Optional[Polytope] = None) -> Polytope:
    """The 5-polytope with 16 facets, realised as the neighbours of facet A.

    Induced adjacency is cross-validated against the sign-vector model (even
    sign patterns; adjacency iff the 4-dot product of labels is non-negative).
    Ideal vertices carry unit and B/C labels; a facet is incident to an ideal
    vertex iff the two labels are adjacent in the ambient 6-polytope.
    """
    if p6 is None:
        p6 = build_p6()
    ids = sorted(lb.SIGN_LABELS)
    facets = [Facet(t, t, None) for t in ids]
    pairs = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if p6.adjacent(a, b):
                pairs.add(frozenset((a, b)))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            induced = frozenset((a, b)) in pairs
            model = lb.t24_adjacent(a, b)
            if induced != model:
                raise StructuralError(
                    f"sign-vector cross-validation failed on ({a}, {b})"
                )
    ideal = []
    for q in lb.UNIT_LABELS:
        inc = frozenset(t for t in ids if lb.t24_adjacent(t, q))
        ideal.append(IdealVertex(f"cusp:{q}", q, inc))
    for special, parity in (("B", 0), ("C", 1)):
        inc = frozenset(t for t in ids if lb.minus_count(t) % 2 == parity)
        ideal.append(IdealVertex(f"cusp:{special}", special, inc))
    for iv in ideal:
        if len(iv.incident) != 8:
            raise StructuralError(
                f"ideal vertex {iv.id} of P5 has {len(iv.incident)} incident facets"
            )
    return Polytope(5, facets, pairs, ideal, name="P5")


def cusp_incidence(P: Polytope, cusp_id: str) -> int:
    """The rank mask of a cusp's incident facets, checked to be a cube's:
    2(dim P - 1) facets, each adjacent to all others but one, its opposite;
    non-adjacency is symmetric, so opposition is an involution."""
    if not P.ideal_vertices:
        raise InputError("polytope carries no ideal vertex data")
    ids, _, N = G = P.ranked_graph()
    inc = G.mask(P.ideal_vertex(cusp_id).incident)
    dim = P.dimension - 1
    if inc.bit_count() != 2 * dim:
        raise StructuralError(
            f"cusp {cusp_id}: {inc.bit_count()} incident facets, expected {2 * dim}"
        )
    for r, a in enumerate(ids):
        non = (inc & ~N[r]).bit_count()
        if inc >> r & 1 and non != 1:
            raise StructuralError(
                f"cusp {cusp_id}: facet {a} has {non} non-neighbours in the "
                "section, expected exactly 1 (cube structure)"
            )
    return inc


def build_cusp_section(P: Polytope, cusp_id: str) -> Polytope:
    """Horospherical section at an ideal vertex: a combinatorial cube, its
    facets the incident facets of the cusp, with their ids, checked by
    `cusp_incidence`."""
    ids = P.ranked_graph().labels(cusp_incidence(P, cusp_id))
    pairs = {
        frozenset((a, b))
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if P.adjacent(a, b)
    }
    facets = [Facet(a, a, None) for a in ids]
    return Polytope(P.dimension - 1, facets, pairs, name=f"{P.name}/{cusp_id}")


# ---------------------------------------------------------------------------
# Symmetries


@dataclass(frozen=True)
class FacetSymmetry:
    name: str
    mapping: Tuple[Tuple[str, str], ...]

    def as_dict(self) -> Dict[str, str]:
        return dict(self.mapping)


def symmetries_p6(P: Optional[Polytope] = None) -> Tuple[FacetSymmetry, ...]:
    """The 16 facet permutations: unit left multiplications and the involution.

    Each is validated to preserve adjacency, to preserve the move partition
    (unit-class preimages and {A, B, C}), and to commute with the unit-class
    map.  Any failure aborts.
    """
    if P is None:
        P = build_p6()

    def phi(q: str, use_iota: bool):
        out = {}
        for t in lb.T24_LABELS:
            u = lb.iota_label(t) if use_iota else t
            out[t] = lb.quat_label(lb.quat_mul(lb.label_quat(q), lb.label_quat(u)))
        out["A"] = "A"
        out["B"], out["C"] = ("C", "B") if use_iota else ("B", "C")
        return out

    syms = []
    for use_iota in (False, True):
        for q in lb.UNIT_LABELS:
            name = f"mult:{q}" + ("*iota" if use_iota else "")
            mapping = phi(q, use_iota)
            syms.append(
                FacetSymmetry(name, tuple(sorted(mapping.items(), key=lambda kv: kv[0])))
            )
    if len({s.mapping for s in syms}) != 16:
        raise StructuralError("symmetry group does not have 16 distinct elements")
    for s in syms:
        m = s.as_dict()
        if sorted(m.values()) != sorted(P.facet_ids):
            raise StructuralError(f"{s.name} is not a permutation")
        for pair in P.adjacency_pairs:
            a, b = sorted(pair)
            if not P.adjacent(m[a], m[b]):
                raise StructuralError(f"{s.name} does not preserve adjacency")
        # move partition: unit-class pairs {q, -q} and the ABC block
        def block_tag(fid: str) -> str:
            if fid in ("A", "B", "C"):
                return "ABC"
            return lb.base_unit(fid).lstrip("-")

        blocks = {}
        for t in lb.T24_LABELS + lb.SPECIAL_LABELS:
            blocks.setdefault(block_tag(t), set()).add(t)
        image_blocks = {frozenset(m[t] for t in blk) for blk in blocks.values()}
        if image_blocks != {frozenset(b) for b in blocks.values()}:
            raise StructuralError(f"{s.name} does not preserve the move partition")
        # equivariance of the unit-class map
        use_iota = s.name.endswith("*iota")
        q = s.name.split(":")[1].split("*")[0]
        for t in lb.T24_LABELS:
            r = lb.base_unit(t)
            r_img = lb.iota_label(r) if use_iota else r
            want = lb.quat_label(lb.quat_mul(lb.label_quat(q), lb.label_quat(r_img)))
            if lb.base_unit(m[t]) != want:
                raise StructuralError(f"{s.name} breaks unit-class equivariance at {t}")
    return tuple(syms)
