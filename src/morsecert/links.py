"""Dual-cube models of the lifted circle-valued function, link computations,
the critical question and the cusp checks.

`classify_link` answers only what the verdict sweep asks it once the plan
has decided good faces and the sweep totally legal classes: is a bad face
Critical(l), an all-pairs top vertex whose cube lift is the canonical one
at every compatible state by the all-pairs lemma (README), or Unknown.

The increment at a barycentre is kept symbolic: a lift value is a pair
(base, depth) ordered lexicographically, valid for every sufficiently small
positive increment.  Faces of a k-cube are encoded as partial bit
assignments packed into ints: (fixed_mask << k) | fixed_bits, so the cube
itself is mask 0 and vertices have full mask.  Face f1 is contained in f2
iff fixed(f2) is a sub-assignment of fixed(f1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, total_ordering
from itertools import product
from typing import Dict, List, Optional, Tuple

from .complexes import order_complex, try_collapse  # try_collapse: pinned by perfbench
from .errors import InputError, InternalError
from .polytopes import FaceHandle, Polytope, RankedGraph
from .states import (
    CuspTable,
    MoveSystem,
    State,
    Subject,
    all_pairs_index,
    cone_apex,
    flag_certificate,
    is_compatible,
)


@total_ordering
@dataclass(frozen=True)
class LiftValue:
    """Symbolic lift value base + depth*eps, ordered lexicographically."""

    base: int
    depth: int

    def __lt__(self, other: "LiftValue") -> bool:
        return (self.base, self.depth) < (other.base, other.depth)


# -- face encoding ----------------------------------------------------------


def face_int(k: int, mask: int, bits: int) -> int:
    if bits & ~mask:
        raise InputError("fixed bits outside fixed mask")
    return (mask << k) | bits


def face_parts(k: int, fid: int) -> Tuple[int, int]:
    return fid >> k, fid & ((1 << k) - 1)


def face_contains(k: int, f1: int, f2: int) -> bool:
    """True iff face f1 is contained in face f2 (f2 fixes fewer coordinates)."""
    m1, b1 = face_parts(k, f1)
    m2, b2 = face_parts(k, f2)
    return (m1 & m2) == m2 and (b1 & m2) == b2


@dataclass(frozen=True)
class CubeLift:
    """Pure lift data for a combinatorial k-cube.

    `blocks` partitions the coordinate positions by move; `vertex_lift` holds
    the normalised integer lift at each of the 2^k vertices (minimum 0).
    """

    k: int
    blocks: Tuple[Tuple[int, ...], ...]
    vertex_lift: Tuple[int, ...]

    def lift_of_face(self, fid: int) -> LiftValue:
        mask, bits = face_parts(self.k, fid)
        free = ((1 << self.k) - 1) & ~mask
        best = None
        sub = free
        while True:
            v = self.vertex_lift[bits | sub]
            if best is None or v < best:
                best = v
            if sub == 0:
                break
            sub = (sub - 1) & free
        return LiftValue(best, self.k - bin(mask).count("1"))

    def top_value(self) -> LiftValue:
        return LiftValue(0, self.k)

    def proper_faces(self) -> List[int]:
        out = []
        for mask in range(1, 1 << self.k):
            sub = mask
            while True:
                out.append(face_int(self.k, mask, sub))
                if sub == 0:
                    break
                sub = (sub - 1) & mask
        return out

    def monochromatic_factor_mins(self, fid: int) -> Tuple[bool, ...]:
        """Per block: does the face attain that factor's minimum lift?

        Factor lift of block B at vertex w depends only on w's bits in B;
        the face attains the factor minimum iff some allowed assignment of
        the block bits achieves it.
        """
        mask, bits = face_parts(self.k, fid)
        out = []
        for block in self.blocks:
            bmask = 0
            for p in block:
                bmask |= 1 << p
            free_in_block = bmask & ~mask
            # factor values: vary only this block's bits, other blocks pinned
            # at the base vertex; the pinned offset cancels in the comparison
            base_val = {}
            x = 0
            while True:
                base_val[x] = self.vertex_lift[x]
                if x == bmask:
                    break
                x = ((x | ~bmask) + 1) & bmask
            factor_min = min(base_val.values())
            sub = free_in_block
            best = None
            while True:
                x = (bits & bmask) | sub
                v = base_val[x]
                if best is None or v < best:
                    best = v
                if sub == 0:
                    break
                sub = (sub - 1) & free_in_block
            out.append(best == factor_min)
        return tuple(out)


@dataclass(frozen=True)
class CubeModel:
    """Dual cube of a polytope face with its lifted-function data.

    `defining` lists the defining facets in canonical order (one cube
    coordinate each); vertex w of the cube is the copy reached by crossing
    the facets indexed by the bits of w.
    """

    defining: Tuple[str, ...]
    lift: CubeLift
    base_status_out: Tuple[bool, ...]
    polytope: Polytope = field(compare=False, repr=False)
    moves: MoveSystem = field(compare=False, repr=False)
    base_state: State = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.lift.k


def build_cube_model(P: Polytope, m: MoveSystem, s: State, F: FaceHandle) -> CubeModel:
    """Vertex states by move-flipping, edge orientations from statuses, lift
    values by integrating orientations and normalising the minimum to zero.

    The lift is integrated in one increasing scan, each vertex w from w
    minus its lowest bit, and then every edge is checked against its
    orientation.  Requires a compatible state; an inconsistent edge
    orientation cocycle is impossible for compatible states and raises
    InternalError.
    """
    ok, witness = is_compatible(P, m, s)
    if not ok:
        raise InputError(f"state is not compatible: witness pair {witness!r}")
    defining = tuple(sorted(F.defining))
    k = len(defining)
    blocks_by_move: Dict[int, list] = {}
    for pos, fid in enumerate(defining):
        blocks_by_move.setdefault(m.block_of(fid), []).append(pos)
    blocks = tuple(
        tuple(sorted(ps))
        for _, ps in sorted(blocks_by_move.items(), key=lambda kv: min(kv[1]))
    )
    base_out = tuple(fid not in s.in_facets for fid in defining)
    # the positions of each position's move: crossing any of them flips it
    block_mask = [0] * k
    for block in blocks:
        for pos in block:
            block_mask[pos] = sum(1 << p for p in block)

    # The edge from w to w | 1 << pos (bit pos clear in w) points up iff the
    # facet's status at w is Out, and the lift rises by 1 along it.  That
    # status is base_out[pos] flipped once per crossing in w of pos's move;
    # rise[status] is the lift's change along the edge.
    rise = (-1, 1)
    n = 1 << k
    lift = [0] * n
    for w in range(1, n):
        low = w & -w
        pos, v = low.bit_length() - 1, w ^ low
        lift[w] = lift[v] + rise[base_out[pos] ^ (v & block_mask[pos]).bit_count() & 1]
    for pos in range(k):
        bit, flip, out = 1 << pos, block_mask[pos], base_out[pos]
        for w in range(n):
            if not w & bit and (lift[w | bit] - lift[w]
                                != rise[out ^ (w & flip).bit_count() & 1]):
                raise InternalError(
                    "edge orientation cocycle violated for a compatible state"
                )
    lo = min(lift)
    vertex_lift = tuple(x - lo for x in lift)
    return CubeModel(
        defining=defining,
        lift=CubeLift(k, blocks, vertex_lift),
        base_status_out=base_out,
        polytope=P,
        moves=m,
        base_state=s,
    )


# -- face links (the literal oracle) ----------------------------------------


def face_link_posets(lift: CubeLift):
    """The ascending and descending proper faces of the cube, each with its
    cover function: ((asc, covers), (desc, covers)).

    A proper face's barycentre is ascending iff its lift value exceeds the
    top barycentre's, i.e. iff the face misses every minimum vertex.  The
    ascending faces form a down-set of the face lattice and the descending
    faces an up-set, so inside either set a face is covered exactly by the
    faces that free one of its fixed coordinates.
    """
    if lift.k < 1:
        raise InputError("cube dimension must be >= 1")
    k = lift.k
    asc, desc = set(), set()
    for fid in lift.proper_faces():
        (asc if lift.lift_of_face(fid).base > 0 else desc).add(fid)

    def covers_in(elems: set):
        def covers(fid: int) -> List[int]:
            mask, bits = face_parts(k, fid)
            freed = [((mask ^ (1 << j)) << k) | (bits & ~(1 << j))
                     for j in range(k) if mask >> j & 1]
            return [f for f in freed if f in elems]
        return covers

    return (asc, covers_in(asc)), (desc, covers_in(desc))


def face_links_oracle(model: CubeModel | CubeLift):
    """Ascending and descending face links as full subcomplexes of the
    barycentric subdivision of the cube's boundary: the order complexes of
    the two `face_link_posets`."""
    lift = model.lift if isinstance(model, CubeModel) else model
    return tuple(order_complex(elems, covers=covers)
                 for elems, covers in face_link_posets(lift))


def comparability_graph(elements, covers) -> RankedGraph:
    """The comparability graph, ranked by sorted element, of a finite poset
    given by its cover function; its clique complex is the order complex."""
    labels = tuple(sorted(elements))
    pos = {x: i for i, x in enumerate(labels)}
    up: Dict[int, int] = {}  # the elements above x, as a mask

    def above(x) -> int:
        got = up.get(x)
        if got is None:
            got = 0
            for y in covers(x):
                got |= 1 << pos[y] | above(y)
            up[x] = got
        return got

    N = [1 << i | above(x) for i, x in enumerate(labels)]
    for i, x in enumerate(labels):
        m = up[x]
        while m:
            low = m & -m
            N[low.bit_length() - 1] |= 1 << i
            m ^= low
    return RankedGraph(labels, pos, tuple(N))


def coface_membership_oracle(
    P: Polytope, m: MoveSystem, s: State, F: FaceHandle, F_prime: FaceHandle
) -> bool:
    """Ascending-membership of a coface barycentre, decided from the larger
    cube's lift: ascending iff the lift minimum is attained on the smaller
    cube (the face fixing the extra coordinates at the base copy)."""
    if not (F.defining < F_prime.defining):
        raise InputError("F' must have strictly more defining facets than F")
    model = build_cube_model(P, m, s, F_prime)
    mask = 0
    for pos, fid in enumerate(model.defining):
        if fid not in F.defining:
            mask |= 1 << pos
    return model.lift.lift_of_face(face_int(model.k, mask, 0)).base == 0


# -- canonical all-pairs cubes and their certificates ------------------------


def synthetic_pairs_lift(ell: int) -> CubeLift:
    """Canonical lift of a 2l-cube that is a product of l monochromatic
    squares on coordinate pairs (0,1), (2,3), ...; minima at pair-equal bits."""
    k = 2 * ell
    blocks = tuple((2 * i, 2 * i + 1) for i in range(ell))
    vertex_lift = tuple(
        sum(1 for i in range(ell) if (w >> (2 * i) & 1) != (w >> (2 * i + 1) & 1))
        for w in range(1 << k)
    )
    return CubeLift(k, blocks, vertex_lift)


def _pair_values(i: int, kind: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The two values, as (fixed mask, fixed bits), that an element of the
    `kind` core may fix coordinate pair i to: the two minima of the pair's
    square (both bits equal) for "desc", its two maxima for "asc"."""
    a, b = 2 * i, 2 * i + 1
    m = (1 << a) | (1 << b)
    return ((m, 0), (m, m)) if kind == "desc" else ((m, 1 << a), (m, 1 << b))


def pairs_core_elements(ell: int, kind: str) -> List[int]:
    """Vertex set of the canonical core sphere inside the face link.

    Per coordinate pair the options are: both bits fixed equal (descending,
    the two minima) or fixed unequal (ascending, the two maxima), or left
    free; the all-free face (the cube itself) is excluded.
    """
    options = [(*_pair_values(i, kind), (0, 0)) for i in range(ell)]
    return [face_int(2 * ell, sum(m for m, _ in c), sum(b for _, b in c))
            for c in product(*options) if any(m for m, _ in c)]


@dataclass(frozen=True)
class CriticalCertificate:
    """Shared certificates that the ascending and descending face links of
    the canonical all-pairs 2l-cube shrink to their cross-polytope cores, in
    report form: their `flag_certificate`s, None where none was found."""

    ell: int
    asc_sequence: Optional[list]
    desc_sequence: Optional[list]

    @property
    def success(self) -> bool:
        return self.asc_sequence is not None and self.desc_sequence is not None


class CriticalLinkCertifier:
    """Builds and caches, per pair count l, the certificates that the
    ascending and descending face links of the canonical all-pairs cube
    shrink to subdivided cross-polytope boundary cores.

    Each is the `flag_certificate` of the link poset's comparability graph
    down to the core: a dismantling order that deletes only non-core
    elements and ends exactly at the core, or None where there is none.
    """

    def __init__(self):
        self._cache: Dict[int, CriticalCertificate] = {}

    def certificate(self, ell: int) -> CriticalCertificate:
        got = self._cache.get(ell)
        if got is None:
            got = self._cache[ell] = CriticalCertificate(ell, *(
                flag_certificate(G, (1 << len(G.ids)) - 1, G.mask(core))
                for G, core in canonical_pairs_graphs(ell)))
        return got


LINK_KINDS = ("asc", "desc")


@cache
def canonical_pairs_graphs(ell: int):
    """The comparability graphs of the ascending and descending face-link
    posets of the canonical all-pairs 2l-cube, each paired with its core's
    elements in sorted order, checked by `check_sd_crosspolytope_witness`:
    ((asc_graph, asc_core), (desc_graph, desc_core)).  They depend on l
    alone, so each l's are built and checked once per process."""
    posets = face_link_posets(synthetic_pairs_lift(ell))
    out = []
    for poset, kind in zip(posets, LINK_KINDS):
        G, core = comparability_graph(*poset), tuple(sorted(pairs_core_elements(ell, kind)))
        check_sd_crosspolytope_witness(G, core, ell, kind)
        out.append((G, core))
    return tuple(out)


def check_sd_crosspolytope_witness(G: RankedGraph, core, ell: int, kind: str):
    """Check on G, the comparability graph of the canonical all-pairs
    2l-cube's `kind` face-link poset, that its full subgraph on `core` is
    the comparability graph of the nonempty faces of the boundary of the
    l-dimensional cross-polytope; raise InternalError otherwise.

    Each core element must be an element of the poset, a proper face that
    fixes some pair, and fix each coordinate pair to one of its two `kind`
    values, a vertex of the cross-polytope, or leave it free; each of the
    3^l - 1 choices that fix some pair, a nonempty face, must occur exactly
    once; and two core
    elements must be adjacent in G exactly when one of their cube faces
    contains the other.  A cube face contains another exactly when it fixes
    part of what the other fixes, so this is comparability of their
    cross-polytope faces.  A flag complex is determined by its graph, and
    the subdivided boundary is the order complex of those faces, so the
    flag complex on the core, where the dismantling ends, is that
    subdivision."""
    k, name = 2 * ell, {"asc": "ascending", "desc": "descending"}[kind]
    values = [(*_pair_values(i, kind), (0, 0)) for i in range(ell)]
    choices = set()
    for x in core:
        if x not in G.rank:
            raise InternalError(f"{name} core element {x!r} is not in the link")
        mask, bits = face_parts(k, x)
        choice = tuple((mask & 3 << 2 * i, bits & 3 << 2 * i) for i in range(ell))
        if any(c not in allowed for c, allowed in zip(choice, values)):
            raise InternalError(f"{name} core element {x} fixes a coordinate pair "
                                f"to no {kind} value")
        choices.add(choice)
    if len(core) != 3 ** ell - 1 or len(choices) != len(core):
        raise InternalError(f"{name} core is not one element per nonempty "
                            "cross-polytope face")
    for i, x in enumerate(core):
        for y in core[i + 1:]:
            if bool(G.N[G.rank[x]] >> G.rank[y] & 1) != (
                    face_contains(k, x, y) or face_contains(k, y, x)):
                raise InternalError(f"{name} core: adjacency of {x} and {y} in the link "
                                    "is not comparability of their faces")


# the reference that the all-pairs lemma is tested against; perfbench wraps it by name
def canonical_pairs_transform(model: CubeModel, synth: CubeLift):
    """Position permutation and translation mapping an all-pairs cube model
    onto the canonical one, `synth`, the `synthetic_pairs_lift` of its pair
    count; validated over every vertex.

    Returns (ell, perm, delta) with perm[p] = canonical position of original
    position p and delta a vertex translation in canonical coordinates.
    """
    blocks = model.lift.blocks
    if any(len(b) != 2 for b in blocks):
        raise InputError("not an all-pairs cube")
    ell = len(blocks)
    k = 2 * ell
    perm = [0] * k
    delta = 0
    for i, (p, q) in enumerate(sorted(blocks, key=lambda b: b[0])):
        perm[p] = 2 * i
        perm[q] = 2 * i + 1
        if not model.base_status_out[p]:
            delta |= 1 << (2 * i)

    def apply_vertex(w: int) -> int:
        out = 0
        for p in range(k):
            if w >> p & 1:
                out |= 1 << perm[p]
        return out ^ delta

    for w in range(1 << k):
        if model.lift.vertex_lift[w] != synth.vertex_lift[apply_vertex(w)]:
            raise InternalError("all-pairs cube does not match the canonical lift")
    return ell, tuple(perm), delta


# -- link classification ------------------------------------------------------


@dataclass(frozen=True)
class LinkClassification:
    """The answer for a bad face with a class that is not certified totally
    legal: Critical of index ℓ, whose rows cite the shared item of ℓ, or
    Unknown with a note."""

    verdict: str  # "Critical" | "Unknown"
    index: Optional[int]
    note: str = ""


def classify_link(
    S: Subject,
    F: FaceHandle,
    *,
    certifier: CriticalLinkCertifier,
) -> LinkClassification:
    """Classify the links at the barycentre of the cube dual to F, a bad
    face of S with a class that is not certified totally legal (the plan
    and `certify._classify_group` decide good faces and legal classes).  A
    face whose defining facets are partitioned into pairs by the moves,
    with codimension 2l equal to the polytope dimension, is Critical(l):
    by the all-pairs lemma its cube lift at every compatible state is the
    canonical cube's, and both face links of that cube shrink onto
    subdivided cross-polytope cores.  Anything else is Unknown.
    """
    ell = all_pairs_index(S, F)
    if ell is None:
        return LinkClassification(
            "Unknown", None,
            note=f"bad face, not totally legal, signature {S.table.bad[F]}",
        )
    if not certifier.certificate(ell).success:
        return LinkClassification(
            "Unknown", None,
            note="no dismantling order found on the canonical all-pairs cube",
        )
    return LinkClassification("Critical", ell)


# -- cusp checks --------------------------------------------------------------


def certify_boundary_cube(P: Polytope, table: CuspTable) -> List[List[list]]:
    """The apex pairs of the horospherical cube of `table`: per bad face of
    the table, one [out apex, in apex] pair per In part that its plan lists,
    in order, each the first cone apex of its part or None.  A good face is
    Regular; a bad face is Regular in a state when both parts of its dual
    split by the inherited state are cones.  A cusp whose condition fails
    lists no part: its cube is not certified.

    The section is a combinatorial cube, so the dual of each of its faces is
    a join of 0-spheres and each part a join of points and 0-spheres: a part
    collapses to a point exactly when it is a cone, and its apex, a vertex
    that dominates every other one, is the whole certificate.  The parts of
    a bad face depend on a state only through its In part, so one pair
    serves every state with that part.
    """
    return [[[cone_apex(P, dual & ~inn), cone_apex(P, inn)] for inn in parts]
            for (_, dual, _), parts in zip(table.bad, table.parts)]
