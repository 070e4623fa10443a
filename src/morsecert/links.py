"""The link finders and the oracles.  `classify_link` answers only what the
verdict sweep asks it once the plan has decided good faces and the sweep
totally legal classes: is a bad face Critical(l), an all-pairs top vertex
whose cube lift is the canonical one at every compatible state by the
all-pairs lemma (README), or Unknown.  The cube model and the face-link
oracles are what the tests check that lemma against."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .complexes import order_complex, try_collapse  # try_collapse: pinned by perfbench
from .errors import InputError, InternalError
from .kernel import (
    CubeLift, CuspTable, MoveSystem, State, Subject, all_pairs_index, canonical_pairs_graphs,
    face_link_posets, is_compatible,
)
from .polytopes import FaceHandle, Polytope
from .states import cone_apex, flag_certificate


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


def face_links_oracle(model: CubeModel | CubeLift):
    """Ascending and descending face links as full subcomplexes of the
    barycentric subdivision of the cube's boundary: the order complexes of
    the two `face_link_posets`."""
    lift = model.lift if isinstance(model, CubeModel) else model
    return tuple(order_complex(elems, covers=covers)
                 for elems, covers in face_link_posets(lift))


# -- canonical all-pairs cubes and their certificates ------------------------


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
