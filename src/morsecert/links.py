"""The link finders.  `classify_link` answers only what the verdict sweep
asks it once the plan has decided good faces and the sweep totally legal
classes: is a bad face Critical(l), an all-pairs top vertex whose cube lift
is the canonical one at every compatible state by the all-pairs lemma
(README), or Unknown.  `face_links_oracle` and `canonical_pairs_transform`,
which no command calls, stay here because the benchmark wraps them by name,
and so does the cube-lift model they run on, in which a lift value is the
pair (base, depth), the increment at a barycentre kept symbolic.  The cube
model that the tests check the lemma on is in `tests/oracles.py`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import order_complex, try_collapse  # try_collapse: pinned by perfbench
from .errors import InputError, InternalError
from .kernel import (
    CuspTable, Subject, all_pairs_index, canonical_pairs_graphs, face_int, face_parts,
)
from .polytopes import FaceHandle, Polytope
from .states import cone_apex, flag_certificate


# -- cube lifts and their face-link posets -----------------------------------


@dataclass(frozen=True, order=True)
class LiftValue:
    """Symbolic lift value base + depth*eps, ordered lexicographically."""

    base: int
    depth: int


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


# -- face links (the literal oracle) ----------------------------------------


def face_links_oracle(lift: CubeLift):
    """Ascending and descending face links as full subcomplexes of the
    barycentric subdivision of the cube's boundary: the order complexes of
    the two `face_link_posets`."""
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
def canonical_pairs_transform(lift: CubeLift, base_status_out: Tuple[bool, ...],
                              synth: CubeLift):
    """Position permutation and translation mapping an all-pairs cube lift,
    whose defining facets are Out at the base vertex where `base_status_out`
    says so, onto the canonical one, `synth`, the lift of its pair count
    that counts the pairs whose bits differ; validated over every vertex.

    Returns (ell, perm, delta) with perm[p] = canonical position of original
    position p and delta a vertex translation in canonical coordinates.
    """
    blocks = lift.blocks
    if any(len(b) != 2 for b in blocks):
        raise InputError("not an all-pairs cube")
    ell = len(blocks)
    k = 2 * ell
    perm = [0] * k
    delta = 0
    for i, (p, q) in enumerate(sorted(blocks, key=lambda b: b[0])):
        perm[p] = 2 * i
        perm[q] = 2 * i + 1
        if not base_status_out[p]:
            delta |= 1 << (2 * i)

    def apply_vertex(w: int) -> int:
        out = 0
        for p in range(k):
            if w >> p & 1:
                out |= 1 << perm[p]
        return out ^ delta

    for w in range(1 << k):
        if lift.vertex_lift[w] != synth.vertex_lift[apply_vertex(w)]:
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
