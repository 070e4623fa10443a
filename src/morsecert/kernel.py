"""Every rule that the prover and the checker share, and all that `verify`
trusts beside the report format; it imports no finder (`states`, `links`)
and no construction of the paper's polytopes.

A move system partitions the facets, and crossing a facet flips the status,
In or Out, of its whole block.  A `Subject`, a polytope with its moves and
the orbit of its states, holds every table that depends on them alone, the
verdict plan and the cusp tables included, its invariants checked once
where `generic_subject` builds it, for every subject, the built-in ones
read from their shipped documents (`io.builtin_subject`) included.  Every
certificate is a dismantling order, checked by `certificate_problem`; a
critical item's orders run on the face-link graphs of the canonical
all-pairs cube (`canonical_pairs_graphs`).  A face of a k-cube is an int
(fixed_mask << k) | fixed_bits, and a lift value the pair (base, depth),
the increment at a barycentre kept symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, total_ordering
from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, InternalError, StructuralError
from .polytopes import (
    FaceHandle, FVectorReport, Polytope, RankedGraph, cusp_incidence, dual_mask,
    f_vector_check, face_of_mask,
)

IN, OUT = "I", "O"


@dataclass(frozen=True)
class MoveSystem:
    """Partition of the facet ids into nonempty blocks."""

    blocks: Tuple[FrozenSet[str], ...]

    def __post_init__(self):
        seen: set = set()
        for i, b in enumerate(self.blocks):
            if not b:
                raise InputError(f"move block {i} is empty")
            if seen & b:
                raise InputError("move blocks are not disjoint")
            seen |= b
        object.__setattr__(self, "_block_of", {
            f: i for i, b in enumerate(self.blocks) for f in b
        })

    def covers(self, facet_ids: Iterable[str]) -> bool:
        return set(self._block_of) == set(facet_ids)

    def block_of(self, facet_id: str) -> int:
        try:
            return self._block_of[facet_id]
        except KeyError:
            raise InputError(f"facet {facet_id!r} not covered by any move") from None

    def block(self, facet_id: str) -> FrozenSet[str]:
        return self.blocks[self.block_of(facet_id)]

    def restrict(self, facet_ids: Iterable[str]) -> "MoveSystem":
        """Induced move system on a subset of facets (empty blocks dropped)."""
        keep = frozenset(facet_ids)
        blocks = tuple(b & keep for b in self.blocks if b & keep)
        return MoveSystem(blocks)


@dataclass(frozen=True)
class State:
    """Total In/Out labelling of a facet set, canonically serialisable."""

    universe: Tuple[str, ...]
    in_facets: FrozenSet[str]

    def __post_init__(self):
        extra = self.in_facets.difference(self.universe)
        if extra:
            raise InputError(f"status given for unknown facets: {sorted(extra)!r}")

    @property
    def out_facets(self) -> FrozenSet[str]:
        return frozenset(self.universe) - self.in_facets

    def serial(self) -> str:
        return "".join(IN if f in self.in_facets else OUT for f in self.universe)


def orbit(s: State, m: MoveSystem) -> Tuple[State, ...]:
    """Closure of s under all moves, in canonical (serialised) order."""
    seen = {s}
    frontier = [s]
    while frontier:
        cur = frontier.pop()
        for block in m.blocks:
            nxt = State(cur.universe, cur.in_facets ^ block)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen, key=State.serial))


def is_compatible(P: Polytope, m: MoveSystem, s: State):
    """Adjacent same-move facets must share status; returns (ok, witness),
    the first pair (a, b) that does not, blocks in order, each sorted.  A
    block is tested on masks, and walked only to name its pair."""
    N, s_in = P.ranked_graph().N, facet_mask(P, s.in_facets)
    for block in m.blocks:
        bm = facet_mask(P, block)
        inn, out = bm & s_in, bm & ~s_in
        while inn and not N[(inn & -inn).bit_length() - 1] & out:
            inn &= inn - 1
        if not inn:
            continue
        bl = sorted(block)
        for i, a in enumerate(bl):
            for b in bl[i + 1:]:
                if P.adjacent(a, b) and (a in s.in_facets) != (b in s.in_facets):
                    return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------
# Good and bad faces


class FaceTable(NamedTuple):
    """Every face of a polytope under a move system, the polytope itself
    first, in canonical order: `masks` holds each face's rank mask and
    `witnesses` its good witness, the smallest move meeting its defining
    facets exactly once, None for a bad face (P itself included); `bad`
    maps each bad face, in the same order, to its signature, its sorted
    per-move counts of defining facets."""

    masks: Tuple[int, ...]
    witnesses: Tuple[Optional[int], ...]
    bad: Dict[FaceHandle, Tuple[int, ...]]


def face_table(P: Polytope, m: MoveSystem) -> FaceTable:
    """The face table of P under m, from P's clique census and m's block
    masks: a face's witness is the first move whose block meets its mask in
    exactly one bit.  A `Subject` keeps its own."""
    blocks = [facet_mask(P, b) for b in m.blocks]
    masks = tuple(f for k in range(P.dimension + 1) for f in P.cliques(k))
    witnesses, bad = [], {}
    for f in masks:
        for i, b in enumerate(blocks):
            hit = f & b
            if hit and not hit & (hit - 1):
                witnesses.append(i)
                break
        else:
            witnesses.append(None)
            bad[face_of_mask(P, f)] = tuple(sorted((f & b).bit_count() for b in blocks if f & b))
    return FaceTable(masks, tuple(witnesses), bad)


def all_pairs_index(S: Subject, F: FaceHandle) -> Optional[int]:
    """l when F is a bad face of S of codimension 2l = dim P met by each of
    its moves in exactly two defining facets (an all-pairs top vertex); else
    None."""
    sig = S.table.bad.get(F)
    if sig and set(sig) == {2} and F.codim == S.P.dimension:
        return len(sig)
    return None


# ---------------------------------------------------------------------------
# Inherited In parts


def facet_mask(P: Polytope, ids: Iterable[str]) -> int:
    """The rank mask of the facets of P among `ids`."""
    G = P.ranked_graph()
    return G.mask(f for f in ids if f in G.rank)


def face_masks(P: Polytope, m: MoveSystem, F: FaceHandle) -> Tuple[int, int]:
    """(dual, free): F's dual vertices as a mask over the ranks of P's
    `ranked_graph`, and those whose move meets no defining facet of F.  A
    state with In facets s_in, as ranks, inherits the split in = free & s_in,
    out = dual & ~in on F."""
    blocked = {m.block_of(fid) for fid in F.defining}
    dual = dual_mask(P, F)
    return dual, dual & ~facet_mask(P, (f for b in blocked for f in m.blocks[b]))


# ---------------------------------------------------------------------------
# The subject: a polytope, its moves and an orbit, with its tables


class PlannedRow(NamedTuple):
    """A verdict row as the plan fixes it: its face's sorted ids, the
    states it covers, and what its branch rests on, the face table's good
    witness of a good face or, for a bad face, its handle `F` and the
    (dual, in) rank masks of its inherited-In class."""

    F: Optional[FaceHandle]
    face: Tuple[str, ...]
    states: Tuple[int, ...]
    witness: Optional[int] = None
    masks: Optional[Tuple[int, int]] = None


class CuspTable(NamedTuple):
    """A cusp's plan, which the subject alone fixes: its section's bad faces
    in canonical order, each as (sorted ids, its `face_masks` over P's ranks
    cut to the incident facets); its pairs, moves in canonical order, each a
    move's two non-adjacent incident facets as (sorted ids, rank mask);
    `held`, whether the cusp condition holds; and per bad face its distinct
    In parts, in order of first occurrence over the states, none when the
    condition fails.  A run finds or checks one apex pair per part."""

    bad: Tuple[Tuple[Tuple[str, ...], int, int], ...]
    pairs: Tuple[Tuple[Tuple[str, str], int], ...]
    held: bool
    parts: Tuple[Tuple[int, ...], ...]


def check_cusp_condition(pairs: Sequence[tuple], s_in: int) -> Optional[Tuple[str, str]]:
    """The first of a cusp's `pairs` whose two facets have opposite status
    in the state of In rank mask `s_in`; None when the cusp condition fails."""
    for pair, mask in pairs:
        if s_in & mask not in (0, mask):
            return pair
    return None


def cusp_table(P: Polytope, m: MoveSystem, masks: Dict[FaceHandle, Tuple[int, int]],
               in_masks: Sequence[int], cusp_id: str) -> CuspTable:
    """The section, a cube by `cusp_incidence`, spans P's faces inside the
    cusp's incident facets, each good or bad as under m; `masks` holds each
    bad face's `face_masks`, in canonical order (`Subject.bad_masks`), and
    `in_masks` each state's In rank mask.  A move flips both facets of a
    pair or neither, so the condition is the first state's (README)."""
    inc = cusp_incidence(P, cusp_id)
    incident = P.ideal_vertex(cusp_id).incident
    bad = tuple((F.sorted_ids(), dual & inc, free & inc)
                for F, (dual, free) in masks.items() if F.defining <= incident)
    pairs = []
    for block in m.blocks:
        hit = sorted(block & incident)
        if len(hit) == 2 and not P.adjacent(*hit):
            pairs.append((tuple(hit), P.ranked_graph().mask(hit)))
    held = check_cusp_condition(pairs, in_masks[0]) is not None
    return CuspTable(bad, tuple(pairs), held, tuple(
        tuple(dict.fromkeys(free & s_in for s_in in in_masks)) if held else ()
        for _, _, free in bad))


class Subject:
    """A polytope P, its move system m and `states`, the orbit of a
    compatible state in canonical order, with all that depends on them
    alone: the face `table`, the proper `bad_faces` by signature in
    canonical order, the face census `f_vector`, each state's In rank mask
    (`in_masks`), each bad face's `face_masks` (`bad_masks`), the verdict
    `plan` and each cusp's table (`cusps`) in P's order, the last three
    kept once built.  Only
    `generic_subject` builds one, and it checks its invariants; the prover
    and the checker read it and check nothing again."""

    def __init__(self, P: Polytope, m: MoveSystem, states: Sequence[State],
                 f_vector: FVectorReport):
        self.P, self.m, self.states, self.f_vector = P, m, tuple(states), f_vector
        self.table = face_table(P, m)
        bad: Dict[Tuple[int, ...], list] = {}
        for F, sig in self.table.bad.items():
            if F.codim:
                bad.setdefault(sig, []).append(F)
        self.bad_faces = {sig: tuple(faces) for sig, faces in sorted(bad.items())}
        self.in_masks = tuple(P.ranked_graph().mask(s.in_facets) for s in self.states)

    @cached_property
    def bad_masks(self) -> Dict[FaceHandle, Tuple[int, int]]:
        """Each bad face's (dual, free) `face_masks`, in the face table's
        order, which the plan and the cusp tables read."""
        return {F: face_masks(self.P, self.m, F) for F in self.table.bad}

    @cached_property
    def plan(self) -> Tuple[PlannedRow, ...]:
        """The verdict rows in report order: every face in canonical order, a
        good face as one row over all states, a bad face as one row per
        inherited-In class, classes in order of their states.  The pipeline
        fills this plan, and the verifier requires a report's rows to be it.
        Only a bad face gets a handle, the face table's, in the same order.
        It is checked to cover each face x state exactly once: a plan that
        does not is a bug, an InternalError naming the face."""
        plan, covered, everyone = tuple(_plan_rows(self)), {}, tuple(range(len(self.states)))
        for p in plan:
            covered[p.face] = covered.get(p.face, ()) + p.states
        for face, got in covered.items():
            if got != everyone and tuple(sorted(got)) != everyone:
                raise InternalError(f"verdict plan does not cover each state once at face {face}")
        if len(covered) != len(self.table.masks):
            raise InternalError("verdict plan does not cover every face")
        return plan

    @cached_property
    def cusps(self) -> Tuple[CuspTable, ...]:
        """Each cusp's `cusp_table`, in P's order."""
        return tuple(cusp_table(self.P, self.m, self.bad_masks, self.in_masks, iv.id)
                     for iv in self.P.ideal_vertices)


def _plan_rows(S: Subject) -> Iterator[PlannedRow]:
    """The rows of `Subject.plan`, before their coverage is checked."""
    G, table = S.P.ranked_graph(), S.table
    all_states = tuple(range(len(S.states)))
    bad, names = iter(S.bad_masks.items()), {0: ()}  # each face's sorted ids, under its mask
    for f, witness in zip(table.masks, table.witnesses):
        # a face without its top facet is a face of one size less, listed earlier
        top = f.bit_length() - 1
        ids = names[f] = names[f ^ 1 << top] + (G.ids[top],) if f else ()
        if witness is not None:
            yield PlannedRow(None, ids, all_states, witness)
            continue
        F, (dual, free) = next(bad)
        classes: Dict[int, List[int]] = {}
        for idx, s_in in enumerate(S.in_masks):
            classes.setdefault(free & s_in, []).append(idx)
        for inn, members in classes.items():
            yield PlannedRow(F, ids, tuple(members), None, (dual, inn))


# The most moves a generic subject may have.  Its moves are disjoint and
# nonempty, so its orbit has exactly 2^moves states, each a set of moves
# applied to the first; P6 has 5 moves and P5 4.
MAX_MOVES = 10


def generic_subject(P: Polytope, m: MoveSystem, s0: State) -> Subject:
    """The subject of user-supplied inputs, the orbit of the initial state
    s0, for certify and verify alike.  m must partition P's facets into at
    most `MAX_MOVES` moves, checked before the orbit is listed, s0 must be
    compatible, P must pass the face census, and each cusp's section must
    be a cube; a move flips both facets of an adjacent same-move pair, so
    the whole orbit of a compatible state is compatible.  A rule the data
    breaks is an InputError naming it."""
    if not m.covers(P.facet_ids):
        raise InputError("move system does not partition the facet set")
    if len(m.blocks) > MAX_MOVES:
        raise InputError(f"{len(m.blocks)} moves, past the limit of {MAX_MOVES}: the orbit "
                         f"would have 2^{len(m.blocks)} states")
    ok, witness = is_compatible(P, m, s0)
    if not ok:
        raise InputError(f"initial state is incompatible: adjacent same-move pair {witness!r}")
    try:
        S = Subject(P, m, orbit(s0, m), f_vector_check(P))
        S.cusps  # each cusp's section is checked to be a cube where it is built
    except StructuralError as exc:
        raise InputError(str(exc)) from exc
    return S


# ---------------------------------------------------------------------------
# Certificates
#
# Every certificate is about a flag complex: the clique complex of a
# `RankedGraph` G on a `live` rank mask, a part on its polytope's facet
# graph, a face link on its poset's comparability graph.  There v is
# dominated by w when N[v] ⊆ N[w] (closed neighbourhoods); then link(v) is a
# cone on w and deleting v is a collapse (a strong collapse, Barmak & Minian,
# DCG 2012).  A dismantling order [[v, w], ...] deletes dominated vertices
# down to the full subcomplex on a `keep` mask, or to one vertex when `keep`
# is 0.  It is the one form of certificate: a complex with no such order
# (strong collapsibility is stricter than collapsibility) is not certified.


def certificate_problem(G: RankedGraph, steps, live: int, keep: int = 0, *,
                        what: str) -> Optional[str]:
    """What is wrong with `steps` as a `flag_certificate` of G on `live`,
    the `what` a message names: a dismantling order down to `keep`, or to
    one vertex when `keep` is 0, checked in place on G's masks; None when
    nothing is.  `steps` is a list of [v, w] pairs of labels of the kind of
    G's labels, as `schema.REPORT` parses a report's orders."""
    rank, N = G.rank, G.N
    for i, (v, w) in enumerate(steps):
        if v == w:
            return f"step {i}: {v!r} cannot dominate itself"
        pv, pw = rank.get(v), rank.get(w)
        for x, p in ((v, pv), (w, pw)):
            if p is None or not live >> p & 1:
                return f"step {i}: {x!r} is not a live vertex of the {what}"
        if keep >> pv & 1:
            return f"step {i}: {v!r} is a core vertex"
        if N[pv] & live & ~N[pw]:
            return f"step {i}: {w!r} does not dominate {v!r}"
        live ^= 1 << pv
    if keep:
        return None if live == keep else "does not reach its core"
    return None if live and not live & (live - 1) else "does not reach a point"


# ---------------------------------------------------------------------------
# Cube lifts and the canonical all-pairs cube's face links


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


# -- face links -------------------------------------------------------------


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
