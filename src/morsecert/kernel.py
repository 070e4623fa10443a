"""Every rule that the prover and the checker share, and all that `verify`
trusts beside the report format; it imports no finder (`states`, `links`).

A move system partitions the facets, and crossing a facet flips the status,
In or Out, of its whole block.  A `Subject`, a polytope with its moves and
the orbit of its states, holds every table that depends on them alone, the
verdict plan and the cusp tables included, its invariants checked once
where it is built: by `builtin_subject` against `CENSUS`, once per
process, or by `generic_subject`, for certify and verify alike.  Every
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

from . import labels as lb
from .errors import InputError, InternalError, StructuralError
from .polytopes import (
    FaceHandle, FVectorReport, Polytope, RankedGraph, build_p5, build_p6, cusp_incidence,
    dual_mask, f_vector_check, face_of_mask,
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


def state_from_in_set(P: Polytope, in_facets: Iterable[str]) -> State:
    return State(tuple(sorted(P.facet_ids)), frozenset(in_facets))


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
# The concrete move system of the 27-facet polytope

R_TABLE: Tuple[Tuple[str, Tuple[str, str, str]], ...] = (
    ("1", ("1", "1-i+j-k", "1+i+j-k")),
    ("-1", ("-1", "-1+i-j+k", "-1-i-j+k")),
    ("i", ("i", "1+i+j+k", "-1+i+j+k")),
    ("-i", ("-i", "-1-i-j-k", "1-i-j-k")),
    ("j", ("j", "-1-i+j+k", "-1-i+j-k")),
    ("-j", ("-j", "1+i-j-k", "1+i-j+k")),
    ("k", ("k", "1-i-j+k", "1-i+j+k")),
    ("-k", ("-k", "-1+i+j-k", "-1+i-j-k")),
)

MOVE_ORDER = ("1", "i", "j", "k")


def unit_class_table() -> Dict[str, str]:
    """Hard-coded unit-class of every T24 label, cross-validated by quaternion
    factorisation over the base points."""
    table = {}
    for r, row in R_TABLE:
        for t in row:
            table[t] = r
    if len(table) != 24:
        raise StructuralError("unit-class table does not cover T24")
    for t, r in table.items():
        if lb.base_unit(t) != r:
            raise StructuralError(
                f"unit-class table disagrees with quaternion factorisation at {t}"
            )
    return table


def move_system_p6() -> MoveSystem:
    """Five moves: one per unit pair {q, -q} (six facets each) and {A, B, C}."""
    table = unit_class_table()
    blocks = []
    for q in MOVE_ORDER:
        block = frozenset(t for t, r in table.items() if r.lstrip("-") == q)
        if len(block) != 6:
            raise StructuralError(f"move of {q} has {len(block)} facets, expected 6")
        blocks.append(block)
    blocks.append(frozenset(("A", "B", "C")))
    return MoveSystem(tuple(blocks))


def r_class_triples(q: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The two adjacent triples of the size-6 move of unit q: classes +q, -q."""
    plus = minus = None
    for r, row in R_TABLE:
        if r == q:
            plus = row
        if r == "-" + q:
            minus = row
    if plus is None or minus is None:
        raise InputError(f"not a positive unit: {q!r}")
    return plus, minus


def balanced_states_p6(P: Polytope) -> Tuple[State, ...]:
    """All 32 balanced states: equal status on A, B, C and one full unit-class
    triple In per size-6 move, the other Out."""
    states = []
    for abc_in in (False, True):
        for bits in range(16):
            in_set = set(("A", "B", "C")) if abc_in else set()
            for pos, q in enumerate(MOVE_ORDER):
                plus, minus = r_class_triples(q)
                in_set.update(plus if bits >> pos & 1 else minus)
            states.append(state_from_in_set(P, in_set))
    out = tuple(sorted(states, key=State.serial))
    if len(set(out)) != 32:
        raise StructuralError("balanced state enumeration produced duplicates")
    return out


def balanced_states_p5(P5: Polytope) -> Tuple[State, ...]:
    """The 16 balanced states of the 16-facet polytope: per move, one of the
    two adjacent unit-class pairs is In, the other Out."""
    states = []
    for bits in range(16):
        in_set: set = set()
        for pos, q in enumerate(MOVE_ORDER):
            plus, minus = r_class_triples(q)
            chosen = plus if bits >> pos & 1 else minus
            in_set.update(t for t in chosen if t in P5.ranked_graph().rank)
        states.append(state_from_in_set(P5, in_set))
    out = tuple(sorted(states, key=State.serial))
    if len(set(out)) != 16:
        raise StructuralError("balanced state enumeration produced duplicates")
    return out


def move_system_p5(P5: Polytope) -> MoveSystem:
    return move_system_p6().restrict(P5.facet_ids)


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
    `builtin_subject` and `generic_subject` build one, and they check its
    invariants; the prover and the checker read it and check nothing again."""

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


# The paper's census of each built-in subject: clique counts by size, the
# uniform facet degree and the bad-face signatures (None: not declared).
CENSUS = {
    "p6": ({1: 27, 2: 216, 6: 72}, 16, {(2,), (3,), (2, 2), (2, 2, 2)}),
    "p5": ({1: 16, 5: 16}, None, None),
}


@cache
def builtin_subject(tag: str) -> Subject:
    """The built-in subject "p6" or "p5", built once per process from the
    code's own tables, P5 from the kept P6's polytope, which does not build
    P6's plan or cusp tables.  No report or generic input reaches them;
    `build_p6` and the other constructors still return fresh objects.  Each
    state is checked compatible here, the states to be the orbit of the
    first, and the face census against `CENSUS`, once per process; on P6
    and P5 a failure is a transcription bug, a StructuralError naming the
    subject."""
    if tag == "p6":
        P = build_p6()
        m, states = move_system_p6(), balanced_states_p6(P)
    elif tag == "p5":
        P = build_p5(builtin_subject("p6").P)
        m, states = move_system_p5(P), balanced_states_p5(P)
    else:
        raise InputError(f"no built-in subject {tag!r}")
    for idx, s in enumerate(states):
        ok, witness = is_compatible(P, m, s)
        if not ok:
            raise StructuralError(f"{tag} state {idx} is incompatible: "
                                  f"adjacent same-move pair {witness!r}")
    if orbit(states[0], m) != states:
        raise StructuralError(f"{tag} states are not the orbit of the first")
    counts, degree, signatures = CENSUS[tag]
    try:
        fv = f_vector_check(P, counts, degree)
    except StructuralError as exc:
        raise StructuralError(f"{tag} {exc}") from None
    S = Subject(P, m, states, fv)
    if signatures is not None and set(S.bad_faces) != signatures:
        raise StructuralError(f"{tag} bad-face signatures {list(S.bad_faces)} "
                              f"!= expected {sorted(signatures)}")
    return S


def generic_subject(P: Polytope, m: MoveSystem, s0: State) -> Subject:
    """The subject of user-supplied inputs, the orbit of the initial state
    s0, for certify and verify alike.  m must partition P's facets, s0
    must be compatible, P must pass the face census, and each cusp's
    section must be a cube; a move flips both facets of an adjacent
    same-move pair, so the whole orbit of a compatible state is compatible.
    A rule the data breaks is an InputError naming it."""
    if not m.covers(P.facet_ids):
        raise InputError("move system does not partition the facet set")
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
