"""Moves, states, legality, inheritance, good/bad face classification and
the subject they make.

A move system is a partition of the facets; crossing a facet flips the status
of its whole block.  States label facets In or Out; the two full subcomplexes
of the dual complex they span drive every legality question.  "Totally legal"
is certified by dismantling orders, never asserted from a failed one.
A `Subject` holds a polytope, its move system and the orbit of its states,
with every table that depends on them alone, the verdict plan and the cusp
tables included.  Its invariants are checked where it is built, once: a
built-in one's by `builtin_subject`, once per process, against the paper's
census in `CENSUS`; a generic one's by `generic_subject`, for certify and
verify alike.  Neither the prover nor the checker checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import labels as lb
from .complexes import try_collapse  # not called here: pinned by perfbench
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


def act(s: State, m: MoveSystem, facet_id: str) -> State:
    """Flip the status of every facet in the block containing `facet_id`."""
    block = m.block(facet_id)
    return State(s.universe, s.in_facets ^ block)


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
# Inherited states and legality


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


def split_state(P: Polytope, dual: int, inn: int) -> State:
    """The state on the facets of rank mask `dual` whose In facets are `inn`."""
    G = P.ranked_graph()
    return State(G.labels(dual), frozenset(G.labels(inn)))


# kept for perfbench's tracer, which wraps it by name; the pipeline and the
# verifier split on `face_masks` instead
def inherited_state(P: Polytope, m: MoveSystem, s: State, F: FaceHandle) -> State:
    """State induced on the facets of F (vertices of its dual complex).

    A facet sharing a move with some defining facet gets Out regardless of s;
    all other facets keep their ambient status.  For F = P this is s itself.
    s may be a state of a polytope P is a section of.
    """
    dual, free = face_masks(P, m, F)
    return split_state(P, dual, free & facet_mask(P, s.in_facets))


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
    `plan`, each cusp's table (`cusps`) in P's order and the report's text
    of the plan (`verdict_frame`), the last four kept once built.  Only
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

    @cached_property
    def verdict_frame(self) -> tuple:
        """The report's text of the verdict rows (`report.verdict_frame`)."""
        from .report import verdict_frame  # which imports this module
        return verdict_frame(self)


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


def dismantle(
    N: Sequence[int], keep: int = 0, live: Optional[int] = None
) -> Optional[List[Tuple[int, int]]]:
    """Dismantle the graph on the positions in `live` (default: all of
    0..n-1) whose closed neighbourhoods are N, a symmetric relation: delete
    the first vertex, by position and outside `keep`, that a live vertex
    dominates, naming the first such dominator by position, until only
    `keep` is left, or one vertex when `keep` is 0.  Returns the (v, w)
    position pairs, or None when the graph is empty or the order gets stuck.

    Only v's live neighbours can dominate v, and deleting v changes what
    dominates x only when x is a neighbour of v.  So each vertex keeps its
    first dominator, which goes stale when a neighbour is deleted and is
    recomputed only when the scan for the next vertex reaches it.  As N is
    symmetric, the vertices dominating v are the intersection of N[u] over
    v's live closed neighbourhood: the lowest one is probed alone, then the
    others are intersected until only v would be left.
    """
    if live is None:
        live = (1 << len(N)) - 1
    if not live:
        return None
    dom: List[Optional[int]] = [None] * len(N)
    dominated, stale = 0, live & ~keep
    steps = []
    while (live != keep) if keep else live & (live - 1):
        todo = dominated | stale
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            if stale & low:
                stale ^= low
                closed = N[v] & live
                rest = closed ^ low
                first = rest & -rest
                if rest and not closed & ~N[first.bit_length() - 1]:
                    dom[v] = first.bit_length() - 1
                else:
                    common = rest ^ first
                    while common and rest:
                        bit = rest & -rest
                        common &= N[bit.bit_length() - 1]
                        rest ^= bit
                    if not common:
                        dominated &= ~low
                        todo ^= low
                        continue
                    dom[v] = (common & -common).bit_length() - 1
                dominated |= low
            break
        else:
            return None
        steps.append((v, dom[v]))
        live ^= low
        dominated ^= low
        stale = (stale | N[v]) & live & ~keep
    return steps


def flag_certificate(G: RankedGraph, live: int, keep: int = 0) -> Optional[list]:
    """Certificate that the flag complex of G on `live` shrinks to its full
    subcomplex on `keep`, or to a point when `keep` is 0: the `dismantle`
    order as labels [[v, w], ...]; None when it gets stuck."""
    got = dismantle(G.N, keep, live)
    return None if got is None else [[G.ids[v], G.ids[w]] for v, w in got]


def cone_apex(P: Polytope, part: int) -> Optional[str]:
    """The facet of lowest rank in `part`, a rank mask, adjacent to every
    other one (apex ∈ part and part ⊆ N[apex]); None when it has none.  An
    apex is exactly a facet whose one-round order [[v, apex], ...] over the
    part's other facets dismantles it (`certificate_problem`)."""
    ids, _, N = P.ranked_graph()
    rest = part
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        if not part & ~N[w]:
            return ids[w]
        rest ^= low
    return None


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


@dataclass(frozen=True)
class LegalityRecord:
    """The `flag_certificate` of each part of a split (None: not found).
    `totally_legal` is True only when both parts have one; None means "not
    certified": a part with no dismantling order may still be collapsible."""

    totally_legal: Optional[bool]
    out_sequence: Optional[list]
    in_sequence: Optional[list]


def split_legality(P: Polytope, dual: int, inn: int,
                   found: Optional[dict] = None) -> LegalityRecord:
    """Certified collapsibility of the parts of a face's dual complex, the
    rank mask `dual` over P's `ranked_graph`, split into Out and In = `inn`.
    The pair is totally legal when both parts collapse to a point; a
    collapsible complex is contractible, so no homology is computed.  A run
    passes one dict `found` to its calls, which keeps each part's
    certificate under its mask, so each part is dismantled once per run."""
    G, found = P.ranked_graph(), {} if found is None else found
    for part in (dual & ~inn, inn):
        if part not in found:
            found[part] = flag_certificate(G, part)
    out_seq, in_seq = found[dual & ~inn], found[inn]
    totally = True if out_seq is not None and in_seq is not None else None
    return LegalityRecord(totally, out_seq, in_seq)


# kept for perfbench's tracer, which wraps it by name; the pipeline and the
# verifier call `split_legality` on masks instead
def legality(P: Polytope, F: FaceHandle, s_on_f: State) -> LegalityRecord:
    """`split_legality` of the split of F's dual complex by a state on its
    vertices."""
    G, dual = P.ranked_graph(), dual_mask(P, F)
    if set(s_on_f.universe) != set(G.labels(dual)):
        raise InputError("state universe does not match the dual complex vertices")
    return split_legality(P, dual, G.mask(s_on_f.in_facets))
