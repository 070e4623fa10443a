"""The legality finders, the label-level views of states, and the paper's
move and state tables, which no run reads: the shipped inputs hold them
(`io.builtin_subject`).  "Totally legal" is certified by dismantling
orders, which `dismantle` finds, `flag_certificate` and `split_legality`
write as labels and `cone_apex` finds for a cone, never asserted from a
failed search; the kernel checks them (`kernel.certificate_problem`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import labels as lb
from .complexes import try_collapse  # not called here: pinned by perfbench
from .errors import InputError, StructuralError
from .kernel import MoveSystem, State, face_masks, facet_mask
from .polytopes import FaceHandle, Polytope, RankedGraph, dual_mask


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
# Finders of dismantling orders, which `kernel.certificate_problem` checks


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


# ---------------------------------------------------------------------------
# The paper's moves and balanced states of the 27-facet polytope and of P5

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
    rows = dict(R_TABLE)
    return rows[q], rows["-" + q]


def state_from_in_set(P: Polytope, in_facets: Iterable[str]) -> State:
    return State(tuple(sorted(P.facet_ids)), frozenset(in_facets))


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
