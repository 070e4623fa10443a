"""The legality finders, the label-level views of states, and the moves and
balanced states of P6 and P5 as perfbench reads them, from the shipped
inputs (`io.builtin_inputs`).  "Totally legal" is certified by dismantling
orders, which `dismantle` finds, `flag_certificate` and `split_legality`
write as labels and `cone_apex` finds for a cone, never asserted from a
failed search; the kernel checks them (`kernel.certificate_problem`).
The paper's move and state tables are the tests' construction
(`tests/construction.py`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .complexes import try_collapse  # not called here: pinned by perfbench
from .errors import InputError
from .io import builtin_inputs, moves_from_doc, state_from_doc
from .kernel import MoveSystem, State, face_masks, facet_mask, orbit
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
# The moves and balanced states of P6 and P5, kept for perfbench, which
# calls them by name; they read the shipped inputs (`io.builtin_inputs`)


def move_system_p6() -> MoveSystem:
    """P6's five moves: one per unit pair {q, -q}, six facets each, and {A, B, C}."""
    return moves_from_doc(builtin_inputs("p6")[0]["moves"])


def move_system_p5(P5: Polytope) -> MoveSystem:
    """P5's four moves, P6's restricted to its facets; `P5` is not read,
    the signature is the one perfbench calls."""
    return moves_from_doc(builtin_inputs("p5")[0]["moves"])


def balanced_states_p6(P: Polytope) -> Tuple[State, ...]:
    """P6's 32 balanced states, the orbit of the shipped initial state."""
    return orbit(state_from_doc(builtin_inputs("p6")[0]["state"], P), move_system_p6())


def balanced_states_p5(P5: Polytope) -> Tuple[State, ...]:
    """P5's 16 balanced states, the orbit of the shipped initial state."""
    return orbit(state_from_doc(builtin_inputs("p5")[0]["state"], P5), move_system_p5(P5))
