"""Reference implementations that only tests use: literal constructions that
the engine's fast paths are checked against, kept out of the package."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional, Tuple

from morsecert import schema
from morsecert.complexes import SimplicialComplex, full_subcomplex, label_key
from morsecert.errors import InputError
from morsecert.kernel import (
    CubeLift,
    LiftValue,
    MoveSystem,
    State,
    face_int,
    face_masks,
    face_parts,
    face_table,
)
from morsecert.links import build_cube_model
from morsecert.labels import BASE_POINT_LABELS, UNIT_LABELS, label_signs
from morsecert.polytopes import (
    FaceHandle, Polytope, RankedGraph, build_cusp_section, dual_complex,
)
from morsecert.states import cone_apex, inherited_state


# -- complexes -----------------------------------------------------------------


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Subdivision whose vertices are the nonempty faces of K.

    Simplices are chains of faces under strict inclusion; each output vertex
    label is the originating face (a frozenset of input labels).
    """
    flags: list = []

    def extend(chain: list, top: frozenset):
        if len(top) == 1:
            flags.append(frozenset(chain))
            return
        for v in top:
            extend(chain + [top - {v}], top - {v})

    for f in K.maximal_faces:
        extend([f], f)
    return SimplicialComplex(flags, _trusted=True)


def is_connected(K: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton; the empty complex is not connected."""
    if K.is_empty:
        return False
    adj = {v: set() for v in K.vertices}
    for f in K.maximal_faces:
        for a, b in combinations(sorted(f, key=label_key), 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = {K.vertices[0]}
    stack = [K.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(K.vertices)


# -- faces, states and links -----------------------------------------------------


def cliques_recursive(P: Polytope, k: int):
    """The cliques of size k of P's facet graph, as tuples of facet indices,
    by depth-first extension over neighbour masks built from the adjacency
    pairs: independent of the census and of the ranked graph."""
    ids = P.facet_ids
    n = len(ids)
    nbr = [sum(1 << j for j, g in enumerate(ids) if frozenset((f, g)) in P.adjacency_pairs)
           for f in ids]

    def extend(clique: tuple, allowed: int, start: int):
        if len(clique) == k:
            yield clique
            return
        for i in range(start, n):
            if allowed >> i & 1:
                yield from extend(clique + (i,), allowed & nbr[i], i + 1)

    yield from extend((), (1 << n) - 1, 0)


def mask_ids(P: Polytope, mask: int):
    """The facets in `mask`, a mask over the ranks of P's facets in sorted
    order, in sorted order."""
    return tuple(f for r, f in enumerate(sorted(P.facet_ids)) if mask >> r & 1)


def cliques_brute_force(P: Polytope, k: int):
    """The cliques of size k as sorted id tuples, over all k-subsets of the
    facets, on `Polytope.adjacent`."""
    return sorted(
        c for c in combinations(sorted(P.facet_ids), k)
        if all(P.adjacent(a, b) for a, b in combinations(c, 2))
    )


def _move_counts(m: MoveSystem, F: FaceHandle) -> Dict[int, int]:
    """Number of defining facets of F in each move that meets them."""
    counts: Dict[int, int] = {}
    for fid in F.defining:
        b = m.block_of(fid)
        counts[b] = counts.get(b, 0) + 1
    return counts


def good_witness(m: MoveSystem, F: FaceHandle) -> Optional[int]:
    """Smallest move meeting F's defining facets exactly once, on facet
    ids: the reference for the face table's witnesses.

    None when no move does: F is a bad face (P itself included).
    """
    return min((b for b, c in _move_counts(m, F).items() if c == 1), default=None)


def bad_face_signature(m: MoveSystem, F: FaceHandle) -> Optional[Tuple[int, ...]]:
    """Sorted per-move counts for a bad face, on facet ids: the reference
    for the face table's signatures; None when the face is good."""
    if good_witness(m, F) is not None:
        return None
    return tuple(sorted(_move_counts(m, F).values()))


def is_good_face(m: MoveSystem, F: FaceHandle) -> bool:
    """Good iff some move contains exactly one defining facet; P itself is bad."""
    return good_witness(m, F) is not None


def compatibility_by_labels(P: Polytope, m: MoveSystem, s: State):
    """`kernel.is_compatible` as a walk over every same-move pair by label."""
    for block in m.blocks:
        bl = sorted(block)
        for i, a in enumerate(bl):
            for b in bl[i + 1:]:
                if P.adjacent(a, b) and (a in s.in_facets) != (b in s.in_facets):
                    return False, (a, b)
    return True, None


def state_parts(P: Polytope, F: FaceHandle, s_on_f: State):
    """The Out and In parts of F's dual complex: its full subcomplexes on
    the facets that the state on F labels Out and In."""
    D = dual_complex(P, F)
    if set(s_on_f.universe) != set(D.vertices):
        raise InputError("state universe does not match the dual complex vertices")
    return full_subcomplex(D, s_on_f.out_facets), full_subcomplex(D, s_on_f.in_facets)


def vertex_state(model, w: int) -> State:
    """Full polytope state at the copy of a cube model's vertex w: the base
    state with the move of each crossed defining facet flipped."""
    s = model.base_state
    in_set = set(s.in_facets)
    for j in range(model.k):
        if w >> j & 1:
            in_set ^= model.moves.block(model.defining[j])
    return State(s.universe, frozenset(in_set))


def vertex_states(model) -> Dict[int, State]:
    return {w: vertex_state(model, w) for w in range(1 << model.k)}


def coface_links_fast(P: Polytope, m: MoveSystem, s: State, F: FaceHandle):
    """Ascending and descending coface links from the inherited state.

    Ascending: barycentric subdivision of the Out part of the dual complex.
    Descending: full subcomplex of the subdivided dual spanned by barycentres
    of simplices meeting at least one In vertex.
    """
    D = dual_complex(P, F)
    if D.is_empty:
        return SimplicialComplex([]), SimplicialComplex([])
    inh = inherited_state(P, m, s, F)
    out_ids = [v for v in D.vertices if v not in inh.in_facets]
    in_ids = frozenset(v for v in D.vertices if v in inh.in_facets)
    asc = barycentric_subdivision(full_subcomplex(D, out_ids))
    sd = barycentric_subdivision(D)
    desc = full_subcomplex(sd, [v for v in sd.vertices if v & in_ids])
    return asc, desc


def part_graph(P: Polytope, vertices) -> RankedGraph:
    """The facet graph of P on `vertices` alone, ranked on its own: the part
    relabelled, where P's `ranked_graph` holds it in place."""
    ids = tuple(sorted(vertices))
    rank = {v: r for r, v in enumerate(ids)}
    N = tuple(sum(1 << rank[u] for u in ids if u == v or P.adjacent(u, v)) for v in ids)
    return RankedGraph(ids, rank, N)


# -- cusp sections -------------------------------------------------------------


def section_cusp_table(P: Polytope, m: MoveSystem, cusp_id: str):
    """A cusp's table through its section polytope: (H, its number of
    faces, each bad face's sorted ids mapped to its `face_masks` on H), the
    bad faces in H's canonical order under the moves restricted to H."""
    H = build_cusp_section(P, cusp_id)
    mH = m.restrict(H.facet_ids)
    table = face_table(H, mH)
    return H, len(table.masks), {F.sorted_ids(): face_masks(H, mH, F) for F in table.bad}


def section_checked(table, s: State) -> list:
    """The checked apex pairs [out apex, in apex] of state s on a
    `section_cusp_table`, one per bad face in order: the first cone apex on
    H of each part of the face's split by the In facets s has on H."""
    H, _, bad = table
    s_in = H.ranked_graph().mask(f for f in s.in_facets if f in H.facet_ids)
    return [[cone_apex(H, dual & ~(free & s_in)), cone_apex(H, free & s_in)]
            for dual, free in bad.values()]


def section_plan(P: Polytope, m: MoveSystem, cusp_id: str, states) -> tuple:
    """A cusp's plan through its section polytope H: (whether the cusp
    condition holds in each state, in order; per bad face of H in
    canonical order, its distinct In parts as sorted ids, in order of first
    occurrence over the states where the condition holds).  The condition
    holds when some move meets H in two opposite, non-adjacent facets of
    different status."""
    H, _, bad = section_cusp_table(P, m, cusp_id)
    G = H.ranked_graph()
    pairs = [b for b in m.restrict(H.facet_ids).blocks
             if len(b) == 2 and not H.adjacent(*b)]
    held = [any(len(b & s.in_facets) == 1 for b in pairs) for s in states]
    s_ins = [G.mask(f for f in s.in_facets if f in G.rank)
             for s, ok in zip(states, held) if ok]
    parts = [list(dict.fromkeys(tuple(sorted(G.labels(free & s_in))) for s_in in s_ins))
             for _, free in bad.values()]
    return held, parts


def checked_of_state(table, found: list, s_in: int) -> list:
    """The apex pair of each bad face of a cusp's `table` that the state of
    In rank mask `s_in` selects, from the pairs `found` per planned part by
    `certify_boundary_cube`; [] when the cusp condition fails."""
    if not table.held:
        return []
    return [pairs[parts.index(free & s_in)]
            for (_, _, free), parts, pairs in zip(table.bad, table.parts, found)]


def dismantle_by_scan(N, keep: int = 0):
    """`states.dismantle` on all positions 0..n-1, finding each stale
    vertex's first dominator by testing its live neighbours one by one."""
    live = (1 << len(N)) - 1
    if not live:
        return None
    dom = [None] * len(N)
    dominated, stale = 0, live & ~keep
    steps = []
    while (live != keep) if keep else live & (live - 1):
        todo = dominated | stale
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            if stale & low:
                stale ^= low
                closed, dom[v] = N[v] & live, None
                candidates = closed ^ low
                while candidates:
                    bit = candidates & -candidates
                    w = bit.bit_length() - 1
                    if not closed & ~N[w]:
                        dom[v] = w
                        break
                    candidates ^= bit
                if dom[v] is None:
                    dominated &= ~low
                    todo ^= low
                    continue
                dominated |= low
            break
        else:
            return None
        steps.append((v, dom[v]))
        live ^= low
        dominated ^= low
        stale = (stale | N[v]) & live & ~keep
    return steps


# -- the schema ----------------------------------------------------------------------


def schema_walk(kind, value, root: str = "") -> Optional[str]:
    """The message with which `schema.parse(kind, value, root)` rejects
    `value`, or None where it parses: the first value that breaks `kind`,
    in document order, found by checking every value on its own, as the
    schema's checks of whole lists at once must agree."""
    found = _first_mismatch(kind, value)
    if found is None:
        return None
    path, message = found
    where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    where = where.removeprefix(".") or root
    return f"{where}: {message}" if where else message


def _first_mismatch(kind, value):
    """(the path under `value`, the message) of its first value that breaks
    `kind`, or None."""
    if isinstance(kind, schema.Leaf):
        return None if type(value) in kind.types else ((), str(schema._expected(kind.noun, value)))
    noun = kind.noun if isinstance(kind, schema.ListOf) else "object"
    if type(value) is not (list if isinstance(kind, schema.ListOf) else dict):
        return (), str(schema._expected(noun, value))
    if isinstance(kind, schema.Pair) and len(value) != 2:
        return (), f"expected a {noun}, got a list of {len(value)}"
    if isinstance(kind, schema.ListOf):
        children = [(i, kind.item, item) for i, item in enumerate(value)]
    elif kind.each is not None:
        children = [(key, kind.each, item) for key, item in value.items()]
    else:
        missing = sorted(kind.required - value.keys())
        unknown = sorted(value.keys() - kind.fields.keys())
        if missing:
            return (), f"missing key {', '.join(missing)}"
        if unknown:
            return (), f"unknown key {', '.join(map(repr, unknown))}"
        children = [(key, kind.fields[key], item) for key, item in value.items()]
    for key, child, item in children:
        found = _first_mismatch(child, item)
        if found is not None:
            return (key, *found[0]), found[1]
    return None


# -- quaternion labels over Fraction -----------------------------------------------

FQuat = Tuple[Fraction, Fraction, Fraction, Fraction]

_UNIT_AXES = {"1": 0, "i": 1, "j": 2, "k": 3}


def fraction_quat(label: str) -> FQuat:
    """The quaternion a T24 label stands for: a unit, or a sign label's
    (±1±i±j±k)/2."""
    if label in UNIT_LABELS:
        sign = -1 if label.startswith("-") else 1
        axis = _UNIT_AXES[label.lstrip("-")]
        return tuple(Fraction(sign if p == axis else 0) for p in range(4))
    return tuple(Fraction(s, 2) for s in label_signs(label))


def fraction_mul(p: FQuat, q: FQuat) -> FQuat:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def fraction_base_unit(label: str) -> str:
    """The unit q with label = q * base point, over Fraction."""
    t = fraction_quat(label)
    units = {fraction_quat(u): u for u in UNIT_LABELS}
    found = []
    for bp in BASE_POINT_LABELS:
        b = fraction_quat(bp)
        q = fraction_mul(t, (b[0], -b[1], -b[2], -b[3]))
        if q in units:
            found.append(units[q])
    assert len(found) == 1, (label, found)
    return found[0]


# -- cube lifts ----------------------------------------------------------------


def top_value(lift: CubeLift) -> LiftValue:
    """The lift value at the barycentre of the whole cube."""
    return LiftValue(0, lift.k)


def monochromatic_factor_mins(lift: CubeLift, fid: int) -> Tuple[bool, ...]:
    """Per block: does the face attain that factor's minimum lift?

    Factor lift of block B at vertex w depends only on w's bits in B;
    the face attains the factor minimum iff some allowed assignment of
    the block bits achieves it.
    """
    mask, bits = face_parts(lift.k, fid)
    out = []
    for block in lift.blocks:
        bmask = 0
        for p in block:
            bmask |= 1 << p
        free_in_block = bmask & ~mask
        # factor values: vary only this block's bits, other blocks pinned
        # at the base vertex; the pinned offset cancels in the comparison
        base_val = {}
        x = 0
        while True:
            base_val[x] = lift.vertex_lift[x]
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
