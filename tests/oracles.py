"""Reference implementations that only tests and demos use: literal
constructions that the engine's fast paths are checked against, and every
function that no command runs, kept out of the package.  A moved method is
a function of its former instance here (`face(P, ids)` for `P.face(ids)`).
The package cannot import this module, so no command can come to rely on
one of them.  The paper's construction of P6 and P5, on which the symmetry
group is checked, is `construction.py`."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Mapping, Optional, Tuple

from morsecert import schema
from morsecert.complexes import (
    CollapseOutcome, SimplicialComplex, full_subcomplex, label_key, replay_collapse, simplex_key,
)
from morsecert.errors import InputError, InternalError, StructuralError
from morsecert.kernel import (
    MoveSystem,
    State,
    face_int,
    face_masks,
    face_parts,
    face_table,
    is_compatible,
)
from morsecert.links import CubeLift, LiftValue
from morsecert.polytopes import (
    FaceHandle, Polytope, RankedGraph, build_cusp_section, dual_complex,
)
from morsecert.report import Certificate, verdict_row
from morsecert.states import cone_apex, inherited_state

from construction import (
    _LABELS, BASE_POINT_LABELS, SPECIAL_LABELS, T24_LABELS, UNIT_LABELS, Quat, base_unit,
    build_p6, label_quat, label_signs, quat_mul, restrict,
)


# -- complexes -----------------------------------------------------------------


def dim(K: SimplicialComplex) -> int:
    """Dimension; -1 for the empty complex."""
    if not K.maximal_faces:
        return -1
    return max(len(f) for f in K.maximal_faces) - 1


def faces_of_dim(K: SimplicialComplex, d: int) -> list:
    return sorted((s for s in K.simplices() if len(s) == d + 1), key=simplex_key)


def star_vertex_apexes(K: SimplicialComplex) -> list:
    """Vertices contained in every maximal face (cone apexes)."""
    if K.is_empty:
        return []
    common = set(K.maximal_faces[0])
    for f in K.maximal_faces[1:]:
        common &= f
        if not common:
            break
    return sorted(common, key=label_key)


def from_maximal_faces(candidate_faces: Iterable[Iterable]) -> SimplicialComplex:
    """Downward closure of the given faces; redundant faces are absorbed."""
    return SimplicialComplex([frozenset(f) for f in candidate_faces])


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; labels are wrapped on collision."""
    if K.is_empty:
        return L
    if L.is_empty:
        return K
    if set(K.vertices) & set(L.vertices):
        K = relabel(K, {v: (0, v) for v in K.vertices})
        L = relabel(L, {v: (1, v) for v in L.vertices})
    return SimplicialComplex(
        [f | g for f in K.maximal_faces for g in L.maximal_faces], _trusted=True
    )


def cone(K: SimplicialComplex, apex="apex") -> SimplicialComplex:
    if apex in K.vertices:
        raise InputError(f"apex {apex!r} already a vertex")
    return join(K, SimplicialComplex([frozenset([apex])]))


def relabel(K: SimplicialComplex, mapping: Mapping) -> SimplicialComplex:
    if len(set(mapping.values())) != len(K.vertices):
        raise InputError("relabelling is not injective")
    return SimplicialComplex(
        [frozenset(mapping[v] for v in f) for f in K.maximal_faces], _trusted=True
    )


def replays(out: CollapseOutcome, K: SimplicialComplex,
            target: Optional[SimplicialComplex] = None) -> bool:
    """Whether the collapse search's outcome `out` replays from K."""
    try:
        core = replay_collapse(K, out.sequence)
    except InputError:
        return False
    if core != out.core:
        return False
    if out.success:
        if target is None:
            return len(core.vertices) == 1 and dim(core) == 0
        return core == target
    return True


def sequence_json(sequence: Iterable) -> list:
    """Elementary collapse steps in report form: [face, coface] label lists,
    each sorted (the labels of one complex share a type)."""
    return [[sorted(f), sorted(c)] for f, c in sequence]


def cone_collapse_pairs(K: SimplicialComplex, apex) -> list:
    """Explicit collapse of a cone with the given apex down to that apex.

    Pairs (s, s + apex) ordered by decreasing |s|; each face is free at its
    step, so the sequence replays without search.
    """
    if apex not in K.vertices:
        raise InputError(f"{apex!r} is not a vertex")
    others = [s for s in K.simplices() if apex not in s]
    for s in others:
        if not K.has_face(s | {apex}):
            raise InputError(f"{apex!r} is not a cone apex")
    others.sort(key=lambda s: (-len(s),) + simplex_key(s))
    return [(s, s | {apex}) for s in others]


def star_collapse_pairs(K: SimplicialComplex, v, link_sequence: Iterable,
                        link_terminal) -> list:
    """Collapse K onto K minus the open star of v, given a collapse of link(v).

    `link_sequence` must collapse the link of v in K to the single vertex
    `link_terminal`; the returned pairs remove every face containing v.
    """
    pairs = [(frozenset(f) | {v}, frozenset(c) | {v}) for f, c in link_sequence]
    pairs.append((frozenset([v]), frozenset([v, link_terminal])))
    return pairs


def vertex_link(K: SimplicialComplex, v) -> SimplicialComplex:
    if v not in K.vertices:
        raise InputError(f"{v!r} is not a vertex")
    return SimplicialComplex(
        [f - {v} for f in K.maximal_faces if v in f and len(f) > 1]
    )


def remove_open_star(K: SimplicialComplex, v) -> SimplicialComplex:
    return SimplicialComplex(
        [f for f in K.maximal_faces if v not in f]
        + [f - {v} for f in K.maximal_faces if v in f and len(f) > 1]
    )


# ---------------------------------------------------------------------------
# Cross-polytope recognition


def is_crosspolytope_boundary(K: SimplicialComplex, k: int):
    """Test whether K is the join of k copies of S^0; return (bool, pairing).

    The boundary of the k-dimensional cross-polytope has 2k vertices split
    into k antipodal pairs, and its faces are exactly the subsets of size <= k
    using at most one vertex per pair.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if len(K.vertices) != 2 * k:
        return False, None
    verts = set(K.vertices)
    edges = {frozenset(e) for e in K.simplices() if len(e) == 2}
    pairing = []
    paired = {}
    for v in K.vertices:
        non_nbrs = [w for w in verts if w != v and frozenset((v, w)) not in edges]
        if len(non_nbrs) != 1:
            return False, None
        paired[v] = non_nbrs[0]
    for v in K.vertices:
        if paired[paired[v]] != v:
            return False, None
        if label_key(v) < label_key(paired[v]):
            pairing.append((v, paired[v]))
    if len(pairing) != k:
        return False, None
    transversals = set()

    def build(i: int, acc: list):
        if i == k:
            transversals.add(frozenset(acc))
            return
        for choice in pairing[i]:
            build(i + 1, acc + [choice])

    build(0, [])
    if set(K.maximal_faces) != transversals:
        return False, None
    return True, tuple(pairing)


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


def face(P: Polytope, defining: Iterable[str]) -> FaceHandle:
    ids = frozenset(defining)
    unknown = ids - set(P.facet_ids)
    if unknown:
        raise InputError(f"unknown facets: {sorted(unknown)!r}")
    for a in ids:
        for b in ids:
            if a < b and not P.adjacent(a, b):
                raise InputError(
                    f"defining facets must be pairwise adjacent: {a!r}, {b!r}"
                )
    return FaceHandle(ids)


def out_facets(s: State) -> frozenset:
    return frozenset(s.universe) - s.in_facets


def act(s: State, m: MoveSystem, facet_id: str) -> State:
    """Flip the status of every facet in the block containing `facet_id`."""
    block = m.blocks[m.block_of(facet_id)]
    return State(s.universe, s.in_facets ^ block)


def verdict_rows(cert: Certificate) -> Tuple[dict, ...]:
    """The verdict rows, by `verdict_row`, built on each call."""
    outcomes = iter(cert.outcomes)
    return tuple(verdict_row(p, *next(outcomes)) if p.witness is None else
                 verdict_row(p, "Regular") for p in cert.S.plan)


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
    return full_subcomplex(D, out_facets(s_on_f)), full_subcomplex(D, s_on_f.in_facets)


def vertex_state(model, w: int) -> State:
    """Full polytope state at the copy of a cube model's vertex w: the base
    state with the move of each crossed defining facet flipped."""
    s = model.base_state
    in_set = set(s.in_facets)
    for j in range(model.k):
        if w >> j & 1:
            in_set ^= model.moves.blocks[model.moves.block_of(model.defining[j])]
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
    mH = restrict(m, H.facet_ids)
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
    pairs = [b for b in restrict(m, H.facet_ids).blocks
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


# -- the paper's labels and its symmetry group -------------------------------------


def quat_label(q: Quat) -> str:
    try:
        return _LABELS[tuple(q)]
    except KeyError:
        raise InputError(f"quaternion {q!r} is not a T24 element") from None


def iota_label(label: str) -> str:
    """The involution (x1,x2,x3,x4) -> (x1,-x2,-x4,-x3) on labels; swaps B and C."""
    if label == "A":
        return "A"
    if label == "B":
        return "C"
    if label == "C":
        return "B"
    x1, x2, x3, x4 = label_quat(label)
    return quat_label((x1, -x2, -x4, -x3))


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
        for t in T24_LABELS:
            u = iota_label(t) if use_iota else t
            out[t] = quat_label(quat_mul(label_quat(q), label_quat(u)))
        out["A"] = "A"
        out["B"], out["C"] = ("C", "B") if use_iota else ("B", "C")
        return out

    syms = []
    for use_iota in (False, True):
        for q in UNIT_LABELS:
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
            return base_unit(fid).lstrip("-")

        blocks = {}
        for t in T24_LABELS + SPECIAL_LABELS:
            blocks.setdefault(block_tag(t), set()).add(t)
        image_blocks = {frozenset(m[t] for t in blk) for blk in blocks.values()}
        if image_blocks != {frozenset(b) for b in blocks.values()}:
            raise StructuralError(f"{s.name} does not preserve the move partition")
        # equivariance of the unit-class map
        use_iota = s.name.endswith("*iota")
        q = s.name.split(":")[1].split("*")[0]
        for t in T24_LABELS:
            r = base_unit(t)
            r_img = iota_label(r) if use_iota else r
            want = quat_label(quat_mul(label_quat(q), label_quat(r_img)))
            if base_unit(m[t]) != want:
                raise StructuralError(f"{s.name} breaks unit-class equivariance at {t}")
    return tuple(syms)


# -- cube lifts ----------------------------------------------------------------


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
