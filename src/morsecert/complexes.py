"""Finite abstract simplicial complexes with exact decision procedures.

Vertex labels are opaque hashable tokens with a canonical ordering, so every
construction and search here is deterministic and certificates are diffable
across runs.  Collapse searches return replayable sequences of elementary
collapses instead of bare booleans; a failed search is reported as "not
certified", never as a proof of non-collapsibility.

Conventions for the empty complex: it is not connected, not collapsible, and
all its mod-2 Betti numbers are zero.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Optional, Sequence


from .errors import InputError


def label_key(label: Hashable):
    """Canonical sort key for vertex labels of mixed hashable types."""
    if isinstance(label, frozenset):
        return (3, tuple(sorted(label_key(x) for x in label)))
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, (int, bool)):
        return (0, int(label))
    return (4, type(label).__name__, repr(label))


def simplex_key(simplex: frozenset):
    return (len(simplex), tuple(sorted(label_key(v) for v in simplex)))


class SimplicialComplex:
    """Immutable abstract simplicial complex stored via its maximal faces.

    Invariants: faces are downward closed by definition of membership, no
    maximal face contains another, and every vertex lies in some face.
    """

    __slots__ = ("maximal_faces", "vertices", "_cache")

    def __init__(self, maximal_faces: Sequence[frozenset], *, _trusted: bool = False):
        faces = [frozenset(f) for f in maximal_faces if f]
        if not _trusted:
            faces = _absorb(faces)
        faces.sort(key=simplex_key)
        object.__setattr__(self, "maximal_faces", tuple(faces))
        verts = set()
        for f in faces:
            verts.update(f)
        object.__setattr__(self, "vertices", tuple(sorted(verts, key=label_key)))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.maximal_faces == other.maximal_faces
        )

    def __hash__(self):
        return hash(self.maximal_faces)

    def __repr__(self):
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.maximal_faces)} maximal faces, dim {self.dim})"
        )

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        if not self.maximal_faces:
            return -1
        return max(len(f) for f in self.maximal_faces) - 1

    @property
    def is_empty(self) -> bool:
        return not self.maximal_faces

    def simplices(self) -> frozenset:
        """All simplices (every nonempty subset of a maximal face)."""
        cached = self._cache.get("simplices")
        if cached is None:
            out = set()
            for f in self.maximal_faces:
                if f not in out:
                    for r in range(1, len(f) + 1):
                        out.update(map(frozenset, combinations(f, r)))
            cached = frozenset(out)
            self._cache["simplices"] = cached
        return cached

    def faces_of_dim(self, d: int) -> list:
        return sorted((s for s in self.simplices() if len(s) == d + 1), key=simplex_key)

    def has_face(self, simplex: Iterable) -> bool:
        s = frozenset(simplex)
        if not s:
            return False
        return any(s <= f for f in self.maximal_faces)

    def n_simplices(self) -> int:
        return len(self.simplices())

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton; the empty complex is not connected."""
        if self.is_empty:
            return False
        adj = {v: set() for v in self.vertices}
        for f in self.maximal_faces:
            fl = sorted(f, key=label_key)
            for a, b in combinations(fl, 2):
                adj[a].add(b)
                adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def star_vertex_apexes(self) -> list:
        """Vertices contained in every maximal face (cone apexes)."""
        if self.is_empty:
            return []
        common = set(self.maximal_faces[0])
        for f in self.maximal_faces[1:]:
            common &= f
            if not common:
                break
        return sorted(common, key=label_key)


def _absorb(faces: list) -> list:
    """Drop faces contained in another face of the list."""
    faces = sorted(set(faces), key=len, reverse=True)
    kept: list = []
    by_vertex: dict = {}
    for f in faces:
        candidates = None
        for v in f:
            idxs = by_vertex.get(v)
            if idxs is None:
                candidates = set()
                break
            candidates = idxs if candidates is None else candidates & idxs
            if not candidates:
                break
        if candidates:
            if any(f <= kept[i] for i in candidates):
                continue
        kept.append(f)
        for v in f:
            by_vertex.setdefault(v, set()).add(len(kept) - 1)
    return kept


def from_maximal_faces(candidate_faces: Iterable[Iterable]) -> SimplicialComplex:
    """Downward closure of the given faces; redundant faces are absorbed."""
    return SimplicialComplex([frozenset(f) for f in candidate_faces])


EMPTY_COMPLEX = SimplicialComplex([])


def full_subcomplex(K: SimplicialComplex, S: Iterable) -> SimplicialComplex:
    """Subcomplex of all faces of K whose vertices lie in S."""
    S = frozenset(S)
    unknown = S - set(K.vertices)
    if unknown:
        bad = sorted(unknown, key=label_key)
        raise InputError(f"vertices not in complex: {bad!r}")
    return SimplicialComplex([f & S for f in K.maximal_faces if f & S])


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


def order_complex(elements: Iterable, less_equal) -> SimplicialComplex:
    """Order complex of a finite poset: simplices are the chains.

    `less_equal(x, y)` must be a partial order on the elements.  Maximal
    chains are enumerated by walking cover relations from minimal elements.
    """
    elems = sorted(set(elements), key=label_key)
    if not elems:
        return EMPTY_COMPLEX
    above = {
        x: [y for y in elems if y != x and less_equal(x, y)] for x in elems
    }
    covers = {}
    for x, ups in above.items():
        covers[x] = [
            y for y in ups
            if not any(z != y and less_equal(z, y) for z in ups)
        ]
    minimal = [
        x for x in elems if not any(y != x and less_equal(y, x) for y in elems)
    ]
    flags: list = []

    def walk(chain: list, x):
        nxt = covers[x]
        if not nxt:
            flags.append(frozenset(chain))
            return
        for y in nxt:
            chain.append(y)
            walk(chain, y)
            chain.pop()

    for x in minimal:
        walk([x], x)
    return SimplicialComplex(flags, _trusted=True)


# ---------------------------------------------------------------------------
# Mod-2 homology


def _gf2_rank(rows: list) -> int:
    """Rank of a GF(2) matrix whose rows are int bitmasks."""
    pivots: dict = {}  # lowest set bit -> pivot row
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                rank += 1
                break
            row ^= pivot
    return rank


def betti_mod2(K: SimplicialComplex, max_dim: int) -> tuple:
    """Mod-2 Betti numbers b_0..b_max_dim via boundary-matrix ranks."""
    if max_dim < 0:
        raise InputError("max_dim must be >= 0")
    if K.is_empty:
        return tuple(0 for _ in range(max_dim + 1))
    by_dim: dict = {}
    for s in K.simplices():
        by_dim.setdefault(len(s) - 1, []).append(s)
    for d in by_dim:
        by_dim[d].sort(key=simplex_key)
    index: dict = {}
    for d, faces in by_dim.items():
        for i, s in enumerate(faces):
            index[s] = i

    def boundary_rank(d: int) -> int:
        # rank of the boundary map from d-simplices to (d-1)-simplices
        if d <= 0 or d not in by_dim or (d - 1) not in by_dim:
            return 0
        rows = []
        for s in by_dim[d]:
            m = 0
            for v in s:
                m |= 1 << index[s - {v}]
            rows.append(m)
        return _gf2_rank(rows)

    out = []
    for d in range(max_dim + 1):
        n_d = len(by_dim.get(d, []))
        out.append(n_d - boundary_rank(d) - boundary_rank(d + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Elementary collapses


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of a collapse search.

    On success the sequence replays from the input complex (each listed face is
    free at its step) and ends at `core`: a single vertex in absolute mode, or
    exactly the target in relative mode.  Failure means the search stopped, not
    that the complex is non-collapsible.
    """

    success: bool
    sequence: tuple
    core: SimplicialComplex
    strategy: str = "none"

    def replays(self, K: SimplicialComplex, target: Optional[SimplicialComplex] = None) -> bool:
        try:
            core = replay_collapse(K, self.sequence)
        except InputError:
            return False
        if core != self.core:
            return False
        if self.success:
            if target is None:
                return len(core.vertices) == 1 and core.dim == 0
            return core == target
        return True


class _Table:
    """Mutable collapse state: all simplices with live codim-1 coface counts."""

    def __init__(self, K: SimplicialComplex):
        self.alive: set = set(K.simplices())
        self.cofaces: dict = {s: [] for s in self.alive}
        for s in self.alive:
            if len(s) >= 2:
                for v in s:
                    self.cofaces[s - {v}].append(s)
        self.live_count = {s: len(c) for s, c in self.cofaces.items()}

    def remove_pair(self, face: frozenset, coface: frozenset):
        for s in (coface, face):
            self.alive.discard(s)
            if len(s) >= 2:
                for v in s:
                    sub = s - {v}
                    if sub in self.live_count:
                        self.live_count[sub] -= 1

    def unique_live_coface(self, face: frozenset):
        found = None
        for c in self.cofaces[face]:
            if c in self.alive:
                if found is not None:
                    return None
                found = c
        return found

    def remaining_complex(self) -> SimplicialComplex:
        maximal = [s for s in self.alive if self.live_count[s] == 0]
        return SimplicialComplex(maximal, _trusted=True)


def _derive_seed(seed: int, attempt: int) -> int:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def replay_collapse(K: SimplicialComplex, sequence: Iterable) -> SimplicialComplex:
    """Replay elementary collapses, checking freeness at each step."""
    table = _Table(K)
    for step, (face, cof) in enumerate(sequence):
        face, cof = frozenset(face), frozenset(cof)
        if face not in table.alive or cof not in table.alive:
            raise InputError(f"step {step}: face no longer present")
        if not (face < cof and len(cof) == len(face) + 1):
            raise InputError(f"step {step}: not a codimension-1 pair")
        if table.live_count[face] != 1:
            raise InputError(f"step {step}: face is not free")
        table.remove_pair(face, cof)
    return table.remaining_complex()


def _greedy_pass(table: _Table, protected: frozenset, keyfun) -> list:
    """Collapse greedily, always taking the candidate of smallest key."""
    sequence = []
    heap = []
    for s in table.alive:
        if table.live_count[s] == 1 and s not in protected:
            heapq.heappush(heap, (keyfun(s), s))
    while heap:
        _, face = heapq.heappop(heap)
        if face not in table.alive or face in protected:
            continue
        if table.live_count[face] != 1:
            continue
        cof = table.unique_live_coface(face)
        if cof is None or cof in protected:
            continue
        affected = set()
        for s in (cof, face):
            if len(s) >= 2:
                for v in s:
                    affected.add(s - {v})
        table.remove_pair(face, cof)
        sequence.append((face, cof))
        for sub in affected:
            if sub in table.alive and sub not in protected and table.live_count[sub] == 1:
                heapq.heappush(heap, (keyfun(sub), sub))
    return sequence


def _is_done(table: _Table, target_faces: Optional[frozenset]) -> bool:
    if target_faces is None:
        return len(table.alive) == 1
    return table.alive == target_faces


def _backtrack(K: SimplicialComplex, protected: frozenset,
               target_faces: Optional[frozenset], node_budget: int) -> Optional[list]:
    """Exhaustive search over collapse sequences for small complexes."""
    table = _Table(K)
    seen_dead: set = set()
    nodes = 0

    def rec(seq: list) -> Optional[list]:
        nonlocal nodes
        if _is_done(table, target_faces):
            return list(seq)
        nodes += 1
        if nodes > node_budget:
            return None
        state = frozenset(table.alive)
        if state in seen_dead:
            return None
        candidates = sorted(
            (s for s in table.alive
             if s not in protected and table.live_count[s] == 1),
            key=simplex_key,
        )
        for face in candidates:
            cof = table.unique_live_coface(face)
            if cof is None or cof in protected:
                continue
            table.remove_pair(face, cof)
            seq.append((face, cof))
            got = rec(seq)
            if got is not None:
                return got
            seq.pop()
            # undo removal
            for s in (cof, face):
                table.alive.add(s)
                if len(s) >= 2:
                    for v in s:
                        sub = s - {v}
                        if sub in table.live_count:
                            table.live_count[sub] += 1
        seen_dead.add(state)
        return None

    return rec([])


def try_collapse(
    K: SimplicialComplex,
    target: Optional[SimplicialComplex] = None,
    *,
    seed: int = 0,
    restarts: int = 64,
    backtrack_threshold: int = 200,
    backtrack_nodes: int = 200_000,
) -> CollapseOutcome:
    """Search for elementary collapses reducing K to a point or to `target`.

    Strategy: one deterministic greedy pass taking the lexicographically
    smallest free face, then `restarts` seeded random-restart greedy passes,
    then exhaustive backtracking when K has at most `backtrack_threshold`
    simplices.  Faces of `target` are never removed.
    """
    if K.is_empty:
        return CollapseOutcome(False, (), K, "empty")
    if target is not None:
        missing = [f for f in target.maximal_faces if not K.has_face(f)]
        if missing:
            raise InputError("target is not a subcomplex")
        target_faces = frozenset(target.simplices())
    else:
        target_faces = None
    protected = frozenset(target_faces) if target_faces is not None else frozenset()

    def finish(seq, table, strategy):
        return CollapseOutcome(True, tuple(seq), table.remaining_complex(), strategy)

    # stage 1: deterministic lexicographic greedy
    table = _Table(K)
    seq = _greedy_pass(table, protected, simplex_key)
    if _is_done(table, target_faces):
        return finish(seq, table, "greedy-lex")
    best_fail = (len(table.alive), tuple(seq), table)

    # stage 2: seeded random-restart greedy
    for attempt in range(restarts):
        rng = random.Random(_derive_seed(seed, attempt))
        priorities: dict = {}

        def keyfun(s, rng=rng, priorities=priorities):
            p = priorities.get(s)
            if p is None:
                p = rng.random()
                priorities[s] = p
            return (p,)

        table = _Table(K)
        seq = _greedy_pass(table, protected, keyfun)
        if _is_done(table, target_faces):
            return finish(seq, table, f"greedy-restart-{attempt}")
        if len(table.alive) < best_fail[0]:
            best_fail = (len(table.alive), tuple(seq), table)

    # stage 3: exhaustive backtracking for small complexes
    if K.n_simplices() <= backtrack_threshold:
        got = _backtrack(K, protected, target_faces, backtrack_nodes)
        if got is not None:
            table = _Table(K)
            for face, cof in got:
                table.remove_pair(face, cof)
            return finish(got, table, "backtrack")

    _, seq, table = best_fail
    return CollapseOutcome(False, tuple(seq), table.remaining_complex(), "failed")


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
