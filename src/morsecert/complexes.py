"""Finite abstract simplicial complexes with exact decision procedures.

No command builds a complex: this module is kept for the benchmark's
tracer, which wraps the collapse search and replay, the homology and the
subcomplex constructions by name, and for the tests, whose reference
constructions on complexes live in `tests/oracles.py`.

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
from typing import Hashable, Iterable, Optional, Sequence

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

    def has_face(self, simplex: Iterable) -> bool:
        s = frozenset(simplex)
        if not s:
            return False
        return any(s <= f for f in self.maximal_faces)

    def n_simplices(self) -> int:
        got = self._cache.get("n_simplices")
        if got is None:
            got = self._cache["n_simplices"] = len(self.simplices())
        return got


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


EMPTY_COMPLEX = SimplicialComplex([])


def full_subcomplex(K: SimplicialComplex, S: Iterable) -> SimplicialComplex:
    """Subcomplex of all faces of K whose vertices lie in S."""
    S = frozenset(S)
    unknown = S - set(K.vertices)
    if unknown:
        bad = sorted(unknown, key=label_key)
        raise InputError(f"vertices not in complex: {bad!r}")
    return SimplicialComplex([f & S for f in K.maximal_faces if f & S])


def order_complex(elements: Iterable, less_equal=None, *, covers=None) -> SimplicialComplex:
    """Order complex of a finite poset: simplices are the chains.

    The order is given either by `less_equal(x, y)`, a partial order on the
    elements, or by `covers(x)`, the elements covering x.  Maximal chains are
    enumerated by walking cover relations from minimal elements.
    """
    elems = sorted(set(elements), key=label_key)
    if not elems:
        return EMPTY_COMPLEX
    if covers is None:
        above = {
            x: [y for y in elems if y != x and less_equal(x, y)] for x in elems
        }
        up = {
            x: [y for y in ups if not any(z != y and less_equal(z, y) for z in ups)]
            for x, ups in above.items()
        }
    else:
        up = {x: list(covers(x)) for x in elems}
    covered = {y for ys in up.values() for y in ys}
    flags: list = []

    def walk(chain: list, x):
        nxt = up[x]
        if not nxt:
            flags.append(frozenset(chain))
            return
        for y in nxt:
            chain.append(y)
            walk(chain, y)
            chain.pop()

    for x in elems:
        if x not in covered:  # a minimal element
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


class _Table:
    """Mutable collapse state on simplex ranks.

    Every simplex of K is numbered by its position in `simplex_key` order.
    Vertices are indexed in `label_key` order, so that is the order of
    (size, sorted vertex-index tuple).  `facets[r]` is a tuple of ranks.
    `count[r]` is the number of live codim-1 cofaces of rank r and `total[r]`
    the sum of their ranks, so a free face's coface is its `total`.
    """

    def __init__(self, K: SimplicialComplex):
        self.labels = K.vertices
        self.index = index = {v: i for i, v in enumerate(self.labels)}
        simplices = set()
        for f in K.maximal_faces:
            t = tuple(sorted(map(index.__getitem__, f)))
            for size in range(1, len(t) + 1):
                simplices.update(combinations(t, size))
        self.tuples = tuples = sorted(simplices)
        tuples.sort(key=len)
        self.n = n = K._cache["n_simplices"] = len(tuples)
        self.rank = dict(zip(tuples, range(n)))
        rank = self.rank.__getitem__
        nv = len(self.labels)
        self.facets = facets = [()] * nv + [
            tuple(map(rank, combinations(t, len(t) - 1))) for t in tuples[nv:]
        ]
        count, total = [0] * n, [0] * n
        for r in range(nv, n):
            for f in facets[r]:
                count[f] += 1
                total[f] += r
        self.initial = (count, total)
        self.reset()

    def reset(self):
        """Every simplex alive again."""
        self.alive = bytearray(b"\x01") * self.n
        self.count, self.total = map(list, self.initial)
        self.n_alive = self.n

    def rank_of(self, simplex: Iterable) -> Optional[int]:
        """Rank of a simplex given by its labels; None when K lacks it."""
        indices = set(map(self.index.get, simplex))
        if None in indices:
            return None
        return self.rank.get(tuple(sorted(indices)))

    def simplex(self, r: int) -> frozenset:
        return frozenset(map(self.labels.__getitem__, self.tuples[r]))

    def remove_pair(self, face: int, coface: int):
        for s in (coface, face):
            self.alive[s] = 0
            for f in self.facets[s]:
                self.count[f] -= 1
                self.total[f] -= s
        self.n_alive -= 2

    def restore_pair(self, face: int, coface: int):
        for s in (coface, face):
            self.alive[s] = 1
            for f in self.facets[s]:
                self.count[f] += 1
                self.total[f] += s
        self.n_alive += 2

    def labelled(self, pairs: Iterable) -> tuple:
        return tuple((self.simplex(r), self.simplex(c)) for r, c in pairs)

    def remaining_complex(self) -> SimplicialComplex:
        alive, count = self.alive, self.count
        maximal = [self.simplex(r) for r in range(self.n) if alive[r] and not count[r]]
        return SimplicialComplex(maximal, _trusted=True)


def _derive_seed(seed: int, attempt: int) -> int:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def replay_collapse(K: SimplicialComplex, sequence: Iterable) -> SimplicialComplex:
    """Replay elementary collapses, checking freeness at each step."""
    table = _Table(K)
    alive, count, facets = table.alive, table.count, table.facets
    for step, (face, cof) in enumerate(sequence):
        r, c = table.rank_of(face), table.rank_of(cof)
        if r is None or c is None or not (alive[r] and alive[c]):
            raise InputError(f"step {step}: face no longer present")
        if r not in facets[c]:
            raise InputError(f"step {step}: not a codimension-1 pair")
        if count[r] != 1:
            raise InputError(f"step {step}: face is not free")
        table.remove_pair(r, c)
    return table.remaining_complex()


def _greedy_pass(table: _Table, protected: bytearray, order=None) -> list:
    """Collapse greedily, always taking the free face that comes first in
    `order`, a permutation of the ranks (None: rank order, which is
    `simplex_key` order).  Returns the removed (face, coface) rank pairs."""
    if order is None:
        order = pos = range(table.n)
    else:
        pos = [0] * table.n
        for p, r in enumerate(order):
            pos[r] = p
    alive, count, total, facets = table.alive, table.count, table.total, table.facets
    heap = [pos[r] for r in range(table.n) if count[r] == 1 and not protected[r]]
    heapq.heapify(heap)
    sequence = []
    while heap:
        face = order[heapq.heappop(heap)]
        if not alive[face] or count[face] != 1:
            continue
        cof = total[face]
        if protected[cof]:
            continue
        table.remove_pair(face, cof)
        sequence.append((face, cof))
        for s in facets[cof] + facets[face]:
            if alive[s] and count[s] == 1 and not protected[s]:
                heapq.heappush(heap, pos[s])
    return sequence


def _backtrack(table: _Table, protected: bytearray, done: int,
               node_budget: int) -> Optional[list]:
    """Exhaustive search over collapse sequences for small complexes."""
    alive, count = table.alive, table.count
    seen_dead: set = set()
    nodes = 0

    def rec(seq: list) -> Optional[list]:
        nonlocal nodes
        if table.n_alive == done:
            return list(seq)
        nodes += 1
        if nodes > node_budget:
            return None
        state = bytes(alive)
        if state in seen_dead:
            return None
        candidates = [
            r for r in range(table.n) if alive[r] and count[r] == 1 and not protected[r]
        ]
        for face in candidates:
            cof = table.total[face]
            if protected[cof]:
                continue
            table.remove_pair(face, cof)
            seq.append((face, cof))
            got = rec(seq)
            if got is not None:
                return got
            seq.pop()
            table.restore_pair(face, cof)
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
    table = _Table(K)
    protected = bytearray(table.n)
    done = 1  # live simplices left by a successful search
    if target is not None:
        missing = [f for f in target.maximal_faces if not K.has_face(f)]
        if missing:
            raise InputError("target is not a subcomplex")
        for s in target.simplices():
            protected[table.rank_of(s)] = 1
        done = len(target.simplices())

    def finish(seq, strategy):
        return CollapseOutcome(True, table.labelled(seq), table.remaining_complex(), strategy)

    # stage 1: deterministic lexicographic greedy
    seq = _greedy_pass(table, protected)
    if table.n_alive == done:
        return finish(seq, "greedy-lex")
    best_fail = (table.n_alive, seq, table.remaining_complex())

    # stage 2: seeded random-restart greedy, priorities drawn per rank
    for attempt in range(restarts):
        order = list(range(table.n))
        random.Random(_derive_seed(seed, attempt)).shuffle(order)
        table.reset()
        seq = _greedy_pass(table, protected, order)
        if table.n_alive == done:
            return finish(seq, f"greedy-restart-{attempt}")
        if table.n_alive < best_fail[0]:
            best_fail = (table.n_alive, seq, table.remaining_complex())

    # stage 3: exhaustive backtracking for small complexes
    if table.n <= backtrack_threshold:
        table.reset()
        got = _backtrack(table, protected, done, backtrack_nodes)
        if got is not None:
            return finish(got, "backtrack")

    _, seq, core = best_fail
    return CollapseOutcome(False, table.labelled(seq), core, "failed")
