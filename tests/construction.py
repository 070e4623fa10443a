"""The paper's construction of its two subjects: the right-angled hyperbolic
6-polytope P6 with 27 facets, from a table of integer Lorentzian normals
cross-validated against the quaternion labelling rules, its 16-facet facet
P5, and the move systems and balanced states of both.

The package builds each subject from its shipped documents,
`data/p6.json` and `data/p5.json` (`io.builtin_subject`), and runs none
of this.  `test_shipped_inputs.py` requires each shipped file to be what
this construction writes, and the tests' fixtures (`conftest.py`) are
built here, so the shipped bytes are checked against an independent
rebuild.  A moved method is a function of its former instance here
(`neighbors(P, a)` for `P.neighbors(a)`)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from morsecert.errors import InputError, StructuralError
from morsecert.kernel import MoveSystem, State
from morsecert.polytopes import Facet, IdealVertex, Polytope, adjacency_from_lorentz

# -- quaternion labels -----------------------------------------------------------
#
# Facets carry string labels: the eight units "1", "-1", "i", ..., "-k", the
# sixteen sign patterns "1+i+j+k", ..., "-1-i-j-k" (standing for the half
# quaternions (±1±i±j±k)/2), and the three extra symbols "A", "B", "C".  These
# 24 labels are the Hurwitz units.  Every quaternion here is kept in doubled
# coordinates, so a unit is an integer vector: "1" is (2, 0, 0, 0) and a sign
# label its ±1 vector.  A product of two doubled Hurwitz integers has even
# coordinates, and is halved only after that is checked, so all arithmetic is
# exact on integers and every derived relation is integral truth.

Quat = Tuple[int, int, int, int]  # doubled coordinates: 2 * (a + bi + cj + dk)

UNIT_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def sign_label(signs: Tuple[int, int, int, int]) -> str:
    parts = ["1" if signs[0] > 0 else "-1"]
    for s, sym in zip(signs[1:], "ijk"):
        parts.append(("+" if s > 0 else "-") + sym)
    return "".join(parts)


def _all_sign_labels() -> tuple:
    out = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    out.append(sign_label((s0, s1, s2, s3)))
    return tuple(out)


SIGN_LABELS = _all_sign_labels()
T24_LABELS = UNIT_LABELS + SIGN_LABELS
SPECIAL_LABELS = ("A", "B", "C")


def label_signs(label: str) -> Tuple[int, int, int, int]:
    """Sign pattern of a 16-type label like '-1+i-j+k'."""
    if label not in SIGN_LABELS:
        raise InputError(f"not a sign label: {label!r}")
    s0 = -1 if label.startswith("-") else 1
    rest = label[2:] if s0 < 0 else label[1:]
    signs = [s0]
    for sym in "ijk":
        idx = rest.index(sym)
        signs.append(-1 if rest[idx - 1] == "-" else 1)
    return tuple(signs)


def _doubled_unit(label: str) -> Quat:
    q = [0, 0, 0, 0]
    q["1ijk".index(label[-1])] = -2 if label.startswith("-") else 2
    return tuple(q)


# The 24 doubled labels, both ways round.
_QUATS: Dict[str, Quat] = {
    **{u: _doubled_unit(u) for u in UNIT_LABELS},
    **{t: label_signs(t) for t in SIGN_LABELS},
}
_LABELS: Dict[Quat, str] = {q: lbl for lbl, q in _QUATS.items()}


def label_quat(label: str) -> Quat:
    """Doubled quaternion of a T24 label: units are (±2, 0, 0, 0) and its
    permutations, sign labels their ±1 vectors."""
    try:
        return _QUATS[label]
    except KeyError:
        raise InputError(f"not a T24 label: {label!r}") from None


def quat_mul(p: Quat, q: Quat) -> Quat:
    """The doubled product of two doubled quaternions: their Hamilton
    product, which must have even coordinates, halved."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    raw = (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )
    if any(x & 1 for x in raw):
        raise InputError(f"product of {p!r} and {q!r} is not a Hurwitz integer")
    return tuple(x >> 1 for x in raw)


def quat_conj(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def euclid4(p: Quat, q: Quat) -> int:
    """Four times the Euclidean product of the quaternions `p` and `q` stand for."""
    return sum(a * b for a, b in zip(p, q))


def minus_count(label: str) -> int:
    """Number of minus signs in a 16-type label."""
    return sum(1 for s in label_signs(label) if s < 0)


BASE_POINT_LABELS = ("1", "1-i+j-k", "1+i+j-k")


def base_unit(label: str) -> str:
    """Unit class of a T24 label: the q in Q8 with label = q * base point.

    The three base points are pairwise adjacent and invariant under the
    involution; every T24 element factors uniquely as q * base with q a unit.
    """
    t = label_quat(label)
    found = None
    for bp in BASE_POINT_LABELS:
        lbl = _LABELS.get(quat_mul(t, quat_conj(label_quat(bp))))
        if lbl in UNIT_LABELS:
            if found is not None:
                raise InputError(f"{label!r} factors over two base points")
            found = lbl
    if found is None:
        raise InputError(f"{label!r} does not factor over the base points")
    return found


def t24_adjacent(a: str, b: str) -> bool:
    """Adjacency rule for two T24-labelled facets: non-negative 4-dot product."""
    return euclid4(label_quat(a), label_quat(b)) >= 0


# -- the 6-polytope with 27 facets, and P5 ----------------------------------------

# One row per facet: (label, Lorentzian unit normal in 7 integer coordinates).
TABLE_G6: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("A", (0, 0, 0, 0, 0, -1, 0)),
    ("1+i+j+k", (0, 0, 0, 0, -1, 0, 0)),
    ("-1-i-j-k", (1, 1, 1, 1, 1, 0, 2)),
    ("1+i-j-k", (1, 1, 0, 0, 0, 0, 1)),
    ("1-i+j-k", (1, 0, 1, 0, 0, 0, 1)),
    ("1-i-j+k", (1, 0, 0, 1, 0, 0, 1)),
    ("1-i-j-k", (1, 0, 0, 0, 1, 0, 1)),
    ("-1+i+j-k", (0, 1, 1, 0, 0, 0, 1)),
    ("-1+i-j+k", (0, 1, 0, 1, 0, 0, 1)),
    ("-1+i-j-k", (0, 1, 0, 0, 1, 0, 1)),
    ("-1-i+j+k", (0, 0, 1, 1, 0, 0, 1)),
    ("-1-i+j-k", (0, 0, 1, 0, 1, 0, 1)),
    ("-1-i-j+k", (0, 0, 0, 1, 1, 0, 1)),
    ("-1+i+j+k", (-1, 0, 0, 0, 0, 0, 0)),
    ("1-i+j+k", (0, -1, 0, 0, 0, 0, 0)),
    ("1+i-j+k", (0, 0, -1, 0, 0, 0, 0)),
    ("1+i+j-k", (0, 0, 0, -1, 0, 0, 0)),
    ("1", (1, 0, 0, 0, 0, 1, 1)),
    ("-1", (0, 1, 1, 1, 1, 1, 2)),
    ("i", (0, 1, 0, 0, 0, 1, 1)),
    ("-i", (1, 0, 1, 1, 1, 1, 2)),
    ("j", (0, 0, 1, 0, 0, 1, 1)),
    ("-j", (1, 1, 0, 1, 1, 1, 2)),
    ("k", (0, 0, 0, 1, 0, 1, 1)),
    ("-k", (1, 1, 1, 0, 1, 1, 2)),
    ("C", (0, 0, 0, 0, 1, 1, 1)),
    ("B", (1, 1, 1, 1, 0, 1, 2)),
)


def neighbors(P: Polytope, a: str) -> Tuple[str, ...]:
    """The facets adjacent to a, in sorted order."""
    G = P.ranked_graph()
    r = G.rank[a]
    return G.labels(G.N[r] ^ 1 << r)


def _validate_p6(P: Polytope):
    def rule(cond: bool, text: str):
        if not cond:
            raise StructuralError(f"labelling rule violated: {text}")

    for a in ("A", "B", "C"):
        for b in ("A", "B", "C"):
            if a < b:
                rule(not P.adjacent(a, b), f"{a} and {b} must be disjoint")
    for a in T24_LABELS:
        for b in T24_LABELS:
            if a < b:
                want = t24_adjacent(a, b)
                rule(
                    P.adjacent(a, b) == want,
                    f"{a}, {b}: vector adjacency {P.adjacent(a, b)} vs "
                    f"4-product rule {want}",
                )
    rule(
        set(neighbors(P, "A")) == set(SIGN_LABELS),
        "A adjacent to exactly the sixteen sign-labelled facets",
    )
    for special, parity in (("B", 0), ("C", 1)):
        want = set(UNIT_LABELS) | {
            t for t in SIGN_LABELS if minus_count(t) % 2 == parity
        }
        rule(
            set(neighbors(P, special)) == want,
            f"{special} adjacent to units and sign labels of parity {parity}",
        )
    for iv in P.ideal_vertices:
        rule(len(iv.incident) == 10, f"ideal vertex {iv.id} has 10 incident facets")
        opposed = iv.label
        closed = {opposed} | set(neighbors(P, opposed))
        rule(
            iv.incident == frozenset(P.facet_ids) - closed,
            f"ideal vertex {iv.id} incident exactly to non-neighbours of {opposed}",
        )


def build_p6() -> Polytope:
    """The right-angled hyperbolic 6-polytope with 27 facets.

    Facet normals are the hard-coded integer vectors; adjacency is zero
    Lorentzian product, cross-validated against the quaternion labelling
    rules.  One ideal vertex opposes each facet, incident to the 10 facets
    neither equal nor adjacent to it.
    """
    facets = [Facet(lbl, lbl, vec) for lbl, vec in TABLE_G6]
    pairs = adjacency_from_lorentz(facets)
    labels_ = [f.id for f in facets]
    ideal = [IdealVertex(f"cusp:{lbl}", lbl, frozenset(
        x for x in labels_ if x != lbl and frozenset((lbl, x)) not in pairs)) for lbl in labels_]
    P = Polytope(6, facets, pairs, ideal, name="P6")
    _validate_p6(P)
    return P


def build_p5(p6: Optional[Polytope] = None) -> Polytope:
    """The 5-polytope with 16 facets, realised as the neighbours of facet A.

    Induced adjacency is cross-validated against the sign-vector model (even
    sign patterns; adjacency iff the 4-dot product of labels is non-negative).
    Ideal vertices carry unit and B/C labels; a facet is incident to an ideal
    vertex iff the two labels are adjacent in the ambient 6-polytope.
    """
    if p6 is None:
        p6 = build_p6()
    ids = sorted(SIGN_LABELS)
    facets = [Facet(t, t, None) for t in ids]
    pairs = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if p6.adjacent(a, b):
                pairs.add(frozenset((a, b)))
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            induced = frozenset((a, b)) in pairs
            model = t24_adjacent(a, b)
            if induced != model:
                raise StructuralError(
                    f"sign-vector cross-validation failed on ({a}, {b})"
                )
    ideal = []
    for q in UNIT_LABELS:
        inc = frozenset(t for t in ids if t24_adjacent(t, q))
        ideal.append(IdealVertex(f"cusp:{q}", q, inc))
    for special, parity in (("B", 0), ("C", 1)):
        inc = frozenset(t for t in ids if minus_count(t) % 2 == parity)
        ideal.append(IdealVertex(f"cusp:{special}", special, inc))
    for iv in ideal:
        if len(iv.incident) != 8:
            raise StructuralError(
                f"ideal vertex {iv.id} of P5 has {len(iv.incident)} incident facets"
            )
    return Polytope(5, facets, pairs, ideal, name="P5")


# -- the moves and balanced states of P6 and P5 ------------------------------------


def restrict(m: MoveSystem, facet_ids: Iterable[str]) -> MoveSystem:
    """Induced move system on a subset of facets (empty blocks dropped)."""
    keep = frozenset(facet_ids)
    return MoveSystem(tuple(b & keep for b in m.blocks if b & keep))


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
        if base_unit(t) != r:
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
    return restrict(move_system_p6(), P5.facet_ids)
