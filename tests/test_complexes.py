import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import morsecert
from morsecert.complexes import (
    EMPTY_COMPLEX,
    simplex_key,
    betti_mod2,
    full_subcomplex,
    order_complex,
    replay_collapse,
    try_collapse,
)
from morsecert.errors import InputError

from oracles import (
    barycentric_subdivision,
    cone,
    cone_collapse_pairs,
    dim,
    faces_of_dim,
    from_maximal_faces,
    is_connected,
    is_crosspolytope_boundary,
    join,
    relabel,
    replays,
    star_collapse_pairs,
    vertex_link,
)


def s0(a, b):
    return from_maximal_faces([{a}, {b}])


def octahedron():
    return join(join(s0(1, 2), s0(3, 4)), s0(5, 6))


def cycle(n):
    return from_maximal_faces([{i, (i + 1) % n} for i in range(n)])


# -- constructors -------------------------------------------------------------


def test_from_maximal_faces_closure():
    K = from_maximal_faces([{"a", "b", "c"}])
    assert len(K.simplices()) == 7
    assert len(K.vertices) == 3
    assert dim(K) == 2


def test_from_maximal_faces_absorbs_redundant():
    K1 = from_maximal_faces([{"a", "b", "c"}])
    K2 = from_maximal_faces([{"a", "b"}, {"b", "c"}, {"a", "b", "c"}])
    assert K1 == K2


def test_empty_input_gives_empty_complex():
    K = from_maximal_faces([])
    assert K == EMPTY_COMPLEX
    assert K.is_empty
    assert not is_connected(K)
    assert betti_mod2(K, 2) == (0, 0, 0)
    assert not try_collapse(K).success


def test_full_subcomplex_examples():
    tri = cycle(3)
    assert full_subcomplex(tri, {0, 1}) == from_maximal_faces([{0, 1}])
    assert full_subcomplex(tri, set(tri.vertices)) == tri
    octa = octahedron()
    pair = full_subcomplex(octa, {1, 2})
    assert pair == from_maximal_faces([{1}, {2}])  # antipodal: no edge


def test_full_subcomplex_unknown_vertex():
    with pytest.raises(InputError):
        full_subcomplex(cycle(3), {"zzz"})


def test_join_examples():
    edge = join(from_maximal_faces([{"p"}]), from_maximal_faces([{"q"}]))
    assert edge == from_maximal_faces([{"p", "q"}])
    square = join(s0(1, 2), s0(3, 4))
    assert len(square.vertices) == 4 and len(square.maximal_faces) == 4
    assert betti_mod2(square, 1) == (1, 1)
    octa = octahedron()
    ok, pairing = is_crosspolytope_boundary(octa, 3)
    assert ok and len(pairing) == 3
    assert betti_mod2(octa, 2) == (1, 0, 1)


def test_join_with_empty_returns_other():
    K = cycle(4)
    assert join(K, EMPTY_COMPLEX) == K
    assert join(EMPTY_COMPLEX, K) == K


def test_join_relabels_on_collision():
    K = s0(1, 2)
    J = join(K, K)
    assert len(J.vertices) == 4


def test_barycentric_subdivision_examples():
    path = barycentric_subdivision(from_maximal_faces([{"a", "b"}]))
    assert len(path.vertices) == 3 and len(path.maximal_faces) == 2
    hexagon = barycentric_subdivision(cycle(3))
    assert len(hexagon.vertices) == 6
    assert betti_mod2(hexagon, 1) == (1, 1)
    sd_solid = barycentric_subdivision(from_maximal_faces([{0, 1, 2}]))
    assert len(faces_of_dim(sd_solid, 2)) == 6
    # vertices of the subdivision are the originating faces
    assert frozenset({0, 1, 2}) in sd_solid.vertices


def test_betti_examples():
    assert betti_mod2(from_maximal_faces([{"x"}]), 1) == (1, 0)
    assert betti_mod2(octahedron(), 2) == (1, 0, 1)
    assert betti_mod2(s0("a", "b"), 1) == (2, 0)
    assert betti_mod2(cycle(6), 1) == (1, 1)


# -- collapses -----------------------------------------------------------------


def test_collapse_solid_simplex():
    K = from_maximal_faces([{"a", "b", "c"}])
    out = try_collapse(K)
    assert out.success and len(out.core.vertices) == 1
    assert replays(out, K)


def test_collapse_octahedron_fails_immediately():
    out = try_collapse(octahedron(), restarts=2)
    assert not out.success
    assert out.sequence == ()  # closed surface: no face is ever free
    assert out.core == octahedron()


def test_relative_collapse_to_edge():
    K = from_maximal_faces([{"a", "b", "c"}])
    target = from_maximal_faces([{"a", "b"}])
    out = try_collapse(K, target=target)
    assert out.success and out.core == target
    assert replays(out, K, target)
    assert betti_mod2(K, 1) == betti_mod2(out.core, 1)


def test_relative_target_not_subcomplex():
    with pytest.raises(InputError):
        try_collapse(cycle(4), target=from_maximal_faces([{0, 2}]))


def test_collapse_deterministic():
    K = cone(cycle(5), "z")
    a = try_collapse(K, seed=7)
    b = try_collapse(K, seed=7)
    assert a.sequence == b.sequence and a.strategy == b.strategy


@pytest.mark.parametrize("steps, message", [
    pytest.param([("z", "az")], "step 0: face no longer present", id="unknown-label"),
    pytest.param([("ab", "abc"), ("ab", "abc")], "step 1: face no longer present",
                 id="face-removed"),
    pytest.param([("a", "abc")], "step 0: not a codimension-1 pair", id="not-codim-1"),
    pytest.param([("a", "ab")], "step 0: face is not free", id="not-free"),
])
def test_replay_rejects_invalid_sequence(steps, message):
    K = from_maximal_faces([{"a", "b", "c"}])
    with pytest.raises(InputError, match=message):
        replay_collapse(K, [(frozenset(f), frozenset(c)) for f, c in steps])


def test_restart_passes_do_not_depend_on_hash_seed():
    # string labels: a set of them iterates in an order that follows
    # PYTHONHASHSEED, so restart priorities must not be drawn in set order
    script = (
        "from morsecert.complexes import SimplicialComplex, try_collapse\n"
        "faces = [(0, 1, 3), (0, 2, 8), (0, 6, 8), (1, 2, 7), (1, 6), (2, 4, 6), (5, 7)]\n"
        "K = SimplicialComplex([frozenset(f'v{i}' for i in f) for f in faces])\n"
        "out = try_collapse(K, restarts=8, backtrack_threshold=0)\n"
        "print(out.strategy, [(sorted(f), sorted(c)) for f, c in out.sequence])\n"
    )
    src = str(Path(morsecert.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        runs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout)
    assert runs[0] == runs[1]


def test_cone_collapse_pairs_explicit():
    K = cone(octahedron(), "z")
    pairs = cone_collapse_pairs(K, "z")
    core = replay_collapse(K, pairs)
    assert core.vertices == ("z",)


def test_star_collapse_pairs():
    # collapse the apex star of a cone onto the base (link must be collapsible)
    base = from_maximal_faces([{0, 1}, {1, 2}, {2, 3}])
    K = cone(base, "z")
    link = vertex_link(K, "z")
    assert link == base
    link_collapse = try_collapse(link)
    assert link_collapse.success
    terminal = link_collapse.core.vertices[0]
    pairs = star_collapse_pairs(K, "z", link_collapse.sequence, terminal)
    core = replay_collapse(K, pairs)
    assert core == base


def test_backtracking_on_small_complex():
    # dunce-hat-free tiny case: two triangles sharing an edge
    K = from_maximal_faces([{1, 2, 3}, {2, 3, 4}])
    out = try_collapse(K, restarts=0)
    assert out.success


# -- cross-polytope recognition -------------------------------------------------


def test_crosspolytope_examples():
    assert is_crosspolytope_boundary(cycle(4), 2)[0]
    assert is_crosspolytope_boundary(octahedron(), 3)[0]
    assert not is_crosspolytope_boundary(cycle(6), 2)[0]
    # pairing witness is antipodal
    ok, pairing = is_crosspolytope_boundary(cycle(4), 2)
    assert ok
    for a, b in pairing:
        assert not cycle(4).has_face({a, b})


def test_order_complex_chain():
    # poset 0 < 1 < 2 gives a solid triangle of chains
    K = order_complex([0, 1, 2], lambda a, b: a <= b)
    assert K == from_maximal_faces([{0, 1, 2}])


# -- property tests --------------------------------------------------------------


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 6))
    faces = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    return from_maximal_faces(faces)


def tagged(K, tag):
    return relabel(K, {v: (tag, v) for v in K.vertices})


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_maximal_faces_are_minimal_and_cover(K):
    for i, f in enumerate(K.maximal_faces):
        for j, g in enumerate(K.maximal_faces):
            if i != j:
                assert not f <= g
    assert set(K.vertices) == set().union(*K.maximal_faces)


@settings(max_examples=25, deadline=None)
@given(small_complexes(), small_complexes())
def test_join_commutes_up_to_isomorphism(K, L):
    # with disjoint labels the join commutes exactly
    assert join(tagged(K, "k"), tagged(L, "l")) == join(tagged(L, "l"), tagged(K, "k"))
    # on a collision each factor is tagged by its position, so swapping the
    # tags maps one order onto the other
    if set(K.vertices) & set(L.vertices):
        J = join(K, L)
        assert relabel(J, {(i, v): (1 - i, v) for i, v in J.vertices}) == join(L, K)


@settings(max_examples=15, deadline=None)
@given(small_complexes(), small_complexes(), small_complexes())
def test_join_associative_up_to_isomorphism(K, L, M):
    # with disjoint labels the join is exactly associative
    K, L, M = tagged(K, "k"), tagged(L, "l"), tagged(M, "m")
    assert join(join(K, L), M) == join(K, join(L, M))


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_subdivision_preserves_betti(K):
    d = max(dim(K), 0)
    assert betti_mod2(barycentric_subdivision(K), d) == betti_mod2(K, d)


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_cones_are_collapsible(K):
    c = cone(K, "apex")
    out = try_collapse(c, restarts=4)
    assert out.success
    assert replays(out, c)


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_collapse_outcome_replays(K):
    out = try_collapse(K, restarts=4)
    assert replays(out, K)
    if out.success:
        assert len(out.core.vertices) == 1
        d = max(dim(K), 0)
        assert betti_mod2(K, d) == tuple([1] + [0] * d)


@settings(max_examples=25, deadline=None)
@given(small_complexes(), st.integers(0, 63))
def test_constructor_invariants_hold_everywhere(K, mask):
    # invariants survive full_subcomplex, join and subdivision
    keep = [v for i, v in enumerate(K.vertices) if mask >> (i % 6) & 1]
    built = [
        full_subcomplex(K, keep) if keep else EMPTY_COMPLEX,
        join(K, s0("zz1", "zz2")),
        barycentric_subdivision(K),
    ]
    for L in built:
        for i, f in enumerate(L.maximal_faces):
            for j, g in enumerate(L.maximal_faces):
                if i != j:
                    assert not f <= g
        if not L.is_empty:
            assert set(L.vertices) == set().union(*L.maximal_faces)


@settings(max_examples=25, deadline=None)
@given(small_complexes(), st.integers(0, 10))
def test_relative_collapse_preserves_betti(K, pick):
    # choose a subcomplex target: the closure of one face of K
    faces = sorted(K.simplices(), key=simplex_key)
    target = from_maximal_faces([faces[pick % len(faces)]])
    out = try_collapse(K, target=target, restarts=4)
    assert replays(out, K, target)
    if out.success:
        d = max(dim(K), 0)
        assert betti_mod2(K, d) == betti_mod2(target, d)


def greedy_lex_reference(K, target=None):
    """Frozenset greedy-lex collapse: repeatedly remove the `simplex_key`-
    smallest free face outside `target` whose coface is outside `target`.
    Returns the sequence and the simplices left."""
    alive = set(K.simplices())
    keep = target.simplices() if target is not None else frozenset()
    sequence = []
    while True:
        for face in sorted(alive - keep, key=simplex_key):
            cofaces = [c for c in alive if len(c) == len(face) + 1 and face < c]
            if len(cofaces) == 1 and cofaces[0] not in keep:
                alive -= {face, cofaces[0]}
                sequence.append((face, cofaces[0]))
                break
        else:
            return tuple(sequence), alive


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.integers(0, 10), st.booleans())
def test_greedy_lex_matches_frozenset_reference(K, pick, relative):
    # the rank order of the kernel is `simplex_key` order, so its greedy-lex
    # pass takes the same steps as the frozenset reference
    target = None
    if relative:
        faces = sorted(K.simplices(), key=simplex_key)
        target = from_maximal_faces([faces[pick % len(faces)]])
    sequence, alive = greedy_lex_reference(K, target)
    out = try_collapse(K, target=target, restarts=0)
    if len(alive) == (1 if target is None else len(target.simplices())):
        assert (out.success, out.strategy, out.sequence) == (True, "greedy-lex", sequence)
    else:
        assert out.strategy in ("backtrack", "failed")
        if out.strategy == "failed":
            assert out.sequence == sequence
            assert out.core == from_maximal_faces(alive)
