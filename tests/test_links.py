import random
from itertools import combinations, product

import pytest

from morsecert.complexes import (
    betti_mod2,
    full_subcomplex,
    order_complex,
    replay_collapse,
    try_collapse,
)
from morsecert.certify import _classify_group
from morsecert.errors import InputError, InternalError
from morsecert.io import moves_from_doc, state_from_doc
from morsecert.kernel import (
    State,
    all_pairs_index,
    canonical_pairs_graphs,
    certificate_problem,
    check_cusp_condition,
    check_sd_crosspolytope_witness,
    face_contains,
    face_int,
    generic_subject,
    pairs_core_elements,
)
from morsecert.links import (
    CriticalLinkCertifier,
    LiftValue,
    canonical_pairs_transform,
    certify_boundary_cube,
    classify_link,
    face_link_posets,
    face_links_oracle,
)
from morsecert.polytopes import (
    FaceHandle,
    RankedGraph,
    build_cusp_section,
    dual_complex,
    enumerate_faces,
    polytope_from_doc,
)
from morsecert.report import row_branch, verdict_row
from morsecert.states import inherited_state

from construction import restrict
from oracles import (
    barycentric_subdivision,
    build_cube_model,
    checked_of_state,
    coface_links_fast,
    coface_membership_oracle,
    comparability_graph,
    cone_collapse_pairs,
    dim,
    face,
    is_good_face,
    out_facets,
    section_cusp_table,
    star_vertex_apexes,
    state_parts,
    synthetic_pairs_lift,
    top_value,
    vertex_state,
    vertex_states,
)
from test_dismantling import _squares_inputs


def find_state(states, *, facet_in=(), facet_out=()):
    for s in states:
        if all(f in s.in_facets for f in facet_in) and all(
            f not in s.in_facets for f in facet_out
        ):
            return s
    raise AssertionError("no such balanced state")


def test_lift_value_ordering():
    assert LiftValue(0, 3) < LiftValue(1, 0)
    assert LiftValue(0, 2) < LiftValue(0, 3)


def test_monochromatic_square_model(P6, M6, BAL6):
    F = face(P6, {"1+i+j+k", "-1+i+j+k"})
    out_state = find_state(BAL6, facet_out=("1+i+j+k",))
    model = build_cube_model(P6, M6, out_state, F)
    assert sorted(model.lift.vertex_lift) == [0, 0, 1, 1]
    # checkerboard: one block, adjacent corners differ
    assert model.lift.blocks == ((0, 1),)
    for mask in (0b01, 0b10):
        for bits in (0, mask):
            assert model.lift.lift_of_face(face_int(2, mask, bits)) == LiftValue(0, 1)
    assert top_value(model.lift) == LiftValue(0, 2)


def test_coherent_square_model(P6, M6, BAL6):
    F = face(P6, {"1+i+j+k", "j"})  # two different moves
    model = build_cube_model(P6, M6, BAL6[0], F)
    assert sorted(model.lift.vertex_lift) == [0, 1, 1, 2]


def test_vertex_state_flips_whole_block(P6, M6, BAL6):
    F = face(P6, {"1+i+j+k", "j"})
    model = build_cube_model(P6, M6, BAL6[0], F)
    s0, s1 = vertex_state(model, 0b00), vertex_state(model, 0b01)
    pos0_facet = model.defining[0]
    assert s0.in_facets ^ s1.in_facets == M6.blocks[M6.block_of(pos0_facet)]
    states = vertex_states(model)
    assert len(states) == 4 and states[0] == model.base_state


def test_incompatible_state_rejected(P6, M6, BAL6):
    from morsecert.kernel import State

    s = BAL6[0]
    bad = State(s.universe, s.in_facets ^ frozenset({"-1+i+j+k"}))
    with pytest.raises(InputError):
        build_cube_model(P6, M6, bad, face(P6, {"1+i+j+k", "-1+i+j+k"}))


def test_violated_cocycle_raises(monkeypatch, P6, M6, BAL6):
    """Past the compatibility check, a state whose two same-move defining
    facets differ makes the square's orientations inconsistent: every edge
    is checked, and the model is refused."""
    import oracles
    from morsecert.errors import InternalError
    from morsecert.kernel import State

    s = BAL6[0]
    bad = State(s.universe, s.in_facets ^ frozenset({"-1+i+j+k"}))
    monkeypatch.setattr(oracles, "is_compatible", lambda P, m, s: (True, None))
    with pytest.raises(InternalError, match="cocycle"):
        build_cube_model(P6, M6, bad, face(P6, {"1+i+j+k", "-1+i+j+k"}))


def test_sum_decomposition_exhaustive(P6, M6, BAL6):
    # lift of any vertex equals the sum of its per-block contributions
    for s in (BAL6[0], BAL6[17]):
        for codim in range(1, 7):
            for F in enumerate_faces(P6, codim):
                model = build_cube_model(P6, M6, s, F)
                lift = model.lift
                base = lift.vertex_lift[0]
                k = lift.k
                for w in range(1 << k):
                    total = 0
                    for block in lift.blocks:
                        bmask = 0
                        for p in block:
                            bmask |= 1 << p
                        total += lift.vertex_lift[w & bmask] - base
                    assert lift.vertex_lift[w] == total + base


def test_face_links_monochromatic_square(P6, M6, BAL6):
    F = face(P6, {"1+i+j+k", "-1+i+j+k"})
    model = build_cube_model(P6, M6, BAL6[0], F)
    asc, desc = face_links_oracle(model.lift)
    # ascending: 2^{k-1} = 2 isolated points; descending: two arcs
    assert len(asc.vertices) == 2 and dim(asc) == 0
    assert len(desc.vertices) == 6 and dim(desc) == 1
    assert betti_mod2(desc, 1) == (2, 0)


def test_face_links_monochromatic_3cube(P6, M6, BAL6, S6):
    bad = S6.bad_faces
    F = bad[(3,)][0]
    model = build_cube_model(P6, M6, BAL6[0], F)
    asc, desc = face_links_oracle(model.lift)
    assert len(asc.vertices) == 4 and dim(asc) == 0  # 2^{k-1} points
    # descending = sd of the boundary minus the open stars of those vertices,
    # a 2-sphere with 4 punctures
    assert len(desc.vertices) == 26 - 4
    assert set(asc.vertices) | set(desc.vertices) == set(
        model.lift.proper_faces()
    )
    assert betti_mod2(desc, 2) == (1, 3, 0)


def test_face_links_all_pairs_6cube(P6, M6, BAL6, S6):
    bad = S6.bad_faces
    F = bad[(2, 2, 2)][0]
    model = build_cube_model(P6, M6, BAL6[0], F)
    asc, desc = face_links_oracle(model.lift)
    assert betti_mod2(asc, 2) == (1, 0, 1)
    assert betti_mod2(desc, 2) == (1, 0, 1)


def _order_complex_oracle(lift):
    """Both face links built with the literal containment test."""
    le = lambda a, b: face_contains(lift.k, a, b)
    faces = lift.proper_faces()
    asc = [f for f in faces if lift.lift_of_face(f).base > 0]
    desc = [f for f in faces if lift.lift_of_face(f).base == 0]
    return order_complex(asc, le), order_complex(desc, le)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_face_links_cube_covers_match_containment(ell):
    lift = synthetic_pairs_lift(ell)
    assert face_links_oracle(lift) == _order_complex_oracle(lift)


def test_face_links_cube_covers_match_containment_on_bad_faces(P6, M6, BAL6, S6):
    for sig, faces in S6.bad_faces.items():
        if sig != (2, 2, 2):  # the canonical 6-cube is covered above
            lift = build_cube_model(P6, M6, BAL6[0], faces[0]).lift
            assert face_links_oracle(lift) == _order_complex_oracle(lift), sig


def test_coface_links_fast_full_polytope(P6, M6, BAL6):
    s = BAL6[0]
    asc, desc = coface_links_fast(P6, M6, s, FaceHandle(frozenset()))
    D = dual_complex(P6, FaceHandle(frozenset()))
    sigma_out = full_subcomplex(D, [f for f in D.vertices if f not in s.in_facets])
    assert asc == barycentric_subdivision(sigma_out)
    # descending contains every barycentre of a simplex meeting the In part
    for v in desc.vertices:
        assert any(x in s.in_facets for x in v)


def test_coface_links_codim4(P6, M6, BAL6):
    F = face(P6, {"1+i+j+k", "-1+i+j+k", "j", "-1-i+j+k"})
    s = BAL6[0]
    inh = inherited_state(P6, M6, s, F)
    segment = {"k", "1-i+j+k"}
    point = "-1+i+j-k"
    assert len({x in inh.in_facets for x in segment}) == 1
    assert (point in inh.in_facets) != ("k" in inh.in_facets)
    asc, desc = coface_links_fast(P6, M6, s, F)
    for link in (asc, desc):
        assert not link.is_empty
        assert star_vertex_apexes(link)  # both links are cones


def test_coface_links_codim6_empty(P6, M6, BAL6, S6):
    bad = S6.bad_faces
    F = bad[(2, 2, 2)][0]
    asc, desc = coface_links_fast(P6, M6, BAL6[0], F)
    assert asc.is_empty and desc.is_empty


def test_coface_membership_oracle_rules(P6, M6, BAL6):
    s = BAL6[0]
    rng = random.Random(1)
    faces = [f for c in (1, 2, 3) for f in enumerate_faces(P6, c)]
    for _ in range(30):
        F = rng.choice(faces)
        D = dual_complex(P6, F)
        inh = inherited_state(P6, M6, s, F)
        g = rng.choice(list(D.vertices))
        F2 = FaceHandle(F.defining | {g})
        want = g in out_facets(inh)  # Out status means the cofacet ascends
        assert coface_membership_oracle(P6, M6, s, F, F2) == want


def test_synthetic_pairs_lift():
    lift = synthetic_pairs_lift(2)
    assert lift.vertex_lift[0b0000] == 0
    assert lift.vertex_lift[0b0110] == 2
    assert lift.vertex_lift[0b0011] == 0  # pair-equal bits are minima
    elems = pairs_core_elements(2, "desc")
    assert len(elems) == 8  # subdivided 4-cycle
    assert len(pairs_core_elements(3, "asc")) == 26


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_canonical_graphs_match_the_general_cube_lift_model(ell):
    """The closed form of the canonical link graphs is the comparability
    graph of the general model's face-link posets of the canonical lift:
    the same labels, ranks and neighbourhood masks, and the same sorted
    cores."""
    posets = face_link_posets(synthetic_pairs_lift(ell))
    for (G, core), poset, kind in zip(canonical_pairs_graphs(ell), posets, ("asc", "desc")):
        want = comparability_graph(*poset)
        assert G.ids == want.ids
        assert G.rank == want.rank
        assert G.N == want.N
        assert core == tuple(sorted(pairs_core_elements(ell, kind)))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_canonical_cores_pass_the_graph_witness(ell):
    """Each core is 3^l - 1 elements whose comparability graph is that of
    the cross-polytope's nonempty faces; at l = 1 it has no edge."""
    for (G, core), kind in zip(canonical_pairs_graphs(ell), ("asc", "desc")):
        assert len(core) == 3 ** ell - 1
        check_sd_crosspolytope_witness(G, core, ell, kind)


def _core_edges(G, core):
    return [(x, y) for i, x in enumerate(core) for y in core[i + 1:]
            if G.N[G.rank[x]] >> G.rank[y] & 1]


def _without(G, edges):
    """G with `edges` removed from both ends' neighbourhoods."""
    N = list(G.N)
    for x, y in edges:
        N[G.rank[x]] &= ~(1 << G.rank[y])
        N[G.rank[y]] &= ~(1 << G.rank[x])
    return RankedGraph(G.ids, G.rank, tuple(N))


# (name, (G, core) -> the degraded (G, core), what the check must say)
DEGRADED_CORES = [
    ("one-edge-removed", lambda G, core: (_without(G, _core_edges(G, core)[:1]), core),
     "is not comparability of their faces"),
    ("antichain", lambda G, core: (_without(G, _core_edges(G, core)), core),
     "is not comparability of their faces"),
    ("element-dropped", lambda G, core: (G, core[1:]),
     "not one element per nonempty cross-polytope face"),
    ("non-core-face", lambda G, core: (G, (min(set(G.ids) - set(core)),) + core[1:]),
     "fixes a coordinate pair to no"),
]


@pytest.mark.parametrize("kind", ["asc", "desc"])
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("degrade, message", [d[1:] for d in DEGRADED_CORES],
                         ids=[d[0] for d in DEGRADED_CORES])
def test_degraded_cores_are_rejected(ell, kind, degrade, message):
    """The witness is two-sided: a core graph missing one comparability
    edge or all of them, a core list missing an element, and one with a
    non-core face in place of an element all fail the check."""
    G, core = canonical_pairs_graphs(ell)[kind == "desc"]
    assert _core_edges(G, core)
    with pytest.raises(InternalError, match=message):
        check_sd_crosspolytope_witness(*degrade(G, core), ell, kind)


def test_critical_certifier_and_transform():
    cert = CriticalLinkCertifier()
    shared = cert.certificate(3)
    assert shared.success
    # both are dismantling orders ending exactly at the 26-element cores
    orders = (shared.asc_sequence, shared.desc_sequence)
    assert tuple(map(len, orders)) == (360, 316)
    for (G, core), order in zip(canonical_pairs_graphs(3), orders):
        assert len(core) == 26 and len(G.ids) == len(order) + 26
        live, keep = (1 << len(G.ids)) - 1, G.mask(core)
        assert certificate_problem(G, order, live, keep, what="link") is None
        assert certificate_problem(G, order[:-1], live, keep, what="link") == (
            "does not reach its core")
    # every bad vertex matches the canonical cube: the all-pairs lemma tests


def _lemma_transform(F, m, s):
    """The (ℓ, perm, delta) that the all-pairs lemma gives F at state s:
    pair i, the pairs ordered by first sorted position, goes to coordinates
    2i and 2i + 1, and bit 2i of delta is set exactly when pair i is In."""
    defining = sorted(F.defining)
    pairs = sorted({tuple(sorted(m.blocks[m.block_of(f)] & F.defining)) for f in defining},
                   key=lambda pair: defining.index(pair[0]))
    perm = [0] * len(defining)
    delta = 0
    for i, (a, b) in enumerate(pairs):
        perm[defining.index(a)], perm[defining.index(b)] = 2 * i, 2 * i + 1
        if a in s.in_facets:
            delta |= 1 << 2 * i
    return len(pairs), tuple(perm), delta


def _check_lemma(S, s, F):
    ell = all_pairs_index(S, F)
    model = build_cube_model(S.P, S.m, s, F)
    assert canonical_pairs_transform(model.lift, model.base_status_out,
                                     synthetic_pairs_lift(ell)) == \
        _lemma_transform(F, S.m, s)


def _matchings(ids):
    """Every perfect matching of `ids` into pairs."""
    if not ids:
        yield []
        return
    for i in range(1, len(ids)):
        for rest in _matchings(ids[1:i] + ids[i + 1:]):
            yield [(ids[0], ids[i])] + rest


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_all_pairs_lemma_on_the_clique_polytope(ell):
    """The all-pairs lemma on the top face of the clique polytope of 2ℓ
    facets: for every perfect matching of the facets into moves and every
    state with each pair In or Out, the cube lift is the canonical one by
    the lemma's map, 1,680 cases at ℓ = 4.  A state that splits a pair is
    not compatible, and `build_cube_model` refuses it."""
    ids = [f"f{i}" for i in range(2 * ell)]
    P = polytope_from_doc({"name": "clique", "dimension": 2 * ell,
                           "facets": [{"id": f} for f in ids],
                           "adjacency": [list(pair) for pair in combinations(ids, 2)]})
    F = FaceHandle(frozenset(ids))
    cases = 0
    for matching in _matchings(ids):
        m = moves_from_doc([list(pair) for pair in matching])
        S = generic_subject(P, m, State(tuple(ids), frozenset()))
        assert all_pairs_index(S, F) == ell
        for ins in product((False, True), repeat=ell):
            s = State(tuple(ids), frozenset(f for pair, i in zip(matching, ins) if i
                                            for f in pair))
            _check_lemma(S, s, F)
            cases += 1
        split = State(tuple(ids), frozenset({matching[0][0]}))
        with pytest.raises(InputError, match="not compatible"):
            build_cube_model(P, m, split, F)
    assert cases == {1: 2, 2: 12, 3: 120, 4: 1680}[ell]


def test_all_pairs_lemma_on_p6(P6, M6, BAL6, S6):
    """The lemma on every (all-pairs top vertex, state) pair of p6, 8 x 32,
    the states reached from the first by crossing a vertex's facets among
    them."""
    faces = [F for F in S6.table.bad if all_pairs_index(S6, F) is not None]
    assert len(faces) == 8
    for F in faces:
        model = build_cube_model(P6, M6, BAL6[0], F)
        for w in (0b000001, 0b010101, 0b111111):
            assert vertex_state(model, w) in BAL6
        for s in BAL6:
            _check_lemma(S6, s, F)


def test_all_pairs_lemma_on_two_squares():
    """The lemma on every (all-pairs top vertex, state) pair of the product
    of two squares, whose all-pairs vertices have ℓ = 2."""
    pol, moves, state = _squares_inputs()
    P = polytope_from_doc(pol)
    S = generic_subject(P, moves_from_doc(moves), state_from_doc(state, P))
    faces = [F for F in S.table.bad if all_pairs_index(S, F) == 2]
    assert faces
    for F in faces:
        for s in S.states:
            _check_lemma(S, s, F)


def _planned(S, face, idx):
    """The planned verdict row of `face` that covers state `idx`."""
    return next(p for p in S.plan if p.face == tuple(sorted(face)) and idx in p.states)


def _cusp(S, cusp_id):
    """The kept table of the cusp `cusp_id` of subject S."""
    return S.cusps[[iv.id for iv in S.P.ideal_vertices].index(cusp_id)]


def test_classify_link_verdicts(S6):
    """The plan decides a good face, `_classify_group` a totally legal
    class, and `classify_link` only what is left, from the face alone:
    Critical for an all-pairs top vertex, by the all-pairs lemma, or
    Unknown for a bad face that is no all-pairs top vertex."""
    cert, ids = CriticalLinkCertifier(), {}
    good = _planned(S6, {"A", "1+i+j+k"}, 0)
    assert good.witness is not None and good.F is None
    assert row_branch(verdict_row(good, "Regular")) == "good-face"
    ridge = {"1+i+j+k", "-1+i+j+k"}
    for face in (ridge, ()):
        p = _planned(S6, face, 0)
        outcome, ev, failure = _classify_group(S6, p, certifier=cert, shared_ids=ids)
        row = verdict_row(p, *outcome)
        assert row["verdict"] == "Regular" and row_branch(row) == "inherited-totally-legal"
        assert list(ev) == [row["evidence"]] and failure is None
    bad = S6.bad_faces
    crit = classify_link(S6, bad[(2, 2, 2)][0], certifier=cert)
    assert crit.verdict == "Critical" and crit.index == 3
    lc = classify_link(S6, bad[(2,)][0], certifier=cert)
    assert (lc.verdict, lc.index) == ("Unknown", None)
    assert lc.note == "bad face, not totally legal, signature (2,)"


def test_classification_independent_of_base_vertex(P6, M6, BAL6, S6):
    # the classes of a bad ridge reached from any translate of the base
    # state classify alike; an all-pairs vertex's translates are in the
    # all-pairs lemma's test, since `classify_link` takes no state
    bad = S6.bad_faces
    cert = CriticalLinkCertifier()
    ridge = bad[(2,)][0]
    model = build_cube_model(P6, M6, BAL6[0], ridge)
    verdicts = set()
    for w in range(4):
        idx = BAL6.index(vertex_state(model, w))
        p = _planned(S6, ridge.defining, idx)
        row = verdict_row(p, *_classify_group(S6, p, certifier=cert, shared_ids={})[0])
        verdicts.add((row["verdict"], row_branch(row)))
    assert verdicts == {("Regular", "inherited-totally-legal")}


def test_cusp_condition_witnesses(P6, BAL6, S6):
    s_in = P6.ranked_graph().mask(BAL6[0].in_facets)
    got = check_cusp_condition(_cusp(S6, "cusp:1+i+j+k").pairs, s_in)
    assert set(got) == {"-1-i+j-k", "-j"}
    got = check_cusp_condition(_cusp(S6, "cusp:1").pairs, s_in)
    assert set(got) == {"-1+i+j+k", "-1-i-j-k"}
    got = check_cusp_condition(_cusp(S6, "cusp:A").pairs, s_in)
    assert got == ("-1", "1")


def test_certify_boundary_cube(P6, M6, BAL6, S6):
    s = BAL6[0]
    s_in = P6.ranked_graph().mask(s.in_facets)
    table = _cusp(S6, "cusp:1+i+j+k")
    found = certify_boundary_cube(P6, table)
    assert table.held and all(None not in pair for pairs in found for pair in pairs)
    assert [len(pairs) for pairs in found] == [len(parts) for parts in table.parts]
    checked = checked_of_state(table, found, s_in)
    H = build_cusp_section(P6, "cusp:1+i+j+k")
    mH = restrict(M6, H.facet_ids)
    faces = [F for c in range(6) for F in enumerate_faces(H, c)]
    assert len(faces) == 3 ** 5  # all faces of the 5-cube, itself included
    bad = [F.sorted_ids() for F in faces if not is_good_face(mH, F)]
    assert [ids for ids, _, _ in table.bad] == bad
    assert len(checked) == len(bad)
    # faces inside a witness facet are good
    f1, _ = check_cusp_condition(table.pairs, s_in)
    assert not any(f1 in face for face in bad)
    for face, apexes in zip(bad, checked):
        F = FaceHandle(frozenset(face))
        for K, apex in zip(state_parts(H, F, inherited_state(H, mH, s, F)), apexes):
            assert apex == star_vertex_apexes(K)[0]
            assert replay_collapse(K, cone_collapse_pairs(K, apex)).vertices == (apex,)


def _cusp_apexes_match_legality(S, cusp_ids):
    """Apexes on both parts exist exactly where a collapse search on both
    parts, built as complexes, certifies total legality, for every state and
    bad face of each cusp."""
    searched = {}

    def collapses(K):
        if K not in searched:
            searched[K] = not K.is_empty and try_collapse(K).success
        return searched[K]

    n, P, m = 0, S.P, S.m
    for cusp in cusp_ids:
        table = _cusp(S, cusp)
        H = section_cusp_table(P, m, cusp)[0]
        mH = restrict(m, H.facet_ids)
        found = certify_boundary_cube(P, table)
        for s in S.states:
            checked = checked_of_state(table, found, P.ranked_graph().mask(s.in_facets))
            for (face, _, _), apexes in zip(table.bad, checked):
                F = FaceHandle(frozenset(face))
                parts = state_parts(H, F, inherited_state(H, mH, s, F))
                legal = all(map(collapses, parts))
                assert (None not in apexes) == legal, (cusp, face)
                n += 1
    return n


def test_cusp_apexes_match_searched_legality(S5, S6):
    assert _cusp_apexes_match_legality(
        S5, [iv.id for iv in S5.P.ideal_vertices]
    ) == 1088 // 2
    assert _cusp_apexes_match_legality(S6, ["cusp:A"]) > 0


def test_face_contains():
    k = 3
    cube = face_int(k, 0, 0)
    vert = face_int(k, 0b111, 0b101)
    edge = face_int(k, 0b101, 0b101)
    assert face_contains(k, vert, cube)
    assert face_contains(k, vert, edge)
    assert not face_contains(k, edge, vert)
