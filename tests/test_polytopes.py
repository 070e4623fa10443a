import pytest

from morsecert.complexes import betti_mod2, is_crosspolytope_boundary
from morsecert.errors import InputError
from morsecert.labels import SIGN_LABELS, UNIT_LABELS
from morsecert.polytopes import (
    TABLE_G6,
    FaceHandle,
    adjacency_from_lorentz,
    build_cusp_section,
    dual_complex,
    enumerate_faces,
    f_vector_check,
    lorentz_product,
    symmetries_p6,
)

VEC = dict(TABLE_G6)


def test_table_vectors_are_lorentz_unit():
    for label, v in TABLE_G6:
        assert lorentz_product(v, v) == 1, label


def test_adjacency_examples_from_vectors():
    # A vs 1+i+j+k adjacent; A vs 1 not
    assert lorentz_product(VEC["A"], VEC["1+i+j+k"]) == 0
    assert lorentz_product(VEC["A"], VEC["1"]) == -1


def test_adjacency_from_lorentz_rejects_non_unit():
    with pytest.raises(InputError, match="row 1"):
        adjacency_from_lorentz([VEC["A"], (0, 0, 0, 0, 0, 0, 1)])


def test_p6_structural_counts(P6):
    assert len(P6.facets) == 27
    assert len(P6.ideal_vertices) == 27
    assert all(P6.degree(f) == 16 for f in P6.facet_ids)
    rep = f_vector_check(P6, {1: 27, 2: 216, 6: 72, 7: 0}, expected_degree=16)
    assert rep.clique_counts[5] == 72 and rep.clique_counts[6] == 0


def test_p6_label_rules(P6):
    assert not P6.adjacent("1", "-1")  # 4-product -1
    assert set(P6.neighbors("A")) == set(SIGN_LABELS)
    assert P6.adjacent("B", "1+i+j+k") and not P6.adjacent("C", "1+i+j+k")
    for a in ("A", "B", "C"):
        for b in ("A", "B", "C"):
            if a != b:
                assert not P6.adjacent(a, b)


def test_p6_ideal_vertices(P6):
    for iv in P6.ideal_vertices:
        assert len(iv.incident) == 10
        closed = {iv.label} | set(P6.neighbors(iv.label))
        assert iv.incident == frozenset(P6.facet_ids) - closed


def test_face_handle_requires_clique(P6):
    with pytest.raises(InputError):
        P6.face({"1", "-1"})
    F = P6.face({"A", "1+i+j+k"})
    assert F.codim == 2


def test_enumerate_faces_counts(P6):
    assert len(enumerate_faces(P6, 0)) == 1
    assert enumerate_faces(P6, 0)[0].defining == frozenset()
    assert len(enumerate_faces(P6, 1)) == 27
    assert len(enumerate_faces(P6, 2)) == 216
    assert len(enumerate_faces(P6, 6)) == 72


def test_faces_close_downward(P6):
    import itertools

    threes = {F.defining for F in enumerate_faces(P6, 3)}
    twos = {F.defining for F in enumerate_faces(P6, 2)}
    for F in list(threes)[:50]:
        for sub in itertools.combinations(F, 2):
            assert frozenset(sub) in twos


def test_dual_complex_prism(P6):
    F = P6.face({"i", "1+i+j+k", "-1+i+j+k"})
    D = dual_complex(P6, F)
    assert sorted(D.vertices) == sorted(
        ["k", "-1+i+j-k", "j", "1+i-j+k", "-1+i-j+k", "1+i+j-k"]
    )
    assert len(D.faces_of_dim(1)) == 9
    assert len(D.faces_of_dim(2)) == 2
    assert D.dim == 2


def test_dual_complex_edge_plus_point(P6):
    F = P6.face({"1+i+j+k", "-1+i+j+k", "j", "-1-i+j+k"})
    D = dual_complex(P6, F)
    assert set(D.maximal_faces) == {
        frozenset({"k", "1-i+j+k"}),
        frozenset({"-1+i+j-k"}),
    }


def test_dual_complex_codim6_empty(P6):
    for F in enumerate_faces(P6, 6):
        assert dual_complex(P6, F).is_empty


def test_p5_structure(P5):
    assert len(P5.facets) == 16
    assert len(P5.ideal_vertices) == 10
    rep = f_vector_check(P5, {1: 16, 5: 16, 6: 0})
    assert rep.clique_counts[4] == 16
    # facet graph of P5 equals the induced graph on the neighbours of A
    assert set(P5.facet_ids) == set(SIGN_LABELS)


def test_p5_each_facet_opposes_one_real_vertex(P5):
    vertices = [F.defining for F in enumerate_faces(P5, 5)]
    for fid in P5.facet_ids:
        closed = {fid} | set(P5.neighbors(fid))
        avoiding = [v for v in vertices if not (v & closed)]
        assert len(avoiding) == 1, fid


def test_p5_ideal_incidence_example(P5):
    iv = P5.ideal_vertex("cusp:i")
    assert "1+i+j+k" in iv.incident


def test_p5_matches_induced_subgraph(P6, P5):
    for a in P5.facet_ids:
        for b in P5.facet_ids:
            if a < b:
                assert P5.adjacent(a, b) == P6.adjacent(a, b)


def test_adjacent_agrees_with_adjacency_pairs(P6, P5):
    """`adjacent` answers from the neighbour masks what the pair set says,
    for every pair of facets, and False for an id the polytope lacks."""
    for P in (P6, P5):
        for a in P.facet_ids:
            for b in P.facet_ids:
                assert P.adjacent(a, b) == (frozenset((a, b)) in P.adjacency_pairs)
            assert not P.adjacent(a, "no-such-facet")
            assert not P.adjacent("no-such-facet", a)
    gone = next(f for f in P6.facet_ids if f not in P5.facet_ids)
    assert not P5.adjacent(gone, P5.facet_ids[0])


def test_cusp_section_a(P6):
    H = build_cusp_section(P6, "cusp:A")
    assert sorted(H.facet_ids) == sorted(list(UNIT_LABELS) + ["B", "C"])
    # opposite pairs are {q, -q} and {B, C}
    for q in ("1", "i", "j", "k"):
        assert not H.adjacent(q, "-" + q)
    assert not H.adjacent("B", "C")
    f_vector_check(H, {5: 32, 6: 0})


def test_cusp_section_facet_one(P6):
    H = build_cusp_section(P6, "cusp:1")
    assert "-1+i+j+k" in H.facet_ids and "-1-i-j-k" in H.facet_ids
    assert not H.adjacent("-1+i+j+k", "-1-i-j-k")  # an opposite pair


def test_all_cusp_sections_are_cubes(P6, P5):
    for iv in P6.ideal_vertices:
        H = build_cusp_section(P6, iv.id)
        assert H.dimension == 5 and len(H.facet_ids) == 10
    for iv in P5.ideal_vertices:
        H = build_cusp_section(P5, iv.id)
        assert H.dimension == 4 and len(H.facet_ids) == 8


def test_cusp_section_codim2_dual_is_octahedron(P6):
    H = build_cusp_section(P6, "cusp:A")
    F = H.face({"1", "i"})  # one facet from each of two pairs
    D = dual_complex(H, F)
    ok, _ = is_crosspolytope_boundary(D, 3)
    assert ok


def test_cusp_section_full_dual_is_crosspolytope(P6):
    H = build_cusp_section(P6, "cusp:A")
    D = dual_complex(H, FaceHandle(frozenset()))
    ok, _ = is_crosspolytope_boundary(D, 5)
    assert ok


def test_symmetries(P6):
    syms = symmetries_p6(P6)
    assert len(syms) == 16
    iota = next(s for s in syms if s.name == "mult:1*iota").as_dict()
    assert iota["i"] == "-i" and iota["j"] == "-k" and iota["k"] == "-j"
    assert iota["B"] == "C" and iota["C"] == "B" and iota["A"] == "A"
    mult_i = next(s for s in syms if s.name == "mult:i").as_dict()
    assert mult_i["1"] == "i"


def test_dual_full_complex_betti(P6):
    # boundary sphere punctured at the 27 ideal vertices
    D = dual_complex(P6, FaceHandle(frozenset()))
    assert betti_mod2(D, 5) == (1, 0, 0, 0, 26, 0)
