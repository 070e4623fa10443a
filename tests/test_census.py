"""The structural kernels against independent references: the clique census
against brute force and a recursive enumeration, the face table's mask
witnesses against the definitions on facet ids, and the integer label
algebra against quaternions over Fraction."""

import pytest

from morsecert.errors import InputError, StructuralError
from morsecert.kernel import face_table
from morsecert.polytopes import (
    Facet,
    Polytope,
    build_cusp_section,
    f_vector_check,
    face_of_mask,
)

from construction import (
    T24_LABELS,
    UNIT_LABELS,
    base_unit,
    euclid4,
    label_quat,
    quat_mul,
    restrict,
    t24_adjacent,
)
from oracles import (
    bad_face_signature,
    cliques_brute_force,
    cliques_recursive,
    fraction_base_unit,
    fraction_mul,
    fraction_quat,
    good_witness,
    iota_label,
    mask_ids,
    quat_label,
)


def _sections(P):
    return [build_cusp_section(P, iv.id) for iv in P.ideal_vertices]


def _census_ids(P, k):
    return [mask_ids(P, f) for f in P.cliques(k)]


def test_census_matches_brute_force(P5, P6):
    """On P5 and every cusp section of P5 and P6, each size of the census
    lists exactly the facet subsets that are pairwise adjacent, in canonical
    order."""
    for P in [P5] + _sections(P5) + _sections(P6):
        for k in range(P.dimension + 2):
            assert _census_ids(P, k) == cliques_brute_force(P, k), (P.name, k)


def test_census_matches_recursive_enumeration(P6):
    counts = []
    for k in range(P6.dimension + 2):
        recursive = sorted(tuple(sorted(P6.facet_ids[i] for i in c))
                           for c in cliques_recursive(P6, k))
        assert _census_ids(P6, k) == recursive, k
        counts.append(len(recursive))
    assert counts[1:] == [27, 216, 720, 1080, 648, 72, 0]


def test_clique_count_beyond_the_census_is_exact():
    """K4 declared as dimension 2: the census stops at size 3, and size 4
    is still counted; the f-vector check rejects the size-3 cliques."""
    ids = "abcd"
    K4 = Polytope(2, [Facet(f, f) for f in ids],
                  [frozenset((a, b)) for a in ids for b in ids if a < b])
    assert [K4.clique_count(k) for k in range(6)] == [1, 4, 6, 4, 1, 0]
    assert _census_ids(K4, 4) == [tuple(ids)]
    with pytest.raises(StructuralError, match="no cliques of size 3"):
        f_vector_check(K4)


@pytest.mark.parametrize("subject", ["5", "6"])
def test_face_table_matches_definitions(request, subject):
    """For every face of P and of each cusp section, the table's witness
    is `good_witness` on facet ids, and its bad faces, in order, carry
    `bad_face_signature`."""
    P, m = (request.getfixturevalue(name + subject) for name in ("P", "M"))
    for Q in [P] + _sections(P):
        mQ = restrict(m, Q.facet_ids)
        table = face_table(Q, mQ)
        faces = [face_of_mask(Q, f) for f in table.masks]
        assert [F.codim for F in faces] == sorted(F.codim for F in faces)
        assert list(table.witnesses) == [good_witness(mQ, F) for F in faces], Q.name
        bad = {F: bad_face_signature(mQ, F) for F in faces if good_witness(mQ, F) is None}
        assert list(table.bad.items()) == list(bad.items()), Q.name


def test_integer_labels_match_fraction_quaternions():
    for a in T24_LABELS:
        assert label_quat(a) == tuple(2 * x for x in fraction_quat(a))
        for b in T24_LABELS:
            product = fraction_mul(fraction_quat(a), fraction_quat(b))
            assert label_quat(quat_label(quat_mul(label_quat(a), label_quat(b)))) == tuple(
                2 * x for x in product), (a, b)
            dot = sum(x * y for x, y in zip(fraction_quat(a), fraction_quat(b)))
            assert euclid4(label_quat(a), label_quat(b)) == 4 * dot
            assert t24_adjacent(a, b) == (dot >= 0), (a, b)
        assert base_unit(a) == fraction_base_unit(a)
        x1, x2, x3, x4 = fraction_quat(a)
        assert label_quat(iota_label(a)) == tuple(2 * x for x in (x1, -x2, -x4, -x3))
    assert {base_unit(u) for u in UNIT_LABELS} == set(UNIT_LABELS)
    with pytest.raises(InputError, match="not a Hurwitz integer"):
        quat_mul((1, 0, 0, 0), (1, 0, 0, 0))
