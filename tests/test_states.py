import random

import pytest

from morsecert.errors import InputError
from morsecert.io import builtin_subject, moves_from_doc, polytope_from_doc, state_from_doc
from morsecert.kernel import (
    State,
    is_compatible,
    orbit,
)
from morsecert.polytopes import FaceHandle, enumerate_faces
from morsecert.states import (
    act,
    inherited_state,
    legality,
)

from oracles import bad_face_signature, compatibility_by_labels, is_good_face

REFERENCE_OUT = {
    "1", "1-i+j-k", "1+i+j-k",
    "i", "1+i+j+k", "-1+i+j+k",
    "j", "-1-i+j+k", "-1-i+j-k",
    "k", "1-i-j+k", "1-i+j+k",
}


def reference_state(P6, abc_out=False):
    out = set(REFERENCE_OUT) | ({"A", "B", "C"} if abc_out else set())
    return State(tuple(sorted(P6.facet_ids)), frozenset(P6.facet_ids) - out)


def test_move_system_blocks(M6):
    assert tuple(len(b) for b in M6.blocks) == (6, 6, 6, 6, 3)
    assert M6.block("1") == frozenset(
        {"1", "1-i+j-k", "1+i+j-k", "-1", "-1+i-j+k", "-1-i-j+k"}
    )
    assert M6.block("A") == frozenset({"A", "B", "C"})
    # r values straight from the table
    assert "1+i+j+k" in M6.block("i")


def test_balanced_states(P6, M6, BAL6):
    assert len(BAL6) == 32
    for s in BAL6:
        ok, _ = is_compatible(P6, M6, s)
        assert ok
        assert ("A" in s.in_facets) == ("B" in s.in_facets) == ("C" in s.in_facets)
    assert reference_state(P6) in BAL6
    assert reference_state(P6, abc_out=True) in BAL6


def test_orbit_is_all_balanced(P6, M6, BAL6):
    orb = orbit(BAL6[0], M6)
    assert len(orb) == 32
    assert set(orb) == set(BAL6)


def test_act_examples(P6, M6, BAL6):
    s = BAL6[0]
    s2 = act(s, M6, "A")
    assert s2.in_facets ^ s.in_facets == frozenset({"A", "B", "C"})
    assert act(s2, M6, "A") == s
    assert act(s2, M6, "B") == s  # same block


def test_compatibility_witness(P6, M6):
    s = reference_state(P6)
    bad = State(s.universe, s.in_facets ^ frozenset({"-1+i+j+k"}))
    ok, witness = is_compatible(P6, M6, bad)
    assert not ok
    assert set(witness) == {"1+i+j+k", "-1+i+j+k"}
    all_out = State(s.universe, frozenset())
    assert is_compatible(P6, M6, all_out)[0]


def test_compatibility_masks_match_label_walk(P6, M6, BAL6, P5, M5, BAL5):
    """The mask test gives the label walk's result, witness included, on
    every balanced state, on each with one facet flipped, and on the
    square whose same-move pair a, c is made adjacent."""
    for P, m, states in ((P6, M6, BAL6), (P5, M5, BAL5)):
        for s in states:
            assert is_compatible(P, m, s) == compatibility_by_labels(P, m, s) == (True, None)
            for f in P.facet_ids:
                flipped = State(s.universe, s.in_facets ^ {f})
                assert is_compatible(P, m, flipped) == compatibility_by_labels(P, m, flipped)
    square = {"name": "sq", "dimension": 2, "facets": [{"id": f} for f in "abcd"],
              "adjacency": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]]}
    P = polytope_from_doc(square)
    m = moves_from_doc([["a", "c"], ["b", "d"]], P)
    for statuses in ("IIOO", "OIIO", "IOOI", "IIII"):
        s = state_from_doc(dict(zip("abcd", statuses)), P)
        assert is_compatible(P, m, s) == compatibility_by_labels(P, m, s)
    s = state_from_doc(dict(zip("abcd", "IIOO")), P)
    assert is_compatible(P, m, s) == (False, ("a", "c"))


def test_balanced_same_move_status_iff_adjacent(P6, M6, BAL6):
    for s in BAL6[:8]:
        for block in M6.blocks:
            labelled = [f for f in block if f not in ("A", "B", "C")]
            for a in labelled:
                for b in labelled:
                    if a < b:
                        assert P6.adjacent(a, b) == ((a in s.in_facets) == (b in s.in_facets))


def test_good_and_bad_faces(P6, M6):
    assert is_good_face(M6, P6.face({"A", "1+i+j+k"}))
    assert not is_good_face(M6, P6.face({"1+i+j+k", "-1+i+j+k"}))
    assert not is_good_face(M6, FaceHandle(frozenset()))  # P itself is bad
    assert bad_face_signature(M6, P6.face({"1+i+j+k", "-1+i+j+k"})) == (2,)
    assert bad_face_signature(M6, P6.face({"A", "1+i+j+k"})) is None


def test_bad_face_census(P6, M6):
    bad = builtin_subject("p6").bad_faces
    assert {sig: len(fs) for sig, fs in bad.items()} == {
        (2,): 24, (3,): 8, (2, 2): 24, (2, 2, 2): 8,
    }
    assert all(sum(sig) != 5 for sig in bad)
    assert all(F.codim == 6 for F in bad[(2, 2, 2)])
    # exhaustive dichotomy: every proper face is good xor listed as bad
    listed = {F.defining for faces in bad.values() for F in faces}
    for codim in range(1, 7):
        for F in enumerate_faces(P6, codim):
            assert is_good_face(M6, F) != (F.defining in listed)


def test_inherited_state_examples(P6, M6, BAL6):
    s = reference_state(P6)
    F = P6.face({"1+i+j+k", "-1+i+j+k"})
    inh = inherited_state(P6, M6, s, F)
    assert "i" in inh.out_facets  # same move as the defining facets
    # facets in untouched blocks keep their ambient status
    for fid in inh.universe:
        if M6.block_of(fid) != M6.block_of("i"):
            assert (fid in inh.in_facets) == (fid in s.in_facets)
    # F = P: inherited state is the state itself
    inh0 = inherited_state(P6, M6, s, FaceHandle(frozenset()))
    assert inh0.serial() == s.serial()


def test_inheritance_well_defined(P6, M6, BAL6):
    # states differing by blocks meeting the defining facets inherit equally
    rng = random.Random(0)
    faces = [f for c in (2, 3, 4) for f in enumerate_faces(P6, c)]
    for _ in range(25):
        F = rng.choice(faces)
        s = rng.choice(BAL6)
        s2 = s
        for fid in F.defining:
            if rng.random() < 0.5:
                s2 = act(s2, M6, fid)
        assert (
            inherited_state(P6, M6, s, F).serial()
            == inherited_state(P6, M6, s2, F).serial()
        )


def test_restricted_move_system(P5, M5):
    assert tuple(len(b) for b in M5.blocks) == (4, 4, 4, 4)
    assert set().union(*M5.blocks) == set(P5.facet_ids)


def test_legality_reference_state(P6, BAL6):
    s = reference_state(P6)
    rec = legality(P6, FaceHandle(frozenset()), s)
    assert rec.totally_legal
    # both parts dismantle: one vertex pair per deleted vertex; on the
    # polytope itself the parts are the state's Out and In facets
    assert len(rec.out_sequence) == len(s.out_facets) - 1
    assert len(rec.in_sequence) == len(s.in_facets) - 1


def test_legality_degenerate_states(P6):
    universe = tuple(sorted(P6.facet_ids))
    all_out = State(universe, frozenset())
    rec = legality(P6, FaceHandle(frozenset()), all_out)
    assert rec.totally_legal is None  # the In part is empty
    two_out = State(universe, frozenset(P6.facet_ids) - {"A", "1"})
    rec2 = legality(P6, FaceHandle(frozenset()), two_out)
    assert rec2.totally_legal is None  # A and 1 are not adjacent: Out part disconnected


def test_legality_universe_mismatch(P6, BAL6):
    with pytest.raises(InputError):
        legality(P6, P6.face({"A"}), BAL6[0])


def test_state_serialisation_roundtrip(P6, BAL6):
    s = BAL6[7]
    serial = s.serial()
    assert len(serial) == 27
    rebuilt = State(
        s.universe,
        frozenset(f for f, ch in zip(s.universe, serial) if ch == "I"),
    )
    assert rebuilt == s


def test_state_holds_only_its_universe_and_in_facets(BAL6):
    """A state keeps no set of its universe; construction still checks
    facets against the universe."""
    s = BAL6[0]
    assert vars(s).keys() == {"universe", "in_facets"}
    with pytest.raises(InputError, match="unknown facets: \\['Z'\\]"):
        State(s.universe, s.in_facets | {"Z"})
