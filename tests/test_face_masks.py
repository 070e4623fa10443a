"""The face-mask kernel against the definitions it replaces: inherited splits
on P's rank masks, cusp tables against their section polytopes, legality
of the plan's masks against legality of inherited states, and the
cone-apex rule on vertex sets against the one-round dismantling order it
stands for."""

import dataclasses

import pytest

from itertools import groupby

from morsecert.errors import StructuralError
from morsecert.io import moves_from_doc, state_from_doc
from morsecert.kernel import (
    MoveSystem,
    certificate_problem,
    check_cusp_condition,
    cusp_table,
    face_masks,
    face_table,
    generic_subject,
)
from morsecert.links import certify_boundary_cube
from morsecert.polytopes import (
    Facet,
    FaceHandle,
    IdealVertex,
    Polytope,
    build_cusp_section,
    enumerate_faces,
    polytope_from_doc,
)
from morsecert.states import (
    inherited_state,
    legality,
    split_legality,
    split_state,
)
from construction import restrict
from oracles import (
    checked_of_state,
    good_witness,
    out_facets,
    section_checked,
    section_cusp_table,
    section_plan,
)
from test_certify import square_inputs


def _reference_split(P, m, s, F):
    """(Out, In) of the state s inherits on F, from the definition on labels:
    F's dual vertices are the facets adjacent to all its defining facets,
    and those sharing a move with a defining facet are Out."""
    blocked = {m.block_of(f) for f in F.defining}
    dual = {v for v in P.facet_ids
            if v not in F.defining and all(P.adjacent(v, f) for f in F.defining)}
    inn = {v for v in dual if m.block_of(v) not in blocked and v in s.in_facets}
    return dual - inn, inn


def _check_splits(P, m, states, faces_and_masks):
    """Compare the mask split of every face and state with the reference
    and with `inherited_state`; returns the number of pairs compared."""
    n, G = 0, P.ranked_graph()
    for F, (dual, free) in faces_and_masks:
        for s in states:
            inn = free & G.mask(f for f in s.in_facets if f in G.rank)
            out_ref, in_ref = _reference_split(P, m, s, F)
            inh = inherited_state(P, m, s, F)
            assert set(G.labels(dual & ~inn)) == out_ref == out_facets(inh), F
            assert set(G.labels(inn)) == in_ref == inh.in_facets, F
            assert split_state(P, dual, inn).serial() == inh.serial(), F
            n += 1
    return n


def _check_plan(S):
    """Walk the plan of subject S: each face once, in `enumerate_faces` order; a
    good face as one row over all states carrying its `good_witness` and no
    handle; a bad face, with its handle, as rows that partition its states
    as the serials of their inherited states partition them, each row's
    masks splitting as those states do."""
    P, m, states = S.P, S.m, S.states
    faces = [F for codim in range(P.dimension + 1) for F in enumerate_faces(P, codim)]
    plan = list(S.plan)
    runs = [(face, list(rows)) for face, rows in groupby(plan, key=lambda p: p.face)]
    assert [face for face, _ in runs] == [F.sorted_ids() for F in faces]
    for F, (_, rows) in zip(faces, runs):
        witness = good_witness(m, F)
        if witness is not None:
            assert [(p.F, p.states, p.witness) for p in rows] == [
                (None, tuple(range(len(states))), witness)]
            continue
        assert all(p.F == F for p in rows)
        classes = {}
        for idx, s in enumerate(states):
            classes.setdefault(inherited_state(P, m, s, F).serial(), []).append(idx)
        assert [p.states for p in rows] == [tuple(c) for c in classes.values()], F
        for p in rows:
            assert p.witness is None
            split = split_state(P, *p.masks).serial()
            assert all(inherited_state(P, m, states[i], F).serial() == split
                       for i in p.states), F
    return len(plan)


@pytest.mark.parametrize("subject", ["5", "6"])
def test_mask_splits_match_inherited_states(request, subject):
    P, m, states = (request.getfixturevalue(name + subject) for name in ("P", "M", "BAL"))
    bad = tuple(face_table(P, m).bad)
    assert _check_splits(P, m, states, ((F, face_masks(P, m, F)) for F in bad)) == (
        len(bad) * len(states))
    assert _check_plan(request.getfixturevalue("S" + subject)) >= len(bad)


def _cusp_splits(P, m, states, cusp):
    H, _, bad = section_cusp_table(P, m, cusp)
    faces = [(FaceHandle(frozenset(ids)), masks) for ids, masks in bad.items()]
    return _check_splits(H, restrict(m, H.facet_ids), states, faces)


def test_cusp_table_splits_match_inherited_states(P5, M5, BAL5, P6, M6, BAL6):
    assert sum(_cusp_splits(P5, M5, BAL5, iv.id) for iv in P5.ideal_vertices) > 0
    assert _cusp_splits(P6, M6, BAL6, "cusp:A") > 0


def test_apex_rule_matches_one_round_orders(P5, M5, BAL5, S5):
    """On every p5 cusp, state, section bad face and part, the apex that
    certify picks with `cone_apex` is the first facet of the section whose
    one-round order dismantles the part on the section's graph."""
    n = 0
    for iv, table in zip(P5.ideal_vertices, S5.cusps):
        H, _, bad = section_cusp_table(P5, M5, iv.id)
        G = H.ranked_graph()
        found = certify_boundary_cube(P5, table)
        for s in BAL5:
            checked = checked_of_state(table, found, P5.ranked_graph().mask(s.in_facets))
            s_in = G.mask(f for f in s.in_facets if f in G.rank)
            for (face, _, _), apexes in zip(table.bad, checked):
                dual, free = bad[face]
                for part, apex in zip((dual & ~(free & s_in), free & s_in), apexes):
                    labels = G.labels(part)
                    accepted = []
                    for v in H.facet_ids:
                        order = [[u, v] for u in labels if u != v]
                        ok = certificate_problem(G, order, part, what="part") is None
                        accepted += [v] if ok else []
                        n += v in labels
                    assert apex == min(accepted, default=None)
    assert n > 0


def test_cusp_tables_match_section_oracle(S5, S6):
    """On every cusp and state of P5 and P6, the section is a cube, with
    its 3^d faces, and the table read off P's face table on rank masks has
    the section's bad faces in order; its plan, whether the condition holds
    and each bad face's In parts in order of first occurrence, is the
    section's; and the pairs found per planned part give each state what
    the section polytope checks, cone apexes included."""
    n = 0
    for S in (S5, S6):
        P, m = S.P, S.m
        G = P.ranked_graph()
        for iv, table in zip(P.ideal_vertices, S.cusps):
            oracle = section_cusp_table(P, m, iv.id)
            assert oracle[1] == 3 ** (P.dimension - 1), iv.id
            assert [ids for ids, _, _ in table.bad] == list(oracle[2]), iv.id
            held, parts = section_plan(P, m, iv.id, S.states)
            assert held == [table.held] * len(S.states), iv.id
            assert [[tuple(sorted(G.labels(inn))) for inn in face] for face in table.parts] \
                == parts, iv.id
            found = certify_boundary_cube(P, table)
            assert [len(pairs) for pairs in found] == [len(face) for face in table.parts]
            for s in S.states:
                checked = checked_of_state(table, found, G.mask(s.in_facets))
                assert checked == (section_checked(oracle, s) if table.held else [])
                n += 1
    assert n == 10 * 16 + 27 * 32


def _square_with_cusp(state: str):
    """The generic subject of the square of `square_inputs` with a cusp x
    on the opposite facets a and c, which share a move, from the state
    whose statuses of a, b, c, d are the letters of `state`."""
    pol, moves, _ = square_inputs()
    pol["ideal_vertices"] = [{"label": "x", "incident": ["a", "c"]}]
    P = polytope_from_doc(pol)
    return generic_subject(P, moves_from_doc(moves),
                           state_from_doc(dict(zip("abcd", state)), P))


def test_cusp_condition_is_the_same_on_the_whole_orbit(S5, S6):
    """Each cusp pair is the two facets of one move, which flips both or
    neither, so the cusp condition holds in every state of an orbit or in
    none: on every cusp and state of P5, P6 and two generic squares, one
    whose cusp pair differs in status and one whose pair agrees, it is the
    plan's `held`."""
    squares = [_square_with_cusp(state) for state in ("IIOO", "IOIO")]
    n = 0
    for S in (S5, S6, *squares):
        for table in S.cusps:
            for s_in in S.in_masks:
                assert (check_cusp_condition(table.pairs, s_in) is not None) is table.held
                n += 1
    assert all(table.held for S in (S5, S6) for table in S.cusps)
    assert [S.cusps[0].held for S in squares] == [True, False]
    assert squares[1].cusps[0].parts == ((),) * len(squares[1].cusps[0].bad)
    assert n == 10 * 16 + 27 * 32 + 2 * 4


def test_non_cube_sections_raise_alike():
    """A square's cusp with three incident facets, and a cusp one of whose
    incident facets has two non-neighbours among them: the cusp table and
    the section polytope refuse both with the same error."""
    square = Polytope(2, [Facet(f, f) for f in "abcd"],
                      [frozenset(p) for p in ("ab", "bc", "cd", "da")],
                      [IdealVertex("cusp:x", "x", frozenset("abc"))])
    path = Polytope(3, [Facet(f, f) for f in "abcde"],
                    [frozenset(p) for p in ("ab", "bc", "cd", "ae", "be", "ce", "de")],
                    [IdealVertex("cusp:x", "x", frozenset("abcd"))])
    cases = ((square, "cusp cusp:x: 3 incident facets, expected 2"),
             (path, "cusp cusp:x: facet a has 2 non-neighbours in the section"))
    for P, message in cases:
        m = MoveSystem(tuple(frozenset(f) for f in P.facet_ids))
        with pytest.raises(StructuralError) as by_table:
            cusp_table(P, m, {F: face_masks(P, m, F) for F in face_table(P, m).bad}, (0,),
                       "cusp:x")
        with pytest.raises(StructuralError) as by_section:
            build_cusp_section(P, "cusp:x")
        assert type(by_table.value) is type(by_section.value)
        assert str(by_table.value) == str(by_section.value)
        assert str(by_table.value).startswith(message)


@pytest.mark.parametrize("subject", ["5", "6"])
def test_plan_mask_legality_matches_state_legality(request, subject):
    """For every bad-face class of the verdict plan, the legality of its
    masks' split equals, field for field, the legality of the state its
    first state inherits on the face."""
    S = request.getfixturevalue("S" + subject)
    P, m, states = S.P, S.m, S.states
    n = 0
    for p in S.plan:
        if p.masks is None:
            continue
        got = split_legality(P, *p.masks)
        want = legality(P, p.F, inherited_state(P, m, states[p.states[0]], p.F))
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), (p.face, f.name)
        n += 1
    assert n == {"5": 80, "6": 536}[subject]
