"""The face-mask kernel against the definitions it replaces: inherited splits
on P's adjacency masks, cusp tables, and the cone-apex rule on vertex sets
against the one-round dismantling order it stands for."""

import pytest

from itertools import groupby

from morsecert.certify import verdict_plan
from morsecert.links import certify_boundary_cube, cusp_table
from morsecert.polytopes import FaceHandle, enumerate_faces, mask_ids
from morsecert.states import (
    bad_faces,
    dismantling_problem,
    face_masks,
    facet_mask,
    good_witness,
    inherited_state,
    part_graph,
    split_state,
)


def _reference_split(P, m, s, F):
    """(Out, In) of the state s inherits on F, from the definition on labels:
    F's dual vertices are the facets adjacent to all its defining facets,
    and those sharing a move with a defining facet are Out."""
    blocked = {m.block_of(f) for f in F.defining}
    dual = {v for v in P.facet_ids
            if v not in F.defining and all(P.adjacent(v, f) for f in F.defining)}
    inn = {v for v in dual if m.block_of(v) not in blocked and s.is_in(v)}
    return dual - inn, inn


def _check_splits(P, m, states, faces_and_masks):
    """Compare the mask split of every face and state with the reference
    and with `inherited_state`; returns the number of pairs compared."""
    n = 0
    for F, (dual, free) in faces_and_masks:
        for s in states:
            inn = free & facet_mask(P, s.in_facets)
            out_ref, in_ref = _reference_split(P, m, s, F)
            inh = inherited_state(P, m, s, F)
            assert set(mask_ids(P, dual & ~inn)) == out_ref == inh.out_facets, F
            assert set(mask_ids(P, inn)) == in_ref == inh.in_facets, F
            assert split_state(P, dual, inn).serial() == inh.serial(), F
            n += 1
    return n


def _check_plan(P, m, states):
    """Walk `verdict_plan`: each face once, in `enumerate_faces` order; a
    good face as one row over all states carrying its `good_witness`; a bad
    face's states partitioned as the serials of their inherited states
    partition them, each row's masks splitting as those states do."""
    faces = [F for codim in range(P.dimension + 1) for F in enumerate_faces(P, codim)]
    plan = list(verdict_plan(P, m, states))
    runs = [(F, list(rows)) for F, rows in groupby(plan, key=lambda p: p.F)]
    assert [F for F, _ in runs] == faces
    for F, rows in runs:
        assert all(p.face == F.sorted_ids() for p in rows)
        witness = good_witness(m, F)
        if witness is not None:
            assert [(p.states, p.witness) for p in rows] == [
                (tuple(range(len(states))), witness)]
            continue
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
    bad = bad_faces(P, m)[1]
    assert _check_splits(P, m, states, ((F, face_masks(P, m, F)) for F in bad)) == (
        len(bad) * len(states))
    assert _check_plan(P, m, states) >= len(bad)


def _cusp_splits(P, m, states, cusp):
    table = cusp_table(P, m, cusp)
    H = table.section
    faces = [(FaceHandle(frozenset(ids)), masks) for ids, masks in table.bad.items()]
    return _check_splits(H, m.restrict(H.facet_ids), states, faces)


def test_cusp_table_splits_match_inherited_states(P5, M5, BAL5, P6, M6, BAL6):
    assert sum(_cusp_splits(P5, M5, BAL5, iv.id) for iv in P5.ideal_vertices) > 0
    assert _cusp_splits(P6, M6, BAL6, "cusp:A") > 0


def test_apex_rule_matches_one_round_orders(P5, M5, BAL5):
    """On every p5 cusp, state, section bad face and part, the apex that
    certify picks with `cone_apex` is the first facet of the section whose
    one-round order dismantles the part on the section's graph."""
    n = 0
    for iv in P5.ideal_vertices:
        table = cusp_table(P5, M5, iv.id)
        H = table.section
        for s in BAL5:
            bc = certify_boundary_cube(P5, M5, s, iv.id, table=table)
            s_in = facet_mask(H, s.in_facets)
            for face, apexes in bc.checked:
                dual, free = table.bad[face]
                for part, apex in zip((dual & ~(free & s_in), free & s_in), apexes):
                    labels = mask_ids(H, part)
                    accepted = []
                    for v in H.facet_ids:
                        order = [[u, v] for u in labels if u != v]
                        ok = dismantling_problem(part_graph(H, labels), order) is None
                        accepted += [v] if ok else []
                        n += v in labels
                    assert apex == min(accepted, default=None)
    assert n > 0
