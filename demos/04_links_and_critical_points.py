"""Dual-cube lifts, ascending/descending links, and the eight critical classes.

A codimension-6 bad vertex is dual to a 6-cube that splits into three
monochromatic squares.  Its face links are 2-spheres; the engine certifies
the index by shrinking both links onto subdivided cross-polytope cores with
dismantling orders: each step deletes a poset element dominated, in the
comparability graph, by a live one (a beat point), and no search is run.
The paper's construction of P6 and the cube model are the tests' reference
code: run it with `PYTHONPATH=src:tests`.
"""

from morsecert.complexes import betti_mod2
from morsecert.kernel import face_masks, generic_subject
from morsecert.links import CriticalLinkCertifier, classify_link, face_links_oracle
from morsecert.states import split_legality

from construction import balanced_states_p6, build_p6, move_system_p6
from oracles import build_cube_model, face

P = build_p6()
m = move_system_p6()
s = balanced_states_p6(P)[0]
S = generic_subject(P, m, s)  # the orbit of s: all 32 balanced states, checked

# a monochromatic square: checkerboard lift, barycentre value (0, 2)
F = face(P, {"1+i+j+k", "-1+i+j+k"})
model = build_cube_model(P, m, s, F)
print("monochromatic square vertex lifts:", model.lift.vertex_lift)
asc, desc = face_links_oracle(model.lift)
print("ascending face link:", len(asc.vertices), "isolated points;",
      "descending collapses to S^0")

# one of the eight all-pairs vertices
bad = S.bad_faces
V = bad[(2, 2, 2)][0]
print("\nbad vertex:", sorted(V.defining))
model = build_cube_model(P, m, s, V)
print("blocks pair up the coordinates:", model.lift.blocks)
asc, desc = face_links_oracle(model.lift)
print("face links are 2-spheres:", betti_mod2(asc, 2), betti_mod2(desc, 2))

# the vertex's one verdict row covers every state: by the all-pairs lemma
# its cube lift is the canonical one at every compatible state, so the face
# alone decides the row, which cites the shared certificate of its ℓ
certifier = CriticalLinkCertifier()
lc = classify_link(S, V, certifier=certifier)
print("verdict:", lc.verdict, "of index", lc.index)
shared = certifier.certificate(lc.index)
print("dismantling orders:",
      len(shared.asc_sequence), "ascending steps,",
      len(shared.desc_sequence), "descending steps,",
      "cores are subdivided cross-polytope boundaries")
print("first ascending step [v, w]:", shared.asc_sequence[0])

# good faces and legal bad faces are Regular before any link is classified:
# the face table names a good face's move, and a bad face's class is
# totally legal when both parts of its inherited split dismantle
G, table = P.ranked_graph(), S.table
good = G.mask({"A", "1+i+j+k"})
print("\na good face: Regular, move", table.witnesses[table.masks.index(good)],
      "meets it in exactly one facet")
dual, free = face_masks(P, m, F)
rec = split_legality(P, dual, free & G.mask(s.in_facets))
print("a bad ridge:", "Regular" if rec.totally_legal else "not certified",
      "with dismantling orders of", len(rec.out_sequence), "and",
      len(rec.in_sequence), "steps")
