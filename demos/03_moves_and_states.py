"""Moves, balanced states, the orbit action, and legality certificates.

The paper's construction of P6, its moves and its balanced states, and the
orbit action `act` are the tests' reference code: run it with
`PYTHONPATH=src:tests`."""

from morsecert.io import builtin_subject
from morsecert.kernel import is_compatible, orbit
from morsecert.polytopes import FaceHandle
from morsecert.states import inherited_state, legality

from construction import balanced_states_p6, build_p6, move_system_p6
from oracles import act

P = build_p6()
m = move_system_p6()
print("move blocks:", [sorted(b)[:3] + ["..."] if len(b) > 3 else sorted(b)
                       for b in m.blocks])

states = balanced_states_p6(P)
print("balanced states:", len(states))
s = states[0]
print("first state serial:", s.serial())
print("compatible:", is_compatible(P, m, s)[0])

# crossing a facet flips its whole move
s2 = act(s, m, "A")
print("crossing A flips:", sorted(s.in_facets ^ s2.in_facets))
print("orbit size:", len(orbit(s, m)), "(= all balanced states)")

# the whole polytope is a bad face; its state must be totally legal
rec = legality(P, FaceHandle(frozenset()), s)
print("\nwhole-polytope state: totally legal =", rec.totally_legal)
print("dismantling orders (dominated vertex, dominator):",
      len(rec.out_sequence), "and", len(rec.in_sequence), "steps, first",
      rec.out_sequence[0])

# bad faces come in exactly four shapes; the built-in subject, a polytope
# with its moves and states read from its shipped inputs, keeps them by
# signature
bad = builtin_subject("p6").bad_faces
print("\nbad faces by signature:", {sig: len(fs) for sig, fs in bad.items()})

# a bad ridge forces status Out on same-move facets of its dual
F = bad[(2,)][0]
inh = inherited_state(P, m, s, F)
print("inherited state on", sorted(F.defining), "forces Out on the",
      "same-move facets; serial:", inh.serial())
