"""Simplicial complexes and replayable collapse certificates.

Builds a few small complexes, runs the collapse search, and shows that every
claim ships with an explicit elementary-collapse sequence that can be checked
step by step without rerunning any search.  No command builds a complex:
the constructions used here are the tests' reference code, so run it with
`tests/` on the path: `PYTHONPATH=src:tests python demos/01_simplicial_collapse.py`.
"""

from morsecert.complexes import betti_mod2, replay_collapse, try_collapse

from oracles import cone, from_maximal_faces, is_crosspolytope_boundary, join

# A solid triangle collapses to a point.
solid = from_maximal_faces([{"a", "b", "c"}])
out = try_collapse(solid)
print("solid triangle:", "collapsed" if out.success else "stuck")
print("  sequence:", [tuple(sorted(f)) for f, _ in out.sequence])
print("  replay reaches:", replay_collapse(solid, out.sequence).vertices)

# The octahedron boundary is a closed surface: no face is ever free.
s0 = lambda a, b: from_maximal_faces([{a}, {b}])
octa = join(join(s0(1, 2), s0(3, 4)), s0(5, 6))
print("\noctahedron boundary betti:", betti_mod2(octa, 2))
out = try_collapse(octa, restarts=4)
print("collapse attempt:", "succeeded" if out.success else
      "failed immediately (no free faces) - reported as not certified")

# Recognition of cross-polytope boundaries, with the antipodal pairing.
ok, pairing = is_crosspolytope_boundary(octa, 3)
print("is the join of three S^0:", ok, "pairing:", pairing)

# Cones are always collapsible; relative collapses keep a target intact.
c = cone(octa, "apex")
print("\ncone over the octahedron collapses:", try_collapse(c).success)
target = from_maximal_faces([{"a", "b"}])
rel = try_collapse(solid, target=target)
print("solid triangle rel an edge:", rel.success, "core:", rel.core.maximal_faces)
