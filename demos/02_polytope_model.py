"""The 27-facet right-angled 6-polytope from its integer normal vectors.

Adjacency is zero Lorentzian product, cross-validated against the quaternion
labelling rules at build time.  Faces are cliques of the adjacency graph;
dual complexes of faces are the clique complexes on common neighbours.
"""

from morsecert import (
    build_cusp_section,
    build_p5,
    build_p6,
    dual_complex,
    f_vector_check,
    is_crosspolytope_boundary,
    symmetries_p6,
)
P6 = build_p6()
print(P6)
report = f_vector_check(P6, {1: 27, 2: 216, 6: 72, 7: 0}, expected_degree=16)
print("clique counts by size 1..7:", report.clique_counts)
print("27 ideal vertices, each incident to",
      len(P6.ideal_vertices[0].incident), "facets")

# the dual of a codimension-3 face: a triangular prism
F = P6.face({"i", "1+i+j+k", "-1+i+j+k"})
D = dual_complex(P6, F)
print("\ncodim-3 dual:", sorted(D.vertices))
print("  edges:", len(D.faces_of_dim(1)), " triangles:", len(D.faces_of_dim(2)))

# every horospherical section is a combinatorial 5-cube
H = build_cusp_section(P6, "cusp:A")
print("\nsection at the cusp opposite A:", sorted(H.facet_ids))
octa = dual_complex(H, H.face({"1", "i"}))
print("dual of a codim-2 face of the section is an octahedron:",
      is_crosspolytope_boundary(octa, 3)[0])

# the 16 validated facet symmetries
syms = symmetries_p6(P6)
iota = next(s for s in syms if s.name == "mult:1*iota").as_dict()
print("\nsymmetries:", len(syms))
print("involution sends i ->", iota["i"], ", j ->", iota["j"],
      ", B ->", iota["B"])

# the 16-facet 5-polytope sits inside as the neighbours of A
P5 = build_p5(P6)
print("\n", P5, "- facet graph equals the induced graph on the",
      "neighbours of A")
