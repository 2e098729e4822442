"""Finite Euclidean configurations with verifiable color-forcing structure.

The package builds, in explicit coordinates, point gadgets whose
congruent sub-simplices constrain colorings (perturbed triangles,
sphere chains, simplex-times-path products, perturbation grids,
conditioned tetrahedra) and checks the forcing properties themselves,
that every coloring admits a monochromatic copy of one simplex or a
rainbow copy of another, by exhaustive or backtracking search.
"""
