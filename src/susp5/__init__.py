"""Symbolic wedge decompositions and stable invariants of suspended closed
orientable 5-manifolds and 5-dimensional Poincare duality complexes."""
