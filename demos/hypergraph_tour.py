"""The linear hypergraph of a group and integration over an edge.

Vertices are group elements.  Each reflection s spreads every coset of
its cyclic group into one hyperedge, the group's orbit record for that
coset: a linear form and a tuple of distinct scalars tau, one per vertex.  A map restricted to an
edge is a polynomial in tau exactly when it satisfies the divisibility
conditions.  Once the edge's Vandermonde inverse is certified, the
Lagrange integral over the edge is its eigenvalue-weighted orbit sum, and
it recovers those coefficients.
"""

import random

from reflect_gkm import (
    MultiPoly,
    build_hypergraph,
    edge_integral,
    hypergraph_membership,
    load_group,
    localize,
    membership,
    poly_text,
)
from reflect_gkm.hypergraph import to_dot
from reflect_gkm.polynomials import divide_by_linear_power
from reflect_gkm.sampling import random_member

g = load_group("z4")
H = build_hypergraph(g)
print(f"{g.name}: {len(H.edges)} hyperedges")
for e in H.edges:
    form = poly_text(e.form.as_poly(), names=g.variables)
    taus = ", ".join(t.text() for t in e.tau)
    print(f"  size {e.size}  members {e.members}  form {form}  tau ({taus})")

# note the nested edges: the square of the order-4 generator is itself a
# reflection of order 2 and contributes its own smaller edges

rng = random.Random(3)
F = random_member(rng, g)
print("\nrandom localized map is a member:", membership(F).ok)
print("passes every edge:", not hypergraph_membership(H, F))

edge = max(H.edges, key=lambda e: e.size)
print(f"\nintegrating over the size-{edge.size} edge {edge.members}:")
# reading the inverse certifies V . D = I, or raises GroupInvariantViolated
print("certified inverse, row 0:", ", ".join(w.text() for w in edge.vandermonde_inverse[0]))
for k in range(edge.size):
    section = edge_integral(edge, F, k)  # section.poly / form^section.power
    value = divide_by_linear_power(section.poly, edge.form, section.power)
    text = poly_text(value, names=g.variables) if isinstance(value, MultiPoly) else "pole"
    print(f"  insertion {k}: value {text}")

print("\nDOT export (first lines):")
print("\n".join(to_dot(H).splitlines()[:6]))
