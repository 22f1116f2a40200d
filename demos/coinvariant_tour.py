"""Invariants, the ideal they generate, and the coinvariant quotient.

For the symmetric group on three letters acting on two variables the
quotient has dimension 6 = |W|, spread over degrees 0..3 as 1,2,2,1.
"""

from reflect_gkm import coinvariant_basis, invariant_basis, load_group, poly_text
from reflect_gkm.polynomials import MultiPoly, parse_poly

g = load_group("s3")
names = g.variables

print("invariant dimensions by degree:")
for d in range(7):
    basis = invariant_basis(g, d)
    texts = [poly_text(f, names=names) for f in basis.vectors]
    print(f"  degree {d}: dim {len(texts)}" + (f"  {texts}" if texts else ""))

# averaging any polynomial over the group (the Reynolds operator) lands
# in the invariant ring
f = parse_poly("x1^2*x2", g.dimension, g.conductor, names=names)
zero = MultiPoly.zero(g.dimension, g.conductor)
avg = sum((g.act(w, f) for w in range(g.order)), zero) / g.order
print("\nreynolds(x1^2*x2) =", poly_text(avg, names=names))
print("invariant under every element:",
      all(g.act(w, avg) == avg for w in range(g.order)))

coinv = coinvariant_basis(g)
print(f"\ncoinvariant basis: {len(coinv.lifts)} standard monomial lifts")
for lift, d in zip(coinv.lifts, coinv.degrees):
    print(f"  degree {d}: {poly_text(lift, names=names)}")
