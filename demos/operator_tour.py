"""Weighted difference operators and the membership test, on Z/3.

The group is cyclic of order 3 acting on one variable by a primitive cube
root of unity.  A map assigns one polynomial to each group element;
membership asks that certain weighted coset sums be divisible by powers
of the co-root.  For higher-order reflections this is strictly stronger
than the classical pairwise condition, and the demo ends on a map that
separates the two.
"""

from reflect_gkm import (
    GroupMap,
    coroot_map,
    load_group,
    membership,
    orbit_decomposition,
    orbit_difference,
    poly_text,
)
from reflect_gkm.localization import DimensionTriples
from reflect_gkm.polynomials import parse_poly

g = load_group("z3")
P = lambda t: parse_poly(t, g.dimension, g.conductor, names=g.variables)


def show(label, F):
    vals = ", ".join(poly_text(v, names=g.variables) for v in F.values)
    print(f"{label}: ({vals})")


# x^2 at the identity, extended equivariantly: this one is a member
F = GroupMap(g, [P("x1^2"), P("z^2*x1^2"), P("z*x1^2")])
show("F", F)
print("member:", membership(F).ok)

s = g.reflections()[0]
for i in (1, 2):
    out = orbit_difference(g, s, i, F)
    show(f"  weighted difference, power {i}", out)

# full decomposition: F = (1/|s|) sum_j out_j * L^j
parts = orbit_decomposition(g, F, s)
L = coroot_map(g, s)
rebuilt = GroupMap.zero(g)
for j, part in enumerate(parts):
    rebuilt = rebuilt + part * L**j
print("decomposition reassembles F:", rebuilt / s.order == F)

# (x, 2x, 3x) passes every pairwise difference test but is NOT a member:
# the second-power condition sees what adjacent differences cannot
G = GroupMap(g, [P("x1"), P("2*x1"), P("3*x1")])
show("\nG", G)
cert = membership(G)
print("member:", cert.ok)
for fail in cert.failures:
    print(f"  fails at reflection {fail.reflection.element} power {fail.power}: "
          f"divisible only to order {fail.witness.valuation}")

print("\ndegree-1 map space: pairwise conditions allow 3 dimensions,")
# the certificate's degree-1 row: (predicted, image, members)
print("membership allows", DimensionTriples(g).triple(1)[2])
