"""Tensors, the localization map, and the graded dimension count.

localize sends f (x) g to the tuple of twisted products f * x(g) over all
group elements x.  Its image inside the space of all maps is exactly the
membership locus, and the three ways of counting dimensions per degree
(series prediction, image rank, divisibility nullspace) agree.
"""

import random

from reflect_gkm import (
    TensorElement,
    load_group,
    localize,
    membership,
    poly_text,
)
from reflect_gkm.localization import DimensionTriples
from reflect_gkm.polynomials import parse_poly
from reflect_gkm.sampling import random_tensor

g = load_group("z4")
P = lambda t: parse_poly(t, g.dimension, g.conductor, names=g.variables)

T = TensorElement(g, [(P("x1"), P("x1^2"))])
F = localize(T)
print("localize(x (x) x^2):")
for w, v in enumerate(F.values):
    print(f"  element {w}: {poly_text(v, names=g.variables)}")
print("member:", membership(F).ok)

# tensors that differ as symbols can localize identically: x (x) x^2
# carries the middle factor over because x^2 is not invariant here, but
# x^3 (x) 1 == 1 (x) x^3 does hold once x^4-degree invariants enter
A = TensorElement(g, [(P("x1^4"), P("1"))])
B = TensorElement(g, [(P("1"), P("x1^4"))])
print("\nx^4 (x) 1 == 1 (x) x^4:", A == B)

rng = random.Random(0)
print("\nrandom tensors localize to members:",
      all(membership(localize(random_tensor(rng, g))).ok for _ in range(10)))

triples = DimensionTriples(g)
print("\n(degree: predicted, image rank, nullspace)")
for d in range(5):
    print(" ", d, triples.triple(d))
