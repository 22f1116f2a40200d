"""Slow, obviously correct constructions the tests compare the package
against."""

from reflect_gkm.groups import ReflectionGroup
from reflect_gkm.polynomials import MultiPoly


def reynolds(group: ReflectionGroup, f: MultiPoly) -> MultiPoly:
    """The averaging projector (1/|W|) sum_w w . f onto invariants."""
    acc = MultiPoly.zero(group.dimension, group.conductor)
    for w in range(group.order):
        acc = acc + group.act(w, f)
    return acc / group.order
