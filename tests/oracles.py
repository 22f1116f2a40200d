"""Slow, obviously correct constructions the tests compare the package
against."""

from reflect_gkm.equivariant import GroupMap, membership_basis
from reflect_gkm.groups import ReflectionGroup
from reflect_gkm.invariants import coinvariant_basis, coinvariant_histogram, graded_count
from reflect_gkm.localization import image_graded_dimension
from reflect_gkm.polynomials import MultiPoly


def reynolds(group: ReflectionGroup, f: MultiPoly) -> MultiPoly:
    """The averaging projector (1/|W|) sum_w w . f onto invariants."""
    acc = MultiPoly.zero(group.dimension, group.conductor)
    for w in range(group.order):
        acc = acc + group.act(w, f)
    return acc / group.order


def localized_lifts(group: ReflectionGroup) -> list[GroupMap]:
    """The map x -> x . e, one value per element by the group action, for
    each lift e of coinvariant_basis(group), in order."""
    lifts = coinvariant_basis(group).lifts
    return [GroupMap(group, [group.act(x, e) for x in range(group.order)]) for e in lifts]


def predicted_dimensions(group: ReflectionGroup, dmax: int) -> list[int]:
    """The expected graded dimensions for d <= dmax, from the fundamental
    degrees: prod_i (1 + ... + t^{d_i - 1}) / (1 - t)^n."""
    histogram = coinvariant_histogram(group.fundamental_degrees())
    return [graded_count(histogram, group.dimension, d) for d in range(dmax + 1)]


def exact_rows(group: ReflectionGroup, dmax: int) -> list[tuple[int, int, int]]:
    """(predicted, image, nullspace) for d <= dmax, the last two by exact
    elimination: the rank of the localized lifts' span and the dimension
    of the divisibility nullspace."""
    predicted = predicted_dimensions(group, dmax)
    localized = localized_lifts(group)
    return [
        (predicted[d], image_graded_dimension(group, localized, d), len(membership_basis(group, d)))
        for d in range(dmax + 1)
    ]
