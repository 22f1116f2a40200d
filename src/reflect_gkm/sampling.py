"""Seeded random generators for polynomials, tensors, and group maps.

Everything funnels through one random.Random instance supplied by the
caller, so a fixed seed reproduces every trial bit for bit.  Coefficients
are kept small on purpose (single-digit numerators, denominators 1 to 3):
the checks are exact, so magnitude adds cost without adding coverage.
random_poly adds the draws for one monomial as an integer pair (num, den)
and builds each rational coefficient once from its numerators; the
exponents come from graded_monomials, so the polynomial is assembled
without re-validating them.
"""

from __future__ import annotations

import random

from .cyclotomic import euler_phi, from_numerators
from .equivariant import GroupMap, membership
from .groups import ReflectionGroup
from .localization import TensorElement, localize
from .polynomials import MultiPoly, graded_monomials

__all__ = [
    "random_member",
    "random_nonmember",
    "random_poly",
    "random_tensor",
]

_NUMERATORS = tuple(n for n in range(-9, 10) if n)
_DENOMS = (1, 2, 3)
_NONMEMBER_ATTEMPTS = 50


def random_poly(
    rng: random.Random,
    nvars: int,
    conductor: int,
    max_degree: int = 5,
    max_terms: int = 4,
    homogeneous: int | None = None,
) -> MultiPoly:
    """A small random polynomial; pass homogeneous=d to pin every term
    to one degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = homogeneous if homogeneous is not None else rng.randint(0, max_degree)
        pool = graded_monomials(nvars, d)
        exps = pool[rng.randrange(len(pool))]
        num = rng.choice(_NUMERATORS)
        den = rng.choice(_DENOMS)
        prev = terms.get(exps)
        terms[exps] = (num, den) if prev is None else (prev[0] * den + num * prev[1], prev[1] * den)
    pad = [0] * (euler_phi(conductor) - 1)
    return MultiPoly._make(
        nvars,
        conductor,
        {e: from_numerators(conductor, [a, *pad], b) for e, (a, b) in terms.items() if a},
    )


def random_tensor(
    rng: random.Random,
    group: ReflectionGroup,
    max_degree: int = 5,
    max_summands: int = 3,
) -> TensorElement:
    """A short random tensor with total degree at most max_degree per
    summand, split at random between the two legs."""
    n, m = group.dimension, group.conductor
    pairs = []
    for _ in range(rng.randint(1, max_summands)):
        total = rng.randint(0, max_degree)
        dleft = rng.randint(0, total)
        f = random_poly(rng, n, m, max_terms=2, homogeneous=dleft)
        g = random_poly(rng, n, m, max_terms=2, homogeneous=total - dleft)
        pairs.append((f, g))
    return TensorElement(group, pairs)


def random_member(rng: random.Random, group: ReflectionGroup, max_degree: int = 5) -> GroupMap:
    """A guaranteed member: the localization of a random tensor."""
    return localize(random_tensor(rng, group, max_degree=max_degree))


def random_nonmember(rng: random.Random, group: ReflectionGroup, max_degree: int = 4) -> GroupMap:
    """Perturb one value of a random member F = localize(T) by a random
    monomial until the result is not a member.  Members form a module, so
    F + Delta is a member exactly when the sparse map Delta (the monomial
    at one element, zero elsewhere) is: each attempt is decided on Delta,
    on the cosets through that element, and only the map returned
    localizes its tensor and adds Delta there.  Raises RuntimeError if the
    group refuses to produce one in _NONMEMBER_ATTEMPTS tries (it will
    not, for nontrivial reflection groups)."""
    n, m = group.dimension, group.conductor
    for _ in range(_NONMEMBER_ATTEMPTS):
        T = random_tensor(rng, group, max_degree=max_degree)
        values = [MultiPoly.zero(n, m)] * group.order
        x = rng.randrange(group.order)
        pool = graded_monomials(n, rng.randint(0, max_degree))
        values[x] = MultiPoly(n, m, {pool[rng.randrange(len(pool))]: 1})
        if not membership(GroupMap(group, values)).ok:
            perturbed = list(localize(T).values)
            perturbed[x] += values[x]
            return GroupMap(group, perturbed)
    raise RuntimeError("could not find a nonmember by perturbation")
