"""Seeded random generators for polynomials, tensors, and group maps.

Everything funnels through one random.Random instance supplied by the
caller, so a fixed seed reproduces every trial bit for bit.  Coefficients
are kept small on purpose (single-digit numerators, denominators 1 to 3):
the checks are exact, so magnitude adds cost without adding coverage.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
        num = rng.choice([n for n in range(-9, 10) if n])
        c = Fraction(num, rng.choice(_DENOMS))
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(nvars, conductor, terms)


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
    """Perturb one value of a random member by a random monomial until the
    membership certificate fails.  Raises RuntimeError if the group refuses
    to produce one in _NONMEMBER_ATTEMPTS tries (it will not, for
    nontrivial reflection groups)."""
    n, m = group.dimension, group.conductor
    for _ in range(_NONMEMBER_ATTEMPTS):
        F = random_member(rng, group, max_degree=max_degree)
        x = rng.randrange(group.order)
        d = rng.randint(0, max_degree)
        pool = graded_monomials(n, d)
        exps = pool[rng.randrange(len(pool))]
        bump = MultiPoly(n, m, {exps: 1})
        values = list(F.values)
        values[x] = values[x] + bump
        G = GroupMap(group, values)
        if not membership(G).ok:
            return G
    raise RuntimeError("could not find a nonmember by perturbation")
