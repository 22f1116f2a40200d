"""Seeded random generators for polynomials, tensors, and group maps.

Everything funnels through one random.Random instance supplied by the
caller, so a fixed seed reproduces every trial bit for bit.  Coefficients
are kept small on purpose (single-digit numerators, denominators 1 to 3):
the checks are exact, so magnitude adds cost without adding coverage.
A polynomial is drawn as integer pairs {exponents: (num, den)}, the
exponents from graded_monomials.  random_poly and random_tensor build
their coefficients from the pairs; random_member and random_nonmember
build none, and hand the legs' numerators to localization's core.
"""

from __future__ import annotations

import random
from math import lcm

from .cyclotomic import euler_phi, from_numerators, numerator_dot_products
from .equivariant import GroupMap, membership
from .groups import ReflectionGroup
from .localization import TensorElement, _localized_numerators
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


def _draw_terms(rng, nvars, max_degree, max_terms, homogeneous) -> dict:
    """random_poly's draws, {exponents: (num, den)}: the draws for one
    monomial added as an integer pair, a term whose sum cancels dropped."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = homogeneous if homogeneous is not None else rng.randint(0, max_degree)
        pool = graded_monomials(nvars, d)
        exps = pool[rng.randrange(len(pool))]
        num = rng.choice(_NUMERATORS)
        den = rng.choice(_DENOMS)
        prev = terms.get(exps)
        terms[exps] = (num, den) if prev is None else (prev[0] * den + num * prev[1], prev[1] * den)
    return {e: t for e, t in terms.items() if t[0]}


def _draw_legs(rng, nvars, max_degree, max_summands) -> list:
    """random_tensor's draws: [(first leg terms, second leg terms)]."""
    pairs = []
    for _ in range(rng.randint(1, max_summands)):
        total = rng.randint(0, max_degree)
        dleft = rng.randint(0, total)
        pairs.append(tuple(_draw_terms(rng, nvars, None, 2, d) for d in (dleft, total - dleft)))
    return pairs


def _poly(nvars: int, conductor: int, terms: dict) -> MultiPoly:
    pad = [0] * (euler_phi(conductor) - 1)
    coeffs = {e: from_numerators(conductor, [a, *pad], b) for e, (a, b) in terms.items()}
    return MultiPoly._make(nvars, conductor, coeffs)


def _localized(group: ReflectionGroup, pairs) -> tuple[list[dict], int]:
    """localize(random_tensor(...)) of the draws as (numerators, den), every
    term over the draws' lcm; a pair with a zero leg is dropped."""
    pad = [0] * (euler_phi(group.conductor) - 1)
    den = lcm(1, *(b for pair in pairs for terms in pair for _, b in terms.values()))
    legs = [[{e: [a * (den // b), *pad] for e, (a, b) in t.items()} for t in p] for p in pairs]
    return _localized_numerators(group, [p for p in legs if all(p)], den * den)


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
    return _poly(nvars, conductor, _draw_terms(rng, nvars, max_degree, max_terms, homogeneous))


def random_tensor(
    rng: random.Random,
    group: ReflectionGroup,
    max_degree: int = 5,
    max_summands: int = 3,
) -> TensorElement:
    """A short random tensor with total degree at most max_degree per
    summand, split at random between the two legs."""
    n, m = group.dimension, group.conductor
    legs = _draw_legs(rng, n, max_degree, max_summands)
    return TensorElement(group, [(_poly(n, m, f), _poly(n, m, g)) for f, g in legs])


def random_member(rng: random.Random, group: ReflectionGroup, max_degree: int = 5) -> GroupMap:
    """A guaranteed member: the localization of a random tensor."""
    legs = _draw_legs(rng, group.dimension, max_degree, 3)
    return GroupMap._from_numerators(group, *_localized(group, legs))


def random_nonmember(rng: random.Random, group: ReflectionGroup, max_degree: int = 4) -> GroupMap:
    """Perturb one value of a random member F = localize(T) by a random
    monomial until the result is not a member.  Members form a module, so
    F + Delta is a member exactly when the sparse map Delta (the monomial
    at one element, zero elsewhere) is: each attempt is decided on Delta,
    on the cosets through that element, and only the map returned
    localizes its draws (no attempt builds a tensor) and adds Delta there,
    on integer numerators.  Raises RuntimeError if the group refuses to
    produce one in _NONMEMBER_ATTEMPTS tries (it will not, for nontrivial
    reflection groups)."""
    n, m = group.dimension, group.conductor
    one = [1] + [0] * (euler_phi(m) - 1)
    for _ in range(_NONMEMBER_ATTEMPTS):
        legs = _draw_legs(rng, n, max_degree, 3)
        x = rng.randrange(group.order)
        pool = graded_monomials(n, rng.randint(0, max_degree))
        e = pool[rng.randrange(len(pool))]
        delta = [{}] * group.order
        delta[x] = {e: one}
        if not membership(GroupMap._from_numerators(group, delta, 1)).ok:
            numerators, den = _localized(group, legs)
            # den (F(x) + x^e), in the term order of F(x) + x^e
            numerators[x] = numerator_dot_products(m, [(e, one, [den, *one[1:]])], numerators[x])
            return GroupMap._from_numerators(group, numerators, den)
    raise RuntimeError("could not find a nonmember by perturbation")
