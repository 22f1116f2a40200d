"""The sampled maps themselves, pinned by digest and by their definition.

The report JSON holds only counts, so a change in what the samplers draw
would leave every report digest unchanged.  These digests cover the text of
every value the samplers return for fixed seeds on each bundled group.  The
member and non-member samplers build no tensor; they are also checked
against the maps localize builds from the same draws.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from reflect_gkm import sampling
from reflect_gkm.equivariant import GroupMap, membership
from reflect_gkm.groups import bundled_names, load_group, parse_group_dict
from reflect_gkm.localization import localize
from reflect_gkm.polynomials import MultiPoly, graded_monomials, integral_numerators, poly_text
from reflect_gkm.sampling import random_member, random_nonmember, random_poly, random_tensor

SAMPLED_DIGESTS = {
    "z2": "a946149e8fb9ee7440f19859fca5f49c7b5133dc09cd9bd65782f275c70e1b41",
    "z3": "a8b1aa28bb965303b5976b5fb0a0d5864c88be46dc29271aad3637213e978f92",
    "z4": "e523196e150b31a92715bca5df7a4ba7b1704bd25cd3f545fc860e3f9e391f4b",
    "s3": "712ad3e1edd0b28c533c0c877394e1acfda28639c590cbbab8eba98a2e878956",
    "b2": "769ec0093de3dd5f427f36da869b1a4184baa4e849e23b2275f7a7266ab85cd6",
    "g312": "f31099b6decbd803faef372b57b8d6ad17ad1d3ac4ba189b1bc2da7323666ac8",
}


def sampled_texts(name: str) -> list[str]:
    """The value texts of a fixed sequence of draws from each sampler."""
    g = load_group(name)
    rng = random.Random(f"sampled:{name}")
    texts = []
    for _ in range(4):
        texts.append(poly_text(random_poly(rng, g.dimension, g.conductor)))
    for _ in range(4):
        T = random_tensor(rng, g)
        texts += [f"{poly_text(f)} (x) {poly_text(h)}" for f, h in T.summands]
    for sampler in (random_member, random_nonmember):
        for _ in range(2):
            texts += [poly_text(v) for v in sampler(rng, g).values]
    return texts


@pytest.mark.parametrize("name", bundled_names())
def test_sampled_maps_are_pinned(name):
    got = hashlib.sha256("\n".join(sampled_texts(name)).encode()).hexdigest()
    assert got == SAMPLED_DIGESTS[name]


# G(4,1,2)'s index-2 subgroup over Q(i), and s3 conjugated by diag(1, 2),
# whose monomial images have denominators (L_e = 1, 2, 4, ...)
G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}
S3_CONJUGATED = {
    "name": "s3c",
    "dimension": 2,
    "conductor": 1,
    "variables": ["x1", "x2"],
    "generators": [["-1", "1/2", "0", "1"], ["1", "0", "2", "-1"]],
}
GROUPS = [load_group(n) for n in bundled_names()] + [
    parse_group_dict(G412),
    parse_group_dict(S3_CONJUGATED),
]


def reference_member(rng, group, max_degree=5):
    """The member as first defined: localize a random tensor."""
    return localize(random_tensor(rng, group, max_degree=max_degree))


def reference_nonmember(rng, group, max_degree=4):
    """The non-member as first defined: perturb the localized tensor's
    value by a monomial, on polynomials, until the map is not a member."""
    n, m = group.dimension, group.conductor
    while True:
        F = localize(random_tensor(rng, group, max_degree=max_degree))
        x = rng.randrange(group.order)
        pool = graded_monomials(n, rng.randint(0, max_degree))
        values = list(F.values)
        values[x] = values[x] + MultiPoly(n, m, {pool[rng.randrange(len(pool))]: 1})
        G = GroupMap(group, values)
        if not membership(G).ok:
            return G


def test_sampled_maps_equal_the_localized_tensors(monkeypatch):
    # the samplers go from the draws to numerators without a tensor; they
    # return the same values, term for term, and leave the rng where the
    # tensor route leaves it
    draws = []
    draw = sampling._draw_terms
    monkeypatch.setattr(sampling, "_draw_terms", lambda *a: draws.append(draw(*a)) or draws[-1])
    pairs = ((random_member, reference_member), (random_nonmember, reference_nonmember))
    for g in GROUPS:
        rng = random.Random(f"equivalence:{g.name}")
        reference = random.Random(f"equivalence:{g.name}")
        for _ in range(40):
            for sampler, expected in pairs:
                got, want = sampler(rng, g).values, expected(reference, g).values
                for v, w in zip(got, want, strict=True):
                    assert list(v.terms.items()) == list(w.terms.items())
                    exact = [(c.num, c.den) for c in v.terms.values()]
                    assert exact == [(c.num, c.den) for c in w.terms.values()]
        assert rng.random() == reference.random()
    # some leg's draws cancelled to zero, and its pair was dropped as
    # TensorElement drops it
    assert {} in draws


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_monomial_tables_are_the_images_numerators(group):
    n, m = group.dimension, group.conductor
    dens = set()
    for d in range(6):
        for e in graded_monomials(n, d):
            images = [group.monomial_image(x, e) for x in range(group.order)]
            nums, den = integral_numerators(images, n, m)
            assert group.monomial_numerators(e) == (den, [tuple(v.items()) for v in nums])
            dens.add(den)
    assert dens >= {1, 2, 4} if group.name == "s3c" else dens == {1}
