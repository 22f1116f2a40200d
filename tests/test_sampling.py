"""The sampled maps themselves, pinned by digest.

The report JSON holds only counts, so a change in what the samplers draw
would leave every report digest unchanged.  These digests cover the text of
every value the samplers return for fixed seeds on each bundled group.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from reflect_gkm.groups import bundled_names, load_group
from reflect_gkm.polynomials import poly_text
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
