"""Acceptance run: every headline property of the package, exact, on all
bundled groups.  Each test is one verdict; frozen numbers were derived
independently (series expansion by hand, closure counts) before the code
that reproduces them existed."""

from __future__ import annotations

import random
from math import prod

from reflect_gkm.equivariant import (
    GroupMap,
    coroot_map,
    membership,
    membership_basis,
    orbit_decomposition,
    orbit_difference,
)
from reflect_gkm.groups import load_group
from reflect_gkm.hypergraph import (
    build_hypergraph,
    hypergraph_membership,
    integral_identity,
    pairwise_graded_dimension,
    pairwise_membership,
)
from reflect_gkm.localization import DimensionTriples, commutes_with_difference
from reflect_gkm.polynomials import MultiPoly, parse_poly
from reflect_gkm.sampling import random_member, random_nonmember, random_tensor
from oracles import exact_rows

BUNDLED = ("z2", "z3", "z4", "s3", "b2", "g312")

# graded dimensions of the localized image, expanded by hand from the
# series (sum of t^deg over the coinvariant basis) / (1 - t)^n
EXPECTED_DIMENSIONS = {
    "z2": (1, 2, 2, 2, 2),
    "z3": (1, 2, 3, 3),
    "z4": (1, 2, 3, 4, 4),
    "s3": (1, 4, 9, 15, 21),
    "b2": (1, 4, 9, 16, 24),
    "g312": (1, 4, 10, 19, 31),
}

# order, count of pseudo-reflections (every non-identity power that still
# fixes the hyperplane is one), fundamental degrees
EXPECTED_INVENTORY = {
    "z2": (2, 1, (2,)),
    "z3": (3, 2, (3,)),
    "z4": (4, 3, (4,)),
    "s3": (6, 3, (2, 3)),
    "b2": (8, 4, (2, 4)),
    "g312": (18, 7, (3, 6)),
}

_GROUPS: dict = {}
_POOLS: dict = {}


def the_group(name: str):
    if name not in _GROUPS:
        _GROUPS[name] = load_group(name)
    return _GROUPS[name]


def member_pool(name: str) -> list:
    """100 seeded random members of the localized image, shared across
    tests so every property is exercised on the same sample."""
    if name not in _POOLS:
        g = the_group(name)
        rng = random.Random(f"acceptance:{name}")
        _POOLS[name] = [random_member(rng, g) for _ in range(100)]
    return _POOLS[name]


def all_operator_indices(group):
    for s in group.reflections():
        for i in range(1, s.order):
            yield s, i


def test_dimension_triples_match_hand_expansion():
    # the certificate's rows, and the exact elimination the tests keep as
    # its oracle, both equal the hand expansion
    for name, expected in EXPECTED_DIMENSIONS.items():
        triples = DimensionTriples(the_group(name))
        exact = exact_rows(the_group(name), len(expected) - 1)
        for d, want in enumerate(expected):
            triple = triples.triple(d)
            assert triple == exact[d] == (want, want, want), (
                f"{name} degree {d}: expected {want} three ways, got {triple} and {exact[d]}"
            )


def test_constants_are_annihilated():
    for name in BUNDLED:
        g = the_group(name)
        one = GroupMap.constant(g, 1)
        for s, i in all_operator_indices(g):
            out = orbit_difference(g, s, i, one)
            assert isinstance(out, GroupMap) and not out, (
                f"{name}: constant not killed by reflection {s.element} power {i}"
            )


def test_action_closure_and_conjugation_twist():
    for name in BUNDLED:
        g = the_group(name)
        rng = random.Random(f"acceptance:{name}:action")
        for k, F in enumerate(member_pool(name)):
            for w in range(g.order):
                assert membership(F.act(w)).ok, (
                    f"{name}: member {k} left the image under element {w}"
                )
            witnesses = range(g.order) if k < 3 else [rng.randrange(g.order)]
            for w in witnesses:
                Fw = F.act(w)
                for s, i in all_operator_indices(g):
                    c, conj = g.conjugate_reflection(s, w)
                    lhs = orbit_difference(g, s, i, Fw)
                    rhs = orbit_difference(g, conj, i, F)
                    assert isinstance(lhs, GroupMap) and isinstance(rhs, GroupMap)
                    assert lhs == rhs.act(w) * c ** (-i), (
                        f"{name}: twist fails at w={w}, s={s.element}, i={i}"
                    )


def test_orbit_decomposition_reconstructs():
    for name in BUNDLED:
        g = the_group(name)
        for F in member_pool(name):
            for s in g.reflections():
                parts = orbit_decomposition(g, F, s)
                L = coroot_map(g, s)
                rebuilt = GroupMap.zero(g)
                for j, part in enumerate(parts):
                    rebuilt = rebuilt + part * L ** j
                assert rebuilt / s.order == F, (
                    f"{name}: reconstruction fails for reflection {s.element}"
                )


def test_product_rule_normalization():
    # the hand-checkable order-two instance first: F = G = (x, 0)
    g = the_group("z2")
    x = parse_poly("x1", g.dimension, g.conductor, names=g.variables)
    F = GroupMap(g, [x, MultiPoly.zero(g.dimension, g.conductor)])
    s = g.reflections()[0]
    lhs = orbit_difference(g, s, 1, F * F)
    assert lhs == GroupMap(g, [x, x])
    unscaled = GroupMap.zero(g)
    for a in range(2):
        unscaled = unscaled + (
            orbit_difference(g, s, a, F) * orbit_difference(g, s, 1 - a, F)
        )
    assert unscaled == GroupMap(g, [2 * x, 2 * x])
    assert lhs == unscaled / 2

    # then random member pairs on every group
    for name in BUNDLED:
        g = the_group(name)
        pool = member_pool(name)
        for k in range(0, 40, 2):
            F, G = pool[k], pool[k + 1]
            FG = F * G
            for s in g.reflections():
                r = s.order
                L = coroot_map(g, s)
                ops_F = [orbit_difference(g, s, a, F) for a in range(r)]
                ops_G = [orbit_difference(g, s, a, G) for a in range(r)]
                for i in range(r):
                    rhs = GroupMap.zero(g)
                    for a in range(r):
                        b = (i - a) % r
                        term = ops_F[a] * ops_G[b]
                        if a + b != i:
                            term = term * L ** (a + b - i)
                        rhs = rhs + term
                    assert orbit_difference(g, s, i, FG) == rhs / r, (
                        f"{name}: product rule fails at s={s.element}, i={i}"
                    )


def test_localization_commutes_with_operators():
    for name in BUNDLED:
        g = the_group(name)
        rng = random.Random(f"acceptance:{name}:tensors")
        for _ in range(100):
            T = random_tensor(rng, g, max_summands=1)
            for s, i in all_operator_indices(g):
                assert commutes_with_difference(g, s, i, T), (
                    f"{name}: localization does not commute at "
                    f"s={s.element}, i={i}"
                )


def test_operators_preserve_membership():
    for name in BUNDLED:
        g = the_group(name)
        for F in member_pool(name):
            for s, i in all_operator_indices(g):
                out = orbit_difference(g, s, i, F)
                assert isinstance(out, GroupMap), (
                    f"{name}: operator left the image at s={s.element}, i={i}"
                )
                assert membership(out).ok


def test_edge_and_orbit_membership_agree():
    for name in BUNDLED:
        g = the_group(name)
        H = build_hypergraph(g)
        rng = random.Random(f"acceptance:{name}:perturb")
        for k, F in enumerate(member_pool(name)):
            assert membership(F).ok and not hypergraph_membership(H, F)
            if k < 10:
                for edge in H.edges:
                    for insertion in range(edge.size):
                        assert integral_identity(edge, F, insertion), (
                            f"{name}: integral routes disagree on edge "
                            f"{edge.members} at insertion {insertion}"
                        )
        for _ in range(100):
            bad = random_nonmember(rng, g)
            assert not membership(bad).ok
            assert hypergraph_membership(H, bad), (
                f"{name}: hypergraph accepted a non-member"
            )


def test_pairwise_control_separates_higher_order():
    # order three: first-power pairwise conditions are strictly weaker
    z3 = the_group("z3")
    assert pairwise_graded_dimension(build_hypergraph(z3), 1) == 3
    assert len(membership_basis(z3, 1)) == 2

    # order two everywhere: the two notions agree on the whole sample
    for name in ("z2", "s3", "b2"):
        g = the_group(name)
        H = build_hypergraph(g)
        rng = random.Random(f"acceptance:{name}:control")
        for F in member_pool(name)[:30]:
            assert not pairwise_membership(H, F)
        for _ in range(30):
            bad = random_nonmember(rng, g)
            assert bool(pairwise_membership(H, bad)) == bool(
                hypergraph_membership(H, bad)
            ), f"{name}: pairwise and edge verdicts split on a non-member"


def test_group_inventory():
    for name, (order, nrefl, degrees) in EXPECTED_INVENTORY.items():
        g = the_group(name)
        assert g.order == order, f"{name}: order {g.order} != {order}"
        assert len(g.reflections()) == nrefl, (
            f"{name}: {len(g.reflections())} pseudo-reflections != {nrefl}"
        )
        assert g.fundamental_degrees() == degrees
        assert prod(degrees) == order
