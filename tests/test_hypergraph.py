"""Reflection hypergraphs, edge interpolation, integrals, controls."""

from __future__ import annotations

import json
import random

import pytest

import reflect_gkm.hypergraph as hypergraph_module
from reflect_gkm.cyclotomic import CycNum
from reflect_gkm.equivariant import GroupMap, membership, membership_basis
from reflect_gkm.groups import load_group
from reflect_gkm.hypergraph import (
    EdgeWitness,
    build_hypergraph,
    edge_integral,
    edge_integral_weighted,
    edge_quotients,
    hypergraph_membership,
    integral_identity,
    pairwise_graded_dimension,
    pairwise_membership,
    section_polynomial,
    sections_equal,
    to_dot,
    to_json,
    to_json_dict,
)
from reflect_gkm.localization import TensorElement, localize
from reflect_gkm.polynomials import MultiPoly, parse_poly
from reflect_gkm.sampling import random_member, random_nonmember


def P(text, group):
    return parse_poly(text, group.dimension, group.conductor, names=group.variables)


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def z3():
    return load_group("z3")


@pytest.fixture(scope="module")
def z4():
    return load_group("z4")


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


@pytest.fixture(scope="module")
def b2():
    return load_group("b2")


def test_edge_census(z2, z3, z4, s3, b2):
    # one long orbit per cyclic factor, plus the nested short orbits of
    # proper powers with their own smaller cyclic group
    assert len(build_hypergraph(z2).edges) == 1
    assert len(build_hypergraph(z3).edges) == 1
    hz4 = build_hypergraph(z4)
    sizes = sorted(e.size for e in hz4.edges)
    assert sizes == [2, 2, 4]
    hs3 = build_hypergraph(s3)
    assert sorted(e.size for e in hs3.edges) == [2] * 9
    hb2 = build_hypergraph(b2)
    assert all(e.size == 2 for e in hb2.edges)
    assert len(hb2.edges) == 16


def test_edge_data(z3):
    (edge,) = build_hypergraph(z3).edges
    assert edge.members == (0, 1, 2)
    assert edge.axial.as_poly() == P("x1", z3)
    lam = edge.reflection.eigenvalue
    assert edge.tau == (CycNum.one(3), lam, lam * lam)
    assert len(set(edge.tau)) == 3


def test_edge_quotients_member(z3):
    (edge,) = build_hypergraph(z3).edges
    F = localize(TensorElement.pure(z3, 1, P("x1^2", z3)))
    q = edge_quotients(edge, F)
    assert isinstance(q, list)
    # x^2 sits purely in interpolation slot 2: F(p) = (p . coroot)^2
    assert q[0] == MultiPoly.zero(1, 3)
    assert q[1] == MultiPoly.zero(1, 3)
    assert q[2] == P("1", z3)


def test_edge_quotients_witness(z2):
    (edge,) = build_hypergraph(z2).edges
    F = GroupMap(z2, [P("1", z2), MultiPoly.zero(1, 2)])
    res = edge_quotients(edge, F)
    assert isinstance(res, EdgeWitness)
    assert res.power == 1
    assert res.witness.valuation == 0


def test_hypergraph_membership_matches_orbit_membership(z2, z3, z4, s3, b2):
    rng = random.Random(31)
    for group in (z2, z3, z4, s3, b2):
        H = build_hypergraph(group)
        for _ in range(4):
            F = random_member(rng, group, max_degree=4)
            assert hypergraph_membership(H, F) == []
            G = random_nonmember(rng, group)
            ok_orbit = membership(G).ok
            ok_edges = not hypergraph_membership(H, G)
            assert ok_orbit == ok_edges == False  # noqa: E712


def test_hypergraph_equivalence_on_borderline_maps(z4):
    # maps passing the long edge but failing a nested short one, and vice
    # versa, must be caught; scan a small graded basis difference instead
    # of trusting random traffic alone
    H = build_hypergraph(z4)
    for d in range(4):
        for F in membership_basis(z4, d):
            assert hypergraph_membership(H, F) == []


def test_integral_constants(z2, z3, z4, s3):
    # the top insertion averages to one, lower insertions to zero
    for group in (z2, z3, z4, s3):
        H = build_hypergraph(group)
        one = GroupMap.constant(group, 1)
        for edge in H.edges:
            top = edge_integral(edge, one, edge.size - 1)
            val = section_polynomial(top, edge.axial)
            assert val == MultiPoly.one(group.dimension, group.conductor)
            for k in range(edge.size - 1):
                sec = edge_integral(edge, one, k)
                assert section_polynomial(sec, edge.axial) == MultiPoly.zero(
                    group.dimension, group.conductor
                )


def test_integral_dual_routes_agree(z3, z4, s3, b2):
    rng = random.Random(37)
    for group in (z3, z4, s3, b2):
        H = build_hypergraph(group)
        for _ in range(3):
            F = random_member(rng, group, max_degree=4)
            for edge in H.edges:
                for k in range(edge.size):
                    assert integral_identity(edge, F, k)
                    a = edge_integral(edge, F, k)
                    b = edge_integral_weighted(edge, F, k)
                    assert sections_equal(a, b, edge.axial)


def test_integral_polynomiality_tracks_membership(z3):
    (edge,) = build_hypergraph(z3).edges
    good = localize(TensorElement.pure(z3, 1, P("x1^2", z3)))
    for k in range(edge.size):
        sec = edge_integral(edge, good, k)
        assert not isinstance(section_polynomial(sec, edge.axial), type(None))
        assert isinstance(section_polynomial(sec, edge.axial), MultiPoly)
    bad = GroupMap(z3, [P("x1", z3), P("x1", z3), MultiPoly.zero(1, 3)])
    assert not membership(bad).ok
    poles = []
    for k in range(edge.size):
        sec = edge_integral(edge, bad, k)
        poles.append(not isinstance(section_polynomial(sec, edge.axial), MultiPoly))
    assert any(poles)


def test_integral_large_insertion_is_polynomial(z2, z3):
    # once the insertion exponent reaches size - 1 the section power is
    # nonpositive: no division ever happens and both routes still agree
    rng = random.Random(41)
    for group in (z2, z3):
        (edge,) = build_hypergraph(group).edges
        F = random_member(rng, group, max_degree=3)
        for k in range(edge.size - 1, edge.size + 3):
            sec = edge_integral(edge, F, k)
            assert sec.power <= 0
            assert isinstance(section_polynomial(sec, edge.axial), MultiPoly)
            assert integral_identity(edge, F, k)
    with pytest.raises(ValueError):
        edge_integral(build_hypergraph(z2).edges[0], GroupMap.constant(z2, 1), -1)


def _lagrange_product_integral(edge, F, k):
    # the Lagrange weights from the explicit products, as edge_integral
    # computed them before it read the Vandermonde inverse
    m = F.group.conductor
    total = MultiPoly.zero(F.group.dimension, m)
    for j in range(edge.size):
        denom = CycNum.one(m)
        for l in range(edge.size):
            if l != j:
                denom = denom * (edge.tau[j] - edge.tau[l])
        total = total + F.values[edge.members[j]] * (edge.tau[j] ** k * denom.inverse())
    return total


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3", "b2", "g312"])
def test_edge_integral_matches_lagrange_products(name):
    group = load_group(name)
    rng = random.Random(59)
    maps = (random_member(rng, group, max_degree=3), random_nonmember(rng, group))
    for edge in build_hypergraph(group).edges:
        for F in maps:
            for k in range(edge.size + 1):
                sec = edge_integral(edge, F, k)
                assert sec.power == edge.size - 1 - k
                assert sec.poly == _lagrange_product_integral(edge, F, k)


def test_incidence_index(s3, z4):
    for group in (s3, z4):
        H = build_hypergraph(group)
        for v in range(group.order):
            for e in H.incident(v):
                assert v in e.members
        # every edge listed at each of its vertices, nothing else
        for k, e in enumerate(H.edges):
            for v in range(group.order):
                assert (k in H.by_vertex[v]) == (v in e.members)


def test_lagrange_normalization_constant(z2, z3, z4, s3):
    # the product prod_{a != j}(1 - lambda^a / lambda^j) collapses to the
    # orbit size, for every vertex of every edge
    for group in (z2, z3, z4, s3):
        for edge in build_hypergraph(group).edges:
            lam = edge.reflection.eigenvalue
            r = edge.size
            for j in range(r):
                prod = CycNum.one(group.conductor)
                for a in range(r):
                    if a != j:
                        prod = prod * (CycNum.one(group.conductor) - lam ** a / lam ** j)
                assert prod == CycNum.rational(group.conductor, r)


def test_vandermonde_agrees_with_integral_flags(z3, z4):
    # edge interpolation succeeds exactly when every proper insertion
    # integral is pole-free
    rng = random.Random(43)
    for group in (z3, z4):
        H = build_hypergraph(group)
        maps = [random_member(rng, group, max_degree=3) for _ in range(3)]
        maps += [random_nonmember(rng, group) for _ in range(3)]
        for F in maps:
            for edge in H.edges:
                solved = not isinstance(edge_quotients(edge, F), EdgeWitness)
                flags = all(
                    isinstance(
                        section_polynomial(edge_integral(edge, F, k), edge.axial),
                        MultiPoly,
                    )
                    for k in range(edge.size - 1)
                )
                assert solved == flags


def test_pairwise_is_weaker_exactly_on_high_order(z3, z2, s3, b2):
    # degree one over the order-three cyclic group: every pairwise
    # difference of linear maps is divisible by the axial line, so the
    # control accepts everything while true membership does not
    assert pairwise_graded_dimension(build_hypergraph(z3), 1) == 3
    assert len(membership_basis(z3, 1)) == 2
    # when every reflection has order two the control is the whole story
    for group in (z2, s3, b2):
        H = build_hypergraph(group)
        for d in range(4):
            assert pairwise_graded_dimension(H, d) == len(
                membership_basis(group, d)
            ), (group.name, d)


@pytest.mark.parametrize("name, pairwise, members", [
    ("z3", [1, 3, 3, 3], [1, 2, 3, 3]),
    ("z4", [1, 4, 4, 4], [1, 2, 3, 4]),
    ("g312", [1, 4, 11, 23], [1, 4, 10, 19]),
])
def test_pairwise_dimensions_on_higher_order_groups(name, pairwise, members):
    g = load_group(name)
    H = build_hypergraph(g)
    assert [pairwise_graded_dimension(H, d) for d in range(4)] == pairwise
    assert [len(membership_basis(g, d)) for d in range(4)] == members


def test_vandermonde_inverse_once_per_edge(monkeypatch):
    calls = []
    original = hypergraph_module.mat_inv

    def counting(a, conductor):
        calls.append(len(a))
        return original(a, conductor)

    monkeypatch.setattr(hypergraph_module, "mat_inv", counting)
    g = load_group("z4")
    H = build_hypergraph(g)
    rng = random.Random(3)
    maps = [random_member(rng, g) for _ in range(3)]
    maps += [random_nonmember(rng, g) for _ in range(3)]
    for F in maps:
        hypergraph_membership(H, F)
    # every edge is interpolated for every map, but inverted once
    assert len(calls) == len(H.edges)


@pytest.mark.parametrize("name, calls", [("g312", 39), ("z3", 1), ("z4", 2)])
def test_orbit_tables_transport_each_coroot_once(name, calls, monkeypatch):
    # the powers of a reflection share its co-root, so a fresh group acts
    # once per distinct (coset representative, hyperplane)
    g = load_group(name)
    g.reflections()
    seen = []
    original = type(g).act_linear

    def counting(self, i, form):
        seen.append(i)
        return original(self, i, form)

    monkeypatch.setattr(type(g), "act_linear", counting)
    build_hypergraph(g)
    distinct = {
        (orbit.rep, s.hyperplane) for s in g.reflections() for orbit in g.orbits(s)
    }
    assert len(seen) == len(distinct) == calls


def test_pairwise_membership_control(z3):
    H = build_hypergraph(z3)
    F = GroupMap(z3, [P("x1", z3), P("2*x1", z3), P("3*x1", z3)])
    assert pairwise_membership(H, F) == []
    assert not membership(F).ok
    G = GroupMap(z3, [P("1", z3), MultiPoly.zero(1, 3), MultiPoly.zero(1, 3)])
    assert pairwise_membership(H, G) != []


def test_json_export(s3, tmp_path):
    H = build_hypergraph(s3)
    blob = to_json_dict(H)
    assert blob["group"] == "s3"
    assert blob["vertices"] == list(range(6))
    assert len(blob["edges"]) == 9
    for e in blob["edges"]:
        assert set(e) == {"members", "axial", "reflection", "order", "tau"}
        assert len(e["tau"]) == e["order"] == len(e["members"])
    # stable and parseable
    text = to_json(H)
    assert json.loads(text) == json.loads(to_json(build_hypergraph(s3)))


def test_dot_export(z4):
    dot = to_dot(build_hypergraph(z4))
    assert dot.startswith('graph "z4" {')
    assert dot.rstrip().endswith("}")
    assert 'v0 [label="0"]' in dot
    # the long orbit contributes a clique on four vertices: six pair lines
    assert dot.count(" -- ") == 6 + 1 + 1
    assert 'label="x1"' in dot
