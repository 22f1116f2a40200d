"""Reflection hypergraphs, edge interpolation, integrals, controls."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re

import pytest

import reflect_gkm.groups as groups_module
import reflect_gkm.hypergraph as hypergraph_module
import reflect_gkm.sampling as sampling_module
import reflect_gkm.suite as suite_module
from reflect_gkm.cyclotomic import CycNum
from reflect_gkm.equivariant import GroupMap, MembershipFailure, membership, membership_basis
from reflect_gkm.groups import GroupInvariantViolated, load_group, parse_group_dict
from reflect_gkm.hypergraph import (
    EdgeSection,
    EdgeWitness,
    Hypergraph,
    build_hypergraph,
    edge_integral,
    edge_quotients,
    edge_witness,
    hypergraph_membership,
    integral_identity,
    pairwise_graded_dimension,
    pairwise_membership,
    to_dot,
    to_json,
    to_json_dict,
)
from reflect_gkm.linalg import mat_inv
from reflect_gkm.localization import TensorElement, localize
from reflect_gkm.polynomials import (
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    graded_monomials,
    parse_poly,
)
from reflect_gkm.sampling import random_member, random_nonmember, random_tensor
from reflect_gkm.suite import run_suite


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
    assert edge.form.as_poly() == P("x1", z3)
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
            val = divide_by_linear_power(top.poly, edge.form, top.power)
            assert val == MultiPoly.one(group.dimension, group.conductor)
            for k in range(edge.size - 1):
                sec = edge_integral(edge, one, k)
                value = divide_by_linear_power(sec.poly, edge.form, sec.power)
                assert value == MultiPoly.zero(group.dimension, group.conductor)


def test_integral_polynomiality_tracks_membership(z3):
    (edge,) = build_hypergraph(z3).edges
    good = localize(TensorElement.pure(z3, 1, P("x1^2", z3)))
    for k in range(edge.size):
        sec = edge_integral(edge, good, k)
        value = divide_by_linear_power(sec.poly, edge.form, sec.power)
        assert isinstance(value, MultiPoly)
    bad = GroupMap(z3, [P("x1", z3), P("x1", z3), MultiPoly.zero(1, 3)])
    assert not membership(bad).ok
    poles = []
    for k in range(edge.size):
        sec = edge_integral(edge, bad, k)
        value = divide_by_linear_power(sec.poly, edge.form, sec.power)
        poles.append(not isinstance(value, MultiPoly))
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
            assert isinstance(divide_by_linear_power(sec.poly, edge.form, sec.power), MultiPoly)
            assert integral_identity(edge, F, k)
    with pytest.raises(ValueError):
        edge_integral(build_hypergraph(z2).edges[0], GroupMap.constant(z2, 1), -1)


def test_integral_identity_refuses_a_negative_insertion(z2):
    edge = build_hypergraph(z2).edges[0]
    with pytest.raises(ValueError, match="insertion exponent must be nonnegative"):
        integral_identity(edge, GroupMap.constant(z2, 1), -1)


def _lagrange_product_integral(edge, F, k):
    # the Lagrange weights from the explicit products, independent of the
    # eigenvalue weights and of the certified inverse built from them
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
    # the one Lagrange oracle: edge_integral against the explicit products,
    # members and non-members, past k = size so that the eigenvalue weights
    # wrap round lambda^size = 1
    group = load_group(name)
    rng = random.Random(59)
    maps = (random_member(rng, group, max_degree=3), random_nonmember(rng, group))
    for edge in build_hypergraph(group).edges:
        for F in maps:
            for k in range(edge.size + 3):
                assert integral_identity(edge, F, k)
                sec = edge_integral(edge, F, k)
                assert sec.power == edge.size - 1 - k
                assert sec.poly == _lagrange_product_integral(edge, F, k)


def test_integral_dual_routes_agree(z3, z4, s3, b2):
    # the two routes to an edge integral, eigenvalue weights (edge_integral)
    # and explicit Lagrange products, agree on higher-degree members
    rng = random.Random(37)
    for group in (z3, z4, s3, b2):
        H = build_hypergraph(group)
        for _ in range(3):
            F = random_member(rng, group, max_degree=4)
            for edge in H.edges:
                for k in range(edge.size):
                    assert integral_identity(edge, F, k)
                    sec = edge_integral(edge, F, k)
                    assert sec.power == edge.size - 1 - k
                    assert sec.poly == _lagrange_product_integral(edge, F, k)


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
                sections = [edge_integral(edge, F, k) for k in range(edge.size - 1)]
                flags = all(
                    isinstance(divide_by_linear_power(sec.poly, edge.form, sec.power), MultiPoly)
                    for sec in sections
                )
                assert solved == flags


def test_pairwise_is_weaker_exactly_on_high_order(z3, z2, s3, b2):
    # degree one over the order-three cyclic group: every pairwise
    # difference of linear maps is divisible by the edge's line, so the
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


def count_certificates(monkeypatch):
    """Record the shared scalar table of every Vandermonde inverse certified."""
    calls = []
    original = groups_module._certified_inverse

    def counting(orbit):
        calls.append(id(orbit.scalars))
        return original(orbit)

    monkeypatch.setattr(groups_module, "_certified_inverse", counting)
    return calls


def test_vandermonde_inverse_once_per_edge(monkeypatch):
    g = load_group("z4")
    calls = count_certificates(monkeypatch)
    H = build_hypergraph(g)
    rng = random.Random(3)
    maps = [random_member(rng, g) for _ in range(3)]
    maps += [random_nonmember(rng, g) for _ in range(3)]
    for F in maps:
        hypergraph_membership(H, F)
    # every edge is interpolated for every map, but certified once per tau
    assert sorted(calls) == sorted({id(edge.scalars) for edge in H.edges})
    assert len(calls) == len(H.edges)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3", "b2", "g312"])
def test_edges_are_the_groups_orbit_records(name):
    g = load_group(name)
    edges = build_hypergraph(g).edges
    for edge in edges:
        assert any(edge is orbit for orbit in g.orbits(edge.reflection))
        # the scalars are a function of tau, kept once per distinct tau
        assert all((edge.scalars is e.scalars) == (edge.tau == e.tau) for e in edges)


def test_rebuilt_hypergraph_inverts_nothing_again(monkeypatch):
    g = load_group("g312")
    calls = count_certificates(monkeypatch)
    rng = random.Random(7)
    maps = (random_member(rng, g), random_nonmember(rng, g))
    for F in maps:
        hypergraph_membership(build_hypergraph(g), F)
    first = len(calls)
    # edges with equal tau share their scalars, the certified inverse included
    assert first == len({id(edge.scalars) for edge in build_hypergraph(g).edges})
    # the orbit records, and the inverses kept on them, belong to the group
    for F in maps:
        hypergraph_membership(build_hypergraph(g), F)
    assert len(calls) == first


def count_orbit_sums(monkeypatch):
    """Record every coset sum the hypergraph module forms."""
    calls = []
    original = hypergraph_module._orbit_sum

    def counting(orbit, i, values, below=None):
        calls.append((orbit.members, i))
        return original(orbit, i, values, below)

    monkeypatch.setattr(hypergraph_module, "_orbit_sum", counting)
    return calls


@pytest.mark.parametrize("name", ["z4", "g312"])
def test_integral_weights_once_per_tau_and_insertion(name, monkeypatch):
    g = load_group(name)
    built = []
    original = groups_module.Orbit._kept

    def counting(orbit, key, build):
        if key not in orbit.scalars:
            built.append((id(orbit.scalars), key))
        return original(orbit, key, build)

    monkeypatch.setattr(groups_module.Orbit, "_kept", counting)
    H = build_hypergraph(g)
    rng = random.Random(11)
    maps = [random_member(rng, g), random_nonmember(rng, g), random_member(rng, g)]
    # any values at all, members or not
    x = g.variables[-1]
    maps.append(GroupMap(g, [P(f"{x}^2 - 3*{x} + 1/5", g)] * (g.order - 1) + [P(x, g)]))
    maps.append(GroupMap.constant(g, 0))
    summed = count_orbit_sums(monkeypatch)
    for F in maps:
        for edge in H.edges:
            for k in range(edge.size):
                assert integral_identity(edge, F, k)
    # the certificate builds each row from the pieces the edge sums read:
    # scale^-i once per (tau, i), and the certified inverse once per tau;
    # edges with equal tau share both
    wanted = {(id(edge.scalars), ("scale", i)) for edge in H.edges for i in range(edge.size)}
    wanted |= {(id(edge.scalars), "vandermonde") for edge in H.edges}
    assert sorted(built, key=repr) == sorted(wanted, key=repr)
    # it proves the edge integral is the Lagrange sum for every map, so no
    # sum on a map is formed
    assert summed == []


def unscaled_eigenvalue_weights(monkeypatch, edges):
    """Fault: the scale powers, which the certified rows and the edge sums
    share, times size, so the rows of D lose their 1/size and are size
    times the Vandermonde inverse on every edge."""
    original = groups_module.Orbit.inverse_scale_power

    def unscaled(orbit, i):
        return original(orbit, i) * orbit.size

    monkeypatch.setattr(groups_module.Orbit, "inverse_scale_power", unscaled)
    return edges[0]


def wrong_tau_on_one_edge(monkeypatch, edges):
    """Fault: the last edge's last tau doubled, in a scalar table of its own;
    the suite builds the hypergraph with that edge in its place."""
    bad = dataclasses.replace(
        edges[-1], tau=edges[-1].tau[:-1] + (edges[-1].tau[-1] * 2,), scalars={}
    )
    monkeypatch.setattr(
        suite_module, "build_hypergraph", lambda group: Hypergraph(group, edges[:-1] + (bad,))
    )
    return bad


@pytest.mark.parametrize("fault", [unscaled_eigenvalue_weights, wrong_tau_on_one_edge])
@pytest.mark.parametrize("name", ["z3", "z4", "s3", "g312"])
def test_faulty_edge_is_refused_by_name(name, fault, monkeypatch):
    g = load_group(name)
    rng = random.Random(f"refusal:{name}")
    member, nonmember = random_member(rng, g), random_nonmember(rng, g)
    # the fault-free control: edge divisions agree with the suite's verdict
    H = build_hypergraph(g)
    assert hypergraph_membership(H, member) == []
    assert hypergraph_membership(H, nonmember) != []
    assert run_suite(name, trials=2, sections=("hypergraph",)).ok
    # a fresh group: the first one keeps the certificates the control made
    g = load_group(name)
    bad = fault(monkeypatch, build_hypergraph(g).edges)
    named = rf"edge {re.escape(str(list(bad.members)))} of reflection {bad.reflection.element}:"
    for F in (member, nonmember):
        with pytest.raises(GroupInvariantViolated, match=named):
            edge_quotients(bad, F)
        with pytest.raises(GroupInvariantViolated, match=named):
            edge_witness(bad, F)
        with pytest.raises(GroupInvariantViolated, match=named):
            integral_identity(bad, F, 0)
        with pytest.raises(GroupInvariantViolated, match=named):
            edge_integral(bad, F, bad.size - 1)
        with pytest.raises(GroupInvariantViolated, match=named):
            hypergraph_membership(Hypergraph(g, (bad,)), F)
    # the suite certifies every edge before it reads any verdict, and the
    # first edge to fail is the bad one
    with pytest.raises(GroupInvariantViolated, match=named):
        run_suite(g, trials=2, sections=("hypergraph",))


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3", "b2", "g312"])
def test_vandermonde_rows_are_the_eigenvalue_weights(name):
    g = load_group(name)
    for edge in build_hypergraph(g).edges:
        # the elimination is the oracle for the certified inverse
        V = [[t**i for i in range(edge.size)] for t in edge.tau]
        rows = mat_inv(V, g.conductor)
        # row i is scale^-i lambda^-ij / size for every order, 0 included,
        # from the two pieces the edge sums read
        for i in range(edge.size):
            assert edge.vandermonde_inverse[i] == rows[i]
            base = edge.inverse_scale_power(i) / edge.size
            assert rows[i] == tuple(base * w for w in edge.reflection.weights(i))


@pytest.mark.parametrize("name", ["z4", "g312"])
def test_rows_compared_once_per_tau(name, monkeypatch):
    g = load_group(name)
    seen = count_certificates(monkeypatch)
    for trials in (2, 3):
        run_suite(g, trials=trials, sections=("hypergraph",))
    H = build_hypergraph(g)
    assert sorted(seen) == sorted({id(edge.scalars) for edge in H.edges})


def test_suite_reads_each_edge_identity_once_per_run(monkeypatch):
    # the identity never reads the map, so the section reads it once per
    # (edge, insertion), whatever the trial count, and counts its verdict
    # once per edge for each sampled map
    calls = []
    original = suite_module.integral_identity

    def counting(edge, F, k):
        calls.append((edge, k))
        return original(edge, F, k)

    monkeypatch.setattr(suite_module, "integral_identity", counting)
    reads = 0
    for name in BUNDLED:
        edges = build_hypergraph(load_group(name)).edges
        reads += sum(edge.size for edge in edges)
        for trials in (1, 3):
            calls.clear()
            result = run_suite(name, trials=trials, sections=("hypergraph",)).hypergraph
            assert len(calls) == sum(edge.size for edge in edges), (name, trials)
            assert result.ok and result.trials == trials * (2 * (1 + len(edges)) + 1)
    assert reads == 153


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


BUNDLED = ["z2", "z3", "z4", "s3", "b2", "g312"]


def perturbation_by_full_check(rng, group, max_degree=4):
    """The sampler as it was first written: localize every attempt's
    tensor and decide membership on the perturbed map itself."""
    n, m = group.dimension, group.conductor
    while True:
        F = random_member(rng, group, max_degree=max_degree)
        x = rng.randrange(group.order)
        pool = graded_monomials(n, rng.randint(0, max_degree))
        exps = pool[rng.randrange(len(pool))]
        values = list(F.values)
        values[x] = values[x] + MultiPoly(n, m, {exps: 1})
        G = GroupMap(group, values)
        if not membership(G).ok:
            return G


@pytest.mark.parametrize("name", BUNDLED)
def test_random_nonmember_localizes_only_what_it_returns(name, monkeypatch):
    g = load_group(name)
    reference = random.Random(f"nonmember:{name}")
    expected = [perturbation_by_full_check(reference, g) for _ in range(3)]
    localized, verdicts = [], []
    core, verdict = sampling_module._localized_numerators, sampling_module.membership

    def counting_core(*args):
        localized.append(args)
        return core(*args)

    def recording_membership(delta):
        verdicts.append((delta, verdict(delta).ok))
        return verdict(delta)

    monkeypatch.setattr(sampling_module, "_localized_numerators", counting_core)
    monkeypatch.setattr(sampling_module, "membership", recording_membership)
    rng = random.Random(f"nonmember:{name}")
    for k, want in enumerate(expected, start=1):
        # the same draws, so the same map as localizing every attempt
        assert random_nonmember(rng, g) == want
        assert len(localized) == k
    assert rng.random() == reference.random()
    monkeypatch.undo()
    # on every attempt, the verdict on the perturbation alone is the
    # verdict on the perturbed member; the attempts' tensors and monomials
    # are replayed from the seed in random_nonmember's draw order
    replay = random.Random(f"nonmember:{name}")
    assert len(verdicts) >= 3
    for delta, ok in verdicts:
        T = random_tensor(replay, g, max_degree=4)
        x = replay.randrange(g.order)
        pool = graded_monomials(g.dimension, replay.randint(0, 4))
        e = pool[replay.randrange(len(pool))]
        assert sum(map(bool, delta.values)) == 1
        assert delta.values[x] == MultiPoly(g.dimension, g.conductor, {e: 1})
        assert ok == membership(localize(T) + delta).ok


@pytest.mark.parametrize("name", BUNDLED)
def test_edge_witness_agrees_with_edge_quotients(name, monkeypatch):
    g = load_group(name)
    H = build_hypergraph(g)
    rng = random.Random(f"edge-witness:{name}")
    maps = [random_member(rng, g) for _ in range(3)]
    maps += [random_nonmember(rng, g) for _ in range(3)]
    powers = []
    original = hypergraph_module._coset_failure

    def recording(orbit, i, values, den):
        powers.append(i)
        return original(orbit, i, values, den)

    failed = 0
    for F in maps:
        for edge in H.edges:
            full = edge_quotients(edge, F)
            monkeypatch.setattr(hypergraph_module, "_coset_failure", recording)
            short = edge_witness(edge, F)
            monkeypatch.undo()
            if isinstance(full, EdgeWitness):
                failed += 1
                assert short.edge is edge
                assert (short.power, short.witness.valuation) == (
                    full.power,
                    full.witness.valuation,
                )
                assert short.witness.witness == full.witness.witness
            else:
                assert short is None
    assert failed > 0
    # form^0 divides everything, so the verdict never decides order 0
    assert powers and 0 not in powers


# ---------------------------------------------------------------------------
# the edge routines against a CycNum reference on the values

G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}


def _reference_sum(edge, F, i):
    """h_i = scale^-i / size * sum_j lambda^-ij F(rep s^j), summed in CycNum
    on the values, with scale and lambda read off tau."""
    tau, r = edge.tau, edge.size
    lam = tau[1] / tau[0]
    total = MultiPoly.zero(F.group.dimension, F.group.conductor)
    for j, x in enumerate(edge.members):
        total = total + F.values[x] * (tau[0] ** (-i) * lam ** (-i * j) / r)
    return total


def _reference_quotients(edge, F, orders):
    out = []
    for i in orders:
        res = divide_by_linear_power(_reference_sum(edge, F, i), edge.form, i)
        if isinstance(res, NotDivisible):
            return EdgeWitness(edge, i, res)
        out.append(res)
    return out


def _reference_pairwise(H, F):
    out = []
    for edge in H.edges:
        for a, b in itertools.combinations(edge.members, 2):
            res = divide_by_linear_power(F.values[a] - F.values[b], edge.form, 1)
            if isinstance(res, NotDivisible):
                out.append(EdgeWitness(edge, 1, res))
                break
    return out


def _reference_failures(F):
    """Every failing (coset, reflection, power), each S_i summed in CycNum
    and divided by the Horner route."""
    g = F.group
    out = []
    for s in g.reflections():
        for i in range(1, s.order):
            for orbit in g.orbits(s):
                total = MultiPoly.zero(g.dimension, g.conductor)
                for j, x in enumerate(orbit.members):
                    total = total + F.values[x] * s.eigenvalue ** (-i * j)
                res = divide_by_linear_power(total, orbit.form, i)
                if isinstance(res, NotDivisible):
                    out.append(MembershipFailure(orbit.rep, s, i, res))
    return out


def _route_maps(g, rng):
    """Seeded members and non-members, which hold numerators only, and
    maps made from values: a non-member's values, and rational values
    that fail at every order."""
    x = g.variables[-1]
    made = [P(f"{x}^2 - 3*{x} + 1/5", g)] * (g.order - 1) + [P(f"{x}^3 + {x}", g)]
    maps = [random_member(rng, g), random_member(rng, g, max_degree=5)]
    maps += [random_nonmember(rng, g), random_nonmember(rng, g)]
    return maps + [GroupMap(g, maps[-1].values), GroupMap(g, made)]


def _reference_witness(edge, F):
    got = _reference_quotients(edge, F, range(1, edge.size))
    return got if isinstance(got, EdgeWitness) else None


@pytest.mark.parametrize("name", BUNDLED + ["g412"])
def test_edge_routines_equal_the_cycnum_reference(name):
    g = parse_group_dict(G412) if name == "g412" else load_group(name)
    H = build_hypergraph(g)
    forms = {(o.rep, s.element): o.form for s in g.reflections() for o in g.orbits(s)}
    rng = random.Random(f"edge-route:{name}")
    failing, restricted = 0, 0
    for F in _route_maps(g, rng):
        got = (
            [edge_integral(edge, F, k) for edge in H.edges for k in range(edge.size + 2)],
            [edge_quotients(edge, F) for edge in H.edges],
            [edge_witness(edge, F) for edge in H.edges],
            hypergraph_membership(H, F),
            pairwise_membership(H, F),
            membership(F).failures,
        )
        witnesses = [_reference_witness(edge, F) for edge in H.edges]
        want = (
            [
                EdgeSection(_reference_sum(edge, F, edge.size - 1 - k), edge.size - 1 - k)
                for edge in H.edges
                for k in range(edge.size + 2)
            ],
            [_reference_quotients(edge, F, range(edge.size)) for edge in H.edges],
            witnesses,
            [w for w in witnesses if w],
            _reference_pairwise(H, F),
            _reference_failures(F),
        )
        assert got == want
        failing += len(got[5])
        restricted += sum(
            f.power == 1 and bool(forms[f.element, f.reflection.element].integral_root[1])
            for f in got[5]
        )
    assert failing > 0
    # the power-1 witness read off the restriction to the hyperplane is
    # reached wherever the group has a form that is not a coordinate
    assert (restricted > 0) == any(form.integral_root[1] for form in forms.values())


@pytest.mark.parametrize("name", BUNDLED + ["g412"])
def test_localized_maps_pass_the_edge_routines_without_values(name):
    g = parse_group_dict(G412) if name == "g412" else load_group(name)
    H = build_hypergraph(g)
    rng = random.Random(f"edge-numerators:{name}")
    for F in (random_member(rng, g), random_nonmember(rng, g)):
        assert F._values is None
        for edge in H.edges:
            for k in range(edge.size + 2):
                edge_integral(edge, F, k)
            edge_quotients(edge, F)
            edge_witness(edge, F)
        hypergraph_membership(H, F)
        pairwise_membership(H, F)
        membership(F).failures
        assert F._values is None
