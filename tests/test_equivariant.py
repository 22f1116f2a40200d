"""Group-indexed maps, weighted difference operators, membership."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

import pytest

import reflect_gkm.equivariant as equivariant_module
import reflect_gkm.polynomials as polynomials_module
from reflect_gkm.cyclotomic import ConductorMismatch, CycNum, parse_cyc, root_of_unity
from reflect_gkm.equivariant import (
    GroupMap,
    MapFileError,
    MembershipCertificate,
    MembershipRuleViolated,
    NotAMember,
    condition_entries,
    coroot_map,
    divided_difference,
    divisibility_conditions,
    dump_group_map,
    lift_membership,
    load_group_map,
    membership,
    membership_basis,
    orbit_decomposition,
    orbit_difference,
    scatter_conditions,
)
from reflect_gkm.groups import (
    GroupInvariantViolated,
    Orbit,
    PseudoReflection,
    ReflectionGroup,
    bundled_names,
    load_group,
    parse_group_dict,
)
from reflect_gkm.invariants import coinvariant_basis
from reflect_gkm.linalg import rref
from reflect_gkm.polynomials import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    graded_monomials,
    integral_numerators,
    parse_poly,
    poly_text,
    weighted_sum,
)
from reflect_gkm.sampling import random_member, random_nonmember, random_poly


def P(text, group):
    return parse_poly(text, group.dimension, group.conductor, names=group.variables)


def gmap(group, *texts):
    return GroupMap(group, [P(t, group) for t in texts])


def orbit_difference_oracle(group, s, i, F):
    """Recompute the operator independently at every single element, with no
    coset sharing: value(x) = x(coroot)^-i . sum_j weight^j F(x s^j)."""
    w = s.eigenvalue ** (-i)
    powers = group.cyclic_powers(s.element)
    values = []
    for x in range(group.order):
        acc = MultiPoly.zero(group.dimension, group.conductor)
        weight = CycNum.one(group.conductor)
        for j, p in enumerate(powers):
            acc = acc + F.values[group.mul(x, p)] * weight
            weight = weight * w
        c, form = group.act_linear(x, s.coroot)
        if i > 0:
            res = divide_by_linear_power(acc, form, i)
            if isinstance(res, NotDivisible):
                return None
            values.append(res * c ** (-i))
        else:
            values.append(acc * form.as_poly() ** (-i) * c ** (-i))
    return GroupMap(group, values)


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def z3():
    return load_group("z3")


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


@pytest.fixture(scope="module")
def b2():
    return load_group("b2")


def test_group_map_ring_and_action(s3):
    F = gmap(s3, "x1", "x2", "0", "x1*x2", "1", "x1 + x2")
    G = F + F
    assert G.values[0] == P("2*x1", s3)
    assert (F - F) == GroupMap.zero(s3)
    assert (F * 2).values[3] == P("2*x1*x2", s3)
    assert (F * F).values[5] == P("x1^2 + 2*x1*x2 + x2^2", s3)
    # right action composes contravariantly through inverses:
    for w in range(s3.order):
        for v in range(s3.order):
            assert F.act(w).act(v) == F.act(s3.mul(w, v))
    # acting by w permutes values and substitutes inside them
    w = 1
    acted = F.act(w)
    wi = s3.inv(w)
    for x in range(s3.order):
        assert acted.values[x] == F.values[s3.mul(x, wi)]


def test_group_map_powers_are_nonnegative_integers(z2):
    F = gmap(z2, "x1", "-x1")
    assert F**0 == GroupMap.constant(z2, 1)
    assert F**3 == F * F * F
    for bad in (-1, -2, 2.0, "2"):
        with pytest.raises(ValueError):
            F**bad


def homogeneous(F, d):
    """Is every nonzero value of F homogeneous of degree d?"""
    return all(v.is_homogeneous() and v.degree() == d for v in F.values if v)


def test_group_map_degree(z2):
    F = gmap(z2, "x1^3", "x1")
    assert F.degree() == 3
    assert not homogeneous(F, 3)
    assert homogeneous(gmap(z2, "x1^2", "2*x1^2"), 2)
    assert GroupMap.zero(z2).degree() is None


def test_divided_difference_order_two(z2):
    s = z2.reflections()[0]
    assert divided_difference(z2, s, 1, P("x1^3", z2)) == P("2*x1^2", z2)
    assert divided_difference(z2, s, 1, P("x1^2", z2)) == MultiPoly.zero(1, 2)
    # beyond the guaranteed range the failure is returned, not raised:
    # at i=2 the weights cancel the sum to zero, at i=3 they leave 2*x1
    assert divided_difference(z2, s, 2, P("x1", z2)) == MultiPoly.zero(1, 2)
    res = divided_difference(z2, s, 3, P("x1", z2))
    assert isinstance(res, NotDivisible)
    assert res.valuation == 1


def test_divided_difference_order_three(z3):
    s = z3.reflections()[0]
    assert divided_difference(z3, s, 2, P("x1^2", z3)) == P("3", z3)
    assert divided_difference(z3, s, 1, P("x1", z3)) == P("3", z3)
    assert divided_difference(z3, s, 1, P("x1^2", z3)) == MultiPoly.zero(1, 3)
    # nonpositive order multiplies by the co-root instead; on x1^2 the
    # weights cancel the eigenvalues exactly and the orbit sum survives
    assert divided_difference(z3, s, -1, P("x1^2", z3)) == P("3*x1^3", z3)


def test_inexact_guaranteed_division_is_a_library_bug(z3, monkeypatch):
    s = z3.reflections()[0]
    x1 = P("x1", z3)
    monkeypatch.setattr(
        equivariant_module,
        "divide_numerators",
        lambda terms, den, form, power: NotDivisible(0, x1),
    )
    with pytest.raises(GroupInvariantViolated):
        divided_difference(z3, s, 1, x1)
    # beyond the guaranteed range NotDivisible is still data
    assert isinstance(divided_difference(z3, s, 3, x1), NotDivisible)


def test_orbit_difference_basic(z2):
    s = z2.reflections()[0]
    F = gmap(z2, "x1", "0")
    out = orbit_difference(z2, s, 1, F)
    assert out == gmap(z2, "1", "1")
    # order zero is the plain weighted orbit sum
    assert orbit_difference(z2, s, 0, F) == gmap(z2, "x1", "x1")


def test_orbit_difference_failure_certificate(z2):
    s = z2.reflections()[0]
    F = gmap(z2, "1", "0")
    out = orbit_difference(z2, s, 1, F)
    assert isinstance(out, MembershipCertificate)
    assert not out.ok
    fail = out.failures[0]
    assert fail.element == 0 and fail.power == 1
    assert fail.witness.valuation == 0
    assert fail.witness.witness == P("1", z2)


def assert_matches_oracle(group, F, orders):
    """orbit_difference(s, i, F) against the per-element oracle for every
    reflection s and every i in orders(s); returns whether every division
    was exact."""
    exact = True
    for s in group.reflections():
        for i in orders(s):
            mine = orbit_difference(group, s, i, F)
            oracle = orbit_difference_oracle(group, s, i, F)
            if oracle is None:
                assert isinstance(mine, MembershipCertificate) and not mine.ok
                exact = False
            else:
                assert mine == oracle, (group.name, s.element, i)
    return exact


def mixed_denominator_map(rng, group):
    """Random values over denominators up to 35, every third one zero."""
    n, m = group.dimension, group.conductor
    zero = MultiPoly.zero(n, m)
    return GroupMap(group, [
        random_poly(rng, n, m, max_degree=3) / rng.choice([5, 7, 35]) if x % 3 else zero
        for x in range(group.order)
    ])


def test_orbit_difference_matches_per_element_oracle(s3, b2, z3):
    z4, g312 = load_group("z4"), load_group("g312")
    rng = random.Random("oracle")
    cases = [
        (s3, gmap(s3, "x1^2", "x2^2", "x1*x2", "0", "x1^2 + x2", "x1 - x2")),
        (b2, gmap(b2, "x1", "x2", "x1 + x2", "0", "x1^2", "x2^2", "x1*x2", "1")),
        (z3, gmap(z3, "x1^2", "z*x1^2", "x1")),
        (z4, gmap(z4, "1/2*x1^2", "0", "1/3*z*x1^3", "x1 + 1/5")),
        (z4, random_member(rng, z4, max_degree=4) / 3),
        (g312, random_member(rng, g312, max_degree=3)),
    ]
    groups = (s3, b2, z4, g312)
    mixed = [mixed_denominator_map(rng, g) for g in groups]
    # they really mix denominators, and fail somewhere
    assert all(len(value_denominators(F)) > 1 and not membership(F).ok for F in mixed)
    for group, F in cases + list(zip(groups, mixed)):
        assert assert_matches_oracle(group, F, lambda s: range(-1, s.order)) == membership(F).ok


def test_orbit_difference_converts_once_and_sums_on_numerators(monkeypatch):
    # at most one integral_numerators call per map: none for a localized
    # map, which holds its numerators, and for a map built from values one
    # on the first operator call and none after it, the verdict and the
    # failure list included; the sums are formed by _orbit_sum on integer
    # numerators, never by weighted_sum on CycNums
    g = load_group("g312")
    localized = random_member(random.Random(3), g)
    from_values = GroupMap(g, random_member(random.Random(3), g).values)
    calls = {"integral_numerators": 0, "weighted_sum": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # every binding of each name: equivariant's own imports and the
    # polynomials module's, which divide_by_linear_power calls
    for module in (equivariant_module, polynomials_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for F, first in ((localized, 0), (from_values, 1)):
        for k, s in enumerate(g.reflections()):
            calls.update(integral_numerators=0, weighted_sum=0)
            assert isinstance(orbit_difference(g, s, s.order - 1, F), GroupMap)
            assert calls == {"integral_numerators": first if k == 0 else 0, "weighted_sum": 0}
        assert membership(F).ok and equivariant_module._all_failures(F) == []
        assert calls == {"integral_numerators": 0, "weighted_sum": 0}


@pytest.mark.parametrize("name", ["z4", "b2", "g312"])
def test_numerator_backed_maps_act_and_differ_as_value_backed_ones(name):
    # act permutes whichever form a map holds, and the operators, the
    # verdict and the failure list read the same numerators either way
    g = load_group(name)
    rng = random.Random(f"backed:{name}")
    maps = [random_member(rng, g, max_degree=4), random_nonmember(rng, g)]
    for F in maps:
        numerators, den = F.numerators()
        backed = GroupMap._from_numerators(g, numerators, den)
        valued = GroupMap(g, F.values)
        for w in range(g.order):
            moved = backed.act(w)
            assert moved._values is None
            assert moved == valued.act(w)
            wi = g.inv(w)
            permuted = tuple(numerators[g.mul(x, wi)] for x in range(g.order))
            assert moved.numerators() == (permuted, den)
        for s in g.reflections():
            for i in range(-1, s.order + 1):
                mine, theirs = orbit_difference(g, s, i, backed), orbit_difference(g, s, i, valued)
                if isinstance(theirs, GroupMap):
                    assert mine == theirs
                else:
                    assert mine.failures == theirs.failures != []
        assert membership(backed).ok == membership(valued).ok
        assert equivariant_module._all_failures(backed) == equivariant_module._all_failures(valued)
    assert membership(maps[0]).ok and not membership(maps[1]).ok


def test_numerator_backed_maps_check_their_shape(z2):
    one = {(0,): [1]}
    with pytest.raises(ValueError, match="one value per group element required"):
        GroupMap._from_numerators(z2, [one], 1)
    with pytest.raises(ValueError, match="one value per group element required"):
        GroupMap._from_numerators(z2, [one] * 3, 1)
    with pytest.raises(ValueError, match="a common denominator must be positive"):
        GroupMap._from_numerators(z2, [one, {}], 0)
    F = GroupMap._from_numerators(z2, [one, {}], 2)
    assert F and not GroupMap._from_numerators(z2, [{}, {}], 2)
    assert F._values is None
    assert F == gmap(z2, "1/2", "0")


@pytest.mark.parametrize("name", ["b2", "g312"])
def test_divided_difference_matches_the_cyclotomic_formula(name):
    # ell_s^-i sum_j lambda^{-ij} s^j(f), the sum formed in CycNums
    g = load_group(name)
    n, m = g.dimension, g.conductor
    rng = random.Random(f"divided:{name}")
    polys = [random_poly(rng, n, m, max_degree=4) / rng.choice([1, 5, 7]) for _ in range(4)]
    for s in g.reflections():
        form = s.coroot.as_poly()
        for f in polys:
            for i in range(-1, s.order + 1):
                w = s.eigenvalue ** (-i)
                acc = MultiPoly.zero(n, m)
                for j, p in enumerate(g.cyclic_powers(s.element)):
                    acc = acc + g.act(p, f) * w**j
                mine = divided_difference(g, s, i, f)
                if i <= 0:
                    assert mine == acc * form ** (-i)
                elif isinstance(mine, NotDivisible):
                    assert i == s.order
                    assert mine == divide_by_linear_power(acc, s.coroot, i)
                else:
                    assert mine * form**i == acc


def test_coroot_map(z2, z3):
    s = z2.reflections()[0]
    L = coroot_map(z2, s)
    assert L == gmap(z2, "x1", "-x1")
    t = z3.reflections()[0]
    zeta = root_of_unity(3, 1)
    Lz = coroot_map(z3, t)
    assert Lz.values[0] == P("x1", z3)
    # transported through w = zeta.id the co-root picks up the eigenvalue
    assert Lz.values[1] == P("x1", z3) * zeta ** 2


def test_membership_and_certificates(z2):
    assert membership(gmap(z2, "x1", "-x1")).ok
    assert membership(gmap(z2, "x1", "x1 + 2*x1^2")).ok
    cert = membership(gmap(z2, "1", "0"))
    assert not cert.ok
    assert cert.failures[0].reflection.element == 1


def test_orbit_decomposition_reassembles(z2):
    s = z2.reflections()[0]
    F = gmap(z2, "x1", "0")
    parts = orbit_decomposition(z2, F, s)
    assert parts[0] == gmap(z2, "x1", "x1")
    assert parts[1] == gmap(z2, "1", "1")
    L = coroot_map(z2, s)
    rebuilt = GroupMap.zero(z2)
    for j, part in enumerate(parts):
        rebuilt = rebuilt + part * L ** j
    assert rebuilt / s.order == F

    with pytest.raises(NotAMember) as err:
        orbit_decomposition(z2, gmap(z2, "1", "0"), s)
    assert not err.value.certificate.ok


def test_orbit_decomposition_reassembles_rank_two(s3):
    s = s3.reflections()[0]
    F = gmap(s3, "x1^2", "x2^2", "x1*x2", "x1*x2", "x2^2", "x1^2")
    cert = membership(F)
    if not cert.ok:
        # keep the test honest: fall back to a known member
        F = coroot_map(s3, s) * coroot_map(s3, s)
    parts = orbit_decomposition(s3, F, s)
    L = coroot_map(s3, s)
    rebuilt = GroupMap.zero(s3)
    for j, part in enumerate(parts):
        rebuilt = rebuilt + part * L ** j
    assert rebuilt / s.order == F


def test_membership_basis_dimensions(z2, z3):
    assert [len(membership_basis(z2, d)) for d in range(5)] == [1, 2, 2, 2, 2]
    assert [len(membership_basis(z3, d)) for d in range(4)] == [1, 2, 3, 3]


def test_membership_basis_members(z2, z3, s3):
    for group, dmax in ((z2, 4), (z3, 3), (s3, 3)):
        for d in range(dmax + 1):
            for F in membership_basis(group, d):
                assert homogeneous(F, d)
                assert membership(F).ok, (group.name, d)


def test_membership_basis_spans_known_members(z2):
    # x -> x(coroot) is a member of degree 1; it must lie in the span
    s = z2.reflections()[0]
    L = coroot_map(z2, s)
    basis = membership_basis(z2, 1)
    # with dim 2 over a 2-element group, degree-1 members are everything
    assert len(basis) == 2
    assert membership(L).ok


def test_map_json_round_trip(s3, tmp_path):
    F = gmap(s3, "x1^2 - x2", "0", "x1*x2", "1/3*x2", "x1", "0")
    blob = dump_group_map(F)
    assert blob["group"] == "s3"
    assert set(blob["values"]) == {str(k) for k in range(6)}
    back = load_group_map(blob, s3)
    assert back == F

    path = tmp_path / "map.json"
    path.write_text(json.dumps({"group": "s3", "values": {"2": "x1*x2"}}))
    sparse = load_group_map(path, s3)
    assert sparse.values[2] == P("x1*x2", s3)
    assert sparse.values[0] == MultiPoly.zero(2, 1)


def test_map_round_trip_with_non_ascii_names(tmp_path):
    greek = parse_group_dict(
        {
            "name": "s3-greek",
            "dimension": 2,
            "conductor": 1,
            "variables": ["α", "β"],
            "generators": [["-1", "1", "0", "1"], ["1", "0", "1", "-1"]],
        }
    )
    F = gmap(greek, "α^2 - β", "0", "α*β", "1/3*β", "α", "(2)*β^3")
    blob = dump_group_map(F)
    assert blob["values"]["0"] == "α^2 - β"
    assert load_group_map(blob, greek) == F
    path = tmp_path / "map.json"
    path.write_bytes(json.dumps(blob, ensure_ascii=False).encode("utf-8"))
    assert load_group_map(path, greek) == F


def test_map_json_errors(s3, z2, tmp_path):
    with pytest.raises(MapFileError):
        load_group_map({"values": {"9": "x1"}}, s3)
    with pytest.raises(MapFileError):
        load_group_map({"values": {"a": "x1"}}, s3)
    with pytest.raises(MapFileError):
        load_group_map({"group": "z2", "values": {}}, s3)
    with pytest.raises(MapFileError):
        load_group_map({"values": {"0": "x9 +"}}, s3)
    with pytest.raises(MapFileError):
        load_group_map({"values": "x1"}, s3)
    with pytest.raises(MapFileError):
        load_group_map(tmp_path / "missing.json", z2)


@pytest.mark.parametrize("key", ["00", "01", "1_0", " 1", "+1", "-0", "1.0", "\u0661"])
def test_map_indices_are_canonical_decimals(z2, key):
    # "00" once overwrote "0", and "1_0" read as element 10
    with pytest.raises(MapFileError, match="bad element index"):
        load_group_map({"values": {"0": "x1", key: "0"}}, z2)
    assert load_group_map({"values": {"0": "x1", "1": "-x1"}}, z2).values[1] == -P("x1", z2)


def test_conjugation_twist_instance(s3):
    # moving a reflection across w twists the operator by the scale the
    # co-root picks up: op(s, i, F.act(w)) == op(wsw^-1, i, F).act(w) * c^-i
    s = s3.reflections()[0]
    F = coroot_map(s3, s) * coroot_map(s3, s)
    assert membership(F).ok
    for w in range(s3.order):
        c, conj = s3.conjugate_reflection(s, w)
        for i in range(1, s.order):
            lhs = orbit_difference(s3, s, i, F.act(w))
            rhs = orbit_difference(s3, conj, i, F)
            assert isinstance(lhs, GroupMap) and isinstance(rhs, GroupMap)
            assert lhs == rhs.act(w) * c ** (-i)


def test_coroot_map_equals_per_element_action():
    for name in bundled_names():
        g = load_group(name)
        for s in g.reflections():
            expected = []
            for x in range(g.order):
                c, form = g.act_linear(x, s.coroot)
                expected.append(form.as_poly() * c)
            assert coroot_map(g, s) == GroupMap(g, expected), (name, s.element)


def test_orbit_consumers_read_the_table(monkeypatch):
    g = load_group("g312")
    rng = random.Random(5)
    member, nonmember = random_member(rng, g), random_nonmember(rng, g)
    for s in g.reflections():
        g.orbits(s)
    calls = []
    original = ReflectionGroup.act_linear

    def counting(self, i, form):
        calls.append(i)
        return original(self, i, form)

    monkeypatch.setattr(ReflectionGroup, "act_linear", counting)
    assert membership(member).ok
    assert not membership(nonmember).ok
    assert divisibility_conditions(g, 3)
    for s in g.reflections():
        coroot_map(g, s)
    assert calls == []


# ---------------------------------------------------------------------------
# the verdict from one generator per hyperplane


def all_reflections_verdict(group, F):
    """Membership by the definition: every pseudo-reflection, every order,
    every element, with no coset sharing and no generator rule."""
    return all(
        orbit_difference_oracle(group, s, i, F) is not None
        for s in group.reflections()
        for i in range(1, s.order)
    )


def z4_map_failing_only_at(order):
    """A z4 map whose weighted sums are S_c = T_c with T_c = x1^c except
    T_order = x1^(order - 1): it fails at that order alone."""
    z4 = load_group("z4")
    s = z4.reflections()[0]
    assert s.order == 4 and s.element == 1
    x = P("x1", z4)
    T = [x**c for c in range(4)]
    T[order] = x ** (order - 1)
    # F(s^a) = (1/4) sum_c lambda^(ca) T_c inverts S_i = sum_j lambda^(-ij) F(s^j)
    lam = s.eigenvalue
    values = [
        weighted_sum(((T[c], lam ** (c * a) / 4) for c in range(4)), 1, 4)
        for a in range(4)
    ]
    assert list(z4.cyclic_powers(1)) == [0, 1, 2, 3]
    return z4, GroupMap(z4, values)


def map_failing_only_at_hyperplane(group, hyperplane):
    """Zero except at the identity, where it is the product of
    ell_K'^(e_K' - 1) over the other hyperplanes K': every condition of K'
    holds, and K's first one fails."""
    orders = {s.hyperplane: 1 for s in group.reflections()}
    coroots = {}
    for s in group.reflections():
        orders[s.hyperplane] = max(orders[s.hyperplane], s.order)
        coroots[s.hyperplane] = s.coroot
    value = MultiPoly.one(group.dimension, group.conductor)
    for k, e in orders.items():
        if k != hyperplane:
            value = value * coroots[k].as_poly() ** (e - 1)
    zero = MultiPoly.zero(group.dimension, group.conductor)
    return GroupMap(group, [value] + [zero] * (group.order - 1))


@pytest.mark.parametrize("name", bundled_names())
def test_verdict_equals_all_reflections_loop(name):
    g = load_group(name)
    rng = random.Random(f"verdict:{name}")
    maps = [random_member(rng, g, max_degree=3) for _ in range(2)]
    maps += [random_nonmember(rng, g, max_degree=3) for _ in range(3)]
    hyperplanes = sorted({s.hyperplane for s in g.reflections()})
    maps += [map_failing_only_at_hyperplane(g, k) for k in hyperplanes]
    verdicts = []
    for F in maps:
        cert = membership(F)
        verdicts.append(cert.ok)
        assert cert.ok == all_reflections_verdict(g, F)
        assert cert.ok == (not cert.failures)
    assert verdicts[:2] == [True, True]
    assert not any(verdicts[2:])
    # a map failing at one hyperplane only is listed at that hyperplane only
    for k, F in zip(hyperplanes, maps[5:]):
        assert {f.reflection.hyperplane for f in membership(F).failures} == {k}


@pytest.mark.parametrize("order", [2, 3])
def test_z4_maps_failing_only_at_higher_orders(order):
    z4, F = z4_map_failing_only_at(order)
    assert not all_reflections_verdict(z4, F)
    cert = membership(F)
    assert not cert.ok
    # only the order-4 reflections see the failure, at that order only
    assert {(f.reflection.element, f.power) for f in cert.failures} == {
        (1, order), (3, order)
    }
    # the square s^2 has order 2 and its one condition holds
    s2 = z4.reflection_at(2)
    assert isinstance(orbit_difference(z4, s2, 1, F), GroupMap)


def test_g312_verdict_takes_one_generator_per_hyperplane(monkeypatch):
    g = load_group("g312")
    member = random_member(random.Random(8), g)
    passes = []
    original = equivariant_module._sum_divides

    def counting(orbit, i, values):
        passes.append((orbit.reflection.element, i))
        return original(orbit, i, values)

    monkeypatch.setattr(equivariant_module, "_sum_divides", counting)
    assert membership(member).ok
    # 7 (reflection, power) passes against 11 for every reflection: the
    # order-3 hyperplanes are checked through one of their two generators,
    # each pass deciding the sum on every orbit of its reflection
    assert list(dict.fromkeys(passes)) == [
        (1, 1), (1, 2), (2, 1), (9, 1), (9, 2), (10, 1), (11, 1)
    ]
    assert len(passes) == sum(
        len(g.orbits(g.reflection_at(element))) for element, _ in dict.fromkeys(passes)
    )


@pytest.mark.parametrize("name", bundled_names())
def test_transport_verdict_equals_membership(name, monkeypatch):
    # lift_membership(e) against membership of the map x -> x . e built in
    # full: random polynomials and the coinvariant lifts
    g = load_group(name)
    rng = random.Random(f"transport:{name}")
    lifts = [random_poly(rng, g.dimension, g.conductor, max_degree=3) for _ in range(2)]
    lifts += coinvariant_basis(g).lifts
    maps = [GroupMap(g, [g.act(x, e) for x in range(g.order)]) for e in lifts]
    assert [lift_membership(g, e).ok for e in lifts] == [membership(F).ok for F in maps]
    assert all(membership(F).ok for F in maps)
    # every such map is a member, so only a fault refuses one: here the
    # verdict refuses every nonzero sum, which x . P_i is exactly when P_i
    # is, and the witness routine behind the failures list, handed the
    # whole sum, fails it at order 0 with the sum as its witness
    orbit_sum, divide = equivariant_module._orbit_sum, equivariant_module.divide_numerators

    def refusing(form, i, terms, den):
        return NotDivisible(0, divide(terms, den, form, 0)) if terms else None

    monkeypatch.setattr(
        equivariant_module, "_sum_divides", lambda orbit, i, values: not orbit_sum(orbit, i, values)
    )
    monkeypatch.setattr(equivariant_module, "_deciding_sum", orbit_sum)
    monkeypatch.setattr(equivariant_module, "power_witness", refusing)
    verdicts = [lift_membership(g, e) for e in lifts]
    assert [v.ok for v in verdicts] == [membership(F).ok for F in maps]
    assert {v.ok for v in verdicts} == {True, False}
    assert [v.failures for v in verdicts] == [membership(F).failures for F in maps]


# the failures of random_nonmember(random.Random(1), b2), recorded when a
# failing coset was summed and divided a second time for its witness:
# (coset, index in reflections(), power, valuation, witness)
B2_FAILURES = [(6, 0, 1, 0, "x2^4"), (4, 1, 1, 0, "-x1^4"), (0, 3, 1, 0, "-x2^4")]


def test_failures_sum_and_restrict_each_coset_once(monkeypatch):
    # the failures list forms each coset's deciding sum once, and
    # power_witness decides it and takes a failure's witness from that one
    # pass: b2 has 16 (reflection, coset) pairs, 8 on forms that are not
    # coordinates, and its failures here are all at power 1
    g = load_group("b2")
    F = random_nonmember(random.Random(1), g)
    cert = membership(F)
    assert not cert.ok
    calls = {"sums": 0, "restrictions": 0}

    def counted(name, routine):
        def wrapped(*args):
            calls[name] += 1
            return routine(*args)

        return wrapped

    monkeypatch.setattr(
        equivariant_module, "_orbit_sum", counted("sums", equivariant_module._orbit_sum)
    )
    monkeypatch.setattr(
        polynomials_module, "_restriction", counted("restrictions", polynomials_module._restriction)
    )
    failures = cert.failures
    assert calls == {"sums": 16, "restrictions": 8}
    reflections = g.reflections()
    assert [
        (
            f.element,
            reflections.index(f.reflection),
            f.power,
            f.witness.valuation,
            poly_text(f.witness.witness, g.variables),
        )
        for f in failures
    ] == B2_FAILURES


def test_failures_of_a_wrong_verdict_raise():
    g = load_group("s3")
    member = random_member(random.Random(2), g)
    assert membership(member).failures == []
    with pytest.raises(MembershipRuleViolated):
        MembershipCertificate(False, member).failures


# ---------------------------------------------------------------------------
# the verdict on integer numerators

G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}


def one_point_map(rng, group, d, scale):
    """scale times a random degree-d monomial at one random element, zero
    elsewhere."""
    n, m = group.dimension, group.conductor
    values = [MultiPoly.zero(n, m)] * group.order
    pool = graded_monomials(n, d)
    values[rng.randrange(group.order)] = MultiPoly(n, m, {pool[rng.randrange(len(pool))]: scale})
    return GroupMap(group, values)


def value_denominators(F):
    return {lcm(1, *(c.den for c in v.terms.values())) for v in F.values if v}


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412"])
def test_integral_verdict_equals_the_failure_loop(name):
    # the verdict decides on integer numerators; the failure list divides
    # CycNum sums through orbit_difference, every reflection and power
    g = parse_group_dict(G412) if name == "g412" else load_group(name)
    rng = random.Random(f"integral:{name}")
    maps = [random_member(rng, g, max_degree=4) for _ in range(3)]
    maps += [random_nonmember(rng, g) for _ in range(3)]
    for d in range(5):
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        maps += [one_point_map(rng, g, d, scale) for _ in range(2)]
    # mixed denominators across values: a member over 2 plus the product of
    # every ell_K^(e_K - 1) at the identity over 3 and at another element
    # over 5 (members, since W permutes the hyperplanes), alone and plus a
    # one-point map over 7 (a member exactly when that map is)
    point = map_failing_only_at_hyperplane(g, None)
    mixed = []
    for d in range(5):
        y = rng.randrange(1, g.order)
        A = random_member(rng, g, max_degree=4) / 2 + point / 3 + point.act(y) / 5
        mixed += [A, A + one_point_map(rng, g, d, Fraction(1, 7))]
    assert all(len(value_denominators(F)) > 1 for F in mixed)
    verdicts = []
    for F in maps + mixed:
        ok = membership(F).ok
        verdicts.append(ok)
        assert ok == (not equivariant_module._all_failures(F))
        # _all_failures shares the integer sums; the oracle sums CycNums
        assert ok == assert_matches_oracle(g, F, lambda s: range(1, s.order))
    assert set(verdicts) == {True, False}
    assert all(verdicts[len(maps) :: 2])


def sum_verdict(terms, form, power):
    """The verdict _sum_divides on a one-member orbit, whose sum is terms."""
    one = CycNum.one(form.conductor)
    s = PseudoReflection(0, power + 1, form, one, 0, ((one,),) * (power + 1))
    return equivariant_module._sum_divides(Orbit(s, (0,), form, (one,)), power, [terms])


def horner_verdict(terms, form, power):
    return not terms or polynomials_module._horner(terms, form, power)[0] == power


def test_coordinate_verdict_equals_the_horner_verdict():
    # a coordinate form x_p divides to order i exactly when every term has
    # x_p-exponent at least i; the verdict sums only the terms below x_p^i,
    # where Horner steps run through every power of x_p up to the degree
    rng = random.Random("coordinate")
    verdicts = set()
    for n, m in ((1, 3), (2, 1), (2, 4), (3, 3)):
        for p in range(n):
            _, form = LinearForm.normalize([int(j == p) for j in range(n)], m)
            assert form.integral_root[1] == ()
            for _ in range(12):
                pivot_power = MultiPoly.variable(n, m, p) ** rng.randint(0, 3)
                f = random_poly(rng, n, m, max_degree=4) * pivot_power
                (terms,), _ = integral_numerators([f], n, m)
                for power in range(1, (f.degree() or 0) + 3):
                    mine = sum_verdict(terms, form, power)
                    assert mine == horner_verdict(terms, form, power), (f, p, power)
                    verdicts.add(mine)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "n, m, coeffs",
    [
        (2, 1, ["1", "-1"]),
        (2, 1, ["1", "-1/2"]),  # s3's form, D = 2
        (2, 1, ["0", "1"]),
        (2, 3, ["1", "-z"]),
        (2, 3, ["1", "z + 1"]),
        (2, 3, ["1", "-1/2*z"]),
        (2, 4, ["1", "z"]),
        (2, 4, ["1", "0"]),
        (3, 1, ["1", "-2", "1/3"]),
        (3, 3, ["1", "-z", "1/2"]),
        (3, 4, ["0", "1", "z - 1"]),
    ],
)
def test_sum_verdict_equals_the_horner_verdict(n, m, coeffs):
    # the verdict on one dividend, at powers 1-3, against Horner steps:
    # coordinate forms summed below x_p^i, power 1 restricted to the
    # hyperplane, higher powers by Horner itself
    _, form = LinearForm.normalize([parse_cyc(c, m) for c in coeffs], m)
    rng = random.Random(f"sum verdict:{n}:{m}:{coeffs}")
    verdicts = set()
    for _ in range(16):
        f = random_poly(rng, n, m, max_degree=3) * form.as_poly() ** rng.randint(0, 3)
        (terms,), _ = integral_numerators([f], n, m)
        for power in (1, 2, 3):
            mine = sum_verdict(terms, form, power)
            assert mine == horner_verdict(terms, form, power), (f, power)
            verdicts.add(mine)
    assert verdicts == {True, False}


def test_power_one_verdict_follows_terms_not_degree():
    # a one-term dividend of x1-degree 10^6 on b2's form x1 - x2 is decided
    # at power 1 from one root power; every copy of the form shares the
    # powers asked for, at most _POWERS_KEPT of them, and no other form does
    b2 = load_group("b2")
    orbits = [o for s in b2.hyperplane_generators() for o in b2.orbits(s)]
    orbit = next(o for o in orbits if str(o.form) == "x1 - x2")

    def table(form):
        root = form.integral_root
        return polynomials_module._root_powers(form.conductor, form.nvars, form.pivot, root)

    powers = table(orbit.form)
    assert all((table(o.form) is powers) == (o.form == orbit.form) for o in orbits)
    powers.clear()
    big = 10**6
    rep, other = orbit.members
    assert not equivariant_module._sum_divides(orbit, 1, {rep: {(big, 0): [1]}, other: {}})
    difference = {(big, 0): [1], (0, big): [-1]}
    assert equivariant_module._sum_divides(orbit, 1, {rep: difference, other: {}})
    assert set(powers) == {0, big}
    kept = polynomials_module._POWERS_KEPT
    for k in range(2 * kept):
        got = polynomials_module._root_power(orbit.form, powers, k)
        assert got == (((-k, k), (1,)),)
    assert len(powers) == kept
    one_value = [MultiPoly.zero(2, 1)] * b2.order
    one_value[0] = MultiPoly(2, 1, {(big, 0): 1})
    assert not membership(GroupMap(b2, one_value)).ok


@pytest.mark.parametrize(
    "n, m, coeffs",
    [
        (2, 1, ["1", "-1/2"]),  # s3's form, D = 2
        (3, 3, ["1", "-z", "1/2"]),  # a two-term root, D = 2
    ],
)
def test_root_powers_equal_the_powers_from_scratch(n, m, coeffs):
    # for k = 0 .. 70, across the bound of _POWERS_KEPT = 64, r^k is r^k
    # as MultiPoly powers give it, shifted by -k in the pivot exponent
    _, form = LinearForm.normalize([parse_cyc(c, m) for c in coeffs], m)
    if n == 2 and m == 1:
        assert form == load_group("s3").reflections()[0].coroot
    D, root = form.integral_root
    p = form.pivot
    assert D == 2 and len(root) == n - 1
    r = (form.as_poly() - MultiPoly.variable(n, m, p)) * -D
    kept = polynomials_module._POWERS_KEPT
    powers = {}
    for k in range(kept + 7):
        got = polynomials_module._root_power(form, powers, k)
        (terms,), den = integral_numerators([r**k], n, m)
        assert den == 1
        shifted = {e[:p] + (-k,) + e[p + 1 :]: tuple(c) for e, c in terms.items()}
        assert dict(got) == shifted, k
    assert len(powers) == kept


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412"])
def test_one_value_map_sums_only_the_cosets_through_its_element(name, monkeypatch):
    # membership skips the cosets where the map is zero, so a one-value
    # member sums one coset per hyperplane generator s and order i < e_s
    g = parse_group_dict(G412) if name == "g412" else load_group(name)
    point = map_failing_only_at_hyperplane(g, None)
    orders = {}
    for s in g.reflections():
        orders[s.hyperplane] = max(orders.get(s.hyperplane, 1), s.order)
    summed = []
    original = equivariant_module._sum_divides

    def counting(orbit, i, values):
        summed.append(orbit.members)
        return original(orbit, i, values)

    monkeypatch.setattr(equivariant_module, "_sum_divides", counting)
    for y in (0, g.order - 1):
        summed.clear()
        # the value sits at y: (F . y)(x) = F(x y^-1)
        assert membership(point.act(y)).ok
        assert len(summed) == sum(e - 1 for e in orders.values())
        assert all(y in members for members in summed)


def test_membership_rejects_malformed_values(z2):
    x1 = P("x1", z2)
    with pytest.raises(TypeError, match="a polynomial is required, not int"):
        membership(GroupMap(z2, [1, 2]))
    with pytest.raises(ValueError, match="an operand in 2 variables, not 1"):
        membership(GroupMap(z2, [x1, MultiPoly(2, 2, {(1, 0): 1})]))
    with pytest.raises(ConductorMismatch, match="an operand over conductor 3, not 2"):
        membership(GroupMap(z2, [x1, MultiPoly(1, 3, {(1,): 1})]))


# ---------------------------------------------------------------------------
# divisibility conditions from one generator per hyperplane


def all_reflection_conditions(group, d):
    """Condition rows by the definition: every pseudo-reflection, every
    order, every orbit."""
    nmono = len(graded_monomials(group.dimension, d))
    rows = []
    for s in group.reflections():
        for i in range(1, s.order):
            w = s.eigenvalue ** (-i)
            weights = [w**j for j in range(s.order)]
            for orbit in group.orbits(s):
                entries = condition_entries(orbit.form, i, d, weights)
                rows.extend(scatter_conditions(entries, orbit.members, nmono))
    return rows


@pytest.mark.parametrize("name", bundled_names())
def test_one_generator_conditions_span_all_reflections(name):
    g = load_group(name)
    zero = CycNum.zero(g.conductor)
    for d in range(5):
        ncols = g.order * len(graded_monomials(g.dimension, d))
        reduced = []
        for rows in (divisibility_conditions(g, d), all_reflection_conditions(g, d)):
            red, pivots = rref([[row.get(j, zero) for j in range(ncols)] for row in rows])
            reduced.append((pivots, red[: len(pivots)]))
        assert reduced[0] == reduced[1], (name, d)
    if name == "g312":
        assert (len(divisibility_conditions(g, 3)), len(all_reflection_conditions(g, 3))) == (63, 99)
