"""Tensors, the localization map, and the graded dimension comparison."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import prod

import pytest

from reflect_gkm import equivariant, localization, polynomials
from reflect_gkm.cyclotomic import ConductorMismatch, root_of_unity
from reflect_gkm.equivariant import GroupMap, membership, orbit_difference
from reflect_gkm.groups import GroupInvariantViolated, bundled_names, load_group, parse_group_dict
from reflect_gkm.invariants import CoinvariantBasis, coinvariant_basis, invariant_basis
from reflect_gkm.linalg import PrimeReduction
from reflect_gkm.localization import (
    DimensionTriples,
    TensorElement,
    commutes_with_difference,
    image_graded_dimension,
    localize,
    localize_at,
)
from reflect_gkm.polynomials import MultiPoly, parse_poly, poly_text, sum_of_products, weighted_sum
from reflect_gkm.sampling import (
    random_member,
    random_nonmember,
    random_poly,
    random_tensor,
)
from reflect_gkm.suite import default_max_degree
from oracles import exact_rows, localized_lifts, predicted_dimensions, reynolds


def P(text, group):
    return parse_poly(text, group.dimension, group.conductor, names=group.variables)


def random_group_map(rng, group, max_degree=4):
    """Unconstrained values at every element; usually not a member."""
    n, m = group.dimension, group.conductor
    return GroupMap(
        group,
        [random_poly(rng, n, m, max_degree=max_degree) for _ in range(group.order)],
    )


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def z3():
    return load_group("z3")


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


def test_localize_examples(z2, z3):
    # sign flip at the reflection, identity at the identity
    T = TensorElement.pure(z2, 1, P("x1", z2))
    assert localize_at(T, 0) == P("x1", z2)
    assert localize_at(T, 1) == P("-x1", z2)
    assert localize(T) == GroupMap(z2, [P("x1", z2), P("-x1", z2)])

    # order three picks up the root of unity on squares
    U = TensorElement.pure(z3, 1, P("x1^2", z3))
    zeta = root_of_unity(3, 1)
    assert localize_at(U, 1) == P("x1^2", z3) * zeta

    # left leg evaluates untouched, right leg moves
    V = TensorElement.pure(z2, P("x1", z2), 1) + TensorElement.pure(z2, 1, P("x1", z2))
    assert localize(V) == GroupMap(z2, [P("2*x1", z2), MultiPoly.zero(1, 2)])


@pytest.mark.parametrize("x", [-1, 3])
def test_localize_at_refuses_an_element_out_of_range(z3, x):
    # -1 would read the last element's value, and the order is no index
    T = TensorElement.pure(z3, 1, P("x1", z3))
    with pytest.raises(ValueError, match=r"element index -?\d+ not in range\(3\)"):
        localize_at(T, x)


def _localize_by_definition(T):
    """The oracle: x -> sum_k f_k * x(g_k), from plain products and sums."""
    group = T.group
    values = []
    for x in range(group.order):
        value = MultiPoly.zero(group.dimension, group.conductor)
        for f, g in T.summands:
            value = value + f * group.act(x, g)
        values.append(value)
    return GroupMap(group, values)


def _assert_localizes_by_definition(T):
    F = localize(T)
    assert F == _localize_by_definition(T)
    assert [localize_at(T, x) for x in range(T.group.order)] == list(F.values)
    return F


@pytest.mark.parametrize("name", bundled_names())
def test_collected_localization_equals_the_definition(name):
    group = load_group(name)
    rng = random.Random(23)
    for _ in range(6):
        _assert_localizes_by_definition(random_tensor(rng, group, max_degree=4))


def test_collected_localization_hand_built_cases(s3):
    f, g = P("x1^2 - 3*x2", s3), P("x1*x2 + 1/2", s3)
    zero_map = GroupMap.zero(s3)

    # the collected first leg of x1 is f - f = 0, and only f (x) x2 is left
    T = TensorElement(s3, [(f, P("x1 + x2", s3)), (-f, P("x1", s3))])
    assert len(T.summands) == 2
    assert _assert_localizes_by_definition(T) == localize(TensorElement.pure(s3, f, P("x2", s3)))

    # every collected first leg cancels
    U = TensorElement(s3, [(f, P("x1 - x2^2", s3)), (-f, P("x1 - x2^2", s3))])
    assert len(U.summands) == 2
    assert _assert_localizes_by_definition(U) == zero_map

    # a constant second leg localizes to a constant map
    V = TensorElement(s3, [(f, 3), (g, P("x2", s3))]) + TensorElement.pure(s3, g, P("-1/2", s3))
    W = _assert_localizes_by_definition(V)
    assert W == GroupMap.constant(s3, f * 3 - g * Fraction(1, 2)) + localize(
        TensorElement.pure(s3, g, P("x2", s3))
    )

    assert _assert_localizes_by_definition(TensorElement.zero(s3)) == zero_map


# groups beyond the bundled six: G(4,1,2)'s index-2 subgroup over Q(i), and
# the scalars z * id over Q(zeta_3), which hold no reflection
G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}
SCALAR3 = {
    "name": "scalar3",
    "dimension": 2,
    "conductor": 3,
    "variables": ["x1", "x2"],
    "generators": [["z", "0", "0", "z"]],
}


def _value_by_products(T, x):
    """The per-element route: one sum_of_products over (F_e, x(x^e)), with
    F_e the first legs collected by second-leg monomial."""
    group = T.group
    n, m = group.dimension, group.conductor
    by_monomial = {}
    for f, g in T.summands:
        for e, c in g.terms.items():
            by_monomial.setdefault(e, []).append((f, c))
    return sum_of_products(
        (
            (weighted_sum(pairs, n, m), group.monomial_image(x, e))
            for e, pairs in by_monomial.items()
        ),
        n,
        m,
    )


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412", "scalar3"])
def test_keyed_localization_equals_the_per_element_products(name):
    extra = {"g412": G412, "scalar3": SCALAR3}
    group = parse_group_dict(extra[name]) if name in extra else load_group(name)
    n, m = group.dimension, group.conductor
    xs = [MultiPoly.variable(n, m, k) for k in range(n)]
    # s3 moves x1 to -x1 + x2, so its products of two-term factors meet a
    # monomial first in an order that depends on which factor is walked first
    tensors = [TensorElement.pure(group, sum(x * x for x in xs), sum(xs))]
    rng = random.Random(f"keyed:{name}")
    for _ in range(4):
        T = random_tensor(rng, group, max_degree=4) + random_tensor(rng, group, max_degree=4)
        assert len(T.summands) >= 2
        tensors.append(T)
    for T in tensors:
        F = localize(T)
        for x in range(group.order):
            expected = _value_by_products(T, x)
            assert F.values[x] == expected == localize_at(T, x)
            # the same terms in the same order, so nothing downstream that
            # walks a value's terms sees a different sequence
            assert list(F.values[x].terms) == list(expected.terms)


def test_malformed_legs_are_refused(z3):
    good = P("x1", z3)
    wide = MultiPoly(2, 3, {(1, 0): 1})
    other = MultiPoly(1, 1, {(1,): 1})
    cases = [
        ([(good, wide)], ValueError, "an operand in 2 variables, not 1"),
        ([(wide, good)], ValueError, "an operand in 2 variables, not 1"),
        ([(good, other)], ConductorMismatch, "an operand over conductor 1, not 3"),
        ([(other, good)], ConductorMismatch, "an operand over conductor 1, not 3"),
    ]
    for summands, error, message in cases:
        T = TensorElement(z3, summands)
        with pytest.raises(error, match=message):
            localize(T)
        for x in range(z3.order):
            with pytest.raises(error, match=message):
                localize_at(T, x)


def test_tensor_action_refuses_malformed_second_legs(z3):
    good = P("x1", z3)
    cases = [
        (MultiPoly(2, 3, {(1, 0): 1}), ValueError, "an operand in 2 variables, not 1"),
        (MultiPoly(1, 1, {(1,): 1}), ConductorMismatch, "an operand over conductor 1, not 3"),
    ]
    for leg, error, message in cases:
        T = TensorElement(z3, [(good, leg)])
        for w in range(z3.order):
            with pytest.raises(error, match=message):
                T.act(w)


def test_localize_applies_no_substitution(monkeypatch):
    group = load_group("g312")
    T = TensorElement.pure(group, P("x1 - x2", group), P("x1^2*x2 + 2*x2^3", group))
    T = T + random_tensor(random.Random(29), group, max_degree=4)
    applied = []
    apply = polynomials.LinearSubstitution.apply

    def counted(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(polynomials.LinearSubstitution, "apply", counted)
    F = localize(T)
    values = [localize_at(T, x) for x in range(group.order)]
    assert applied == []
    monkeypatch.undo()
    assert F == _localize_by_definition(T)
    assert values == list(F.values)


def test_localize_is_ring_map(s3):
    rng = random.Random(7)
    for _ in range(5):
        T = random_tensor(rng, s3, max_degree=3)
        U = random_tensor(rng, s3, max_degree=3)
        assert localize(T + U) == localize(T) + localize(U)
        assert localize(T * U) == localize(T) * localize(U)


def test_localize_equivariance(s3, z3):
    rng = random.Random(11)
    for group in (s3, z3):
        for _ in range(4):
            T = random_tensor(rng, group, max_degree=3)
            for w in range(group.order):
                assert localize(T.act(w)) == localize(T).act(w)


def test_middle_invariance(z2, s3):
    # an invariant can hop across the tensor without changing the image
    h2 = P("x1^2", z2)
    T = TensorElement.pure(z2, h2, P("x1", z2))
    U = TensorElement.pure(z2, 1, h2 * P("x1", z2))
    assert T == U

    rng = random.Random(3)
    f = random_poly(rng, 2, 1, max_degree=2)
    g = random_poly(rng, 2, 1, max_degree=2)
    h = reynolds(s3, random_poly(rng, 2, 1, max_degree=3))
    assert TensorElement.pure(s3, f * h, g) == TensorElement.pure(s3, f, h * g)


def test_tensor_extensional_equality(z2):
    # 1 (x) x and its rewrite across the invariant x^2 differ as raw pairs
    # but localize identically; a genuinely different tensor does not
    T = TensorElement.pure(z2, P("x1^2", z2), P("x1", z2))
    U = TensorElement.pure(z2, 1, P("x1^3", z2))
    W = TensorElement.pure(z2, 1, P("x1", z2))
    assert T == U
    assert T != W
    assert TensorElement.zero(z2) == TensorElement.pure(z2, 1, 0)


def test_localizations_are_members(z2, z3, s3):
    rng = random.Random(19)
    for group in (z2, z3, s3):
        for _ in range(5):
            F = random_member(rng, group, max_degree=4)
            assert membership(F).ok


def test_commutes_with_difference_example(z2):
    s = z2.reflections()[0]
    T = TensorElement.pure(z2, 1, P("x1^3", z2))
    # both routes land on the constant map 2*x1^2
    left = orbit_difference(z2, s, 1, localize(T))
    assert left == GroupMap(z2, [P("2*x1^2", z2)] * 2)
    assert commutes_with_difference(z2, s, 1, T)


def test_commutes_with_difference_random(z3, s3):
    rng = random.Random(23)
    for group in (z3, s3):
        for _ in range(4):
            T = random_tensor(rng, group, max_degree=4)
            for s in group.reflections():
                for i in range(1, s.order):
                    assert commutes_with_difference(group, s, i, T)


def test_image_dimensions(z2, z3):
    l2 = localized_lifts(z2)
    assert image_graded_dimension(z2, l2, 0) == 1
    assert image_graded_dimension(z2, l2, 1) == 2
    l3 = localized_lifts(z3)
    assert image_graded_dimension(z3, l3, 2) == 3


@pytest.mark.parametrize("name", bundled_names())
def test_localized_lifts_are_localized_pure_tensors(name):
    # the oracle's maps x -> x . e, built by the action, are localize(1 (x) e)
    group = load_group(name)
    one = MultiPoly.one(group.dimension, group.conductor)
    lifts = coinvariant_basis(group).lifts
    want = [localize(TensorElement.pure(group, one, e)) for e in lifts]
    assert localized_lifts(group) == want


def test_dimension_triples_agree(z2, z3, s3):
    for group, dmax in ((z2, 4), (z3, 4), (s3, 4)):
        triples = DimensionTriples(group)
        for d in range(dmax + 1):
            expected, image, null = triples.triple(d)
            assert expected == image == null, (group.name, d)


@pytest.mark.parametrize("name", bundled_names())
def test_certified_rows_equal_exact_rows(name):
    group = load_group(name)
    triples = DimensionTriples(group)
    dmax = default_max_degree(group)
    rows = [triples.triple(d) for d in range(dmax + 1)]
    assert all(expected == image == null for expected, image, null in rows), rows
    exact_up_to = 5 if name == "g312" else dmax
    assert rows[: exact_up_to + 1] == exact_rows(group, exact_up_to)


def edit_lifts(monkeypatch, edit):
    """Make DimensionTriples see edit(lifts) as the coinvariant lifts; the
    oracle still sees the true ones."""
    original = localization.coinvariant_basis

    def edited(group):
        lifts = edit(original(group).lifts)
        return CoinvariantBasis(lifts, [e.degree() for e in lifts])

    monkeypatch.setattr(localization, "coinvariant_basis", edited)


def prime_chain(m, count=localization._RANK_PRIMES):
    """The first count primes step (b) tries at conductor m, in order."""
    primes = [PrimeReduction.for_conductor(m).prime]
    while len(primes) < count:
        primes.append(PrimeReduction.for_conductor(m, primes[-1]).prime)
    return primes


def record_primes(monkeypatch):
    """The prime of every lift matrix step (b) builds, in order."""
    primes = []
    build = localization._lift_matrix_mod_p

    def recorded(group, lifts, reduction):
        primes.append(reduction.prime)
        return build(group, lifts, reduction)

    monkeypatch.setattr(localization, "_lift_matrix_mod_p", recorded)
    return primes


def test_non_member_lift_is_refused_by_members(s3, monkeypatch):
    # x -> x . e is a member for every e, so only a fault in step (a)'s
    # divisibility verdicts can refuse: here one failed verdict, the first,
    # on a nonzero dividend (the constant lift's sums vanish, so it is a
    # degree-1 lift's), and the refusal names that lift
    original = equivariant._sum_divides
    faults = []

    def faulty(orbit, i, values):
        terms = equivariant._orbit_sum(orbit, i, values)
        if terms and not faults:
            faults.append(max(sum(e) for e in terms))
            return False
        return original(orbit, i, values)

    monkeypatch.setattr(equivariant, "_sum_divides", faulty)
    primes = record_primes(monkeypatch)
    text = poly_text(coinvariant_basis(s3).lifts[1], names=s3.variables)
    want = rf"^certificate step \(a\): lift 1, {re.escape(text)}, is not a member$"
    with pytest.raises(GroupInvariantViolated, match=want):
        DimensionTriples(s3)
    assert faults == [1]
    assert primes == []


@pytest.mark.parametrize("name", ["s3", "g312", "g412"])
def test_rank_drop_at_the_first_prime_closes_at_the_next(name, monkeypatch):
    # what p | kappa, or the point on a hyperplane mod p, would do: step (b)
    # moves to the next prime = 1 (mod m) and closes there
    group = parse_group_dict(G412) if name == "g412" else load_group(name)
    first, second = prime_chain(group.conductor, 2)
    primes = record_primes(monkeypatch)
    rank = localization.rank_mod_p
    monkeypatch.setattr(
        localization, "rank_mod_p", lambda matrix, p: 0 if p == first else rank(matrix, p)
    )
    triples = DimensionTriples(group)
    assert primes == [first, second]
    assert [triples.triple(d) for d in range(4)] == exact_rows(group, 3)


def test_unreducible_lift_closes_at_the_next_prime(s3, monkeypatch):
    # a lift scaled by 1/p is still a member and the lifts still span, but
    # step (b) cannot reduce its coefficients mod p: it skips p and closes
    # at the next prime, with the rows of the true lifts
    first, second = prime_chain(s3.conductor, 2)
    edit_lifts(monkeypatch, lambda lifts: [lifts[0], lifts[1] * Fraction(1, first), *lifts[2:]])
    primes = record_primes(monkeypatch)
    triples = DimensionTriples(s3)
    assert primes == [first, second]
    assert [triples.triple(d) for d in range(5)] == exact_rows(s3, 4)


def test_certificate_divides_identity_cosets_only(monkeypatch):
    # g312's hyperplane generators have orders 3, 3, 2, 2, 2: seven
    # divisibility verdicts per lift, one coset each, for its 18 lifts, no
    # full membership and no quotient
    group = load_group("g312")
    calls = {"membership": 0, "verdict": 0, "divide": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(equivariant, "membership", counting("membership", equivariant.membership))
    monkeypatch.setattr(equivariant, "_sum_divides", counting("verdict", equivariant._sum_divides))
    monkeypatch.setattr(
        equivariant,
        "divide_numerators",
        counting("divide", equivariant.divide_numerators),
    )
    DimensionTriples(group)
    assert calls == {"membership": 0, "verdict": 18 * 7, "divide": 0}


def count_maps(monkeypatch):
    """A list that gains an entry for every GroupMap built."""
    built = []
    init = GroupMap.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupMap, "__init__", counted_init)
    return built


def test_closing_certificate_builds_no_map(monkeypatch):
    group = load_group("g312")
    # the basis substitutes the file's generators; the certificate comes after
    coinvariant_basis(group)
    before = set(group._subs)
    built = count_maps(monkeypatch)
    DimensionTriples(group)
    assert built == []
    # only step (a) acts on the lifts, at the identity cosets <s>
    generators = group.hyperplane_generators()
    identity_cosets = {x for s in generators for x in group.cyclic_powers(s.element)}
    added = set(group._subs) - before
    assert added and added <= identity_cosets < set(range(group.order))


def value_mod_p(f, point, reduction):
    """f(point) in F_p, every coefficient reduced: step (b)'s entry by the
    per-entry route, on the localized lift's value at one element."""
    p = reduction.prime
    return sum(
        reduction.reduce(c) * prod(pow(v, k, p) for v, k in zip(point, e))
        for e, c in f.terms.items()
    ) % p


@pytest.mark.parametrize("name", bundled_names() + ("g412",))
def test_lift_matrix_equals_the_per_entry_route(name, tmp_path):
    # (x . e)(point) = e(x^-1 . point), and reduction is a ring map
    if name == "g412":
        path = tmp_path / "g412.json"
        path.write_text(json.dumps(G412))
        name = str(path)
    group = load_group(name)
    rng = random.Random(f"matrix:{group.name}")
    lifts = coinvariant_basis(group).lifts
    # polynomials with several terms and fractional coefficients too
    lifts += [random_poly(rng, group.dimension, group.conductor, max_degree=4) for _ in range(3)]
    reduction = PrimeReduction.for_conductor(group.conductor)
    p = reduction.prime
    point = [pow(localization._MOMENT_T, k, p) for k in range(1, group.dimension + 1)]
    localized = [GroupMap(group, [group.act(x, e) for x in range(group.order)]) for e in lifts]
    want = [
        [value_mod_p(F.values[x], point, reduction) for F in localized] for x in range(group.order)
    ]
    assert localization._lift_matrix_mod_p(group, lifts, reduction) == want


def assert_refused_by_rank(group, monkeypatch):
    """DimensionTriples(group) refuses at step (b) after every prime it
    may try, names them all, and builds no map on the way; returns the
    message."""
    built = count_maps(monkeypatch)
    primes = record_primes(monkeypatch)
    with pytest.raises(GroupInvariantViolated, match=r"^certificate step \(b\): ") as info:
        DimensionTriples(group)
    assert primes == prime_chain(group.conductor)
    message = str(info.value)
    assert all(f"modulo {p}" in message for p in primes)
    assert built == []
    return message


def duplicate_a_lift(lifts):
    # one degree-2 lift replaced by a copy of the other: every lift is a
    # member and the degree count holds, but det A vanishes
    assert [e.degree() for e in lifts[3:5]] == [2, 2]
    return lifts[:3] + [lifts[4]] + lifts[4:]


def test_duplicated_lift_is_refused_by_rank(s3, monkeypatch):
    edit_lifts(monkeypatch, duplicate_a_lift)
    message = assert_refused_by_rank(s3, monkeypatch)
    # two equal columns: rank |W| - 1 at every prime
    assert message.count(f"rank {s3.order - 1} modulo") == localization._RANK_PRIMES


def test_zero_lift_is_refused_by_rank(s3, monkeypatch):
    # a zero in place of the constant lift keeps the degree count, so only
    # its zero column in A refuses
    zero = MultiPoly.zero(s3.dimension, s3.conductor)

    def zero_first(lifts):
        assert lifts[0].degree() == 0
        return [zero] + lifts[1:]

    edit_lifts(monkeypatch, zero_first)
    message = assert_refused_by_rank(s3, monkeypatch)
    assert message.count(f"rank {s3.order - 1} modulo") == localization._RANK_PRIMES


def test_lift_times_an_invariant_is_refused_by_degrees(s3, monkeypatch):
    # f invariant makes x . (f e) = f (x . e): the lift stays a member and
    # its column of A is scaled by f(point), nonzero mod p, so det A stays
    # nonzero; only the degree count sees the extra factor, and no prime is
    # tried
    f = invariant_basis(s3, min(s3.fundamental_degrees())).vectors[0]
    edit_lifts(monkeypatch, lambda lifts: [lifts[0] * f] + lifts[1:])
    primes = record_primes(monkeypatch)
    twice = 2 * (sum(e.degree() for e in coinvariant_basis(s3).lifts) + f.degree())
    want = rf"^certificate step \(c\): 2 \* sum of lift degrees is {twice}, not"
    with pytest.raises(GroupInvariantViolated, match=want):
        DimensionTriples(s3)
    assert primes == []


def test_inhomogeneous_lift_is_refused_by_degrees(s3, monkeypatch):
    # the constant added to a degree-1 lift keeps it a member and keeps its
    # degree, so only homogeneity sees it
    edit_lifts(monkeypatch, lambda lifts: [lifts[0], lifts[1] + lifts[0], *lifts[2:]])
    text = poly_text(coinvariant_basis(s3).lifts[1] + 1, names=s3.variables)
    want = rf"^certificate step \(c\): lift 1, {re.escape(text)}, is not homogeneous$"
    with pytest.raises(GroupInvariantViolated, match=want):
        DimensionTriples(s3)


def test_certificate_refuses_what_it_cannot_prove(s3, monkeypatch):
    # a dropped lift: A is no longer square, and step (c) says so before
    # any prime is tried
    edit_lifts(monkeypatch, lambda lifts: lifts[:-1])
    primes = record_primes(monkeypatch)
    want = r"^certificate step \(c\): 5 lifts for a group of order 6$"
    with pytest.raises(GroupInvariantViolated, match=want):
        DimensionTriples(s3)
    assert primes == []


def test_certificate_closes_on_g412(tmp_path):
    path = tmp_path / "g412.json"
    path.write_text(json.dumps(G412))
    group = load_group(str(path))
    assert (group.order, group.conductor) == (32, 4)
    triples = DimensionTriples(group)
    dmax = default_max_degree(group)
    assert dmax == 13
    predicted = predicted_dimensions(group, dmax)
    assert [triples.triple(d) for d in range(dmax + 1)] == [(e, e, e) for e in predicted]
    assert [triples.triple(d) for d in range(4)] == exact_rows(group, 3)


def test_sampling_determinism(s3):
    a = random_member(random.Random(42), s3)
    b = random_member(random.Random(42), s3)
    assert a == b
    c = random_group_map(random.Random(42), s3)
    d = random_group_map(random.Random(42), s3)
    assert c == d


def test_random_nonmember_fails_membership(z2, s3):
    rng = random.Random(5)
    for group in (z2, s3):
        G = random_nonmember(rng, group)
        assert not membership(G).ok
