"""Tensors, the localization map, and the graded dimension comparison."""

from __future__ import annotations

import json
import random

import pytest

from reflect_gkm import localization
from reflect_gkm.cyclotomic import root_of_unity
from reflect_gkm.equivariant import GroupMap, membership, membership_basis, orbit_difference
from reflect_gkm.groups import bundled_names, load_group
from reflect_gkm.invariants import coinvariant_basis, reynolds, tensor_hilbert_coefficients
from reflect_gkm.localization import (
    DimensionTriples,
    TensorElement,
    commutes_with_difference,
    image_graded_dimension,
    localize,
    localize_at,
    localized_lifts,
)
from reflect_gkm.polynomials import MultiPoly, parse_poly
from reflect_gkm.sampling import (
    random_member,
    random_nonmember,
    random_poly,
    random_tensor,
)
from reflect_gkm.suite import default_max_degree


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


def exact_rows(group, dmax):
    """(predicted, image, nullspace) for d <= dmax, the last two by exact
    elimination on the localized lifts DimensionTriples sees."""
    predicted = tensor_hilbert_coefficients(group.fundamental_degrees(), group.dimension, dmax)
    lifts = localization.localized_lifts(group)
    return [
        (predicted[d], image_graded_dimension(group, lifts, d), len(membership_basis(group, d)))
        for d in range(dmax + 1)
    ]


@pytest.mark.parametrize("name", bundled_names())
def test_certified_rows_equal_exact_rows(name):
    group = load_group(name)
    triples = DimensionTriples(group)
    assert triples.refused_by is None
    dmax = default_max_degree(group)
    rows = [triples.triple(d) for d in range(dmax + 1)]
    assert all(expected == image == null for expected, image, null in rows), rows
    exact_up_to = 5 if name == "g312" else dmax
    assert rows[: exact_up_to + 1] == exact_rows(group, exact_up_to)


def edit_localized_lifts(monkeypatch, edit):
    """Make DimensionTriples (and the exact image) see edit(lifts)."""
    original = localization.localized_lifts
    monkeypatch.setattr(localization, "localized_lifts", lambda group: edit(original(group)))


def test_non_member_lift_is_refused_by_members(s3, monkeypatch):
    k = coinvariant_basis(s3).degrees.index(1)
    zero = MultiPoly.zero(s3.dimension, s3.conductor)
    nonmember = GroupMap(s3, [P("x1", s3)] + [zero] * (s3.order - 1))
    assert not membership(nonmember).ok
    edit_localized_lifts(monkeypatch, lambda lifts: lifts[:k] + [nonmember] + lifts[k + 1 :])
    triples = DimensionTriples(s3)
    assert triples.refused_by == "members"
    assert [triples.triple(d) for d in range(5)] == exact_rows(s3, 4)


def duplicate_a_lift(lifts):
    # one degree-2 lift replaced by a copy of the other: every lift is a
    # member and the degree count holds, but det A vanishes
    assert [F.degree() for F in lifts[3:5]] == [2, 2]
    return lifts[:3] + [lifts[4]] + lifts[4:]


def test_duplicated_lift_falls_back_to_exact(s3, monkeypatch):
    edit_localized_lifts(monkeypatch, duplicate_a_lift)
    triples = DimensionTriples(s3)
    assert triples.refused_by == "rank"
    rows = [triples.triple(d) for d in range(5)]
    assert rows == exact_rows(s3, 4)
    assert all(image < expected == null for expected, image, null in rows[2:])


def test_refused_rows_localize_the_lifts_once(s3, monkeypatch):
    calls = []

    def counted(lifts):
        calls.append(len(lifts))
        return duplicate_a_lift(lifts)

    edit_localized_lifts(monkeypatch, counted)
    triples = DimensionTriples(s3)
    assert triples.refused_by == "rank"
    for d in range(5):
        triples.triple(d)
    assert calls == [s3.order]


def test_lift_times_x1_is_refused_by_degrees(s3, monkeypatch):
    # x1 taken the same at every element keeps the lift a member and, as
    # x1 is nonzero at the rank step's point, keeps det A nonzero; only the
    # degree count sees the extra factor
    x1 = P("x1", s3)
    edit_localized_lifts(monkeypatch, lambda lifts: [lifts[0] * x1] + lifts[1:])
    triples = DimensionTriples(s3)
    assert triples.refused_by == "degrees"
    assert [triples.triple(d) for d in range(5)] == exact_rows(s3, 4)


def test_certificate_refuses_what_it_cannot_prove(s3, monkeypatch):
    # a dropped lift: A is no longer square, and the image falls short
    edit_localized_lifts(monkeypatch, lambda lifts: lifts[:-1])
    triples = DimensionTriples(s3)
    assert triples.refused_by is not None
    rows = [triples.triple(d) for d in range(5)]
    assert rows == exact_rows(s3, 4)
    assert rows[3] == (15, 14, 15)


G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}


def test_certificate_closes_on_g412(tmp_path):
    path = tmp_path / "g412.json"
    path.write_text(json.dumps(G412))
    group = load_group(str(path))
    assert (group.order, group.conductor) == (32, 4)
    triples = DimensionTriples(group)
    assert triples.refused_by is None
    dmax = default_max_degree(group)
    assert dmax == 13
    predicted = tensor_hilbert_coefficients(group.fundamental_degrees(), 2, dmax)
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
