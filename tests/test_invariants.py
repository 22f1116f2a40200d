from itertools import product

import pytest

from reflect_gkm import invariants
from reflect_gkm.cyclotomic import CycNum
from reflect_gkm.groups import bundled_names, load_group, parse_group_dict
from reflect_gkm.invariants import (
    GradedBasis,
    HistogramMismatch,
    coinvariant_basis,
    coinvariant_histogram,
    degree_histogram,
    graded_count,
    hilbert_ideal_piece,
    invariant_basis,
    reynolds,
)
from reflect_gkm.linalg import rref
from reflect_gkm.polynomials import MultiPoly, graded_monomials, poly_text

G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}

# the scalar matrices z * id over Q(zeta_3): no reflections at all
SCALAR3 = {
    "name": "scalar3",
    "dimension": 2,
    "conductor": 3,
    "variables": ["x1", "x2"],
    "generators": [["z", "0", "0", "z"]],
}


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def z3():
    return load_group("z3")


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


def test_reynolds_examples(z2, z3):
    x = MultiPoly.variable(1, 2, 0)
    assert reynolds(z2, x) == MultiPoly.zero(1, 2)
    assert reynolds(z2, x**2) == x**2
    y = MultiPoly.variable(1, 3, 0)
    assert reynolds(z3, y**3) == y**3
    assert reynolds(z3, y**2) == MultiPoly.zero(1, 3)


def test_reynolds_is_an_invariant_projector(s3):
    f = MultiPoly(2, 1, {(2, 1): 1, (0, 1): 3, (1, 0): -2})
    r = reynolds(s3, f)
    assert reynolds(s3, r) == r
    for w in range(s3.order):
        assert s3.act(w, r) == r


def test_invariant_basis_examples(z2, s3):
    assert invariant_basis(z2, 1).dimension == 0
    b = invariant_basis(z2, 2)
    assert b.dimension == 1
    assert poly_text(b.vectors[0]) == "x1^2"
    assert invariant_basis(s3, 2).dimension == 1
    assert invariant_basis(s3, 3).dimension == 1


def test_invariant_dimensions_match_molien():
    for name in ("z2", "z3", "z4", "s3", "b2", "g312"):
        g = load_group(name)
        want = g.molien().coefficients(6)
        got = [invariant_basis(g, d).dimension for d in range(7)]
        assert got == want, name


def test_hilbert_ideal_examples(z2, z3):
    assert hilbert_ideal_piece(z2, 1).dimension == 0
    piece = hilbert_ideal_piece(z2, 2)
    assert piece.dimension == 1
    x = MultiPoly.variable(1, 3, 0)
    quartic = hilbert_ideal_piece(z3, 4)
    assert quartic.dimension == 1
    assert quartic.vectors[0] == x**4


def test_ideal_plus_coinvariants_fill_each_degree(s3):
    coinv = coinvariant_basis(s3)
    hist = coinv.histogram()
    for d in range(5):
        total = len(graded_monomials(2, d))
        ideal = hilbert_ideal_piece(s3, d).dimension
        standard = hist[d] if d < len(hist) else 0
        assert ideal + standard == total, d


# The greedy graded-lex standard monomials of every bundled group.  The
# report digests cannot see this choice: the degree rows do not depend on
# which lifts are picked.
LIFTS = {
    "z2": "1,x1",
    "z3": "1,x1,x1^2",
    "z4": "1,x1,x1^2,x1^3",
    "s3": "1,x1,x2,x1^2,x1*x2,x1^2*x2",
    "b2": "1,x1,x2,x1^2,x1*x2,x1^3,x1^2*x2,x1^3*x2",
    "g312": "1,x1,x2,x1^2,x1*x2,x2^2,x1^3,x1^2*x2,x1*x2^2,x1^4,x1^3*x2,"
    "x1^2*x2^2,x1^5,x1^4*x2,x1^3*x2^2,x1^5*x2,x1^4*x2^2,x1^5*x2^2",
}


def test_coinvariant_basis_small():
    for name, lifts in LIFTS.items():
        b = coinvariant_basis(load_group(name))
        assert ",".join(poly_text(p) for p in b.lifts) == lifts, name
        assert b.degrees == [sum(next(iter(p.terms))) for p in b.lifts], name


def _is_rref(vectors, monomials):
    # columns in reversed graded-lex order, as the invariants module keeps them
    columns = monomials[::-1]
    pivots = [next(k for k, e in enumerate(columns) if e in v.terms) for v in vectors]
    if pivots != sorted(set(pivots)):
        return False
    for i, v in enumerate(vectors):
        for j, p in enumerate(pivots):
            want = 1 if i == j else 0
            if v.terms.get(columns[p], 0) != want:
                return False
    return True


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_invariant_and_ideal_bases_are_reduced(name):
    g = load_group(name)
    for d in range(6):
        monomials = graded_monomials(g.dimension, d)
        inv = invariant_basis(g, d).vectors
        for v in inv:
            assert reynolds(g, v) == v
        assert _is_rref(inv, monomials)
        assert _is_rref(hilbert_ideal_piece(g, d).vectors, monomials)


# Oracles: the Reynolds-image definition of the invariants, and the ideal
# as the span of (R^W)_e * R_{d-e} over 0 < e <= d.


def _span_rref(group, polys, d):
    n, m = group.dimension, group.conductor
    monomials = graded_monomials(n, d)[::-1]  # reversed graded-lex columns
    zero = CycNum.zero(m)
    red, pivots = rref([[p.terms.get(e, zero) for e in monomials] for p in polys])
    return [
        MultiPoly(n, m, {e: c for e, c in zip(monomials, row) if c})
        for row in red[: len(pivots)]
    ]


def reynolds_invariants(group, d):
    n, m = group.dimension, group.conductor
    images = [reynolds(group, MultiPoly(n, m, {e: 1})) for e in graded_monomials(n, d)]
    return _span_rref(group, images, d)


def products_ideal(group, d):
    n, m = group.dimension, group.conductor
    prods = [
        inv * MultiPoly(n, m, {e: 1})
        for k in range(1, d + 1)
        for inv in reynolds_invariants(group, k)
        for e in graded_monomials(n, d - k)
    ]
    return _span_rref(group, prods, d)


def oracle_group(name):
    return parse_group_dict(G412) if name == "g412" else load_group(name)


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412"])
def test_invariant_basis_equals_reynolds_image(name):
    g = oracle_group(name)
    for d in range(7):
        assert invariant_basis(g, d).vectors == reynolds_invariants(g, d), (name, d)


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412"])
def test_hilbert_ideal_equals_span_of_invariant_products(name):
    g = oracle_group(name)
    top = sum(d - 1 for d in g.fundamental_degrees())
    for d in range(min(top, 6) + 2):
        assert hilbert_ideal_piece(g, d).vectors == products_ideal(g, d), (name, d)


def invariants_at_every_degree(group, dmax):
    """J_0 .. J_dmax, with (R^W)_d added to x_k J_(d-1) at every degree."""
    n, m = group.dimension, group.conductor
    pieces = [[]]
    for d in range(1, dmax + 1):
        shifted = [v * MultiPoly.variable(n, m, k) for v in pieces[-1] for k in range(n)]
        pieces.append(_span_rref(group, invariant_basis(group, d).vectors + shifted, d))
    return pieces


@pytest.mark.parametrize("name", list(bundled_names()) + ["g412", "scalar3"])
def test_hilbert_ideal_skips_invariants_above_the_largest_degree(name):
    g = parse_group_dict(SCALAR3) if name == "scalar3" else oracle_group(name)
    # scalar3 has no degrees, so it keeps every invariant; check it to g312's top
    top = 7 if name == "scalar3" else sum(d - 1 for d in g.fundamental_degrees())
    want = invariants_at_every_degree(g, top + 2)
    assert [hilbert_ideal_piece(g, d).vectors for d in range(top + 3)] == want


def test_invariants_come_from_the_generators_not_the_reflections():
    # scalar3 has no reflections, so each R_d would be fixed by all of them
    g = parse_group_dict(SCALAR3)
    assert g.reflections() == ()
    got = [invariant_basis(g, d).dimension for d in range(7)]
    assert got == g.molien().coefficients(6) == [1, 0, 0, 4, 0, 0, 7]


def test_hilbert_ideal_is_built_without_recursion(z2):
    x = MultiPoly.variable(1, 2, 0)
    assert hilbert_ideal_piece(z2, 2000).vectors == [x**2000]
    assert hilbert_ideal_piece(z2, 1999).vectors == [x**1999]


def test_a_missing_invariant_is_a_histogram_mismatch(monkeypatch):
    real = invariants.invariant_basis

    def drop_quadric(group, d):
        return GradedBasis(d, []) if d == 2 else real(group, d)

    monkeypatch.setattr(invariants, "invariant_basis", drop_quadric)
    with pytest.raises(HistogramMismatch, match="degree 2"):
        coinvariant_basis(load_group("s3"))


def test_coinvariant_basis_never_averages(monkeypatch):
    calls = []
    real = invariants.reynolds

    def counting(group, f):
        calls.append(f)
        return real(group, f)

    monkeypatch.setattr(invariants, "reynolds", counting)
    for name in bundled_names():
        coinvariant_basis(load_group(name))
    assert calls == []


@pytest.mark.parametrize("name", ["s3", "g312"])
def test_coinvariant_basis_eliminates_once_per_degree(name, monkeypatch):
    calls = []

    def counting(kind, real):
        def wrapped(*args):
            calls.append(kind)
            return real(*args)

        return wrapped

    monkeypatch.setattr(invariants, "nullspace", counting("nullspace", invariants.nullspace))
    monkeypatch.setattr(invariants, "rref", counting("rref", invariants.rref))
    g = load_group(name)
    degrees = g.fundamental_degrees()
    top = sum(d - 1 for d in degrees)
    coinvariant_basis(g)
    # per degree 1..top: one kernel for (R^W)_d up to the largest degree,
    # one reduction of J_d
    want = ["nullspace", "rref"] * max(degrees) + ["rref"] * (top - max(degrees))
    assert calls == want
    calls.clear()
    coinvariant_basis(g)
    assert calls == []


def test_coinvariant_histograms():
    assert coinvariant_histogram((2, 3)) == [1, 2, 2, 1]
    assert coinvariant_histogram((2, 4)) == [1, 2, 2, 2, 1]
    assert coinvariant_histogram((3, 6)) == [1, 2, 3, 3, 3, 3, 2, 1]
    # coefficient k counts the exponent tuples 0 <= a_i < d_i summing to k
    for degrees in ((), (2,), (2, 3), (3, 6), (2, 4, 6, 8), (12, 24)):
        sums = [sum(a) for a in product(*(range(d) for d in degrees))]
        assert coinvariant_histogram(degrees) == degree_histogram(sums), degrees
    for name, size in (("s3", 6), ("b2", 8), ("g312", 18)):
        g = load_group(name)
        b = coinvariant_basis(g)
        assert b.size == size
        assert b.histogram() == coinvariant_histogram(g.fundamental_degrees())


def tensor_hilbert_coefficients(degrees, nvars, dmax):
    """Coefficients of prod_i (1 + ... + t^{d_i - 1}) / (1 - t)^nvars up to
    degree dmax: the expected graded dimensions of the equivariant ring."""
    num = coinvariant_histogram(degrees)
    return [graded_count(num, nvars, d) for d in range(dmax + 1)]


def test_tensor_hilbert_coefficients():
    assert tensor_hilbert_coefficients((2,), 1, 4) == [1, 2, 2, 2, 2]
    assert tensor_hilbert_coefficients((3,), 1, 3) == [1, 2, 3, 3]
    assert tensor_hilbert_coefficients((4,), 1, 4) == [1, 2, 3, 4, 4]
    assert tensor_hilbert_coefficients((2, 3), 2, 4) == [1, 4, 9, 15, 21]
    assert tensor_hilbert_coefficients((2, 4), 2, 4) == [1, 4, 9, 16, 24]
    assert tensor_hilbert_coefficients((3, 6), 2, 4) == [1, 4, 10, 19, 31]
    # the same count for any histogram: one generator in degree 0 over one
    # variable, then generators in degrees 0, 2, 2 over two (1, 2, 3+2, 4+2*2)
    assert [graded_count([1], 1, d) for d in range(4)] == [1, 1, 1, 1]
    assert [graded_count(degree_histogram([2, 0, 2]), 2, d) for d in range(4)] == [1, 2, 5, 8]
    assert degree_histogram([]) == [0]
    assert degree_histogram([1, 3, 1]) == [0, 2, 0, 1]
